"""Seeded random problem files through the CLI: no command may end in a
traceback or print a RuntimeWarning.

Each file holds a program with a planted KKT pair: s = Pi_K(p) and
y = p - s for a random p, over one to three zero, orthant, SOC and PSD
blocks of sizes 1-4, with G' of random rank (often deficient) and Q
positive definite or, on about half the files, semidefinite of random
rank.  Half the p are drawn from {-1, 0, 1}, which puts borderline
indices and apexes in reach.  Every file goes through `analyze`,
`sweep --grid 1:5:1` and `certify --grid 1:5:1`, in process; each must
exit 0-4, and exit 1 only with an `error:` line.  (`fit_exponent` drops
the top decade and needs four points, so a shorter grid never fits.)

    PYTHONPATH=src python tests/random_problems.py [COUNT]

prints the exit codes seen and exits 1 on the first violation.
"""

import contextlib
import io
import os
import sys
import tempfile
import traceback
import warnings

import numpy as np

from conestab import cli
from conestab.cones import Cone
from conestab.model import ConicProgram, save_problem

COMMANDS = (["analyze"], ["sweep", "--grid", "1:5:1"],
            ["certify", "--grid", "1:5:1"])


def _low_rank(rng, rows, cols, least=0):
    r = rng.integers(least, min(rows, cols) + 1)
    return rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))


def random_problem(seed):
    """A program over random blocks whose KKT system has a planted
    solution (x, y)."""
    rng = np.random.default_rng(seed)
    kinds = ("zero", "orthant", "soc", "psd")
    blocks = [(kinds[rng.integers(4)], int(rng.integers(1, 5)))
              for _ in range(rng.integers(1, 4))]
    cone = Cone(blocks)
    m = cone.dim
    n = int(rng.integers(1, min(m, 8) + 2))
    if rng.random() < 0.5:
        p = rng.integers(-1, 2, m).astype(float)
    else:
        p = rng.standard_normal(m)
    s = cone.project(p)
    y = p - s
    G = _low_rank(rng, m, n, least=1)
    R = _low_rank(rng, n, n)
    Q = R @ R.T + (np.eye(n) if rng.random() < 0.5 else 0.0)
    x = rng.standard_normal(n)
    return ConicProgram(n, Q, -(Q @ x) - G.T @ y, 0.0, s - G @ x, G.T,
                        cone, name="random-%d" % seed)


def run(argv):
    """cli.main(argv) in process: its exit code, stderr and warnings."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            rc = cli.main(argv)
        except Exception:
            rc = None
            traceback.print_exc()
    err = err.getvalue() + "".join(
        "%s: %s\n" % (w.category.__name__, w.message) for w in caught)
    return rc, err


def main(count):
    seen = {}
    with tempfile.TemporaryDirectory() as d:
        for seed in range(count):
            path = os.path.join(d, "p%d.json" % seed)
            with open(path, "w") as fh:
                fh.write(save_problem(random_problem(seed)))
            for command in COMMANDS:
                argv = command + ["--problem", path]
                rc, err = run(argv)
                bad = (rc not in range(5)
                       or (rc == cli.EXIT_INPUT
                           and "\nerror:" not in "\n" + err)
                       or "Traceback" in err or "RuntimeWarning" in err)
                if bad:
                    print("seed %d, %s: exit %s\n%s"
                          % (seed, " ".join(command), rc, err))
                    return 1
                seen[command[0], rc] = seen.get((command[0], rc), 0) + 1
    for (command, rc), k in sorted(seen.items()):
        print("%s exit %d: %d" % (command, rc, k))
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 40))
