"""The four workloads: fixed operation lists built from the seed.

Each operation is timed around `call()` only; `check()` compares the
result with the oracle afterwards.  Generated problems reach the program
as problem JSON files, exactly as a user would hand them over.

fixtures    the paper's 2x2 cases through `cli.main`, as the README runs
            them: time goes to Python-level searches (RCQ grid, SOSC
            multi-start, multiplier recovery), kernels are small.
ladder      strictly complementary instances with G = I, every verdict
            HOLDS: the kernels (sym_eig, svec/smat, dir_deriv_jac) do the
            work and the kernel probe's T(w) is constant.
degenerate  small instances with borderline indices, nonunique
            multipliers or non-isolated solutions: the nonlinear kernel
            probe, SOSC on non-subspace critical cones and the RCQ/SRCQ
            witness search run beyond fixture size.
sweep       sweep.run_sweep + fit_exponent on generated instances: the
            Newton solver with project/proj_jacobian, no checker.  The CLI
            `sweep`/`certify --problem` paths raise KeyError for any
            non-builtin problem at this commit (ROADMAP item 4), so the
            sweep is called directly, after the reference solve the CLI
            would make (kkt.solve_kkt_multistart on the loaded problem).
"""

import contextlib
import io
import json
import os
import re

import numpy as np

from conestab import cli, kkt, model, sweep

import gen
import oracle

# Ladder rungs stop at PSD order 8: at this commit a PSD(10) analyze takes
# about 5 s and PSD(12) about 9 s on one core, and a rung that slow leaves
# too few operations per run for a tail percentile.  Orders above 8 wait
# for the vectorised kernels (ROADMAP item 2).
LADDER = [
    ([("psd", 3)], [1]),
    ([("psd", 4)], [2]),
    ([("psd", 5)], [2]),
    ([("psd", 6)], [3]),
    ([("psd", 7)], [3]),
    ([("psd", 8)], [4]),
    ([("soc", 12)], [1]),
    ([("soc", 6), ("soc", 6)], [1, 0]),
    ([("orthant", 40)], [16]),
    ([("orthant", 6), ("soc", 5), ("psd", 4)], [3, 1, 2]),
    ([("orthant", 10), ("soc", 8), ("psd", 6)], [4, 1, 3]),
]

# (blocks, rank, border, g, q): ambient dimension 6..12.  These instances
# are fixed (instance seed = list index) and the workload seed goes to the
# program's --seed instead, as on fixtures: on this structure the kernel
# probe either converges in two T(w) evaluations per start or cycles for
# all 50 iterations, so one drawn instance can cost 0.3 s or 20 s and a
# pass of seed-drawn instances swings by multiples from seed to seed.
DEGENERATE = [
    # borderline indices; robust isolated calmness holds
    ([("orthant", 8)], [3], [2], "identity", "pd"),
    ([("soc", 6)], [0], [1], "identity", "pd"),
    ([("soc", 5), ("orthant", 6)], [0, 2], [1, 2], "identity", "pd"),
    ([("psd", 3)], [1], [1], "identity", "pd"),
    ([("orthant", 3), ("psd", 3)], [1, 1], [1, 1], "identity", "pd"),
    # nonunique multipliers: ker G'* meets the normal span
    ([("psd", 4)], [1], [0], "nonunique", "pd"),
    ([("orthant", 8)], [2], [0], "nonunique", "pd"),
    ([("soc", 6), ("orthant", 4)], [0, 2], [0, 0], "nonunique", "pd"),
    # non-isolated solutions: Q vanishes along a face direction
    ([("psd", 4)], [2], [0], "identity", "face-null"),
    ([("orthant", 6), ("soc", 5)], [2, 1], [0, 0], "identity", "face-null"),
    ([("orthant", 10)], [4], [1], "identity", "face-null"),
    ([("soc", 8)], [1], [0], "identity", "face-null"),
    ([("soc", 6), ("soc", 6)], [2, 0], [0, 1], "identity", "face-null"),
]

# (blocks, rank, border): strict and borderline, ambient dimension up to 85
SWEEP = [
    ([("psd", 6)], [3], [0]),
    ([("psd", 6)], [2], [1]),
    ([("psd", 8)], [4], [0]),
    ([("psd", 8)], [3], [1]),
    ([("psd", 10)], [5], [0]),
    ([("psd", 12)], [6], [0]),
    ([("soc", 8)], [1], [0]),
    ([("soc", 8)], [0], [1]),
    ([("orthant", 30)], [10], [3]),
    ([("orthant", 6), ("soc", 5), ("psd", 4)], [2, 0, 1], [1, 1, 1]),
    ([("orthant", 20), ("soc", 10), ("psd", 10)], [8, 1, 5], [0, 0, 0]),
    ([("orthant", 20), ("soc", 10), ("psd", 10)], [8, 1, 4], [2, 0, 1]),
]

_FIT = re.compile(r"fitted exponent (\S+)")


def _label(blocks):
    return "+".join("%s%d" % b for b in blocks)


class CliOp:
    """One in-process `cli.main(argv)` call; stdout is captured."""

    def __init__(self, kind, name, argv, check):
        self.kind = kind
        self.name = name
        self.argv = argv
        self._check = check

    def call(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(self.argv)
        return rc, out.getvalue()

    def check(self, result):
        return self._check(*result)


class SweepOp:
    """Load a problem file, solve for a reference KKT pair as the CLI's
    sweep does, sweep it on the full observable and fit.  The generator's
    known pair is used by the check only."""

    kind = "sweep"

    def __init__(self, name, path, direction, known):
        self.name = name
        self.path = path
        self.direction = direction
        self.known = known

    def call(self):
        with open(self.path) as fh:
            prog = model.load_problem(fh.read())
        ref = kkt.solve_kkt_multistart(prog)
        if not ref.converged:
            return ref, None
        result = sweep.run_sweep(prog, self.direction, reference=ref,
                                 observable="full")
        return ref, sweep.fit_exponent(result)[0]

    def check(self, result):
        ref, slope = result
        if not ref.converged:
            return oracle.Outcome(False, "reference solve did not converge "
                                  "(residual %.3e)" % ref.residual)
        out = oracle.check_reference(ref.x, ref.y, *self.known)
        if not out.ok:
            return out
        return oracle.check_exponent(slope, "generated")


def _analyze_check(report_path, expected, construction, affine_dim=None):
    def check(rc, _stdout):
        if rc != 0:
            return oracle.check_exit(rc)
        with open(report_path) as fh:
            report = json.load(fh)
        return oracle.check_analyze(report, expected, construction,
                                    affine_dim)
    return check


def _sweep_check(band):
    def check(rc, stdout):
        if rc != 0:
            return oracle.check_exit(rc)
        m = _FIT.search(stdout)
        return oracle.check_exponent(float(m.group(1)) if m else None, band)
    return check


def _certify_check(rc, _stdout):
    return oracle.check_exit(rc)


def fixtures(seed, workdir):
    seed_arg = ["--seed", str(seed)]
    ops = []
    for ex, verdict in sorted(oracle.FIXTURE_VERDICTS.items()):
        report = os.path.join(workdir, "report-%s.json" % ex)
        ops.append(CliOp("verdict", "analyze " + ex,
                         ["analyze", "--builtin", ex, "--report", report]
                         + seed_arg,
                         _analyze_check(report, verdict, None,
                                        oracle.FIXTURE_AFFINE_DIM.get(ex))))
    for ex, observable in (("example1", "x2"),
                           ("example3", "multiplier-drift"),
                           ("example4", None)):
        argv = ["sweep", "--builtin", ex] + seed_arg
        if observable:
            argv += ["--observable", observable]
        ops.append(CliOp("sweep", "sweep " + ex, argv, _sweep_check(ex)))
    for ex in sorted(oracle.FIXTURE_VERDICTS):
        argv = ["certify", "--builtin", ex] + seed_arg
        if ex in oracle.CERTIFY_OBSERVABLE:
            argv += ["--observable", oracle.CERTIFY_OBSERVABLE[ex]]
        ops.append(CliOp("certify", "certify " + ex, argv, _certify_check))
    return ops


def _write(workdir, i, inst):
    path = os.path.join(workdir, "problem-%02d.json" % i)
    with open(path, "w") as fh:
        fh.write(inst.to_json())
    return path


def _analyze_ops(specs, seeds, workdir, extra_argv=()):
    ops = []
    for i, ((blocks, rank, border, g, q), s) in enumerate(zip(specs, seeds)):
        inst = gen.make_instance(blocks, rank, border, g, q, seed=s)
        path = _write(workdir, i, inst)
        report = os.path.join(workdir, "report-%02d.json" % i)
        ops.append(CliOp("verdict", "analyze %s %s/%s" % (_label(blocks), g, q),
                         ["analyze", "--problem", path, "--report", report]
                         + list(extra_argv),
                         _analyze_check(report, inst.verdict, (g, q))))
    return ops


def ladder(seed, workdir):
    specs = [(b, r, None, "identity", "pd") for b, r in LADDER]
    return _analyze_ops(specs, [seed * 1000 + i for i in range(len(specs))],
                        workdir)


def degenerate(seed, workdir):
    return _analyze_ops(DEGENERATE, range(len(DEGENERATE)), workdir,
                        ["--seed", str(seed)])


def sweeps(seed, workdir):
    ops = []
    for i, (blocks, rank, border) in enumerate(SWEEP):
        inst = gen.make_instance(blocks, rank, border, seed=seed * 1000 + i)
        path = _write(workdir, i, inst)
        rng = np.random.default_rng([seed, i])
        a = rng.standard_normal(inst.prog.n)
        b = rng.standard_normal(inst.prog.cone.dim)
        scale = np.sqrt(a @ a + b @ b)
        direction = model.Perturbation(a / scale, b / scale)
        ops.append(SweepOp("sweep " + _label(blocks), path, direction,
                           (inst.x, inst.y)))
    return ops


WORKLOADS = {"fixtures": fixtures, "ladder": ladder,
             "degenerate": degenerate, "sweep": sweeps}
