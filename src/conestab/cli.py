"""Command-line surface: solve, analyze, sweep, certify, list-builtins.

Exit codes: 0 success/agreement, 1 input error, 2 solver failure,
3 inconclusive verdict, 4 theory-measurement conflict.
"""

import argparse
import json
import math
import os
import stat
import sys

import numpy as np

from . import conditions, kkt, model, sweep

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_INCONCLUSIVE = 3
EXIT_CONFLICT = 4

SLOPE_CUTOFF = 0.95


class InputError(Exception):
    pass


class SolverFailure(Exception):
    pass


def _sanitize(obj):
    """Make a structure JSON-serializable with finite numbers only."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isfinite(f):
            return f
        return "inf" if f > 0 else ("-inf" if f < 0 else "nan")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _cannot_write(path, exc):
    return InputError("cannot write %s: %s" % (path, exc.strerror))


def _write(path, text):
    """Write text to path in place, with `open(path, "w")`'s encoding and
    newlines but without its truncate on open: an existing regular file
    is overwritten and then cut to the new length, which keeps its inode
    and mode.  A special file such as /dev/null, or a pipe, cannot be
    cut and is only written.  The write is not atomic."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:
        raise _cannot_write(path, exc)


def _check_writable(path):
    """Refuse an output path that cannot be opened for writing, with
    `_write`'s message, before any work starts.  Appending nothing leaves
    an existing file as it is, and a file the check creates is removed."""
    if path is not None:
        existed = os.path.lexists(path)
        try:
            open(path, "a").close()
        except OSError as exc:
            raise _cannot_write(path, exc)
        if not existed:
            os.remove(path)


def _dump_json(data, path):
    text = json.dumps(_sanitize(data), indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        _write(path, text + "\n")


def _load_fixture(args):
    """The builtin's fixture, or a bare fixture around a problem file (a
    file's name never selects a builtin's data)."""
    if args.builtin is not None:
        try:
            return model.fixture(args.builtin)
        except KeyError as exc:
            raise InputError(str(exc))
    try:
        return model.Fixture(model.load_problem_file(args.problem))
    except FileNotFoundError:
        raise InputError("problem file not found: %s" % args.problem)
    except OSError as exc:
        raise InputError("cannot read problem file %s: %s"
                         % (args.problem, exc.strerror))
    except model.ProblemFormatError as exc:
        raise InputError("bad problem file: %s" % exc)


# the most points a --grid spec may give; the default grid has 11
_MAX_GRID_POINTS = 100


def _parse_grid(spec):
    """'a:b:step' in decades: eps = 10^-d for d = a, a+step, ..., b, at
    most _MAX_GRID_POINTS of them, distinct and above 0."""
    if spec is None:
        return None
    try:
        a, b, step = (float(p) for p in spec.split(":"))
    except ValueError:
        raise InputError("grid spec must be 'a:b:step-decades', got %r"
                         % spec)
    if not (0 <= a <= b < np.inf and 0 < step < np.inf):  # False on NaN
        raise InputError("grid spec needs finite 0 <= a <= b and step > 0, "
                         "got %r" % spec)
    ds = []
    d = a
    while d <= b + 1e-12 and len(ds) <= _MAX_GRID_POINTS:
        ds.append(d)
        d += step
    if len(ds) > _MAX_GRID_POINTS:
        raise InputError("grid spec %r gives more than %d points"
                         % (spec, _MAX_GRID_POINTS))
    grid = [10.0 ** (-d) for d in ds]
    # strictly decreasing down to a last eps above 0
    if not all(e > f for e, f in zip(grid, grid[1:] + [0.0])):
        raise InputError("grid spec %r gives eps values that underflow to "
                         "0 or repeat" % spec)
    return grid


def _reference(fx):
    """The fixture's KKT pair, or a multi-start solve when it has none."""
    if fx.reference is not None:
        x, y = fx.reference
        return kkt.KKTPoint(x, y, kkt.natural_residual(fx.prog, x, y))
    pt = kkt.solve_kkt_multistart(fx.prog)
    if not pt.converged:
        raise SolverFailure("solver failed to locate a KKT point")
    return pt


def _observable(args, fx):
    """The sweep's observable, refused as input before any solve."""
    observable = args.observable or fx.observable
    try:
        sweep.check_observable(fx.prog, observable)
    except ValueError as exc:
        raise InputError(str(exc))
    return observable


def _sweep_fit(args, fx, ref, observable):
    """Sweep the fixture along its direction from ref and fit the drift
    exponent.  Returns the result and why the fit failed, or None."""
    result = sweep.run_sweep(fx.prog, fx.direction,
                             grid=_parse_grid(args.grid), reference=ref,
                             observable=observable, oracle=fx.oracle)
    solved = sum(1 for r in result.records if r.solved)
    if solved < 4:
        return result, ("only %d/%d grid points solved; no fit"
                        % (solved, len(result.records)))
    try:
        sweep.fit_exponent(result)
    except ValueError as exc:
        return result, "no exponent fit: %s" % exc
    return result, None


def cmd_solve(args):
    _check_writable(args.out)
    prog = _load_fixture(args).prog
    pt = kkt.solve_kkt_multistart(prog)
    print("problem: %s" % prog.name)
    print("x = %s" % np.array2string(pt.x, precision=12))
    print("y = %s" % np.array2string(pt.y, precision=12))
    print("residual = %.6e  iterations = %d  converged = %s"
          % (pt.residual, pt.iterations, pt.converged))
    if args.out:
        _dump_json({"problem": prog.name, "x": pt.x, "y": pt.y,
                    "residual": pt.residual, "iterations": pt.iterations,
                    "converged": pt.converged}, args.out)
    return EXIT_OK if pt.converged else EXIT_SOLVER


def _status_mark(v):
    return {"holds": "holds", "fails": "FAILS",
            "inconclusive": "inconclusive"}[v.status]


def cmd_analyze(args):
    _check_writable(args.report)
    fx = _load_fixture(args)
    ref = _reference(fx)
    report = conditions.assemble_report(fx.prog, ref.x, ref.y, seed=args.seed)
    verdict = report.theorem_verdict
    print("problem: %s" % fx.prog.name)
    print("ROBUST ISOLATED CALMNESS: %s (SRCQ %s, SOSC %s)"
          % (verdict.upper(), _status_mark(report.srcq),
             _status_mark(report.sosc)))
    print("rcq: %s (margin %.3e)" % (_status_mark(report.rcq),
                                     report.rcq.margin))
    print("nondegeneracy: %s" % _status_mark(report.nondegeneracy))
    print("affine-hull probe: %s (margin %.3e)"
          % (_status_mark(report.affine_hull_probe),
             report.affine_hull_probe.margin))
    kp = report.kernel_probe
    # a hold (nonsingular or empty pieces) reports its least piece
    # margin, not a residual
    print("kernel probe: %s (%s %.3e)"
          % (kp["status"], "piece margin" if kp["status"] == conditions.HOLDS
             else "min residual", kp["min_residual"]))
    if report.multiplier_affine_dim is not None:
        print("multiplier set: affine dim %d%s"
              % (report.multiplier_affine_dim,
                 " (singleton)" if report.multiplier_singleton else ""))
    if report.inconsistencies:
        print("INTERNAL INCONSISTENCIES: %s"
              % "; ".join(report.inconsistencies))
    if report.consistency_flag is False:
        print("INCONSISTENT: kernel probe %s, robust isolated calmness %s"
              % (kp["status"], verdict))
    if args.report:
        _dump_json(report.to_dict(), args.report)
    # the verdict is inconclusive only where SRCQ or SOSC is
    statuses = (report.rcq.status, report.srcq.status, report.sosc.status,
                kp["status"])
    return EXIT_INCONCLUSIVE if conditions.INCONCLUSIVE in statuses \
        else EXIT_OK


def cmd_sweep(args):
    _check_writable(args.out)
    fx = _load_fixture(args)
    observable = _observable(args, fx)
    result, failure = _sweep_fit(args, fx, _reference(fx), observable)
    csv = result.to_csv()
    if args.out:
        _write(args.out, csv)
    else:
        print(csv, end="")
    if failure is not None:
        print(failure, file=sys.stderr)
        return EXIT_SOLVER
    print("fitted exponent %.4f +- %.4f over window [%.3e, %.3e]"
          % (result.fitted_exponent, result.fit_stderr, result.window[0],
             result.window[1]))
    return EXIT_OK


def cmd_certify(args):
    """Analyze and sweep, then check that theory and measurement agree:
    the verdict holds iff the measured drift exponent reaches ~1."""
    fx = _load_fixture(args)
    observable = _observable(args, fx)
    ref = _reference(fx)
    report = conditions.assemble_report(fx.prog, ref.x, ref.y, seed=args.seed)
    verdict = report.theorem_verdict
    if verdict == conditions.INCONCLUSIVE:
        print("verdict inconclusive; nothing to certify")
        return EXIT_INCONCLUSIVE
    result, failure = _sweep_fit(args, fx, ref, observable)
    if failure is not None:
        print(failure, file=sys.stderr)
        return EXIT_SOLVER
    slope = result.fitted_exponent
    lipschitz = slope >= SLOPE_CUTOFF
    print("verdict: %s; measured exponent %.4f (cutoff %.2f)"
          % (verdict, slope, SLOPE_CUTOFF))
    agree = (verdict == conditions.HOLDS) == lipschitz
    if agree:
        print("theory and measurement agree")
        return EXIT_OK
    print("theory and measurement CONFLICT", file=sys.stderr)
    return EXIT_CONFLICT


def cmd_list_builtins(args):
    for name in model.BUILTIN_NAMES:
        print(name)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="conestab",
        description="Stability analysis of conic programs at KKT points")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True):
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--builtin", help="built-in fixture name")
        grp.add_argument("--problem", help="path to a problem JSON file")
        if seed:
            p.add_argument("--seed", type=int, default=0,
                           help="seed for the kernel probe's search (no effect "
                                "on sweep)")

    p = sub.add_parser("solve", help="find a KKT point")
    add_common(p, seed=False)
    p.add_argument("--out", help="JSON output path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("analyze", help="verify stability conditions")
    add_common(p)
    p.add_argument("--report", help="machine-readable report path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="perturbation sweep and rate fit")
    add_common(p)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--observable",
                   choices=sweep.OBSERVABLES,
                   help="drift observable for the exponent fit")
    p.add_argument("--grid", help="'a:b:step' in decades, eps = 10^-d")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("certify",
                       help="check verdict against measured exponent")
    add_common(p)
    p.add_argument("--observable", default="full",
                   choices=sweep.OBSERVABLES,
                   help="drift observable (default full: the KKT map's "
                        "(x, y) drift that the verdict is about)")
    p.add_argument("--grid", help="'a:b:step' in decades, eps = 10^-d")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("list-builtins", help="list built-in fixtures")
    p.set_defaults(func=cmd_list_builtins)

    return parser


_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        # numpy's generators take only non-negative seeds, and a search
        # reads the seed on some inputs only: refuse it on every input
        if getattr(args, "seed", 0) < 0:
            raise InputError("--seed must be non-negative, got %d"
                             % args.seed)
        return args.func(args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except SolverFailure as exc:
        print(exc, file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
