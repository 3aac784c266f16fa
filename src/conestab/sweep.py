"""Canonical-perturbation experiments and rate fitting.

A sweep solves the problem at perturbation eps * direction over a
decreasing grid, records drift from the unperturbed reference pair, and
fits a Hoelder exponent to log(drift) against log(eps).  A fixture's
closed-form oracle (see `model.Fixture`) replaces the generic solver
where the perturbed solution is known in closed or one-dimensional form.
"""

import io
from collections import deque

import numpy as np

from . import linalg, model
from .kkt import KKTPoint, natural_residual, solve_kkt, solve_kkt_multistart

CSV_COLUMNS = ("eps", "solved", "dist_x", "dist_y", "residual", "iterations")
OBSERVABLES = ("x", "x2", "multiplier-drift", "full")

SOLVED_RESIDUAL = 1e-9


def default_grid():
    """eps = 10^(-k/2) for k = 2..12: six decades, half-decade spacing."""
    return [10.0 ** (-k / 2.0) for k in range(2, 13)]


class SweepRecord:
    def __init__(self, eps, solved, dist_x, dist_y, residual, iterations):
        self.eps = float(eps)
        self.solved = bool(solved)
        self.dist_x = float(dist_x)
        self.dist_y = float(dist_y)
        self.residual = float(residual)
        self.iterations = int(iterations)


class SweepResult:
    def __init__(self, grid, records, observable="x"):
        self.grid = list(grid)
        self.records = records
        self.observable = observable
        self.fitted_exponent = None
        self.fit_stderr = None
        self.window = None

    def usable(self):
        return [r for r in self.records
                if r.solved and r.residual <= SOLVED_RESIDUAL]

    def to_csv(self):
        buf = io.StringIO()
        buf.write(",".join(CSV_COLUMNS) + "\n")
        for r in self.records:
            buf.write("%.17g,%d,%.17g,%.17g,%.17g,%d\n"
                      % (r.eps, int(r.solved), r.dist_x, r.dist_y,
                         r.residual, r.iterations))
        return buf.getvalue()


def _kkt_pair_is_unique(prog):
    """Whether prog has one KKT pair for every canonical perturbation:
    where `ConicProgram.schur_data` is kept, G is affine and Q positive
    definite, so the primal is unique, and G' has full row rank at the
    rank rule of `ProblemCriticalCone.polar_kernel`, so G'* is injective
    and the multiplier is unique too."""
    return prog.schur_data is not None


# the degree of `_predict`'s polynomial: the number of last solved points
# that are its nodes beside the reference.  A polynomial through every
# solved point puts large weights on far nodes and costs more Newton
# iterations than the secant; the reference, at eps = 0, lies nearest each
# new point, so the cubic's weights stay small
_PREDICTOR_DEGREE = 3


def _predict(eps, reference, nodes):
    """The value at eps of the Lagrange polynomial through (0, reference)
    and each (eps_i, s_i) of nodes (distinct eps_i > 0), formed as
    reference + sum w_i (s_i - reference), w_i the weight of node i: the
    weights of all nodes sum to one, and with one node w = eps / eps_1."""
    ts = [t for t, _ in nodes]
    s = reference.copy()
    for i, (ti, si) in enumerate(nodes):
        w = eps / ti
        for j, tj in enumerate(ts):
            if j != i:
                w *= (eps - tj) / (ti - tj)
        s += w * (si - reference)
    return s


def check_observable(prog, observable):
    """Refuse, by ValueError, an observable that is not one of OBSERVABLES,
    or "x2" on a program with fewer than two variables."""
    if observable not in OBSERVABLES:
        raise ValueError("unknown observable %r; known: %s"
                         % (observable, ", ".join(OBSERVABLES)))
    if observable == "x2" and prog.n < 2:
        raise ValueError("observable 'x2' needs two variables; %r has %d"
                         % (prog.name, prog.n))


def run_sweep(prog, direction, grid=None, reference=None, observable="x",
              oracle=None):
    """Sweep eps over the grid (strictly decreasing) and measure drift.

    observable: "x" (primal distance), "x2" (second primal coordinate),
    "multiplier-drift" (dual distance), "full" (joint distance); it
    selects what dist_x/dist_y carry for exponent fitting downstream, and
    `check_observable` refuses any other name, or "x2" where n < 2.
    oracle: optional eps -> KKTPoint map used instead of the solver.

    Without an oracle each point is solved by `solve_kkt` from the last
    solved point (the reference before the first), and one that does not
    converge is retried cold by `solve_kkt_multistart`.  Where
    `_kkt_pair_is_unique` holds, the drift cannot depend on the start, and
    each point starts instead at `_predict`: the polynomial in eps through
    the reference at eps = 0 and the last `_PREDICTOR_DEGREE` solved
    points, evaluated at eps.  That is the reference at the first point
    and the secant (x, y) + (eps / eps_p) (p - (x, y)) after one solved
    point p at eps_p; an unsolved point is never a node.
    """
    check_observable(prog, observable)
    grid = list(grid) if grid is not None else default_grid()
    if not all(0 < e <= 1 for e in grid):  # False on NaN
        raise ValueError("grid values must lie in (0, 1]")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly decreasing")
    if reference is None:
        raise ValueError("a reference KKT point is required")
    xb, yb = reference.x, reference.y
    predict = oracle is None and _kkt_pair_is_unique(prog)
    sb = np.concatenate([xb, yb])
    records = []
    prev, nodes = reference, deque(maxlen=_PREDICTOR_DEGREE)
    for eps in grid:
        pert = direction.scaled(eps)
        if oracle is not None:
            pt = oracle(eps)
            res = natural_residual(prog, pt.x, pt.y, pert)
            pt = KKTPoint(pt.x, pt.y, res, iterations=pt.iterations,
                          converged=res <= SOLVED_RESIDUAL)
        else:
            start = prev
            if predict:
                s = _predict(eps, sb, nodes)
                start = KKTPoint(s[:prog.n], s[prog.n:], 0.0)
            pt = solve_kkt(prog, pert, start=start)
            if not pt.converged:
                # warm starts can strand the damped Newton iteration in the
                # wrong smooth piece of the natural map; retry cold
                alt = solve_kkt_multistart(prog, pert)
                if alt.residual < pt.residual:
                    pt = alt
        solved = pt.converged and pt.residual <= SOLVED_RESIDUAL
        if solved:
            prev = pt
            nodes.append((eps, np.concatenate([pt.x, pt.y])))
        if observable == "x2":
            dx = abs(pt.x[1] - xb[1])
        elif observable == "full":
            dx = np.sqrt(((pt.x - xb) ** 2).sum() + ((pt.y - yb) ** 2).sum())
        else:
            dx = linalg.norm(pt.x - xb)
        dy = linalg.norm(pt.y - yb)
        records.append(SweepRecord(eps, solved, dx, dy, pt.residual,
                                   pt.iterations))
    return SweepResult(grid, records, observable=observable)


def fit_exponent(result):
    """Least-squares slope of log(drift) vs log(eps).

    The drift column is "dist_y" for multiplier-drift sweeps and "dist_x"
    otherwise.  The fit window drops the largest decade of eps to
    suppress pre-asymptotic bias.  Returns (slope, stderr) and stores
    them on the result.
    """
    column = "dist_y" if result.observable == "multiplier-drift" \
        else "dist_x"
    usable = result.usable()
    if usable:
        top = max(r.eps for r in usable)
        window = [r for r in usable if r.eps <= top / 10.0 * (1 + 1e-12)]
    else:
        window = usable
    window = [r for r in window if getattr(r, column) > 0]
    if len(window) < 4:
        raise ValueError("need at least 4 usable records, have %d"
                         % len(window))
    lx = np.log([r.eps for r in window])
    ly = np.log([getattr(r, column) for r in window])
    A = np.column_stack([lx, np.ones_like(lx)])
    coef, _, _, _ = np.linalg.lstsq(A, ly, rcond=None)
    slope = float(coef[0])
    fit = A @ coef
    dof = max(len(window) - 2, 1)
    s2 = float(np.sum((ly - fit) ** 2)) / dof
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    stderr = float(np.sqrt(s2 / sxx)) if sxx > 0 else np.inf
    result.fitted_exponent = slope
    result.fit_stderr = stderr
    result.window = (min(r.eps for r in window), max(r.eps for r in window))
    return slope, stderr


def builtin_sweep(name, grid=None, observable=None):
    """Run the canonical sweep of a builtin fixture from its reference
    pair, along its direction, with its oracle where it has one."""
    fx = model.fixture(name)
    return run_sweep(fx.prog, fx.direction, grid=grid,
                     reference=KKTPoint(*fx.reference, 0.0),
                     observable=observable or fx.observable, oracle=fx.oracle)
