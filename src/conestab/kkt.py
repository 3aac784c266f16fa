"""KKT residual maps and a damped semismooth Newton solver.

The natural map

    F(x, y) = (grad f(x) - a + G'(x)* y,  G(x) + b - Pi_K(G(x) + b + y))

vanishes exactly at KKT pairs of the perturbed problem, and Robinson's
normal map in (x, z) with y = z - Pi_K(z) gives the equivalent
formulation used for the solution-set identity.  The solver runs Newton
steps on F with a Levenberg-Marquardt damping of the generalized
Jacobian, which is all that desk-scale instances need.
"""

import zlib

import numpy as np

from . import linalg


class KKTPoint:
    """Primal-dual pair with its natural-map residual."""

    def __init__(self, x, y, residual, iterations=0, converged=True):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.residual = float(residual)
        self.iterations = int(iterations)
        self.converged = bool(converged)

    def __repr__(self):
        return ("KKTPoint(residual=%.3e, iterations=%d, converged=%s)"
                % (self.residual, self.iterations, self.converged))


class MultiplierSet:
    """A representative multiplier plus the local dimension of the set."""

    def __init__(self, representative, affine_dim, directions):
        self.representative = np.asarray(representative, dtype=float)
        self.affine_dim = int(affine_dim)
        self.directions = directions  # columns spanning the affine hull

    @property
    def is_singleton(self):
        return self.affine_dim == 0


def natural_map(prog, x, y, pert=None):
    """Residual of the perturbed KKT system at (x, y), stacked (X then Y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a = pert.a if pert is not None else None
    b = pert.b if pert is not None else None
    g = prog.constraint(x, b)
    stat = prog.gradient(x, a) + prog.adjoint(y, x)
    comp = g - prog.cone.project(g + y)
    return np.concatenate([stat, comp])


def natural_residual(prog, x, y, pert=None):
    return float(np.linalg.norm(natural_map(prog, x, y, pert)))


def normal_map(prog, x, z, pert=None):
    """Residual of Psi(x, z) = (a, -b); zero iff (x, z - Pi_K(z)) is KKT."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    pz = prog.cone.project(z)
    y = z - pz
    first = prog.gradient(x) + prog.adjoint(y, x)
    second = prog.constraint(x) - pz
    if pert is not None:
        first = first - pert.a
        second = second + pert.b
    return np.concatenate([first, second])


# ---------------------------------------------------------------------------
# Multiplier recovery

_AP_ITERS = 800


def _affine_project(y, basis, offset):
    """Project y onto the affine set offset + range(basis) (orthonormal)."""
    if basis.shape[1] == 0:
        return offset.copy()
    return offset + basis @ (basis.T @ (y - offset))


def recover_multipliers(prog, x, pert=None, tol=1e-8, n_starts=8, seed=0):
    """Multipliers at x for the perturbed problem, or None when there are
    none to tolerance.

    The stationarity equation G'(x)* y = a - grad f(x) is solved over the
    span of the normal-cone parametrization at G(x) + b, then membership
    in the normal cone itself is enforced by alternating projections.  A
    relative-interior representative is approximated by averaging the
    alternating-projection limits from several starts.
    """
    x = np.asarray(x, dtype=float)
    a = pert.a if pert is not None else None
    b = pert.b if pert is not None else None
    g = prog.constraint(x, b)
    if prog.cone.dist(g) > tol:
        return None
    frame = prog.cone.frame(g)
    span = frame.normal_span()
    rhs = -prog.gradient(x, a)
    Gt = prog.constraint_jac(x).T  # maps ambient -> X
    M = Gt @ span
    v0 = linalg.lstsq(M, rhs)
    if np.linalg.norm(M @ v0 - rhs) > tol * max(1.0, np.linalg.norm(rhs)):
        return None
    # affine solution set inside the span: y = span(v0 + ker M . w)
    kerM = linalg.nullspace(M)
    y0 = span @ v0
    ybasis = span @ kerM
    if ybasis.shape[1]:
        # re-orthonormalize in ambient coordinates
        qb, _ = np.linalg.qr(ybasis)
        ybasis = qb
    rng = np.random.default_rng(seed)
    hits = []
    starts = [y0]
    for _ in range(n_starts - 1):
        starts.append(y0 + ybasis @ rng.standard_normal(ybasis.shape[1])
                      if ybasis.shape[1] else y0)
    for y in starts:
        for _ in range(_AP_ITERS):
            yn = frame.normal_project(y)
            yn = _affine_project(yn, ybasis, y0)
            if np.linalg.norm(yn - y) < 1e-15:
                y = yn
                break
            y = yn
        if np.linalg.norm(y - frame.normal_project(y)) <= tol:
            hits.append(y)
    if not hits:
        return None
    rep = np.mean(hits, axis=0)
    rep = _affine_project(frame.normal_project(rep), ybasis, y0)
    if np.linalg.norm(rep - frame.normal_project(rep)) > tol:
        rep = hits[0]
    # affine dimension: nullspace directions along which the representative
    # stays in the normal cone for both signs of a small step
    h = 1e-6
    dirs = []
    for k in range(ybasis.shape[1]):
        d = ybasis[:, k]
        ok = True
        for s in (h, -h):
            yk = rep + s * d
            if np.linalg.norm(yk - frame.normal_project(yk)) > 1e-13:
                ok = False
                break
        if ok:
            dirs.append(d)
    directions = np.array(dirs).T if dirs else np.zeros((prog.cone.dim, 0))
    return MultiplierSet(rep, len(dirs), directions)


# ---------------------------------------------------------------------------
# Semismooth Newton with Levenberg-Marquardt damping


class SolveOptions:
    def __init__(self, max_iter=100, residual_target=1e-11, lm_init=1e-4):
        self.max_iter = int(max_iter)
        self.residual_target = float(residual_target)
        self.lm_init = float(lm_init)


def kkt_matrix(H, Gp, J):
    """[[H, Gp'], [(I - J) Gp, -J]]: the Jacobian of the natural map, or
    of its directional-derivative system, for the Hessian H, constraint
    Jacobian Gp and a Jacobian element J of the projection."""
    m, n = Gp.shape
    V = np.empty((n + m, n + m))
    V[:n, :n] = H
    V[:n, n:] = Gp.T
    V[n:, :n] = (np.eye(m) - J) @ Gp
    V[n:, n:] = -J
    return V


def hess_lagrangian(prog, x, y):
    """Hessian of the Lagrangian in x.  This is Q: the constraint map is
    affine, and a callback program supplies no second derivative."""
    return prog.Q.copy()


def solve_kkt(prog, pert=None, start=None, opts=None):
    """Damped semismooth Newton on the natural map.

    Returns a KKTPoint; `converged` is False when the residual target was
    not met, with the best iterate retained (failures near degenerate
    points are themselves diagnostic data).
    """
    opts = opts or SolveOptions()
    n, m = prog.n, prog.cone.dim
    b = pert.b if pert is not None else None
    if start is None:
        x = np.zeros(n)
        y = np.zeros(m)
    else:
        x = np.asarray(start.x, dtype=float).copy()
        y = np.asarray(start.y, dtype=float).copy()
    F = natural_map(prog, x, y, pert)
    res = np.linalg.norm(F)
    if not np.isfinite(res):
        # non-finite data or start: no Newton step can repair it
        return KKTPoint(x, y, res, iterations=0, converged=False)
    best = (x.copy(), y.copy(), res)
    lam = opts.lm_init
    it = 0
    rejects = 0
    # kick generator for escaping merit-function stationary points that
    # are not roots (the natural map is only piecewise smooth, so damped
    # steps can stall inside the wrong smooth piece)
    kick_rng = np.random.default_rng(zlib.crc32(prog.name.encode()) ^ 0x9e37)
    while not res <= opts.residual_target and it < opts.max_iter:
        if rejects >= 8:
            bx, by, _ = best
            kick = kick_rng.standard_normal(n + m)
            kick *= max(10.0 * best[2], 1e-3) / np.linalg.norm(kick)
            x, y = bx + kick[:n], by + kick[n:]
            F = natural_map(prog, x, y, pert)
            res = np.linalg.norm(F)
            lam = opts.lm_init
            rejects = 0
            it += 1
            continue
        J = prog.cone.proj_jacobian(prog.constraint(x, b) + y)
        V = kkt_matrix(prog.Q, prog.constraint_jac(x), J)
        A = V.T @ V + lam * np.eye(n + m)
        try:
            d = np.linalg.solve(A, -V.T @ F)
        except np.linalg.LinAlgError:
            lam *= 4.0
            rejects += 1
            it += 1
            continue
        xt, yt = x + d[:n], y + d[n:]
        Ft = natural_map(prog, xt, yt, pert)
        rt = np.linalg.norm(Ft)
        if rt < res:
            x, y, F, res = xt, yt, Ft, rt
            lam = max(lam * 0.25, 1e-14)
            rejects = 0
            if res < best[2]:
                best = (x.copy(), y.copy(), res)
        else:
            lam *= 4.0
            rejects += 1
        it += 1
    if not res <= opts.residual_target:
        x, y, res = best
        return KKTPoint(x, y, res, iterations=it, converged=False)
    return KKTPoint(x, y, res, iterations=it, converged=True)


def solve_kkt_multistart(prog, pert=None, opts=None, n_starts=32):
    """Deterministic multi-start wrapper, seeded from the problem name."""
    rng = np.random.default_rng(zlib.crc32(prog.name.encode()))
    best = None
    for k in range(n_starts):
        if k == 0:
            start = None
        else:
            start = KKTPoint(rng.standard_normal(prog.n),
                             rng.standard_normal(prog.cone.dim), 0.0)
        sol = solve_kkt(prog, pert, start, opts)
        if best is None or sol.residual < best.residual:
            best = sol
        if best.converged:
            break
    return best


def error_bound_kappa(prog, xbar, ybar, radius=1e-2, n_samples=1000, seed=0):
    """Largest observed ratio ||(x,y) - (xbar,ybar)|| / ||F(x,y)|| over
    random points within the given radius of the reference pair."""
    rng = np.random.default_rng(seed)
    xbar = np.asarray(xbar, dtype=float)
    ybar = np.asarray(ybar, dtype=float)
    n, m = prog.n, prog.cone.dim
    worst = 0.0
    for _ in range(n_samples):
        d = rng.standard_normal(n + m)
        d *= radius * rng.random() ** (1.0 / (n + m)) / np.linalg.norm(d)
        x = xbar + d[:n]
        y = ybar + d[n:]
        r = natural_residual(prog, x, y)
        dist = np.linalg.norm(d)
        if r == 0.0:
            if dist > 0:
                return np.inf
            continue
        worst = max(worst, dist / r)
    return worst
