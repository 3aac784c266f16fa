"""KKT residual maps and a damped semismooth Newton solver.

The natural map

    F(x, y) = (grad f(x) - a + G'(x)* y,  G(x) + b - Pi_K(G(x) + b + y))

vanishes exactly at KKT pairs of the perturbed problem.  The solver
tries the semismooth Newton step V d = -F first at each point, V an
element of the generalized Jacobian read from the eigendecompositions
that F's projection took there, and damps it in the Levenberg-Marquardt
way only where that step fails, which is all that desk-scale instances
need.  Where G is affine, Q positive definite and G' onto, the Newton
step factors the m × m Schur complement S = J + (I - J) G' Q^-1 G'ᵀ (the
range-space method, Nocedal and Wright, Numerical Optimization, 16.2),
and V, of order n + m, is formed only where that step fails; elsewhere
the step factors V.
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


def natural_map(prog, x, y, pert=None, g=None, eigs=None):
    """Residual of the perturbed KKT system at (x, y), stacked (X then Y).
    `g` is `prog.constraint(x, b)` and `eigs` the cone's `Cone.eigs` at
    g + y, each computed when not given."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    a = pert.a if pert is not None else None
    if g is None:
        g = prog.constraint(x, pert.b if pert is not None else None)
    stat = prog.gradient(x, a) + prog.adjoint(y, x)
    comp = g - prog.cone.project(g + y, eigs)
    return np.concatenate([stat, comp])


def natural_residual(prog, x, y, pert=None):
    return float(np.linalg.norm(natural_map(prog, x, y, pert)))


# ---------------------------------------------------------------------------
# Multiplier recovery

_AP_ITERS = 800
_MULT_TOL = 1e-8
# slack of the closed-form line test, relative to max(1, ||y0||): round-off
# can put the one point where a line touches N just outside it
_LINE_SLACK = 1e-12
# least relint margin, relative to max(1, ||y_c||), of the interior candidate
_RELINT_SLACK = 1e-10


def _affine_project(y, basis, offset):
    """Project y onto the affine set offset + range(basis) (orthonormal)."""
    return offset + basis @ (basis.T @ (y - offset))


def _in_cone(project, y):
    return np.linalg.norm(y - project(y)) <= _MULT_TOL


def _inner_point(lo, hi, width):
    """A point inside the interval (lo, hi): its midpoint when bounded,
    max(width, |end|) inside its one finite end, else 0."""
    if np.isfinite(lo) and np.isfinite(hi):
        return (lo + hi) / 2
    if np.isfinite(lo):
        return lo + max(width, abs(lo))
    if np.isfinite(hi):
        return hi - max(width, abs(hi))
    return 0.0


def _line_interval(t0, t1, u0, u1):
    """{s | t0 + s t1 >= ||u0 + s u1||} as (lo, hi), or None when empty.

    The set is convex, so it is one interval, and its ends are zeros of
    t(s) or of t(s)^2 - ||u(s)||^2 = a s^2 + 2 b s + c.  Between two
    consecutive zeros the condition has one value, tested at one point."""
    a, b, c = t1 * t1 - u1 @ u1, t0 * t1 - u0 @ u1, t0 * t0 - u0 @ u0
    cuts = [-t0 / t1] if t1 != 0 else []
    if a != 0 and b * b >= a * c:
        q = -(b + np.copysign(np.sqrt(b * b - a * c), b))
        cuts += [q / a, c / q] if q != 0 else [0.0]
    elif a == 0 and b != 0:
        cuts.append(-c / (2.0 * b))
    cuts = sorted(cuts)
    pieces = [(p, p) for p in cuts] + list(zip([-np.inf] + cuts,
                                               cuts + [np.inf]))
    hit = []
    for lo, hi in pieces:
        s = _inner_point(lo, hi, 1.0)
        if t0 + s * t1 >= np.linalg.norm(u0 + s * u1):
            hit.append((lo, hi))
    if not hit:
        return None
    return min(p[0] for p in hit), max(p[1] for p in hit)


def line_span(rows, y0, v):
    """The interval (lo, hi) of the s with y0 + s v in C°, for C° given by
    its Lorentz rows (as `ConeFrame.polar_rows`), each widened by a slack;
    lo > hi when it is empty, (inf, -inf) when one row's interval is."""
    scale = max(1.0, np.linalg.norm(y0))
    lo, hi = -np.inf, np.inf
    for s, L in rows:
        r0, r1 = L @ y0[s], L @ v[s]
        iv = _line_interval(r0[0] + _LINE_SLACK * scale, r1[0], r0[1:],
                            r1[1:])
        if iv is None:
            return np.inf, -np.inf
        lo, hi = max(lo, iv[0]), min(hi, iv[1])
    return lo, hi


def _line_point(project, y0, v, span):
    """A relative-interior point of (y0 + R v) ∩ K in closed form:
    `_inner_point` picks s in the non-empty `line_span` span with a width
    of max(1, ||y0||).  None when y0 + s v fails the membership test of
    `project`."""
    y = y0 + _inner_point(*span, max(1.0, np.linalg.norm(y0))) * v
    return y if _in_cone(project, y) else None


def _projection_search(project, y0, basis):
    """A point of (y0 + range basis) ∩ K by alternating projections, or
    None when the run from y0 does not converge into K.  Its limit p is
    moved off the boundary by one more run from p + b and from p - b for
    each column b of basis: the mean of p and the limits in K,
    re-projected, lies in the relative interior when they spread over the
    set, else p is kept.  A run stops when its step falls to round-off,
    1e-14 max(1, ||y||): a limit is reached only to that, and below it the
    iterates can cycle for every step."""
    def run(y):
        for _ in range(_AP_ITERS):
            yn = _affine_project(project(y), basis, y0)
            if np.linalg.norm(yn - y) <= 1e-14 * max(1.0, np.linalg.norm(y)):
                return yn
            y = yn
        return y

    p = run(y0)
    if not _in_cone(project, p):
        return None
    hits = [p] + [y for b in basis.T for y in (run(p + b), run(p - b))
                  if _in_cone(project, y)]
    rep = np.mean(hits, axis=0)
    rep = _affine_project(project(rep), basis, y0)
    return rep if _in_cone(project, rep) else p


def affine_cone_point(frame, project, y0, basis):
    """A point of y0 + range(basis) (orthonormal columns in span N_K(A) at
    `frame`) in C° of the frame, with projection `project`, or None when
    there is none to tolerance.  A point is tested directly.  Else y_c,
    the point of the set nearest to -max(1, ||y0||) c / ||c|| for c the
    frame's `relint_point`, is taken when its `relint_margin` puts it in
    ri C°: the set then meets ri C° (Robinson, 1976), and its affine hull
    is all of it.  Else a line is decided from the frame's `polar_rows`
    (None, with no search, when their `line_span` is empty), and a plane,
    or a line without closed form, by `_projection_search`."""
    if basis.shape[1] == 0:
        return y0 if _in_cone(project, y0) else None
    c = frame.relint_point()
    nc = np.linalg.norm(c)
    y = y0 if nc == 0 else _affine_project(
        -max(1.0, np.linalg.norm(y0)) / nc * c, basis, y0)
    if frame.relint_margin(-y) > _RELINT_SLACK * max(1.0, np.linalg.norm(y)) \
            and _in_cone(project, y):
        return y
    rows = frame.polar_rows() if basis.shape[1] == 1 else None
    if rows is not None:
        span = line_span(rows, y0, basis[:, 0])
        if span[0] > span[1]:
            return None
        y = _line_point(project, y0, basis[:, 0], span)
        if y is not None:
            return y
    return _projection_search(project, y0, basis)


def _hull_directions(cone, a, rep, ybasis):
    """Orthonormal directions of the multiplier set's affine hull, given a
    representative rep in its relative interior: range(ybasis) ∩ the span
    of the face of N_K(a) holding rep, read at the frame of a + rep."""
    if ybasis.shape[1] == 0:
        return ybasis
    F = cone.frame(a + rep).normal_face_span()
    return ybasis @ linalg.nullspace(ybasis - F @ (F.T @ ybasis))


def polar_kernel(span, Gmat):
    """Orthonormal basis of ker(G'*) ∩ range(span), as span null(G'* span);
    the columns of span (a `ConeFrame.normal_span`) are orthonormal."""
    return span @ linalg.nullspace(Gmat.T @ span, tol=1e-12)


def recover_multipliers(prog, x, tc=None):
    """Multipliers at x, or None when there are none to tolerance.

    The stationarity equation G'(x)* y = -grad f(x) is solved over the
    span of N_K(a) at a = Pi_K(G(x)), which leaves the affine set
    y0 + range(ybasis), ybasis = ker G'* ∩ span N_K(a) (`polar_kernel`,
    SRCQ's subspace); the multipliers are its points in N_K(a), the polar
    of the critical cone at the frame of a, which `affine_cone_point`
    finds, at its interior candidate when it can.  The affine dimension
    is that of `_hull_directions`.

    tc, when given, is the tangent cone at x (a
    `conditions.ProblemCriticalCone` at y = 0, as `assemble_report`
    holds): its frame at G(x), which lies within _MULT_TOL of a, its G'
    and its `polar_kernel` are read in place of a frame at a and the
    ybasis built here.
    """
    x = np.asarray(x, dtype=float)
    g = prog.constraint(x)
    a = prog.cone.project(g)
    if np.linalg.norm(g - a) > _MULT_TOL:
        return None
    if tc is None:
        frame, Gmat = prog.cone.frame(a), prog.constraint_jac(x)
    else:
        frame, Gmat = tc.frame, tc.Gmat
    span = frame.normal_span()
    rhs = -prog.gradient(x)
    M = Gmat.T @ span
    v0 = linalg.lstsq(M, rhs)
    if np.linalg.norm(M @ v0 - rhs) > \
            _MULT_TOL * max(1.0, np.linalg.norm(rhs)):
        return None
    # affine solution set inside the span: y = span(v0 + ker M . w)
    ybasis = polar_kernel(span, Gmat) if tc is None else tc.polar_kernel
    rep = affine_cone_point(frame, frame.normal_project, span @ v0, ybasis)
    if rep is None:
        return None
    directions = _hull_directions(prog.cone, a, rep, ybasis)
    return MultiplierSet(rep, directions.shape[1], directions)


# ---------------------------------------------------------------------------
# Semismooth Newton, with Levenberg-Marquardt damping where it fails

# bound on the cosine of F with each column of V at a stationary point
_GTOL = 1e-6


class SolveOptions:
    def __init__(self, max_iter=100, residual_target=1e-11):
        self.max_iter = int(max_iter)
        self.residual_target = float(residual_target)


def kkt_matrix(H, Gp, J):
    """[[H, Gp'], [(I - J) Gp, -J]]: the Jacobian of the natural map, or
    of its directional-derivative system, for the Hessian H, constraint
    Jacobian Gp and a Jacobian element J of the projection."""
    m, n = Gp.shape
    V = np.empty((n + m, n + m))
    V[:n, :n] = H
    V[:n, n:] = Gp.T
    V[n:, :n] = _identity_minus(J) @ Gp
    np.negative(J, out=V[n:, n:])
    return V


def _identity_minus(J):
    """I - J with no identity built: the same bits."""
    IJ = 0.0 - J
    IJ.flat[::len(J) + 1] += 1.0
    return IJ


def _finite_solve(A, r):
    """The solution d of A d = r, or None when A is singular to working
    precision or d is not finite."""
    try:
        d = np.linalg.solve(A, r)
    except np.linalg.LinAlgError:
        return None
    return d if np.isfinite(d).all() else None


def _schur_step(schur, J, F):
    """The Newton step V d = -F from the Schur complement of Q: S dy =
    F2 - (I - J) G' Q^-1 F1 with S = J + (I - J) W, W = G' Q^-1 G'ᵀ, then
    dx = -Q^-1 (F1 + G'ᵀ dy).  `schur` is `ConicProgram.schur_data` or
    the same three matrices; det V = det Q det(-S), so S is singular
    exactly where V is.  None when S is singular to working precision or
    d is not finite."""
    Qinv, QiGt, W = schur
    n = len(Qinv)
    F1 = F[:n]
    # an overflow leaves inf or NaN, which the finiteness tests reject
    with np.errstate(over="ignore", invalid="ignore"):
        IJ = _identity_minus(J)
        S = IJ @ W
        S += J
        dy = _finite_solve(S, F[n:] - IJ @ (QiGt.T @ F1))
        if dy is None:
            return None
        d = np.concatenate([-(Qinv @ F1 + QiGt @ dy), dy])
    return d if np.isfinite(d).all() else None


def _residual(F):
    """||F||, inf when its square overflows: the solver's isfinite and
    descent tests read that inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        return linalg.norm(F)


def _stationary(system, res):
    """More's gradient test on the damped system (V'V, -V'F), res = ||F||:
    |V_j'F| <= _GTOL ||V_j|| ||F|| at each nonzero column, all finite."""
    g, cn = system[1], np.sqrt(np.diag(system[0]))
    if not (np.isfinite(g).all() and np.isfinite(cn).all()):
        return False
    live = cn > 0
    return np.max(np.abs(g[live]) / cn[live], initial=0.0) <= _GTOL * res


def solve_kkt(prog, pert=None, start=None, opts=None):
    """Semismooth Newton on the natural map, damped where it fails.

    The Jacobian element J of the projection is formed once per point,
    from the eigendecompositions the natural map took there, and with it
    V = `kkt_matrix`(Q, G', J), an element of the natural map's
    generalized Jacobian.  The first trial at each point is the undamped
    step V d = -F: where the program has `schur_data` (G affine, Q
    positive definite, G' onto) it is `_schur_step`, one LU of the m × m
    Schur complement S, and V is formed only when that step fails;
    elsewhere it is one LU of V, of order n + m.  When the step is
    singular, not finite or does not lower the residual, the
    Levenberg-Marquardt system (V'V + lam I) d = -V'F is formed at that
    point; a rejected damped step changes only lam, x4, and an accepted
    step, Newton or damped, takes lam to max(lam / 4, 1e-14).  A failed
    Newton trial counts as an iteration and leaves lam as it is.  A step
    that is not finite is rejected without evaluating F there.

    A step is accepted only when it lowers the residual, so the last
    iterate is the best one.  The natural map is only piecewise smooth,
    and damped steps can stall inside the wrong smooth piece: a point
    where the damped system is formed and F is stationary for ||F||^2
    (`_stationary`), or eight rejected damped steps in a row at a kink,
    end the run, and the caller restarts it (`solve_kkt_multistart`, the
    sweep's cold retry).

    Returns a KKTPoint at the last iterate; `converged` is False when the
    residual target was not met (failures near degenerate points are
    themselves diagnostic data).
    """
    opts = opts or SolveOptions()
    cone, n, m = prog.cone, prog.n, prog.cone.dim
    b = pert.b if pert is not None else None

    def evaluate(x, y):
        """F(x, y), ||F||, z = G(x) + b + y and the eigendecompositions of
        z that F's projection and the Jacobian element read."""
        g = prog.constraint(x, b)
        z = g + y
        eigs = cone.eigs(z)
        F = natural_map(prog, x, y, pert, g, eigs)
        return F, _residual(F), z, eigs

    if start is None:
        x, y = np.zeros(n), np.zeros(m)
    else:
        x, y = np.array(start.x, dtype=float), np.array(start.y, dtype=float)
    F, res, z, eigs = evaluate(x, y)
    if not np.isfinite(res):
        # non-finite data or start: no Newton step can repair it
        return KKTPoint(x, y, res, iterations=0, converged=False)
    lam = 1e-4
    it = rejects = 0
    schur = prog.schur_data
    # at (x, y): J, V, then (V'V, -V'F) once Newton fails
    J = V = system = None
    while not res <= opts.residual_target and it < opts.max_iter \
            and rejects < 8:
        if J is None:
            J = cone.proj_jacobian(z, eigs)
            if schur is None:
                V = kkt_matrix(prog.Q, prog.constraint_jac(x), J)
                d = _finite_solve(V, -F)
            else:
                d = _schur_step(schur, J, F)
        else:
            A = system[0].copy()
            A.flat[::n + m + 1] += lam
            d = _finite_solve(A, system[1])
        it += 1
        rt = np.inf
        if d is not None:
            xt, yt = x + d[:n], y + d[n:]
            Ft, rt, zt, eigst = evaluate(xt, yt)
        if rt < res:
            x, y, F, res, z, eigs = xt, yt, Ft, rt, zt, eigst
            J = V = system = None
            lam = max(lam * 0.25, 1e-14)
            rejects = 0
        elif system is None:
            if V is None:
                V = kkt_matrix(prog.Q, prog.constraint_jac(x), J)
            # an overflow leaves inf or NaN, which `_finite_solve` rejects
            with np.errstate(over="ignore", invalid="ignore"):
                system = (V.T @ V, -V.T @ F)
                if _stationary(system, res):
                    break
        else:
            lam *= 4.0
            rejects += 1
    return KKTPoint(x, y, res, iterations=it,
                    converged=res <= opts.residual_target)


def solve_kkt_multistart(prog, pert=None):
    """Deterministic multi-start wrapper, seeded from the problem name: up
    to 32 starts, stopping at the first that converges."""
    rng = best = None
    for k in range(32):
        if k == 0:
            start = None
        else:
            rng = rng or np.random.default_rng(zlib.crc32(prog.name.encode()))
            start = KKTPoint(rng.standard_normal(prog.n),
                             rng.standard_normal(prog.cone.dim), 0.0)
        sol = solve_kkt(prog, pert, start)
        if best is None or sol.residual < best.residual:
            best = sol
        if best.converged:
            break
    return best

