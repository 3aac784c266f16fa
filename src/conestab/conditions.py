"""Constraint qualifications and second-order conditions at a KKT point.

Every "cone + subspace = whole space" condition is decided through polar
triviality: a convex cone whose closure is the whole space is the whole
space, so G'X + C = Y holds iff ker(G'*) meets the polar of C only at
zero.  That gives an exact linear-algebra fast path (the polar spans a
known subspace), a witness search when the subspace is nontrivial, and a
fullness certificate by alternating projections when no witness turns
up.  Heuristic verdicts always degrade to "inconclusive" rather than
guess.
"""

import numpy as np

from . import linalg
from .kkt import hess_lagrangian, kkt_matrix, natural_residual

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

# A candidate with cone distance below WITNESS_TOL (relative) refutes a
# condition; SOSC/kernel searches use the fails/holds thresholds below,
# reporting inconclusive in between.
WITNESS_TOL = 1e-10
SOSC_FAILS_TOL = 1e-9
SOSC_HOLDS_TOL = 1e-6
KERNEL_FOUND_TOL = 1e-10
KERNEL_ABSENT_TOL = 1e-6


class Verdict:
    def __init__(self, status, margin=0.0, witness=None, note=""):
        self.status = status
        self.margin = float(margin)
        self.witness = None if witness is None else np.asarray(witness, float)
        self.note = note

    @property
    def holds(self):
        return self.status == HOLDS

    @property
    def fails(self):
        return self.status == FAILS

    def __repr__(self):
        return "Verdict(%s, margin=%.3e)" % (self.status, self.margin)

    def to_dict(self):
        return {
            "status": self.status,
            "margin": self.margin,
            "witness": None if self.witness is None else self.witness.tolist(),
            "note": self.note,
        }


def _require_affine(prog):
    if not prog.is_affine:
        raise ValueError("condition checks require an affine constraint map; "
                         "%r carries callbacks" % prog.name)


def _subspace_intersection(U, W):
    """Orthonormal basis of range(U) ∩ range(W) (columns orthonormal)."""
    n = U.shape[0]
    if U.shape[1] == 0 or W.shape[1] == 0:
        return np.zeros((n, 0))
    stacked = np.vstack([np.eye(n) - U @ U.T, np.eye(n) - W @ W.T])
    return linalg.nullspace(stacked, tol=1e-12)


def _orth(M):
    """Orthonormal basis of range(M)."""
    if M.size == 0 or M.shape[1] == 0:
        return np.zeros((M.shape[0], 0))
    q, r = np.linalg.qr(M)
    keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, np.max(np.abs(np.diag(r))))
    return q[:, keep]


def _sphere_grid(dim, per_angle=360):
    """Deterministic points on the unit sphere of R^dim (dim <= 3)."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        t = np.linspace(0.0, 2.0 * np.pi, per_angle, endpoint=False)
        return np.column_stack([np.cos(t), np.sin(t)])
    t = np.linspace(0.0, 2.0 * np.pi, 120, endpoint=False)
    p = np.linspace(0.0, np.pi, 60)
    pts = []
    for phi in p:
        for th in t:
            pts.append([np.sin(phi) * np.cos(th),
                        np.sin(phi) * np.sin(th),
                        np.cos(phi)])
    return np.array(pts)


def _cone_element_in_subspace(basis, cone_project, rng, n_starts=50,
                              n_iter=300):
    """Search for a unit vector of range(basis) lying in the convex cone
    described by cone_project.  Returns (vector, distance) for the best
    candidate found."""
    dim = basis.shape[1]
    starts = []
    if dim <= 3:
        starts.extend(_sphere_grid(dim))
    starts.extend(rng.standard_normal((n_starts, dim)))
    best = (None, np.inf)
    for w in starts:
        nw = np.linalg.norm(w)
        if nw == 0:
            continue
        z = basis @ (w / nw)
        for _ in range(n_iter):
            zp = cone_project(z)
            zp = basis @ (basis.T @ zp)
            nz = np.linalg.norm(zp)
            if nz < 1e-13:
                z = zp
                break
            zp = zp / nz
            if np.linalg.norm(zp - z) < 1e-14:
                z = zp
                break
            z = zp
        nz = np.linalg.norm(z)
        if nz < 1e-13:
            continue
        z = z / nz
        d = np.linalg.norm(z - cone_project(z))
        if d < best[1]:
            best = (z, d)
            if d <= WITNESS_TOL:
                return best
    return best


def _sum_reaches(Gmat, cc_project, target, n_iter=500):
    """Distance from target to cl(range(Gmat) + CC) by alternating
    least-squares / cone-projection minimization."""
    Gpinv = np.linalg.pinv(Gmat)
    w = np.zeros_like(target)
    u = np.zeros(Gmat.shape[1])
    res = np.inf
    for _ in range(n_iter):
        u = Gpinv @ (target - w)
        w = cc_project(target - Gmat @ u)
        new_res = float(np.linalg.norm(Gmat @ u + w - target))
        if new_res <= 1e-13 or res - new_res < 1e-15:
            res = new_res
            break
        res = new_res
    return res


def _decide_fullness(Gmat, cc_project, polar_project, polar_span, seed,
                     label):
    """Verdict on G'X + C = Y via polar triviality.

    cc_project / polar_project are the projections onto C and C°;
    polar_span spans the smallest subspace containing C°.
    """
    m = Gmat.shape[0]
    kerGt = linalg.nullspace(Gmat.T, tol=1e-12)
    span = _orth(polar_span)
    V = _subspace_intersection(kerGt, span)
    if V.shape[1] == 0:
        return Verdict(HOLDS, margin=1.0,
                       note="%s: ker(G'*) meets the polar span trivially"
                       % label)
    rng = np.random.default_rng(seed)
    cand, dist = _cone_element_in_subspace(V, polar_project, rng)
    if cand is not None and dist <= WITNESS_TOL:
        return Verdict(FAILS, margin=dist, witness=cand,
                       note="%s: nonzero polar element in ker(G'*)" % label)
    if V.shape[1] > 3 and (cand is None or dist > WITNESS_TOL):
        fallback_note = "%s: polar search dim %d exceeds grid limit" % (
            label, V.shape[1])
    else:
        fallback_note = "%s: no polar witness found" % label
    # certify fullness: every +-e_i reachable from range(G') + C
    worst = 0.0
    for i in range(m):
        for s in (1.0, -1.0):
            e = np.zeros(m)
            e[i] = s
            worst = max(worst, _sum_reaches(Gmat, cc_project, e))
            if worst > 1e-7:
                return Verdict(INCONCLUSIVE, margin=worst, note=fallback_note)
    return Verdict(HOLDS, margin=worst,
                   note=fallback_note + "; fullness certified")


# ---------------------------------------------------------------------------
# Critical cone of the problem


class ProblemCriticalCone:
    """C(x) = {d | G'(x)d in C_K(G(x), y)}, pulled back through G'."""

    def __init__(self, prog, x, y):
        _require_affine(prog)
        self.prog = prog
        g = prog.constraint(x)
        self.frame = prog.cone.frame(g + np.asarray(y, float))
        self.Gmat = prog.constraint_jac(x)
        E = self.frame.cc_equalities()
        if E.shape[0] == 0:
            self.affine_basis = np.eye(prog.n)
        else:
            self.affine_basis = linalg.nullspace(E @ self.Gmat, tol=1e-10)
        self.is_subspace = all(self._block_subspace(f)
                               for f in self.frame.frames)

    @staticmethod
    def _block_subspace(f):
        kind = f.block.kind
        if kind == "zero":
            return True
        if kind == "orthant":
            return not np.any(f.state == 1)
        if kind == "soc":
            return f.case in ("int", "polar_int", "smooth")
        return len(f.beta) == 0

    @property
    def affine_dim(self):
        return self.affine_basis.shape[1]

    def member(self, d, tol=1e-9):
        return self.frame.cc_dist(self.Gmat @ np.asarray(d, float)) <= \
            tol * max(1.0, np.linalg.norm(d))

    def member_dist(self, d):
        return self.frame.cc_dist(self.Gmat @ np.asarray(d, float))

    def basis(self):
        """Basis of C(x) when it is a subspace (then C = its affine hull)."""
        if not self.is_subspace:
            raise ValueError("critical cone is not a subspace")
        return self.affine_basis


def problem_critical_cone(prog, x, y):
    return ProblemCriticalCone(prog, x, y)


# ---------------------------------------------------------------------------
# Constraint qualifications


def check_rcq(prog, x, seed=0):
    """G'(x)X + T_K(G(x)) = Y, decided via ker(G'*) ∩ N_K(G(x)) = {0}."""
    _require_affine(prog)
    g = prog.constraint(x)
    frame = prog.cone.frame(g)  # zero normal element: cc is the tangent cone
    return _decide_fullness(prog.constraint_jac(x), frame.cc_project,
                            frame.polar_project, frame.normal_span(), seed,
                            "rcq")


def check_srcq(prog, x, y, seed=0):
    """G'(x)X + C_K(G(x), y) = Y via ker(G'*) ∩ [C_K]° = {0}."""
    _require_affine(prog)
    g = prog.constraint(x)
    frame = prog.cone.frame(g + np.asarray(y, float))
    return _decide_fullness(prog.constraint_jac(x), frame.cc_project,
                            frame.polar_project, frame.normal_span(), seed,
                            "srcq")


def check_nondegeneracy(prog, x):
    """G'(x)X + lin T_K(G(x)) = Y: exact, ker(G'*) ∩ (lin T)^perp = {0}."""
    _require_affine(prog)
    g = prog.constraint(x)
    frame = prog.cone.frame(g)
    kerGt = linalg.nullspace(prog.constraint_jac(x).T, tol=1e-12)
    perp = _orth(frame.normal_span())
    V = _subspace_intersection(kerGt, perp)
    if V.shape[1] == 0:
        if kerGt.shape[1] == 0 or perp.shape[1] == 0:
            margin = 1.0
        else:
            s = np.linalg.svd(kerGt.T @ perp, compute_uv=False)
            margin = 1.0 - float(s[0]) if s.size else 1.0
        return Verdict(HOLDS, margin=margin)
    return Verdict(FAILS, margin=0.0, witness=V[:, 0],
                   note="ker(G'*) meets (lin T_K)^perp nontrivially")


# ---------------------------------------------------------------------------
# Second-order conditions


def _upsilon_matrix(frame, dim):
    """Matrix of the quadratic form D -> Upsilon(D) (valid on the critical
    cone, where the closed forms apply)."""
    H = np.zeros((dim, dim))
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = 1.0
        H[:, k] = 0.5 * frame.upsilon_grad(e)
    return 0.5 * (H + H.T)


def _sosc_quadratic(prog, x, y, cc):
    Ups = _upsilon_matrix(cc.frame, prog.cone.dim)
    return hess_lagrangian(prog, x, y) + cc.Gmat.T @ Ups @ cc.Gmat


def _min_on_cone_sphere(qfun, cc, seed, n_starts=200, feas_tol=1e-9):
    """Approximate minimum of qfun over {d in C : ||d|| = 1}.

    Grid certification for affine dimension <= 3, multi-start penalized
    descent above that (returned flag marks heuristic results).
    """
    Z = cc.affine_basis
    dim = Z.shape[1]
    if dim == 0:
        return np.inf, None, False
    rng = np.random.default_rng(seed)
    heuristic = dim > 3
    GZ = cc.Gmat @ Z
    GZpinv = np.linalg.pinv(GZ)
    best_val, best_d = np.inf, None

    def consider(d):
        nonlocal best_val, best_d
        val = qfun(d)
        if val < best_val:
            best_val, best_d = val, d

    # grid candidates are only membership-tested; the random starts below
    # are additionally pulled toward feasibility
    if dim <= 3:
        for w in _sphere_grid(dim):
            d = Z @ w
            if cc.member_dist(d) <= feas_tol:
                consider(d)
    for w in rng.standard_normal((n_starts, dim)):
        nw = np.linalg.norm(w)
        if nw == 0:
            continue
        d = Z @ (w / nw)
        # pull toward feasibility: project the constraint image onto the
        # critical cone and least-squares back through G'
        for _ in range(60):
            viol = cc.member_dist(d)
            if viol <= feas_tol:
                break
            d = Z @ (GZpinv @ cc.frame.cc_project(cc.Gmat @ d))
            nd = np.linalg.norm(d)
            if nd < 1e-13:
                break
            d = d / nd
        nd = np.linalg.norm(d)
        if nd < 1e-13 or cc.member_dist(d) > feas_tol:
            continue
        consider(d / nd)
    return best_val, best_d, heuristic


def check_sosc(prog, x, y, seed=0):
    """Positivity of <d, H_L d> + Upsilon(G'd) on C(x)\\{0} at multiplier y."""
    _require_affine(prog)
    cc = problem_critical_cone(prog, x, y)
    if cc.affine_dim == 0:
        return Verdict(HOLDS, margin=np.inf,
                       note="critical cone is {0}; condition is vacuous")
    M = _sosc_quadratic(prog, x, y, cc)
    if cc.is_subspace:
        Z = cc.basis()
        vals, vecs = linalg.sym_eig(Z.T @ M @ Z)
        mn = float(vals[-1])
        wit = Z @ vecs[:, -1]
        if mn <= SOSC_FAILS_TOL:
            return Verdict(FAILS, margin=mn, witness=wit,
                           note="exact subspace eigenvalue")
        if mn >= SOSC_HOLDS_TOL:
            return Verdict(HOLDS, margin=mn, note="exact subspace eigenvalue")
        return Verdict(INCONCLUSIVE, margin=mn, witness=wit,
                       note="subspace eigenvalue in the tolerance gap")
    qfun = lambda d: float(d @ M @ d)
    mn, wit, heuristic = _min_on_cone_sphere(qfun, cc, seed)
    note = "multi-start minimum (heuristic)" if heuristic else \
        "grid + descent minimum"
    if mn <= SOSC_FAILS_TOL:
        return Verdict(FAILS, margin=mn, witness=wit, note=note)
    if mn >= SOSC_HOLDS_TOL and not heuristic:
        return Verdict(HOLDS, margin=mn, note=note)
    if mn >= SOSC_HOLDS_TOL:
        return Verdict(HOLDS, margin=mn, note=note)
    return Verdict(INCONCLUSIVE, margin=mn, witness=wit, note=note)


def check_robinson_sosc(prog, x, multipliers, seed=0):
    """Eq.-(25)-style condition over a supplied finite multiplier sample:
    min over critical directions of the max over multipliers."""
    _require_affine(prog)
    mults = [np.asarray(m, float) for m in multipliers]
    if not mults:
        raise ValueError("at least one multiplier is required")
    cc = problem_critical_cone(prog, x, mults[0])
    if cc.affine_dim == 0:
        return Verdict(HOLDS, margin=np.inf,
                       note="critical cone is {0}; condition is vacuous "
                            "(relative to supplied multipliers)")
    mats = []
    for m in mults:
        frame = prog.cone.frame(prog.constraint(x) + m)
        Ups = _upsilon_matrix(frame, prog.cone.dim)
        mats.append(hess_lagrangian(prog, x, m) + cc.Gmat.T @ Ups @ cc.Gmat)
    qfun = lambda d: max(float(d @ M @ d) for M in mats)
    mn, wit, heuristic = _min_on_cone_sphere(qfun, cc, seed)
    note = "relative to %d supplied multipliers%s" % (
        len(mults), "; heuristic" if heuristic else "")
    if mn <= SOSC_FAILS_TOL:
        return Verdict(FAILS, margin=mn, witness=wit, note=note)
    if mn >= SOSC_HOLDS_TOL:
        return Verdict(HOLDS, margin=mn, note=note)
    return Verdict(INCONCLUSIVE, margin=mn, witness=wit, note=note)


def affine_hull_probe(prog, x, y):
    """Positivity of the SOSC quadratic on the affine hull of C(x).

    This is the calculation that separates the robust-isolated-calmness
    regime from strong regularity on degenerate instances: the quadratic
    can be positive on the cone yet lose definiteness on its hull.
    """
    _require_affine(prog)
    cc = problem_critical_cone(prog, x, y)
    if cc.affine_dim == 0:
        return Verdict(HOLDS, margin=np.inf, note="affine hull is {0}")
    M = _sosc_quadratic(prog, x, y, cc)
    Z = cc.affine_basis
    vals, vecs = linalg.sym_eig(Z.T @ M @ Z)
    mn = float(vals[-1])
    wit = Z @ vecs[:, -1]
    if mn > SOSC_FAILS_TOL:
        return Verdict(HOLDS, margin=mn)
    return Verdict(FAILS, margin=mn, witness=wit,
                   note="quadratic degenerates on the hull")


# ---------------------------------------------------------------------------
# Kernel probe (directional-derivative system of the natural map)


def kernel_probe(prog, x, y, n_starts=200, seed=0, extra_seeds=()):
    """Search for nonzero (dx, dy) with H_L dx + G'* dy = 0 and
    G' dx = dir_deriv(frame; G' dx + dy).

    The residual r(w) equals ||T(w) w||^2 for a piecewise-constant matrix
    family T, so each start is refined by iterating toward the smallest
    right singular vector of T(w).
    """
    _require_affine(prog)
    n, m = prog.n, prog.cone.dim
    g = prog.constraint(x)
    frame = prog.cone.frame(g + np.asarray(y, float))
    Gmat = prog.constraint_jac(x)
    H = hess_lagrangian(prog, x, y)

    def residual(w):
        dx, dy = w[:n], w[n:]
        h = Gmat @ dx + dy
        r1 = H @ dx + Gmat.T @ dy
        r2 = Gmat @ dx - frame.dir_deriv(h)
        return float(r1 @ r1 + r2 @ r2)

    rng = np.random.default_rng(seed)
    starts = [np.asarray(s, float) for s in extra_seeds]
    starts.extend(rng.standard_normal(n + m) for _ in range(n_starts))
    best_val, best_w = np.inf, None
    for w in starts:
        nw = np.linalg.norm(w)
        if nw == 0:
            continue
        w = w / nw
        for _ in range(50):
            T = kkt_matrix(H, Gmat, frame.dir_deriv_jac(
                Gmat @ w[:n] + w[n:]))
            _, _, Vt = np.linalg.svd(T)
            wn = Vt[-1]
            if np.linalg.norm(wn - w) < 1e-14 or \
               np.linalg.norm(wn + w) < 1e-14:
                w = wn
                break
            w = wn
        val = residual(w)
        if val < best_val:
            best_val, best_w = val, w
        if best_val <= KERNEL_FOUND_TOL:
            break
    return {"min_residual": best_val, "witness": best_w}


def kernel_probe_verdict(probe):
    r = probe["min_residual"]
    if r <= KERNEL_FOUND_TOL:
        return Verdict(FAILS, margin=r, witness=probe["witness"],
                       note="nonzero kernel direction found")
    if r >= KERNEL_ABSENT_TOL:
        return Verdict(HOLDS, margin=r, note="no kernel direction found")
    return Verdict(INCONCLUSIVE, margin=r, witness=probe["witness"])


# ---------------------------------------------------------------------------
# Assembled report


class ConditionReport:
    def __init__(self, fields):
        self.__dict__.update(fields)
        self._fields = fields

    def to_dict(self):
        out = {}
        for k, v in self._fields.items():
            if isinstance(v, Verdict):
                out[k] = v.to_dict()
            elif isinstance(v, np.ndarray):
                out[k] = v.tolist()
            elif isinstance(v, dict):
                out[k] = {kk: (vv.tolist() if isinstance(vv, np.ndarray)
                               else vv) for kk, vv in v.items()}
            else:
                out[k] = v
        return out


def assemble_report(prog, x, y, multiplier_set=None, seed=0):
    """Run every checker at the KKT pair (x, y) and combine the verdicts.

    The headline verdict is robust isolated calmness = SRCQ and SOSC (at
    a local minimum under the RCQ); the kernel probe cross-checks it
    through the directional-derivative system, and one-way implications
    between the qualifications are audited on the spot.
    """
    _require_affine(prog)
    res = natural_residual(prog, x, y)
    if not res <= 1e-8:
        raise ValueError("(x, y) is not a KKT pair (residual %.2e)" % res)
    rcq = check_rcq(prog, x, seed=seed)
    srcq = check_srcq(prog, x, y, seed=seed)
    nondeg = check_nondegeneracy(prog, x)
    sosc = check_sosc(prog, x, y, seed=seed)
    probe_seeds = []
    if srcq.fails and srcq.witness is not None:
        probe_seeds.append(np.concatenate([np.zeros(prog.n), srcq.witness]))
    probe = kernel_probe(prog, x, y, seed=seed, extra_seeds=probe_seeds)
    probe_v = kernel_probe_verdict(probe)
    hull = affine_hull_probe(prog, x, y)
    mult_note = ""
    singleton = None
    if multiplier_set is not None:
        singleton = multiplier_set.is_singleton
    if srcq.status == HOLDS and sosc.status == HOLDS:
        verdict = HOLDS
    elif srcq.status == FAILS or sosc.status == FAILS:
        verdict = FAILS
    else:
        verdict = INCONCLUSIVE
    inconsistencies = []
    if nondeg.holds and srcq.fails:
        inconsistencies.append("nondegeneracy holds but srcq fails")
    if srcq.holds and singleton is False:
        inconsistencies.append("srcq holds but the multiplier set is not "
                               "a singleton")
    if verdict == HOLDS and probe_v.fails:
        consistency = False
    elif verdict == FAILS and probe_v.holds:
        consistency = False
    elif INCONCLUSIVE in (verdict, probe_v.status):
        consistency = None
    else:
        consistency = True
    return ConditionReport({
        "problem": prog.name,
        "kkt_residual": res,
        "rcq": rcq,
        "srcq": srcq,
        "nondegeneracy": nondeg,
        "sosc": sosc,
        "affine_hull_probe": hull,
        "kernel_probe": {"min_residual": probe["min_residual"],
                         "witness": probe["witness"],
                         "status": probe_v.status},
        "multiplier_singleton": singleton,
        "theorem_verdict": verdict,
        "consistency_flag": consistency,
        "inconsistencies": inconsistencies,
        "note": mult_note,
    })
