"""Constraint qualifications and second-order conditions at a KKT point.

RCQ and SRCQ ask whether L + C = Y for L = range G' and a convex cone C
(the tangent cone, or the critical cone at a multiplier).  That holds iff
L + span C = Y and L meets the relative interior of C (Robinson, 1976).
Each side is decided in linear algebra: a polar span that ker(G'*) misses
gives holds at once, a unit vector of ker(G'*) ∩ (span C)^perp is a polar
witness that fails, and a direction d with G'd in ri C, checked block by
block, certifies holds.  Only where neither applies does a seeded search
look for a polar witness; without one the verdict is inconclusive.
SOSC is decided by enumerating the faces of the critical cone.
Heuristic verdicts always degrade to "inconclusive" rather than guess.
"""

import itertools

import numpy as np

from . import linalg
from .cones import smat, svec
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
# SOSC enumerates the 2^k faces cut out by k borderline rows; above this
# many rows only the affine hull is examined and no minimum is exact.
MAX_FACE_ROWS = 12


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


def _polar_kernel(Gmat, N):
    """Orthonormal basis of ker(G'*) ∩ range(N), as N null(G'* N); the
    columns of N (a `ConeFrame.normal_span`) are orthonormal."""
    return N @ linalg.nullspace(Gmat.T @ N, tol=1e-12)


def _span_witness(w):
    """w scaled to unit norm with its largest-magnitude entry positive: a
    null-space vector's sign is whatever the SVD picked."""
    return w * (np.sign(w[np.argmax(np.abs(w))]) / np.linalg.norm(w))


def _sphere_grid(dim):
    """Deterministic points on the unit sphere of R^dim (dim <= 3)."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        t = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
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


def _cone_element_in_subspace(basis, cone_project, rng):
    """Search for a unit vector of range(basis) lying in the convex cone
    described by cone_project, from 50 random starts (and a sphere grid
    in dimension <= 3), 300 alternating projections each.  Returns
    (vector, distance) for the best candidate found."""
    dim = basis.shape[1]
    starts = []
    if dim <= 3:
        starts.extend(_sphere_grid(dim))
    starts.extend(rng.standard_normal((50, dim)))
    best = (None, np.inf)
    for w in starts:
        nw = np.linalg.norm(w)
        if nw == 0:
            continue
        z = basis @ (w / nw)
        for _ in range(300):
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


def _curved_value(f, h):
    """A value of h that is positive exactly when h (in the span of a
    curved block's critical cone) lies in its relative interior: t - ||u||
    at an SOC apex, lambda_min(P_beta' smat(h) P_beta) on a PSD beta of
    size >= 2."""
    if f.block.kind == "soc":
        return float(h[0] - np.linalg.norm(h[1:]))
    Pb = f.P[:, f.beta]
    return float(linalg.sym_eig(Pb.T @ smat(h) @ Pb)[0][-1])


def _curved_centre(f):
    """A point of a curved block's relative interior: (1, 0) at an SOC
    apex, svec(P_beta P_beta') on a PSD beta of size >= 2."""
    if f.block.kind == "soc":
        return np.eye(f.block.dim)[0]
    Pb = f.P[:, f.beta]
    return svec(Pb @ Pb.T)


def _interior_direction(cc):
    """A unit d with G'd in the relative interior of the critical cone C
    of cc (a `ProblemCriticalCone`), and its margin: the least borderline
    row value and curved block eigenvalue of G'd, relative to ||G'd||.  A
    margin above zero certifies G'd in ri C; d is None when G'd is zero."""
    Z = cc.affine_basis
    c = cc.rows.sum(axis=0)
    for s, f in cc.curved:
        c[s] += _curved_centre(f)
    d = Z @ linalg.lstsq(cc.Gmat @ Z, c)
    h = cc.Gmat @ d
    nh = np.linalg.norm(h)
    if nh == 0.0:
        return None, 0.0
    vals = list(cc.rows @ h) + [_curved_value(f, h[s])
                                for s, f in cc.curved]
    return d / np.linalg.norm(d), min(vals) / nh


def _decide_fullness(cc, seed, label):
    """Verdict on G'X + C = Y for the critical cone C of cc.

    With L = range G', L + C = Y iff L + span C = Y and L meets ri C.
    The first fails exactly when ker(G'*) meets (span C)^perp, a subspace
    of C°; the second is certified by an interior direction.  Where
    neither decides, a search for a polar element in ker(G'*) may refute
    the condition, and otherwise the verdict is inconclusive.
    """
    V = _polar_kernel(cc.Gmat, cc.frame.normal_span())
    if V.shape[1] == 0:
        return Verdict(HOLDS, margin=1.0,
                       note="%s: ker(G'*) meets the polar span trivially"
                       % label)
    # span C = null E, so R spans (span C)^perp
    R = linalg.nullspace(linalg.nullspace(cc.E, tol=1e-10).T)
    U = linalg.nullspace(cc.Gmat.T @ R, tol=1e-12)
    if U.shape[1]:
        return Verdict(FAILS, margin=0.0, witness=_span_witness(R @ U[:, 0]),
                       note="%s: ker(G'*) meets (span C)^perp" % label)
    d, margin = _interior_direction(cc)
    if margin > WITNESS_TOL:
        return Verdict(HOLDS, margin=margin, witness=d,
                       note="%s: interior direction: G'd in ri C" % label)
    rng = np.random.default_rng(seed)
    cand, dist = _cone_element_in_subspace(V, cc.frame.polar_project, rng)
    if cand is not None and dist <= WITNESS_TOL:
        return Verdict(FAILS, margin=dist, witness=cand,
                       note="%s: nonzero polar element in ker(G'*)" % label)
    return Verdict(INCONCLUSIVE, margin=dist,
                   note="%s: no interior direction and no polar witness"
                   % label)


# ---------------------------------------------------------------------------
# Critical cone of the problem


def _borderline(frame):
    """The rows a with a . h >= 0 that cut the critical cone out of its
    affine hull, one per polyhedral borderline piece (an orthant corner
    e_i, an SOC boundary vhat or apex ray rhat, svec(p p') for a PSD beta
    {p} of size 1), and the curved blocks as (slice, block frame) pairs
    (an SOC apex, a PSD beta of size >= 2)."""
    rows, curved = [], []
    for f, s in zip(frame.frames, frame.cone._slices):
        kind = f.block.kind
        local = []
        if kind == "orthant":
            local = np.eye(f.block.dim)[f.state == 1]
        elif kind == "soc":
            local = {"bdry": [f.vhat], "apex_ray": [f.rhat]}.get(f.case, [])
            if f.case == "apex":
                curved.append((s, f))
        elif kind == "psd" and len(f.beta) == 1:
            p = f.P[:, f.beta[0]]
            local = [svec(np.outer(p, p))]
        elif kind == "psd" and len(f.beta) >= 2:
            curved.append((s, f))
        rows.append(local)
    return frame.embed(rows), curved


def dir_deriv_is_linear(frame):
    """Whether the directional derivative of the projection is linear at
    the frame: no borderline row and no curved block.  Exactly then the
    critical cone is a subspace and dir_deriv_jac does not depend on h.
    """
    rows, curved = _borderline(frame)
    return not (len(rows) or curved)


class ProblemCriticalCone:
    """C(x) = {d | G'(x)d in C_K(G(x), y)}, pulled back through G'.

    Holds the frame at G(x) + y, the rows E with span C_K = null E, the
    hull basis Z = null(E G') of C(x), and the borderline rows and curved
    blocks of `_borderline`.  At y = 0 the critical cone is the tangent
    cone T_K(G(x)).
    """

    def __init__(self, prog, x, y):
        _require_affine(prog)
        self.prog = prog
        g = prog.constraint(x)
        self.frame = prog.cone.frame(g + np.asarray(y, float))
        self.Gmat = prog.constraint_jac(x)
        self.E = self.frame.cc_equalities()
        self.affine_basis = linalg.nullspace(self.E @ self.Gmat, tol=1e-10)
        self.rows, self.curved = _borderline(self.frame)
        self.is_subspace = not (len(self.rows) or self.curved)

    @property
    def affine_dim(self):
        return self.affine_basis.shape[1]

    def member(self, d):
        return self.frame.cc_dist(self.Gmat @ np.asarray(d, float)) <= \
            1e-9 * max(1.0, np.linalg.norm(d))


def problem_critical_cone(prog, x, y):
    return ProblemCriticalCone(prog, x, y)


# ---------------------------------------------------------------------------
# Constraint qualifications


def check_rcq(prog, x, seed=0):
    """Robinson's CQ, G'(x)X + T_K(G(x)) = Y, by `_decide_fullness`.

    A holds verdict carries a unit d with G'd in ri T_K(G(x)), so that
    G(x) + t G'd lies in ri K for small t > 0, unless ker(G'*) misses the
    normal span; a fails verdict carries a unit y in ker(G'*) ∩ N_K(G(x)).
    """
    # zero normal element: the critical cone is the tangent cone
    cc = problem_critical_cone(prog, x, np.zeros(prog.cone.dim))
    return _decide_fullness(cc, seed, "rcq")


def check_srcq(prog, x, y, seed=0):
    """Strict RCQ at the multiplier y, G'(x)X + C_K(G(x), y) = Y, decided
    as `check_rcq` with the critical cone in place of the tangent cone."""
    return _decide_fullness(problem_critical_cone(prog, x, y), seed, "srcq")


def check_nondegeneracy(prog, x):
    """G'(x)X + lin T_K(G(x)) = Y: exact, ker(G'*) ∩ (lin T)^perp = {0}."""
    _require_affine(prog)
    N = prog.cone.frame(prog.constraint(x)).normal_span()
    Gmat = prog.constraint_jac(x)
    V = _polar_kernel(Gmat, N)
    if V.shape[1] == 0:
        kerGt = linalg.nullspace(Gmat.T, tol=1e-12)
        margin = 1.0
        if kerGt.shape[1] and N.shape[1]:
            margin -= float(np.linalg.svd(kerGt.T @ N, compute_uv=False)[0])
        return Verdict(HOLDS, margin=margin)
    return Verdict(FAILS, margin=0.0, witness=_span_witness(V[:, 0]),
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


def _face_eig(M, W):
    """Least eigenvalue of M on range(W) (orthonormal columns), its unit
    eigenvector and whether that eigenvalue is multiple."""
    vals, vecs = linalg.sym_eig(W.T @ M @ W)
    tie = 1e-8 * max(1.0, abs(float(vals[0])), abs(float(vals[-1])))
    return float(vals[-1]), W @ vecs[:, -1], \
        len(vals) > 1 and vals[-2] - vals[-1] <= tie


def _sosc_verdict(M, cc):
    """Least value of d'Md on the unit sphere of C, by face enumeration.

    In the hull coordinates d = Z w, C's polyhedral part is {A w >= 0}
    with A the borderline rows pulled back through G'Z.  A minimiser with
    active rows S minimises the Rayleigh quotient locally, hence globally,
    on the face span Z null(A_S), so it is a least eigenvector there; a
    face's least eigenvalue is a candidate when that eigenvector (of
    either sign) lies in C.  The least candidate is exact when C is
    polyhedral with at most MAX_FACE_ROWS rows and no lower multiple
    eigenvalue was rejected; otherwise HOLDS needs a positive one on the
    hull, which contains C."""
    if cc.affine_dim == 0:
        return Verdict(HOLDS, margin=np.inf,
                       note="critical cone is {0}; condition is vacuous")
    Z = cc.affine_basis
    A = cc.rows @ cc.Gmat @ Z
    faces = [()]
    if len(A) <= MAX_FACE_ROWS:
        faces = itertools.chain.from_iterable(
            itertools.combinations(range(len(A)), r)
            for r in range(len(A) + 1))
    mn, wit, hull, rejected = np.inf, None, None, np.inf
    for S in faces:
        W = Z @ linalg.nullspace(A[list(S)], tol=1e-10) if S else Z
        if W.shape[1] == 0:
            continue
        val, d, tied = _face_eig(M, W)
        if not S:
            hull = val
        inside = [e for e in (d, -d) if cc.member(e)]
        if inside and val < mn:
            mn, wit = val, inside[0]
        elif tied and not inside:
            rejected = min(rejected, val)
    exact = not cc.curved and len(A) <= MAX_FACE_ROWS and rejected >= mn
    if mn <= SOSC_FAILS_TOL:
        return Verdict(FAILS, margin=mn, witness=wit,
                       note="face minimum: direction in C")
    if exact and mn >= SOSC_HOLDS_TOL:
        return Verdict(HOLDS, margin=mn, note="exact face minimum")
    if hull >= SOSC_HOLDS_TOL:  # never when exact, since then mn >= hull
        return Verdict(HOLDS, margin=hull, note="positive on the affine hull")
    return Verdict(INCONCLUSIVE, margin=mn, witness=wit,
                   note="exact face minimum in the tolerance gap" if exact
                   else "curved critical cone: no certificate" if cc.curved
                   else "face minimum not certified exact")


def check_sosc(prog, x, y):
    """Positivity of <d, H_L d> + Upsilon(G'd) on C(x)\\{0} at multiplier y."""
    cc = problem_critical_cone(prog, x, y)
    return _sosc_verdict(_sosc_quadratic(prog, x, y, cc), cc)


def check_robinson_sosc(prog, x, multipliers):
    """Eq.-(25)-style condition over a supplied finite multiplier sample:
    min over critical directions of the max over multipliers.  The max is
    at least the mean, so the SOSC test of the mean quadratic decides
    HOLDS; FAILS needs its witness to fail at every multiplier."""
    _require_affine(prog)
    mults = [np.asarray(m, float) for m in multipliers]
    if not mults:
        raise ValueError("at least one multiplier is required")
    ccs = [problem_critical_cone(prog, x, m) for m in mults]
    mats = [_sosc_quadratic(prog, x, m, cc) for m, cc in zip(mults, ccs)]
    v = _sosc_verdict(sum(mats) / len(mats), ccs[0])
    v.note += "; mean of %d supplied multipliers" % len(mults)
    if v.fails:
        v.margin = max(float(v.witness @ M @ v.witness) for M in mats)
        v.status = FAILS if v.margin <= SOSC_FAILS_TOL else INCONCLUSIVE
    return v


def affine_hull_probe(prog, x, y):
    """Positivity of the SOSC quadratic on the affine hull of C(x), the
    face of the SOSC enumeration with no borderline row active.

    This is the calculation that separates the robust-isolated-calmness
    regime from strong regularity on degenerate instances: the quadratic
    can be positive on the cone yet lose definiteness on its hull.
    """
    cc = problem_critical_cone(prog, x, y)
    if cc.affine_dim == 0:
        return Verdict(HOLDS, margin=np.inf, note="affine hull is {0}")
    mn, wit, _ = _face_eig(_sosc_quadratic(prog, x, y, cc), cc.affine_basis)
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
    family T.  When the directional derivative is linear at the frame, T
    is constant and its smallest right singular vector decides exactly;
    otherwise each start is refined by iterating toward the smallest
    right singular vector of T(w), for at most 50 steps; a start that is
    already a kernel direction (an exact witness in extra_seeds) is kept
    as it is.  That map depends only on the bits of w, so a start whose
    iterate repeats exactly stops there and takes the iterate step 50
    would reach.
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

    if dir_deriv_is_linear(frame):
        T = kkt_matrix(H, Gmat, frame.dir_deriv_jac(np.zeros(m)))
        w = np.linalg.svd(T)[2][-1]
        return {"min_residual": residual(w), "witness": w}
    rng = np.random.default_rng(seed)
    starts = [np.asarray(s, float) for s in extra_seeds]
    starts.extend(rng.standard_normal(n + m) for _ in range(n_starts))
    best_val, best_w = np.inf, None
    for w in starts:
        nw = np.linalg.norm(w)
        if nw == 0:
            continue
        w = w / nw
        path, seen = [w], {w.tobytes(): 0}
        for k in range(1, 51 if residual(w) > KERNEL_FOUND_TOL else 1):
            T = kkt_matrix(H, Gmat, frame.dir_deriv_jac(
                Gmat @ w[:n] + w[n:]))
            _, _, Vt = np.linalg.svd(T)
            wn = Vt[-1]
            if np.linalg.norm(wn - w) < 1e-14 or \
               np.linalg.norm(wn + w) < 1e-14:
                w = wn
                break
            w = wn
            i = seen.setdefault(w.tobytes(), k)
            if i < k:
                # from step i on the iterates repeat with period k - i;
                # the first lap ran every transition of the cycle, so the
                # convergence test cannot fire before step 50
                w = path[i + (50 - i) % (k - i)]
                break
            path.append(w)
        val = residual(w)
        if val < best_val:
            best_val, best_w = val, w
        if best_val <= KERNEL_FOUND_TOL:
            break
    return {"min_residual": best_val, "witness": best_w}


def kernel_probe_verdict(probe):
    r = probe["min_residual"]
    if probe["witness"] is None:
        return Verdict(INCONCLUSIVE, margin=r, note="no start was tried")
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
    sosc = check_sosc(prog, x, y)
    # exact witnesses of the two conditions seed the kernel probe: a polar
    # direction dy of SRCQ, and a critical direction d of SOSC with the dy
    # that best balances the stationarity row H d + G'* dy = 0
    probe_seeds = []
    if srcq.fails and srcq.witness is not None:
        probe_seeds.append(np.concatenate([np.zeros(prog.n), srcq.witness]))
    if sosc.fails:
        d = sosc.witness
        dy = linalg.lstsq(prog.constraint_jac(x).T,
                          -hess_lagrangian(prog, x, y) @ d)
        probe_seeds.append(np.concatenate([d, dy]))
    probe = kernel_probe(prog, x, y, seed=seed, extra_seeds=probe_seeds)
    probe_v = kernel_probe_verdict(probe)
    hull = affine_hull_probe(prog, x, y)
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
    })
