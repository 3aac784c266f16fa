"""Constraint qualifications and second-order conditions at a KKT point.

RCQ and SRCQ ask whether L + C = Y for L = range G' and a convex cone C
(the tangent cone, or the critical cone at a multiplier).  That holds iff
L + span C = Y and L meets the relative interior of C (Robinson, 1976).
Each side is decided in linear algebra: a polar span that ker(G'*) misses
gives holds at once, a unit vector of ker(G'*) ∩ (span C)^perp is a polar
witness that fails, and a direction d with G'd in ri C, checked block by
block, certifies holds.  Where neither applies, the condition fails
exactly when ker(G'*) holds a nonzero element of the polar cone: decided
exactly on a line.  On a plane or larger it holds when a bound from G'
alone shows that the slice <v, c> = -1 (c in ri C) of ker(G'*) misses
the polar cone; else `kkt.affine_cone_point` decides on the slice, by a
closed-form candidate in ri C°, by the polar cone's Lorentz rows where
the slice is a line, or by a search, whose miss is inconclusive.
SOSC is decided by enumerating the faces of the critical cone.  The
kernel probe is decided by a failed SRCQ's or SOSC's witness where it
solves the system, else by one routine over the 2^k signs of its k
borderline rows, each piece's matrix T built at a point of the piece.
With no curved block a nonsingular piece holds no kernel direction, and
a singular piece's null space is tested against its sign region at the
region's extreme rays.  Beside one curved block of Lorentz form (an SOC
apex, a PSD zero eigenspace of order 2) each sign gives the two linear
pieces of its complementarity, tested against the Lorentz cone, and an
S-lemma certificate for the curved one.  Elsewhere it searches, and a
search never gives HOLDS.
Heuristic verdicts always degrade to "inconclusive" rather than guess.

Every check reads one pulled-back cone, a `ProblemCriticalCone`: at the
multiplier y for SRCQ, SOSC, the hull probe and the kernel probe, and at
y = 0 (the tangent cone) for RCQ and nondegeneracy.  It holds the frame,
G', H and the derived matrices, each computed once.
"""

import functools
import itertools

import numpy as np

from . import linalg
from .kkt import (affine_cone_point, kkt_matrix, line_span, natural_residual,
                  polar_kernel, recover_multipliers)

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
# random starts of the kernel-probe search
_KERNEL_STARTS = 200
# SOSC's 2^k faces of k borderline rows and the kernel probe's pieces over
# the 2^k signs run up to this many rows; above it SOSC reads only the
# affine hull and the probe searches.
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


def _span_witness(w):
    """w scaled to unit norm with its largest-magnitude entry positive: a
    null-space vector's sign is whatever the SVD picked."""
    return w * (np.sign(w[np.argmax(np.abs(w))]) / np.linalg.norm(w))


def _interior_direction(cc):
    """A unit d with G'd in the relative interior of the critical cone C
    of cc (a `ProblemCriticalCone`), and its margin: the least borderline
    row value and curved block eigenvalue of G'd, relative to ||G'd||.  A
    margin above zero certifies G'd in ri C; d is None when G'd is zero to
    round-off, at most 1e-12 max(1, ||G'||) ||d||: noise has no direction."""
    Z = cc.affine_basis
    d = Z @ linalg.lstsq(cc.Gmat @ Z, cc.frame.relint_point())
    h = cc.Gmat @ d
    nh, nd = np.linalg.norm(h), np.linalg.norm(d)
    if nh <= 1e-12 * max(1.0, np.linalg.norm(cc.Gmat, 2)) * nd:
        return None, 0.0
    return d / nd, cc.frame.relint_margin(h) / nh


def _decide_fullness(cc, label):
    """Verdict on G'X + C = Y for the critical cone C of cc.

    With L = range G', L + C = Y iff L + span C = Y and L meets ri C.
    The first fails exactly when ker(G'*) meets (span C)^perp, a subspace
    of C°; the second is certified by an interior direction.  Otherwise
    it fails exactly when V = ker(G'*) ∩ span C° holds a nonzero element
    of C°: v or -v on a line.  On a plane or larger each such element has
    <v, c> < 0 for the point c of ri C, as range V misses (span C)^perp.
    As c lies 1/sqrt2 from the relative boundary of C (the unit of each
    beta subalgebra), a unit one has a part of norm <= sqrt2 ||V'c|| in
    span C and, as G'* v = 0, ||G'|| / sigma times that off it, sigma the
    least singular value of G'* on (span C)^perp: so none exists, and the
    condition holds, when ||V'c|| < sigma / (sqrt2 (sigma + ||G'||)).
    Else `affine_cone_point` looks for one on the slice <v, c> = -1.  On
    a two-column V the slice is a line: where the Lorentz rows of C° give
    it in closed form and their `line_span` is empty, none exists and the
    condition holds, with margin lo - hi, the gap along the unit line
    between the slack-widened row intervals (inf when one row's interval
    is empty).  A miss of the search is inconclusive.
    """
    V = cc.polar_kernel
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
    if V.shape[1] == 1:
        cands = [V[:, 0], -V[:, 0]]
    else:
        c = cc.frame.relint_point()
        w = V.T @ c
        nw = np.linalg.norm(w)
        sigma = (np.linalg.svd(cc.Gmat.T @ R, compute_uv=False)[-1]
                 if R.shape[1] else np.inf)
        bound = np.sqrt(0.5) / (1.0 + np.linalg.norm(cc.Gmat, 2) / sigma)
        if nw < bound:
            return Verdict(HOLDS, margin=bound - nw,
                           note="%s: the polar slice vanishes" % label)
        y = None
        if nw > WITNESS_TOL * np.linalg.norm(c):
            y0, B = V @ (-w / nw ** 2), V @ linalg.nullspace(w[None, :])
            y = affine_cone_point(cc.frame, cc.frame.polar_project, y0, B)
            rows = cc.frame.polar_rows() if y is None else None
            if rows is not None and B.shape[1] == 1:
                lo, hi = line_span(rows, y0, B[:, 0])
                if lo > hi:
                    return Verdict(HOLDS, margin=lo - hi,
                                   note="%s: the polar slice is a line that "
                                   "misses the polar cone" % label)
        cands = [] if y is None else [y / np.linalg.norm(y)]
    dists = [cc.frame.polar_dist(u) for u in cands]
    for u, dist in zip(cands, dists):
        if dist <= WITNESS_TOL:
            return Verdict(FAILS, margin=dist, witness=u,
                           note="%s: nonzero polar element in ker(G'*)"
                           % label)
    if V.shape[1] == 1:
        return Verdict(HOLDS, margin=min(dists),
                       note="%s: ker(G'*) meets the polar cone only at 0"
                       % label)
    return Verdict(INCONCLUSIVE, margin=min(dists, default=np.inf),
                   note="%s: no interior direction and no polar witness"
                   % label)


# ---------------------------------------------------------------------------
# Critical cone of the problem


class ProblemCriticalCone:
    """C(x) = {d | G'(x)d in C_K(G(x), y)}, pulled back through G'.

    The one object every check reads.  It holds the frame at G(x) + y, G'
    (`Gmat`), the Hessian of the Lagrangian H (Q), the rows E
    with span C_K = null E, the hull basis Z = null(E G') of C(x), and the
    borderline rows and curved blocks of `ConeFrame.borderline`.  At y = 0
    the critical cone is the tangent cone T_K(G(x)), whose frame, G' and
    polar kernel the multiplier recovery reads too.  The polar kernel,
    the SOSC quadratic and its `hull_face` are computed on first use, so
    SOSC and the hull probe share that face.  A constraint map
    that carries callbacks is refused at y != 0, the one place that
    refuses it: there H = Q would leave out the Hessian of <y, G>.
    """

    def __init__(self, prog, x, y):
        if not prog.is_affine and np.any(y):
            raise ValueError("checks at y != 0 require an affine constraint "
                             "map; %r carries callbacks" % prog.name)
        g = prog.constraint(x)
        self.frame = prog.cone.frame(g + np.asarray(y, float))
        self.Gmat = prog.constraint_jac(x)
        self.H = prog.Q
        self.E = self.frame.cc_equalities()
        self.affine_basis = linalg.nullspace(self.E @ self.Gmat, tol=1e-10)
        self.rows, self.curved = self.frame.borderline
        self.is_subspace = not (len(self.rows) or self.curved)

    @property
    def affine_dim(self):
        return self.affine_basis.shape[1]

    @functools.cached_property
    def polar_kernel(self):
        """Orthonormal basis of ker(G'*) ∩ span N (`kkt.polar_kernel`); at
        y = 0 the multiplier recovery reads it as its ybasis."""
        return polar_kernel(self.frame.normal_span(), self.Gmat)

    @functools.cached_property
    def quadratic(self):
        """The SOSC quadratic H + G'* Ups G', with Ups the matrix of the
        form D -> Upsilon(D), valid on the critical cone."""
        Ups = 0.5 * self.frame.upsilon_grad(np.eye(self.Gmat.shape[0])).T
        Ups = 0.5 * (Ups + Ups.T)
        return self.H + self.Gmat.T @ Ups @ self.Gmat

    @functools.cached_property
    def hull_face(self):
        """`_face_eig` of the SOSC quadratic on the hull basis: the first
        face of SOSC's enumeration and the whole of the hull probe."""
        return _face_eig(self.quadratic, self.affine_basis)

    def tmatrix(self, h):
        """T = kkt_matrix(H, G', dir_deriv_jac(h)), the kernel probe's
        matrix on the piece of h."""
        return kkt_matrix(self.H, self.Gmat, self.frame.dir_deriv_jac(h))

    def member(self, d):
        return self.frame.cc_dist(self.Gmat @ np.asarray(d, float)) <= \
            1e-9 * max(1.0, np.linalg.norm(d))


def problem_critical_cone(prog, x, y):
    return ProblemCriticalCone(prog, x, y)


# ---------------------------------------------------------------------------
# Constraint qualifications


def _tangent_cone(prog, x):
    """The critical cone at the zero normal element: T_K(G(x)) pulled
    back, whose frame sits at G(x)."""
    return problem_critical_cone(prog, x, np.zeros(prog.cone.dim))


def check_rcq(prog, x):
    """Robinson's CQ, G'(x)X + T_K(G(x)) = Y, by `_decide_fullness`.

    A holds verdict carries a unit d with G'd in ri T_K(G(x)), so that
    G(x) + t G'd lies in ri K for small t > 0, unless ker(G'*) misses the
    normal span or meets it in a line that misses N_K(G(x)); a fails
    verdict carries a unit y in ker(G'*) ∩ N_K(G(x)).
    """
    return _decide_fullness(_tangent_cone(prog, x), "rcq")


def check_srcq(prog, x, y):
    """Strict RCQ at the multiplier y, G'(x)X + C_K(G(x), y) = Y, decided
    as `check_rcq` with the critical cone in place of the tangent cone."""
    return _decide_fullness(problem_critical_cone(prog, x, y), "srcq")


def check_nondegeneracy(prog, x):
    """G'(x)X + lin T_K(G(x)) = Y: exact, ker(G'*) ∩ (lin T)^perp = {0}."""
    return _nondegeneracy(_tangent_cone(prog, x))


def _nondegeneracy(tc):
    """`check_nondegeneracy` on the tangent cone tc."""
    V = tc.polar_kernel
    if V.shape[1] == 0:
        N = tc.frame.normal_span()
        kerGt = linalg.nullspace(tc.Gmat.T, tol=1e-12)
        margin = 1.0
        if kerGt.shape[1] and N.shape[1]:
            margin -= float(np.linalg.svd(kerGt.T @ N, compute_uv=False)[0])
        return Verdict(HOLDS, margin=margin)
    return Verdict(FAILS, margin=0.0, witness=_span_witness(V[:, 0]),
                   note="ker(G'*) meets (lin T_K)^perp nontrivially")


# ---------------------------------------------------------------------------
# Second-order conditions


def _face_eig(M, W):
    """Least eigenvalue of M on range(W) (orthonormal columns), its unit
    eigenvector and whether that eigenvalue is multiple."""
    vals, vecs = linalg.sym_eig(W.T @ M @ W)
    return _least(vals, W @ vecs[:, -1])


def _least(vals, v):
    """The last of the descending values vals, with its vector v, and
    whether the one above it lies within 1e-8 of the spectral scale."""
    tie = 1e-8 * max(1.0, abs(float(vals[0])), abs(float(vals[-1])))
    return float(vals[-1]), v, len(vals) > 1 and vals[-2] - vals[-1] <= tie


def _sosc_verdict(M, cc):
    """Least value of d'Md on the unit sphere of C, by face enumeration.

    In the hull coordinates d = Z w, C's polyhedral part is {A w >= 0}
    with A the borderline rows pulled back through G'Z.  A face holds the
    rows of a set A_0 at zero, leaving the span W = Z null(A_0), and its
    least eigenvalue on W counts when its eigenvector, of either sign,
    lies in C.  A minimiser lies in the relative interior of the face of
    its zero rows, where it minimises the Rayleigh quotient locally,
    hence globally on W.  So the least count is the minimum, unless a
    multiple value below it was rejected: only one vector of a tied
    eigenspace is tried.  Faces run by their number of zero rows, then in
    combination order.  Where M is cc's own quadratic, the first face,
    W = Z, is cc's `hull_face`, which the hull probe reads too; a mean
    quadratic (`check_robinson_sosc`) takes its own.  The least count is
    exact when C is polyhedral with at most MAX_FACE_ROWS rows and no
    lower multiple eigenvalue was rejected; otherwise HOLDS needs a
    positive one on the hull, which contains C."""
    if cc.affine_dim == 0:
        return Verdict(HOLDS, margin=np.inf,
                       note="critical cone is {0}; condition is vacuous")
    Z = cc.affine_basis
    A = cc.rows @ cc.Gmat @ Z
    k = len(A) if len(A) <= MAX_FACE_ROWS else 0
    hull_face = cc.hull_face if M is cc.quadratic else _face_eig(M, Z)
    mn, wit, rejected = np.inf, None, np.inf
    for r in range(k + 1):
        for zero in itertools.combinations(range(k), r):
            W = Z @ linalg.nullspace(A[list(zero)], tol=1e-10) if zero else Z
            if W.shape[1] == 0:
                continue
            val, v, tied = _face_eig(M, W) if zero else hull_face
            inside = next((e for e in (v, -v) if cc.member(e)), None)
            if inside is not None and val < mn:
                mn, wit = val, inside
            elif tied and inside is None:
                rejected = min(rejected, val)
    exact = not cc.curved and len(A) <= MAX_FACE_ROWS and rejected >= mn
    hull = hull_face[0]
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
    return _sosc_verdict(cc.quadratic, cc)


def check_robinson_sosc(prog, x, multipliers):
    """Eq.-(25)-style condition over a supplied finite multiplier sample:
    min over critical directions of the max over multipliers.  The max is
    at least the mean, so the SOSC test of the mean quadratic decides
    HOLDS; FAILS needs its witness to fail at every multiplier."""
    ccs = [problem_critical_cone(prog, x, m) for m in multipliers]
    if not ccs:
        raise ValueError("at least one multiplier is required")
    mats = [cc.quadratic for cc in ccs]
    v = _sosc_verdict(sum(mats) / len(mats), ccs[0])
    v.note += "; mean of %d supplied multipliers" % len(mats)
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
    return _hull_verdict(problem_critical_cone(prog, x, y))


def _hull_verdict(cc):
    """`affine_hull_probe`: the least eigenvalue of the SOSC quadratic on
    the hull of cc, its `hull_face`, which SOSC computed first where it
    ran on cc."""
    if cc.affine_dim == 0:
        return Verdict(HOLDS, margin=np.inf, note="affine hull is {0}")
    mn, wit, _ = cc.hull_face
    if mn > SOSC_FAILS_TOL:
        return Verdict(HOLDS, margin=mn)
    return Verdict(FAILS, margin=mn, witness=wit,
                   note="quadratic degenerates on the hull")


# ---------------------------------------------------------------------------
# Kernel probe (directional-derivative system of the natural map)


def kernel_probe(prog, x, y, n_starts=_KERNEL_STARTS, seed=0, extra_seeds=()):
    """Least residual of nonzero (dx, dy) in H_L dx + G'* dy = 0 and
    G' dx = dir_deriv(frame; G' dx + dy), on the unit sphere.

    The residual r(w) equals ||T(w) w||^2 for a piecewise-constant matrix
    family T.  The first of extra_seeds whose residual, at unit length, is
    at most KERNEL_FOUND_TOL is the witness, before any T is built.  Else
    `_kernel_pieces` decides the frame piece by piece over the 2^k signs
    of its k <= MAX_FACE_ROWS borderline rows at h = G' dx + dy, each
    piece's T built by `ProblemCriticalCone.tmatrix`: where no block is
    curved ("exact") or one curved block has `lorentz_rows` ("pieces").
    It gives a witness of residual at most KERNEL_FOUND_TOL, or no witness
    and the least piece margin as min_residual.  Above the cap, on a PSD
    zero eigenspace of order 3 or more or two curved blocks, or where a
    piece stays undecided, `_kernel_search` runs instead, from
    extra_seeds, then n_starts random starts drawn with seed;
    `kernel_probe_verdict` never reads HOLDS from it.  It refines one
    start at a time, for at most 50 steps, one T and one SVD per step.
    The result's "method" ("witness", "exact", "pieces" or "search") says
    which ran.
    """
    return _kernel_probe(problem_critical_cone(prog, x, y), n_starts, seed,
                         extra_seeds)


def _kernel_probe(cc, n_starts, seed, extra_seeds):
    """`kernel_probe` on cc: a witness among extra_seeds, else its pieces,
    else the search."""
    for w in _unit_starts(extra_seeds):
        r = _probe_residual(cc, w)
        if r <= KERNEL_FOUND_TOL:  # a NaN residual is never the witness
            return {"min_residual": r, "witness": w, "method": "witness"}
    return _kernel_pieces(cc) or _kernel_search(cc, n_starts, seed,
                                                extra_seeds)


def _unit_starts(starts):
    """Each nonzero start scaled to unit length."""
    starts = [np.asarray(s, float) for s in starts]
    return [w / np.linalg.norm(w) for w in starts if np.linalg.norm(w)]


def _probe_residual(cc, w):
    """||T(w) w||^2 on the pulled-back cone cc."""
    Gmat = cc.Gmat
    n = Gmat.shape[1]
    dx, dy = w[:n], w[n:]
    h = Gmat @ dx + dy
    r1 = cc.H @ dx + Gmat.T @ dy
    r2 = Gmat @ dx - cc.frame.dir_deriv(h)
    return float(r1 @ r1 + r2 @ r2)


def _kernel_pieces(cc):
    """The probe decided piece by piece on a frame with k <= MAX_FACE_ROWS
    borderline rows r and no curved block ("exact"), or one curved block
    whose beta subalgebra has rank 2 ("pieces": `lorentz_rows` L, an
    SOC(m) apex, m >= 3, or a PSD beta of order 2); None elsewhere or
    where a piece stays undecided.

    One pass over s in {+, -}^k builds each piece's T by `tmatrix` at a
    point h of the piece: T(w) w = T w there, as where a row or block
    sits on a boundary both neighbouring pieces give the same J h.  With
    no curved block h = s @ rows, and `_sign_region` tests T_s on its
    sign region.  Beside a curved block, a = L G'dx and b = L dy ask a in
    K, b in -K, a . b = 0 for K = {t >= |u|}, and each s gives three
    pieces, where a borderline row asks b_r = r . dy = 0 (s_r = +) or a_r
    = r . G'dx = 0 (s_r = -), its sign dropped:

      P1  b = 0 and a in K: h = s @ rows + u, u the block's
          `relint_point`, where dir_deriv_jac is I on its bb rows;
      P2  a = 0 and -b in K: h = s @ rows - u, where it is 0;
      P3  b = -mu J a with mu > 0, a'Ja = 0 and a != 0, J = diag(1, -I):
          P2's T with the block's bb rows projected out of its second
          block row.

    `_lorentz_region` tests P1 and P2.  On P3, stationarity gives dx'H dx
    = -<G'dx, dy> = -sum_i Omega_i (1 - Omega_i) (R_i h)^2 <= 0 over the
    Peirce rows R_i off bb, as the borderline and curved products vanish,
    and a'Ja = 0; so lambda_min(D'(H + tau G'*L'JLG')D) > 0 for some tau,
    D a basis of the dx part of the piece's null space, leaves no a != 0
    (an S-lemma certificate: Polik & Terlaky, SIAM Rev. 49 (2007)).

    A P1, P2 or sign piece whose least singular value, from its values
    alone, is above `linalg.relative_rank`'s 1e-10 is nonsingular, with
    margin sigma_min^2; only a singular one takes a full SVD and its
    region test.  P3's margin is the least of the certificate and its
    kept singular value squared.  The first candidate whose
    `_probe_residual` is at most KERNEL_FOUND_TOL, scored as it is found,
    is the witness, before any P3 certificate is sought; one that misses
    leaves its piece undecided.  Without a witness the probe holds, with
    no witness and the least margin as min_residual, where no piece is
    undecided and, beside a curved block, that margin is at least
    KERNEL_ABSENT_TOL."""
    k, (m, n) = len(cc.rows), cc.Gmat.shape
    if k > MAX_FACE_ROWS or len(cc.curved) > 1:
        return None
    if cc.curved:
        sl, f = cc.curved[0]
        L = f.lorentz_rows()
        if L is None:
            return None
        u = np.zeros(m)
        u[sl] = f.relint_point()
        Rb = f.R[f.bb]
        Ls = np.zeros((len(L), m))
        Ls[:, sl] = L
        A = np.hstack([Ls @ cc.Gmat, np.zeros((len(L), m))])  # w -> a
        B = np.hstack([np.zeros((len(L), n)), Ls])  # w -> b
        J = np.diag(np.r_[1.0, -np.ones(len(L) - 1)])
    method = "pieces" if cc.curved else "exact"
    margin, undecided, p3 = np.inf, False, []
    for s in map(np.array, itertools.product((1.0, -1.0), repeat=k)):
        h = s @ cc.rows
        for hp, C in [(h + u, A), (h - u, B)] if cc.curved else [(h, None)]:
            T = cc.tmatrix(hp)
            sig = np.linalg.svd(T, compute_uv=False)
            if linalg.relative_rank(sig, 1e-10) == len(sig):
                margin = min(margin, sig[-1] ** 2)
                continue
            cands, kept = (_sign_region(cc, T, s) if C is None
                           else _lorentz_region(T, C, J))
            margin = min(margin, kept)
            for w in cands:
                r = _probe_residual(cc, w)
                if r <= KERNEL_FOUND_TOL:  # a NaN residual is never one
                    return {"min_residual": r, "witness": w,
                            "method": method}
            undecided = undecided or bool(cands)
        if cc.curved:  # P3, from P2's T
            T[n:][sl] -= Rb.T @ (Rb @ T[n:][sl])
            S, kept = _piece_space(T)
            U, sig, _ = np.linalg.svd(S[:n], full_matrices=False)
            p3.append((U[:, sig > 1e-10], kept))
    for D, kept in p3:
        if D.shape[1]:
            AD = A[:, :n] @ D
            kept = min(kept, _lorentz_certificate(D.T @ cc.H @ D,
                                                  AD.T @ J @ AD))
        margin = min(margin, kept)
    if undecided or cc.curved and margin < KERNEL_ABSENT_TOL:
        return None
    return {"min_residual": float(margin), "witness": None, "method": method}


def _sign_region(cc, T, s):
    """The candidates and the margin of a singular piece T = T_s of a
    frame with no curved block, on its sign region {w : s_i r_i . P w >=
    0}, P = [G' I].  With A = diag(s) rows P N, N a basis of null T:
    where rank A < d = dim N, N null(A) is the candidate.  Else {c : A c
    >= 0} is pointed: it is {0} unless an extreme ray, +-c spanning the
    null space of d - 1 independent rows of A, has min(A c) >=
    -WITNESS_TOL ||P N c||, and N c of the first that does is the
    candidate.  With none the region is empty, and the least -min(A c)
    over the rays is the margin."""
    N, kept = _piece_space(T)
    if not N.shape[1]:  # the full SVD keeps every value
        return [], kept
    PN = np.hstack([cc.Gmat, np.eye(len(cc.Gmat))]) @ N
    A = s[:, None] * (cc.rows @ PN)
    C = linalg.nullspace(A)
    if C.shape[1]:
        return [N @ C[:, 0]], kept
    rays = []
    for sub in itertools.combinations(range(len(A)), N.shape[1] - 1):
        C = linalg.nullspace(A[list(sub)])
        if C.shape[1] == 1:
            rays += [C[:, 0], -C[:, 0]]
    lows = [-np.min(A @ e) for e in rays]
    for e, low in zip(rays, lows):
        if low <= WITNESS_TOL * np.linalg.norm(PN @ e):
            return [N @ e], kept
    return [], min(lows)


def _lorentz_region(T, C, J):
    """The candidates and the margin of a P1 or P2 piece T, C the map w ->
    a or b.  Its null space S holds a nonzero w with C w in K or -K iff
    lambda_max(S'C'JCS) >= 0 (by Sylvester's law, iff C has a null vector
    on S or lambda_max(V'JV) >= 0 on a basis V of C S).  The margin is the
    least of the kept singular value squared and -lambda_max; below
    KERNEL_ABSENT_TOL its eigenvector, of either sign, is the candidate."""
    S, kept = _piece_space(T)
    if not S.shape[1]:  # the full SVD keeps every value
        return [], kept
    vals, vecs = linalg.sym_eig(S.T @ C.T @ J @ C @ S)
    kept = min(kept, -vals[0])
    v = S @ vecs[:, 0]
    return ([v, -v] if kept < KERNEL_ABSENT_TOL else []), kept


def _piece_space(M):
    """Orthonormal basis of null M, at the `linalg.relative_rank` that
    `linalg.nullspace` takes, and the least singular value it keeps,
    squared (inf when none): the least ||M w||^2 of a unit w orthogonal to
    the basis."""
    _, sig, Vt = np.linalg.svd(M)
    rank = linalg.relative_rank(sig, 1e-10)
    return Vt[rank:].T, sig[rank - 1] ** 2 if rank else np.inf


def _lorentz_certificate(K0, K1):
    """The largest lambda_min(K0 + tau K1) over tau, or the first value
    found at or above KERNEL_ABSENT_TOL.  It is concave in tau, with the
    supergradient v'K1v at a unit least eigenvector v: tau = 0 comes
    first, then steps doubling from |K0|/|K1| along the supergradient's
    sign until that sign turns, then bisection on it."""
    def at(tau):
        vals, vecs = linalg.sym_eig(K0 + tau * K1)
        return vals[-1], vecs[:, -1] @ K1 @ vecs[:, -1]

    best, slope = at(0.0)
    if best >= KERNEL_ABSENT_TOL or slope == 0.0:
        return best
    lo, hi = 0.0, None
    step = np.copysign((np.linalg.norm(K0) or 1.0) / np.linalg.norm(K1),
                       slope)
    for _ in range(120):
        tau = lo + step if hi is None else 0.5 * (lo + hi)
        val, g = at(tau)
        best = max(best, val)
        if best >= KERNEL_ABSENT_TOL:
            break
        if g * slope > 0.0:
            lo, step = tau, 2.0 * step
        else:
            hi = tau
    return best


def _kernel_search(cc, n_starts, seed, extra_seeds):
    """Multi-start search for the least residual: each start is refined by
    iterating toward the smallest right singular vector of T(w), until it
    moves less than 1e-14 (up to sign) or for 50 steps, one start at a
    time in order.  The first start whose residual reaches
    KERNEL_FOUND_TOL is kept as it is and ends the search (no extra seed
    from `_kernel_probe` does); a NaN residual is neither refined nor the
    witness.  With no start the residual is infinite and the witness None.
    """
    m, n = cc.Gmat.shape
    rng = np.random.default_rng(seed)
    starts = _unit_starts([*extra_seeds, *(rng.standard_normal(n + m)
                                           for _ in range(n_starts))])
    best_val, best_w = np.inf, None
    for w in starts:
        val = _probe_residual(cc, w)
        if val > KERNEL_FOUND_TOL:
            for _ in range(50):
                wn = np.linalg.svd(cc.tmatrix(cc.Gmat @ w[:n] + w[n:]))[2][-1]
                done = np.linalg.norm(wn - w) < 1e-14 or \
                    np.linalg.norm(wn + w) < 1e-14
                w = wn
                if done:
                    break
            val = _probe_residual(cc, w)
        if val < best_val:
            best_val, best_w = val, w
        if best_val <= KERNEL_FOUND_TOL:
            break
    return {"min_residual": best_val, "witness": best_w, "method": "search"}


def kernel_probe_verdict(probe):
    """FAILS on a witness whose residual is at most KERNEL_FOUND_TOL.
    HOLDS with no witness, the least margin as min_residual, where every
    piece of T is nonsingular or its sign region misses the null space
    ("exact") or every Lorentz piece is empty ("pieces").  A search's
    minimum is sampled, so it never gives HOLDS."""
    r, w = probe["min_residual"], probe["witness"]
    if w is None and probe["method"] != "search":
        return Verdict(HOLDS, margin=r, note="every piece is empty")
    if w is None:
        return Verdict(INCONCLUSIVE, margin=r, note="no start was tried")
    if r <= KERNEL_FOUND_TOL:
        return Verdict(FAILS, margin=r, witness=w,
                       note="nonzero kernel direction found")
    return Verdict(INCONCLUSIVE, margin=r, witness=w,
                   note="a sampled minimum certifies nothing")


# ---------------------------------------------------------------------------
# Assembled report


class ConditionReport:
    def __init__(self, fields):
        self.__dict__.update(fields)
        self._fields = fields

    def to_dict(self):
        def plain(v):
            if isinstance(v, Verdict):
                return v.to_dict()
            if isinstance(v, dict):
                return {k: plain(w) for k, w in v.items()}
            return v.tolist() if isinstance(v, np.ndarray) else v
        return plain(self._fields)


def assemble_report(prog, x, y, seed=0):
    """Run every checker at the KKT pair (x, y) and combine the verdicts.

    The headline verdict is robust isolated calmness = SRCQ and SOSC (at
    a local minimum under the RCQ); the kernel probe cross-checks it
    through the directional-derivative system, and one-way implications
    between the qualifications are audited on the spot, against the
    multiplier set that `recover_multipliers` finds at x.  `seed` reaches
    only the kernel probe's search.

    Each matrix is built once: the tangent cone tc serves RCQ,
    nondegeneracy and the recovery (its frame, G' and polar kernel); the
    cone at y serves the rest, its `hull_face` both SOSC's first face
    and the hull probe.  The report is what the public checkers give
    alone, bit for bit.
    """
    res = natural_residual(prog, x, y)
    if not res <= 1e-8:
        raise ValueError("(x, y) is not a KKT pair (residual %.2e)" % res)
    # one pulled-back cone at y = 0 for RCQ and nondegeneracy, and one at
    # y for the rest
    tc = _tangent_cone(prog, x)
    cc = problem_critical_cone(prog, x, y)
    rcq = _decide_fullness(tc, "rcq")
    srcq = _decide_fullness(cc, "srcq")
    nondeg = _nondegeneracy(tc)
    sosc = _sosc_verdict(cc.quadratic, cc)
    # the witness starts: a polar direction dy of a failed SRCQ, and a
    # critical direction d of a failed SOSC with the dy that best balances
    # the stationarity row H d + G'* dy = 0; the first that solves the
    # kernel system is the probe's witness, else the search starts there
    probe_seeds = []
    if srcq.fails and srcq.witness is not None:
        probe_seeds.append(np.concatenate([np.zeros(prog.n), srcq.witness]))
    if sosc.fails:
        d = sosc.witness
        dy = linalg.lstsq(cc.Gmat.T, -cc.H @ d)
        probe_seeds.append(np.concatenate([d, dy]))
    probe = _kernel_probe(cc, _KERNEL_STARTS, seed, probe_seeds)
    probe_v = kernel_probe_verdict(probe)
    hull = _hull_verdict(cc)
    mset = recover_multipliers(prog, x, tc)
    singleton = None if mset is None else mset.is_singleton
    verdict = (FAILS if srcq.fails or sosc.fails else
               HOLDS if srcq.holds and sosc.holds else INCONCLUSIVE)
    inconsistencies = []
    if nondeg.holds and srcq.fails:
        inconsistencies.append("nondegeneracy holds but srcq fails")
    if srcq.holds and singleton is False:
        inconsistencies.append("srcq holds but the multiplier set is not "
                               "a singleton")
    consistency = (None if INCONCLUSIVE in (verdict, probe_v.status)
                   else verdict == probe_v.status)
    return ConditionReport({
        "problem": prog.name,
        "kkt_residual": res,
        "multiplier": np.asarray(y, float),
        "rcq": rcq,
        "srcq": srcq,
        "nondegeneracy": nondeg,
        "sosc": sosc,
        "affine_hull_probe": hull,
        "kernel_probe": {"min_residual": probe["min_residual"],
                         "witness": probe["witness"],
                         "status": probe_v.status,
                         "method": probe["method"]},
        "multiplier_singleton": singleton,
        "multiplier_affine_dim": None if mset is None else mset.affine_dim,
        "theorem_verdict": verdict,
        "consistency_flag": consistency,
        "inconsistencies": inconsistencies,
    })
