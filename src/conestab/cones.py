"""Projection calculus on products of zero/orthant/second-order/PSD cones.

A point of the ambient space is a flat float vector; PSD blocks are
embedded through svec (lower triangle, column-major, off-diagonal entries
scaled by sqrt(2)) so the ambient inner product is the Frobenius inner
product exactly.

Everything revolves around the spectral frame built at C = A + B, where
A is the projection of C onto the cone and B = C - A lies in the normal
cone at A.  The frame drives the critical cone, its polar, the
directional derivative of the projection, and the curvature (sigma) term.

Every orthant, SOC and PSD block's case is read from its Jordan frame at
C: the eigenvalues, the orthonormal Peirce rows R and the eigenvalue
pair of each row, with the eigenvalues split into alpha (positive), beta
(zero) and gamma (negative) (Sun & Sun, Math. Oper. Res. 33 (2008)).
Each method is stated once on the rows of that split.  The directional
derivative is Pi'(C; h) = J(h) h with J(h) = R' diag(Omega) R, Omega the
divided differences of each row's eigenvalue pair, [l_i + l_j > 0] on a
tie, and the projection's own derivative on the (beta, beta) rows.
"""

import functools

import numpy as np

from . import linalg

SQRT2 = np.sqrt(2.0)

_BLOCK_KINDS = ("zero", "orthant", "soc", "psd")


# ---------------------------------------------------------------------------
# svec / smat


def svec_dim(n):
    return n * (n + 1) // 2


@functools.lru_cache(maxsize=None)
def _svec_index(n):
    """Rows and columns of the lower triangle of an order-n matrix in svec
    order, with the svec scale of each entry (1 on the diagonal, sqrt(2)
    off it)."""
    cols, rows = np.triu_indices(n)
    return rows, cols, np.where(rows == cols, 1.0, SQRT2)


def svec(M):
    """Lower triangle, column-major, off-diagonals scaled by sqrt(2)."""
    M = np.asarray(M, dtype=float)
    rows, cols, scale = _svec_index(M.shape[0])
    return scale * M[rows, cols]


def smat(v):
    v = np.asarray(v, dtype=float)
    m = len(v)
    n = int(round((np.sqrt(8 * m + 1) - 1) / 2))
    if svec_dim(n) != m:
        raise ValueError("vector length is not a triangular number")
    rows, cols, scale = _svec_index(n)
    w = v / scale
    M = np.empty((n, n))
    M[rows, cols] = w
    M[cols, rows] = w
    return M


def _psd_project_mat(M):
    vals, vecs = linalg.sym_eig(M)
    pos = np.maximum(vals, 0.0)
    return (vecs * pos) @ vecs.T


def _pair_basis(P):
    """Rows svec(u u') for a pair (i, i) and svec((u v' + v u')/sqrt2)
    for i > j, with u, v the columns i, j of the orthogonal P, one for
    every pair in svec order: an orthogonal R with R svec(H) =
    svec(P'HP)."""
    rows, cols, scale = _svec_index(len(P))
    Q = P.T
    return 0.5 * np.outer(scale, scale) * (
        Q[np.ix_(rows, rows)] * Q[np.ix_(cols, cols)]
        + Q[np.ix_(cols, rows)] * Q[np.ix_(rows, cols)])


def _weights(li, lj):
    """Divided differences (l_i^+ - l_j^+)/(l_i - l_j) of the projection
    at the eigenvalue pairs (li, lj), elementwise.  On a tie, |l_i - l_j|
    <= 1e-14 max(1, |l_i|, |l_j|), the weight is [l_i + l_j > 0]:
    symmetric, and [l_i > 0] whenever the two signs agree."""
    d = li - lj
    tie = np.abs(d) <= 1e-14 * np.maximum(1.0, np.maximum(np.abs(li),
                                                          np.abs(lj)))
    return np.where(tie, (li + lj > 0).astype(float),
                    (np.maximum(li, 0.0) - np.maximum(lj, 0.0))
                    / np.where(tie, 1.0, d))


def _psd_jacobian(P, w):
    """R' diag(w) R with R = _pair_basis(P): the operator H -> P (Omega o
    P'HP) P' in svec coordinates, w the entries of Omega in svec order,
    which at the eigenframe of M with the `_weights` of its eigenvalues is
    an element of the generalized Jacobian of the PSD projection at M
    (Sun & Sun, Math. Oper. Res. 27 (2002))."""
    R = _pair_basis(P)
    return R.T @ (w[:, None] * R)


# ---------------------------------------------------------------------------
# Cone blocks


class Block:
    """One primitive cone block; `size` is the cone parameter (matrix order
    for psd), `dim` the ambient dimension it occupies."""

    def __init__(self, kind, size):
        if kind not in _BLOCK_KINDS:
            raise ValueError("unknown block kind %r" % (kind,))
        if size < 1:
            raise ValueError("block size must be >= 1")
        self.kind = kind
        self.size = size
        self.dim = svec_dim(size) if kind == "psd" else size

    def __repr__(self):
        return "Block(%r, %d)" % (self.kind, self.size)

    def project(self, z):
        z = np.asarray(z, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(z)
        if self.kind == "orthant":
            return np.maximum(z, 0.0)
        if self.kind == "soc":
            return _soc_project(z)
        return svec(_psd_project_mat(smat(z)))

    def proj_jacobian(self, z):
        """A generalized Jacobian element of the projection at z (dense)."""
        z = np.asarray(z, dtype=float)
        if self.kind == "zero":
            return np.zeros((self.dim, self.dim))
        if self.kind == "orthant":
            return np.diag((z > 0).astype(float))
        if self.kind == "soc":
            return _soc_proj_jacobian(z)
        lam, P = linalg.sym_eig(smat(z))
        rows, cols, _ = _svec_index(len(lam))
        return _psd_jacobian(P, _weights(lam[rows], lam[cols]))

    def frame(self, c):
        c = np.asarray(c, dtype=float)
        return ZeroFrame(self, c) if self.kind == "zero" else \
            BlockFrame(self, c)


def _soc_project(z):
    t, u = z[0], z[1:]
    r = np.linalg.norm(u)
    if t >= r:
        return z.copy()
    if t <= -r:
        return np.zeros_like(z)
    coef = 0.5 * (t + r)
    out = np.empty_like(z)
    out[0] = coef
    out[1:] = coef * (u / r)
    return out


def _soc_proj_jacobian(z):
    m = len(z)
    t, u = z[0], z[1:]
    r = np.linalg.norm(u)
    scale = max(1.0, np.linalg.norm(z))
    tol = 1e-14 * scale
    if r <= tol:
        return np.eye(m) if t > 0 else np.zeros((m, m))
    if t >= r - tol:
        return np.eye(m)
    if t <= -r + tol:
        return np.zeros((m, m))
    uhat = u / r
    J = np.zeros((m, m))
    J[0, 0] = 0.5
    J[0, 1:] = 0.5 * uhat
    J[1:, 0] = 0.5 * uhat
    J[1:, 1:] = 0.5 * ((1.0 + t / r) * np.eye(m - 1) - (t / r) * np.outer(uhat, uhat))
    return J


# ---------------------------------------------------------------------------
# Block frames


class ZeroFrame:
    """Frame of a zero block: the critical cone is {0} and N_K(a) the whole
    space, with no borderline piece."""

    curved = False

    def __init__(self, block, c):
        self.block = block
        self.c = c
        self.a = np.zeros_like(c)
        self.b = c.copy()

    def cc_project(self, h):
        return np.zeros_like(h)

    dir_deriv = upsilon_grad = cc_project

    def dir_deriv_jac(self, h):
        return np.zeros((self.block.dim,) * 2)

    def normal_project(self, y):
        return np.asarray(y, dtype=float).copy()

    def normal_span(self):
        return np.eye(self.block.dim)

    cc_equalities = normal_face_span = normal_span

    def rows(self):
        return np.zeros((0, self.block.dim))

    def relint_point(self):
        return np.zeros(self.block.dim)

    def relint_margin(self, h):
        return np.inf


def _jordan(kind, c):
    """The Jordan frame of c in an orthant, SOC or PSD block: eigenvalues
    lam, an orthogonal R whose rows span the Peirce spaces, the eigenvalue
    pair (first, second) of each row, and a scale s with c = s sum_i
    lam_i R_(ii).

    An orthant's rows are the unit vectors, each its own pair; SOC(1) is
    the half-line, an orthant(1).  An SOC point (t, u) has lam = (t + |u|,
    t - |u|) with rows rhat = (1, ubar)/sqrt2 and vhat = (1, -ubar)/sqrt2,
    ubar = u/|u| (e_1 when u = 0), and the rows (0, w), w an orthonormal
    basis of ubar's complement, form the pair of the two; s = 1/sqrt2.  A
    PSD point's rows are `_pair_basis` of its eigenvectors, in svec order.
    """
    if kind == "psd":
        lam, P = linalg.sym_eig(smat(c))
        rows, cols, _ = _svec_index(len(lam))
        return lam, _pair_basis(P), rows, cols, 1.0
    m = len(c)
    if kind == "orthant" or m == 1:
        idx = np.arange(m)
        return c.copy(), np.eye(m), idx, idx, 1.0
    t, u = c[0], c[1:]
    r = np.linalg.norm(u)
    ubar = u / r if r > 0 else np.eye(m - 1)[0]
    R = np.zeros((m, m))
    R[:2, 0] = 1.0 / SQRT2
    R[0, 1:] = ubar / SQRT2
    R[1, 1:] = -R[0, 1:]
    # rows 2.. of the Householder reflection taking ubar to a multiple of
    # e_1 are an orthonormal basis of ubar's complement
    v = ubar.copy()
    v[0] += np.copysign(1.0, v[0])
    R[2:, 1:] = np.eye(m - 1)[1:] - np.outer(v[1:], v) * (2.0 / (v @ v))
    first = np.r_[0, np.ones(m - 1, dtype=int)]
    second = np.r_[0, 1, np.zeros(m - 2, dtype=int)]
    return np.array([t + r, t - r]), R, first, second, 1.0 / SQRT2


class BlockFrame:
    """Frame of an orthant, SOC or PSD block at c = a + b, read from the
    Jordan frame of c (`_jordan`): its eigenvalues, snapped to zero within
    the shared rank tolerance, split into alpha (positive), beta (zero)
    and gamma (negative), and each Peirce row is classed by its pair:

      bb      both eigenvalues in beta;
      ker     both in beta or gamma: the rows of span N_K(a);
      pinned  in ker, one in gamma: zero on the critical cone;
      gg      both in gamma: the face of N_K(a) holding b.

    In the coordinates x = R h the critical cone is x_pinned = 0 and x_bb
    in the cone of the beta subalgebra, and N_K(a) is minus the cone of
    the ker subalgebra.  The block is curved when its bb rows hold an
    off-diagonal pair (an SOC(m) apex with m >= 3, a PSD beta of order
    >= 2); otherwise the beta cone is the orthant of the bb rows, its
    borderline rows.
    """

    def __init__(self, block, c):
        self.block = block
        self.c = c
        lam, self.R, first, second, self.s = _jordan(block.kind, c)
        self.lam = np.where(np.abs(lam) <= linalg.rank_tol_for(lam), 0.0,
                            lam)
        self._li, self._lj = self.lam[first], self.lam[second]
        self.diag = first == second
        self.bb = (self._li == 0) & (self._lj == 0)
        self.curved = bool(np.any(self.bb & ~self.diag))
        self._whole = bool(self.bb.all())
        self.a = self.s * (np.maximum(self.lam, 0.0) @ self.R[self.diag])
        self.b = c - self.a

    # Index sets and row masks, each built on first use.
    alpha = functools.cached_property(lambda f: np.flatnonzero(f.lam > 0))
    beta = functools.cached_property(lambda f: np.flatnonzero(f.lam == 0))
    gamma = functools.cached_property(lambda f: np.flatnonzero(f.lam < 0))
    ker = functools.cached_property(lambda f: (f._li <= 0) & (f._lj <= 0))
    pinned = functools.cached_property(lambda f: f.ker & ~f.bb)
    gg = functools.cached_property(lambda f: (f._li < 0) & (f._lj < 0))
    # Omega, zero on bb
    omega = functools.cached_property(lambda f: _weights(f._li, f._lj))

    @functools.cached_property
    def ups(self):
        """The sigma term's weights: -2 lam_gamma / lam_alpha on the
        (alpha, gamma) pairs."""
        li, lj = self._li, self._lj
        mixed = li * lj < 0
        return np.where(mixed, -2.0 * np.minimum(li, lj)
                        / np.where(mixed, np.maximum(li, lj), 1.0), 0.0)

    def _own(self, rows, x):
        """Projection of x, in the coordinates of `rows` (the bb or ker
        rows), onto the cone of their subalgebra: the orthant when the
        rows are all diagonal, else a block of this kind of their rank.
        Only a PSD block has such rows short of the whole block, and its
        (S, S) rows are the svec coordinates of P_S' H P_S; the methods
        project a whole block directly."""
        if not np.any(rows & ~self.diag):
            return np.maximum(x, 0.0)
        rank = int(np.count_nonzero(rows & self.diag))
        return Block(self.block.kind, rank).project(x)

    _Rb = functools.cached_property(lambda f: f.R[f.bb])
    # the derivative's matrix off the bb rows, fixed by the frame
    _J0 = functools.cached_property(
        lambda f: f.R.T @ (f.omega[:, None] * f.R))

    def cc_project(self, h):
        if self._whole:
            return self.block.project(h)
        x = self.R @ h
        x[self.pinned] = 0.0
        x[self.bb] = self._own(self.bb, x[self.bb])
        return self.R.T @ x

    def normal_project(self, y):
        """Minus the projection of -y onto the ker subalgebra's cone."""
        if self.ker.all():
            return -self.block.project(-y)
        Rk = self.R[self.ker]
        return Rk.T @ -self._own(self.ker, -(Rk @ y))

    def dir_deriv_jac(self, h):
        """R' diag(Omega) R, with the Jacobian of the beta subalgebra's
        projection at the bb part x of h on the bb rows: [x > 0] when
        the block is not curved."""
        if self._whole:
            return self.block.proj_jacobian(h)
        Rb = self._Rb
        x = Rb @ h
        if self.curved:
            JRb = Block(self.block.kind, len(self.beta)).proj_jacobian(x) @ Rb
        else:
            JRb = (x > 0)[:, None] * Rb
        return self._J0 + Rb.T @ JRb

    def dir_deriv(self, h):
        """dir_deriv_jac(h) @ h without forming it: R'(Omega o R h), with
        the projection on the bb rows (Euler's identity)."""
        if self._whole:
            return self.block.project(h)
        x = self.R @ h
        y = self.omega * x
        y[self.bb] = self._own(self.bb, x[self.bb])
        return self.R.T @ y

    def upsilon_grad(self, d):
        return self.R.T @ (self.ups * (self.R @ d))

    def normal_span(self):
        return self.R[self.ker].T

    def cc_equalities(self):
        return self.R[self.pinned]

    def normal_face_span(self):
        return self.R[self.gg].T

    def rows(self):
        """The borderline rows, x_bb >= 0 on the critical cone, of a block
        that is not curved."""
        return self.R[:0] if self.curved else self._Rb

    def relint_point(self):
        """s sum_b R_(bb) over beta: the unit of the beta subalgebra."""
        return self.s * self.R[self.bb & self.diag].sum(axis=0)

    def relint_margin(self, h):
        """The least eigenvalue of the beta subalgebra part of h: that of h
        when bb is the whole block, else of its bb entries x over s in the
        beta subalgebra's coordinates, the least x over s when the block is
        not curved."""
        if self._whole:
            return float(_jordan(self.block.kind, h)[0].min())
        x = self._Rb @ h / self.s
        if self.curved:
            return float(_jordan(self.block.kind, x)[0].min())
        return np.min(x, initial=np.inf)

    def lorentz_rows(self):
        """On a beta subalgebra of rank 2, the rows L with (t, u) = L h,
        t = (x_11 + x_22)/2 and u = ((x_11 - x_22)/2, x_12/sqrt2) over s,
        so that its cone is t >= |u|; None at rank 3 or more."""
        d = self.R[self.bb & self.diag]
        if len(d) != 2:
            return None
        return np.vstack([(d[0] + d[1]) / 2, (d[0] - d[1]) / 2,
                          self.R[self.bb & ~self.diag] / SQRT2]) / self.s


# ---------------------------------------------------------------------------
# Product cone


class Cone:
    """Cartesian product of primitive cone blocks."""

    def __init__(self, blocks):
        self.blocks = [b if isinstance(b, Block) else Block(*b) for b in blocks]
        if not self.blocks:
            raise ValueError("a cone needs at least one block")
        self.dim = sum(b.dim for b in self.blocks)
        self._slices = []
        off = 0
        for b in self.blocks:
            self._slices.append(slice(off, off + b.dim))
            off += b.dim

    def __repr__(self):
        return "Cone(%s)" % ", ".join(repr(b) for b in self.blocks)

    def split(self, z):
        z = np.asarray(z, dtype=float)
        if len(z) != self.dim:
            raise ValueError("point dimension %d != cone dimension %d"
                             % (len(z), self.dim))
        return [z[s] for s in self._slices]

    def project(self, z):
        parts = self.split(z)
        return np.concatenate([b.project(p) for b, p in zip(self.blocks, parts)])

    def dist(self, z):
        return float(np.linalg.norm(np.asarray(z, dtype=float) - self.project(z)))

    def proj_jacobian(self, z):
        parts = self.split(z)
        J = np.zeros((self.dim, self.dim))
        for b, p, s in zip(self.blocks, parts, self._slices):
            J[s, s] = b.proj_jacobian(p)
        return J

    def frame(self, c):
        return ConeFrame(self, c)

    def to_spec(self):
        return [{"type": b.kind, "size": b.size} for b in self.blocks]

    @classmethod
    def from_spec(cls, spec):
        """Inverse of `to_spec`; a malformed spec raises ValueError."""
        if not isinstance(spec, list) or not all(
                isinstance(d, dict) and "type" in d
                and isinstance(d.get("size"), int) for d in spec):
            raise ValueError('must be a list of {"type": ..., "size": '
                             'integer} blocks')
        return cls([Block(d["type"], d["size"]) for d in spec])


class ConeFrame:
    """Product frame at C: holds A = Pi_K(C), B = C - A and the per-block
    spectral/active-set data driving the projection calculus."""

    def __init__(self, cone, c):
        self.cone = cone
        self.c = np.asarray(c, dtype=float)
        self.frames = [b.frame(p) for b, p in zip(cone.blocks,
                                                  cone.split(self.c))]
        self.a = np.concatenate([f.a for f in self.frames])
        self.b = np.concatenate([f.b for f in self.frames])

    def _map(self, method, v):
        parts = self.cone.split(v)
        return np.concatenate([getattr(f, method)(p)
                               for f, p in zip(self.frames, parts)])

    def cc_project(self, h):
        return self._map("cc_project", h)

    def polar_project(self, s):
        """Projection onto the polar of the critical cone, by Moreau's
        decomposition s = Pi_C(s) + Pi_C°(s) of a closed convex cone."""
        s = np.asarray(s, dtype=float)
        return s - self.cc_project(s)

    def dir_deriv(self, h):
        """Pi_K'(C; h) = J(h) h, block by block: exact, because the
        directional derivative is linear on each piece and dir_deriv_jac
        is its matrix on the piece of h.  Each block applies its factors to
        h without forming J."""
        return self._map("dir_deriv", h)

    def normal_project(self, y):
        return self._map("normal_project", y)

    def cc_dist(self, h):
        return float(np.linalg.norm(np.asarray(h, dtype=float) - self.cc_project(h)))

    def polar_dist(self, s):
        return float(np.linalg.norm(np.asarray(s, dtype=float) - self.polar_project(s)))

    def dir_deriv_jac(self, h):
        parts = self.cone.split(h)
        J = np.zeros((self.cone.dim, self.cone.dim))
        for f, p, s in zip(self.frames, parts, self.cone._slices):
            J[s, s] = f.dir_deriv_jac(p)
        return J

    def upsilon(self, d, check=True):
        """The sigma term at a critical direction d: the quadratic form
        <d, upsilon_grad(d)> / 2, whose closed forms hold on the critical
        cone; with check, a d outside it raises ValueError."""
        d = np.asarray(d, dtype=float)
        if check and self.cc_dist(d) > 1e-7 * max(1.0, np.linalg.norm(d)):
            raise ValueError("direction is not in the critical cone")
        return 0.5 * float(d @ self.upsilon_grad(d))

    def upsilon_grad(self, d):
        return self._map("upsilon_grad", d)

    def embed(self, rows):
        """Ambient rows from per-block rows: block k's rows (an array or a
        list of vectors) placed in its slice, zero elsewhere, stacked in
        block order."""
        rows = [np.reshape(r, (-1, f.block.dim))
                for r, f in zip(rows, self.frames)]
        out = np.zeros((sum(len(r) for r in rows), self.cone.dim))
        k = 0
        for r, s in zip(rows, self.cone._slices):
            out[k:k + len(r), s] = r
            k += len(r)
        return out

    def normal_span(self):
        """Basis of span N_K(A), block by block.

        For zero, orthant, SOC and PSD blocks this subspace is also
        (lin T_K(A))^perp.  The critical cone is C = T_K(A) ∩ B^perp, so
        C° = cl(N_K(A) + R B), and B ∈ N_K(A) gives span C° = span N_K(A).
        One basis therefore serves RCQ, SRCQ and nondegeneracy.  Its
        columns are orthonormal: each block's are, and the blocks occupy
        disjoint slices.
        """
        return self.embed([f.normal_span().T for f in self.frames]).T

    def cc_equalities(self):
        """Rows E with span C = null E for the critical cone C."""
        return self.embed([f.cc_equalities() for f in self.frames])

    def normal_face_span(self):
        """Basis of the span of the face of N_K(A) holding B in its
        relative interior: each block's (gamma, gamma) rows."""
        return self.embed([f.normal_face_span().T for f in self.frames]).T

    def borderline(self):
        """The rows a with a . h >= 0 that cut the critical cone out of its
        affine hull, the bb rows of each block that is not curved, and the
        curved blocks as (slice, block frame) pairs."""
        curved = [(s, f) for f, s in zip(self.frames, self.cone._slices)
                  if f.curved]
        return self.embed([f.rows() for f in self.frames]), curved

    def relint_point(self):
        """A point of the critical cone's relative interior: on each block
        the unit of its beta subalgebra."""
        return np.concatenate([f.relint_point() for f in self.frames])

    def relint_margin(self, h):
        """The least eigenvalue over the blocks' beta subalgebras of an h
        in the critical cone's span, positive exactly when h lies in its
        relative interior (infinite when every block has an empty beta)."""
        return min(f.relint_margin(p)
                   for f, p in zip(self.frames, self.cone.split(h)))

    def polar_rows(self):
        """C° on span N_K(A) as Lorentz rows: a y of the normal span lies
        in C° iff t >= ||u|| for (t, u) = L y[s], for every (s, L) listed.
        A borderline row a gives the half-space row -a, and a curved block
        minus its `lorentz_rows`.  None when a curved block's beta
        subalgebra has rank 3 or more (a PSD beta of order >= 3), where C°
        has no such form.  At a frame built at a point of K, C° is
        N_K(A)."""
        rows, curved = self.borderline()
        out = [(slice(None), -a[None, :]) for a in rows]
        for s, f in curved:
            L = f.lorentz_rows()
            if L is None:
                return None
            out.append((s, -L))
        return out


def dir_deriv_conditions(frame, dA, dB, tol=1e-8):
    """The three conditions whose conjunction characterizes the fixed point
    dA = dir_deriv(frame, dA + dB)."""
    dA = np.asarray(dA, dtype=float)
    dB = np.asarray(dB, dtype=float)
    scale = max(1.0, np.linalg.norm(dA), np.linalg.norm(dB))
    c1 = frame.cc_dist(dA) <= tol * scale
    shifted = dB - 0.5 * frame.upsilon_grad(dA)
    c2 = frame.polar_dist(shifted) <= tol * scale
    ups = frame.upsilon(dA, check=False)
    c3 = abs(float(dA @ dB) - ups) <= tol * scale * scale
    return c1, c2, c3


def dir_deriv_fixed_point(frame, dA, dB, tol=1e-8):
    dA = np.asarray(dA, dtype=float)
    dB = np.asarray(dB, dtype=float)
    scale = max(1.0, np.linalg.norm(dA), np.linalg.norm(dB))
    return float(np.linalg.norm(dA - frame.dir_deriv(dA + dB))) <= tol * scale
