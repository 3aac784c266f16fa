"""Projection calculus on products of zero/orthant/second-order/PSD cones.

A point of the ambient space is a flat float vector; PSD blocks are
embedded through svec (lower triangle, column-major, off-diagonal entries
scaled by sqrt(2)) so the ambient inner product is the Frobenius inner
product exactly.

Everything revolves around the spectral frame built at C = A + B, where
A is the projection of C onto the cone and B = C - A lies in the normal
cone at A.  The frame drives the critical cone, its polar, the
directional derivative of the projection, and the curvature (sigma) term.

Each frame states the Jacobian J(h) of the directional derivative on the
piece that contains h, and the derivative itself is Pi'(C; h) = J(h) h.
Every PSD derivative has one form, R' diag(Omega) R, with R the
eigenvector pair basis and Omega the divided differences of the
eigenvalues, [l_i + l_j > 0] on a tie.
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


def _psd_weights(lam):
    """Divided differences Omega_ij = (l_i^+ - l_j^+)/(l_i - l_j) of the
    PSD projection at eigenvalues lam.  On a tie, |l_i - l_j| <=
    1e-14 max(1, |l_i|, |l_j|), Omega_ij = [l_i + l_j > 0]: symmetric,
    and [l_i > 0] whenever the two signs agree."""
    li, lj = lam[:, None], lam[None, :]
    d = li - lj
    tie = np.abs(d) <= 1e-14 * np.maximum(1.0, np.maximum(np.abs(li),
                                                          np.abs(lj)))
    pos = np.maximum(lam, 0.0)
    return np.where(tie, (li + lj > 0).astype(float),
                    (pos[:, None] - pos[None, :]) / np.where(tie, 1.0, d))


def _psd_jacobian(P, Omega):
    """R' diag(Omega_ij) R with R = _pair_basis(P): the operator
    H -> P (Omega o P'HP) P' in svec coordinates, which at the eigenframe
    of M with Omega = _psd_weights is an element of the generalized
    Jacobian of the PSD projection at M (Sun & Sun, Math. Oper. Res. 27
    (2002))."""
    rows, cols, _ = _svec_index(len(P))
    R = _pair_basis(P)
    return R.T @ (Omega[rows, cols][:, None] * R)


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
        return _psd_jacobian(P, _psd_weights(lam))

    def frame(self, c):
        c = np.asarray(c, dtype=float)
        if self.kind == "zero":
            return ZeroFrame(self, c)
        if self.kind == "orthant":
            return OrthantFrame(self, c)
        if self.kind == "soc":
            return SocFrame(self, c)
        return PsdFrame(self, c)


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
    def __init__(self, block, c):
        self.block = block
        self.c = c
        self.a = np.zeros_like(c)
        self.b = c.copy()

    def cc_project(self, h):
        return np.zeros_like(h)

    def dir_deriv_jac(self, h):
        d = self.block.dim
        return np.zeros((d, d))

    def upsilon_grad(self, d):
        return np.zeros_like(d)

    def normal_project(self, y):
        return np.asarray(y, dtype=float).copy()

    def normal_span(self):
        return np.eye(self.block.dim)

    def cc_equalities(self):
        return np.eye(self.block.dim)

    normal_face_span = normal_span


class OrthantFrame:
    # Per-coordinate states: 0 = inactive (a>0, d free), 1 = corner
    # (a=0, b=0, d>=0), 2 = strictly complementary active (a=0, b<0, d=0).
    def __init__(self, block, c):
        self.block = block
        self.c = c
        tol = linalg.rank_tol_for(c)
        self.a = np.where(c > tol, c, 0.0)
        self.b = c - self.a
        self.state = np.where(c > tol, 0, np.where(c < -tol, 2, 1))

    def cc_project(self, h):
        h = np.asarray(h, dtype=float)
        out = h.copy()
        corner = self.state == 1
        out[corner] = np.maximum(h[corner], 0.0)
        out[self.state == 2] = 0.0
        return out

    def dir_deriv_jac(self, h):
        h = np.asarray(h, dtype=float)
        diag = np.where(self.state == 0, 1.0,
                        np.where(self.state == 2, 0.0, (h > 0).astype(float)))
        return np.diag(diag)

    def upsilon_grad(self, d):
        return np.zeros_like(np.asarray(d, dtype=float))

    def normal_project(self, y):
        y = np.asarray(y, dtype=float)
        out = np.minimum(y, 0.0)
        out[self.state == 0] = 0.0
        return out

    def normal_span(self):
        return np.eye(self.block.dim)[:, self.state != 0]

    def cc_equalities(self):
        return np.eye(self.block.dim)[self.state == 2, :]

    def normal_face_span(self):
        return np.eye(self.block.dim)[:, self.state == 2]


class SocFrame:
    """Frame for a second-order-cone block.

    Spectral values sig1 = t - ||u||, sig2 = t + ||u||; the case table
    mirrors the sign pattern of (sig1, sig2) after snapping to the shared
    rank tolerance.  Ties are resolved toward the larger cone.
    """

    def __init__(self, block, c):
        self.block = block
        self.c = np.asarray(c, dtype=float)
        m = block.dim
        t, u = self.c[0], self.c[1:]
        r = np.linalg.norm(u)
        sig1, sig2 = t - r, t + r
        tol = linalg.rank_tol_for(np.array([sig1, sig2]))
        self.sig1, self.sig2 = sig1, sig2
        self.uhat = u / r if r > tol else np.zeros(m - 1)
        s1 = 0 if abs(sig1) <= tol else (1 if sig1 > 0 else -1)
        s2 = 0 if abs(sig2) <= tol else (1 if sig2 > 0 else -1)
        if s1 >= 0 and s2 >= 0 and (s1 > 0 or s2 > 0):
            self.case = "int" if s1 > 0 else "bdry"
        elif s1 < 0 and s2 < 0:
            self.case = "polar_int"
        elif s1 < 0 and s2 > 0:
            self.case = "smooth"
        elif s1 < 0 and s2 == 0:
            self.case = "apex_ray"
        else:
            self.case = "apex"
        # vhat spans the normal ray at a boundary point; rhat the critical ray
        self.vhat = np.concatenate(([1.0], -self.uhat)) / SQRT2
        self.rhat = np.concatenate(([1.0], self.uhat)) / SQRT2
        self.a = _soc_project(self.c)
        if self.case in ("int", "bdry"):
            self.a = self.c.copy()
        elif self.case in ("polar_int", "apex", "apex_ray"):
            self.a = np.zeros(m)
        self.b = self.c - self.a

    # --- critical cone -----------------------------------------------------
    def cc_project(self, h):
        h = np.asarray(h, dtype=float)
        case = self.case
        if case == "int":
            return h.copy()
        if case == "polar_int":
            return np.zeros_like(h)
        if case == "apex":
            return _soc_project(h)
        if case == "apex_ray":
            lam = max(float(self.rhat @ h), 0.0)
            return lam * self.rhat
        if case == "bdry":
            lam = min(float(self.vhat @ h), 0.0)
            return h - lam * self.vhat
        return h - float(self.vhat @ h) * self.vhat  # smooth: hyperplane

    # --- directional derivative of the projection --------------------------
    def dir_deriv_jac(self, h):
        m = self.block.dim
        case = self.case
        if case == "apex":
            return _soc_proj_jacobian(np.asarray(h, dtype=float))
        if case == "apex_ray":
            active = float(self.rhat @ h) > 0
            return np.outer(self.rhat, self.rhat) if active else np.zeros((m, m))
        if case == "bdry":
            inward = float(self.vhat @ h) < 0
            J = np.eye(m)
            if inward:
                J -= np.outer(self.vhat, self.vhat)
            return J
        # int, polar_int, smooth: the projection is differentiable at c
        return _soc_proj_jacobian(self.c)

    # --- curvature term -----------------------------------------------------
    def upsilon_grad(self, d):
        d = np.asarray(d, dtype=float)
        if self.case != "smooth":
            return np.zeros_like(d)
        coef = self.sig1 / self.sig2
        out = np.empty_like(d)
        out[0] = 2.0 * coef * d[0]
        out[1:] = -2.0 * coef * d[1:]
        return out

    # --- normal cone / tangent structure at A ------------------------------
    def normal_project(self, y):
        y = np.asarray(y, dtype=float)
        if self.case == "int":
            return np.zeros_like(y)
        if self.case in ("polar_int", "apex", "apex_ray"):
            return -_soc_project(-y)
        # boundary point: normal ray along -vhat
        lam = min(float(self.vhat @ y), 0.0)
        return lam * self.vhat

    def normal_span(self):
        m = self.block.dim
        if self.case == "int":
            return np.zeros((m, 0))
        if self.case in ("polar_int", "apex", "apex_ray"):
            return np.eye(m)
        return self.vhat.reshape(m, 1)

    def cc_equalities(self):
        m = self.block.dim
        if self.case == "polar_int":
            return np.eye(m)
        if self.case == "apex_ray":
            return np.eye(m) - np.outer(self.rhat, self.rhat)
        if self.case == "smooth":
            return self.vhat.reshape(1, m)
        return np.zeros((0, m))

    def normal_face_span(self):
        m = self.block.dim
        if self.case == "polar_int":
            return np.eye(m)
        if self.case in ("smooth", "apex_ray"):
            return self.vhat.reshape(m, 1)
        return np.zeros((m, 0))


class PsdFrame:
    """Eigen-frame of C = A + B for a PSD block, with index partition
    alpha (positive), beta (snapped to zero), gamma (negative)."""

    def __init__(self, block, c):
        self.block = block
        self.c = np.asarray(c, dtype=float)
        C = smat(self.c)
        lam, P = linalg.sym_eig(C)
        tol = linalg.rank_tol_for(lam)
        lam = np.where(np.abs(lam) <= tol, 0.0, lam)
        self.lam, self.P = lam, P
        self.alpha = np.where(lam > 0)[0]
        self.beta = np.where(lam == 0)[0]
        self.gamma = np.where(lam < 0)[0]
        pos = np.maximum(lam, 0.0)
        self.A = (P * pos) @ P.T
        self.B = (P * np.minimum(lam, 0.0)) @ P.T
        self.a = svec(self.A)
        self.b = svec(self.B)
        inv = np.where(lam > 0, 1.0 / np.where(lam == 0, 1.0, lam), 0.0)
        self.Apinv = (P * inv) @ P.T

    def cc_project(self, h):
        P, b, g = self.P, self.beta, self.gamma
        H = P.T @ smat(h) @ P
        H[np.ix_(np.concatenate([b, g]), g)] = 0.0
        H[np.ix_(g, b)] = 0.0
        if len(b):
            bb = np.ix_(b, b)
            H[bb] = _psd_project_mat(H[bb])
        return svec(P @ H @ P.T)

    def _piece(self, h):
        """The eigenvectors P and weights Omega of the projection's
        Jacobian on the piece of h: the weights at lam, with the beta
        columns turned to the eigenvectors of P_beta' smat(h) P_beta and
        the beta-beta block weighted by the divided differences of those
        eigenvalues."""
        P, Omega = self.P.copy(), _psd_weights(self.lam)
        b = self.beta
        if len(b):
            mu, V = linalg.sym_eig(P[:, b].T @ smat(h) @ P[:, b])
            P[:, b] = P[:, b] @ V
            Omega[np.ix_(b, b)] = _psd_weights(mu)
        return P, Omega

    def dir_deriv_jac(self, h):
        return _psd_jacobian(*self._piece(h))

    def dir_deriv(self, h):
        """dir_deriv_jac(h) @ h without forming a matrix of order n^2:
        R'(Omega o R h) for R = _pair_basis(P), with R h = svec(P'HP)
        applied as a congruence, O(n^3) where J(h) h is O(n^6)."""
        P, Omega = self._piece(h)
        return svec(P @ (Omega * (P.T @ smat(h) @ P)) @ P.T)

    def upsilon_grad(self, d):
        D = smat(d)
        G = -2.0 * (self.B @ D @ self.Apinv + self.Apinv @ D @ self.B)
        return svec(0.5 * (G + G.T))

    def normal_project(self, y):
        ker = np.concatenate([self.beta, self.gamma])
        if len(ker) == 0:
            return np.zeros_like(np.asarray(y, dtype=float))
        U0 = self.P[:, ker]
        W = U0.T @ smat(y) @ U0
        return svec(U0 @ (-_psd_project_mat(-W)) @ U0.T)

    def _pair_rows(self, first, second):
        """The rows of `_pair_basis` for the eigenvector pairs (i, j),
        i >= j, with i in first and j in second, in svec order."""
        rows, cols, _ = _svec_index(self.block.size)
        keep = np.isin(rows, first) & np.isin(cols, second)
        return _pair_basis(self.P)[keep]

    def normal_span(self):
        ker = np.concatenate([self.beta, self.gamma])
        return self._pair_rows(ker, ker).T

    def cc_equalities(self):
        # the (gamma, beta) and (gamma, gamma) pairs
        return self._pair_rows(self.gamma,
                               np.concatenate([self.beta, self.gamma]))

    def normal_face_span(self):
        return self._pair_rows(self.gamma, self.gamma).T


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
        is its matrix on the piece of h.  A PSD block applies its factors
        to h without forming J."""
        return np.concatenate([f.dir_deriv(p) if f.block.kind == "psd"
                               else f.dir_deriv_jac(p) @ p for f, p in
                               zip(self.frames, self.cone.split(h))])

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
        relative interior: the orthant indices with b < 0, vhat on an SOC
        ray of N, the whole of int N, a PSD block's (gamma, gamma) pairs."""
        return self.embed([f.normal_face_span().T for f in self.frames]).T

    def borderline(self):
        """The rows a with a . h >= 0 that cut the critical cone out of its
        affine hull, one per polyhedral borderline piece (an orthant corner
        e_i, an SOC boundary vhat or apex ray rhat, svec(p p') for a PSD
        beta {p} of size 1), and the curved blocks as (slice, block frame)
        pairs (an SOC apex, a PSD beta of size >= 2)."""
        rows, curved = [], []
        for f, s in zip(self.frames, self.cone._slices):
            kind = f.block.kind
            local = []
            if kind == "orthant":
                local = np.eye(f.block.dim)[f.state == 1]
            elif kind == "soc":
                local = {"bdry": [f.vhat], "apex_ray": [f.rhat]}.get(f.case,
                                                                     [])
                if f.case == "apex":
                    curved.append((s, f))
            elif kind == "psd" and len(f.beta) == 1:
                p = f.P[:, f.beta[0]]
                local = [svec(np.outer(p, p))]
            elif kind == "psd" and len(f.beta) >= 2:
                curved.append((s, f))
            rows.append(local)
        return self.embed(rows), curved

    def relint_point(self):
        """A point of the critical cone's relative interior: the sum of
        the borderline rows and, on each curved block, (1, 0) at an SOC
        apex or svec(P_beta P_beta') on a PSD beta."""
        rows, curved = self.borderline()
        c = rows.sum(axis=0)
        for s, f in curved:
            c[s] += (np.eye(f.block.dim)[0] if f.block.kind == "soc" else
                     svec(f.P[:, f.beta] @ f.P[:, f.beta].T))
        return c

    def relint_margin(self, h):
        """The least value over the critical cone's pieces of an h in its
        span, positive exactly when h lies in its relative interior: a . h
        for a borderline row a, t - ||u|| at an SOC apex, and
        lambda_min(P_beta' smat(h) P_beta) on a PSD beta of size >= 2."""
        rows, curved = self.borderline()
        vals = list(rows @ h)
        for s, f in curved:
            if f.block.kind == "soc":
                vals.append(float(h[s][0] - np.linalg.norm(h[s][1:])))
            else:
                Pb = f.P[:, f.beta]
                vals.append(float(linalg.sym_eig(
                    Pb.T @ smat(h[s]) @ Pb)[0][-1]))
        return min(vals)

    def polar_rows(self):
        """C° on span N_K(A) as Lorentz rows: a y of the normal span lies
        in C° iff t >= ||u|| for (t, u) = L y[s], for every (s, L) listed.
        A borderline row a gives the half-space row -a.  A curved block
        gives -L: L = I at an SOC apex, and for a PSD beta {p, q} the rows
        t = (W11 + W22)/2, u = ((W11 - W22)/2, W12) of W = [p q]' smat(y)
        [p q].  None when a PSD beta has order >= 3, where C° has no such
        form.  At a frame built at a point of K, C° is N_K(A)."""
        rows, curved = self.borderline()
        out = [(slice(None), -a[None, :]) for a in rows]
        for s, f in curved:
            if f.block.kind == "soc":
                out.append((s, -np.eye(f.block.dim)))
            elif len(f.beta) > 2:
                return None
            else:
                R = f._pair_rows(f.beta, f.beta)
                out.append((s, -np.array([(R[0] + R[2]) / 2,
                                          (R[0] - R[2]) / 2, R[1] / SQRT2])))
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
