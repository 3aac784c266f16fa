"""Projection calculus on products of zero/orthant/second-order/PSD cones.

A point of the ambient space is a flat float vector; PSD blocks are
embedded through svec (lower triangle, column-major, off-diagonal entries
scaled by sqrt(2)) so the ambient inner product is the Frobenius inner
product exactly.

Everything revolves around the spectral frame built at C = A + B, where
A is the projection of C onto the cone and B = C - A lies in the normal
cone at A.  The frame drives the critical cone, its polar, the
directional derivative of the projection, and the curvature (sigma) term.
"""

import numpy as np

from . import linalg

SQRT2 = np.sqrt(2.0)

_BLOCK_KINDS = ("zero", "orthant", "soc", "psd")


# ---------------------------------------------------------------------------
# svec / smat


def svec_dim(n):
    return n * (n + 1) // 2


def svec(M):
    """Lower triangle, column-major, off-diagonals scaled by sqrt(2)."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    out = np.empty(svec_dim(n))
    k = 0
    for j in range(n):
        for i in range(j, n):
            out[k] = M[i, j] if i == j else SQRT2 * M[i, j]
            k += 1
    return out


def smat(v):
    v = np.asarray(v, dtype=float)
    m = len(v)
    n = int(round((np.sqrt(8 * m + 1) - 1) / 2))
    if svec_dim(n) != m:
        raise ValueError("vector length is not a triangular number")
    M = np.zeros((n, n))
    k = 0
    for j in range(n):
        for i in range(j, n):
            if i == j:
                M[i, j] = v[k]
            else:
                M[i, j] = M[j, i] = v[k] / SQRT2
            k += 1
    return M


def _psd_project_mat(M):
    vals, vecs = linalg.sym_eig(M)
    pos = np.maximum(vals, 0.0)
    return (vecs * pos) @ vecs.T


def _psd_proj_jac_mat(M):
    """Generalized Jacobian of the PSD projection at M, as an operator.

    Frame operator H -> P (Omega o P'HP) P' with
    Omega_ij = (l_i^+ - l_j^+)/(l_i - l_j), and Omega_ij = 1 if l_i > 0
    else 0 on ties.
    """
    vals, vecs = linalg.sym_eig(M)
    n = len(vals)
    pos = np.maximum(vals, 0.0)
    Omega = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d = vals[i] - vals[j]
            if abs(d) > 1e-14 * max(1.0, abs(vals[i]), abs(vals[j])):
                Omega[i, j] = (pos[i] - pos[j]) / d
            else:
                Omega[i, j] = 1.0 if vals[i] > 0 else 0.0

    def apply(H):
        Ht = vecs.T @ H @ vecs
        return vecs @ (Omega * Ht) @ vecs.T

    return apply


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
        apply = _psd_proj_jac_mat(smat(z))
        return _mat_op_to_svec(apply, self.size)

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


def _mat_op_to_svec(apply, n):
    m = svec_dim(n)
    J = np.zeros((m, m))
    for k in range(m):
        e = np.zeros(m)
        e[k] = 1.0
        J[:, k] = svec(apply(smat(e)))
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

    def polar_project(self, s):
        return np.asarray(s, dtype=float).copy()

    def dir_deriv(self, h):
        return np.zeros_like(h)

    def dir_deriv_jac(self, h):
        d = self.block.dim
        return np.zeros((d, d))

    def upsilon(self, d):
        return 0.0

    def upsilon_grad(self, d):
        return np.zeros_like(d)

    def normal_project(self, y):
        return np.asarray(y, dtype=float).copy()

    def normal_span(self):
        return np.eye(self.block.dim)

    def cc_equalities(self):
        return np.eye(self.block.dim)


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

    def polar_project(self, s):
        s = np.asarray(s, dtype=float)
        out = s.copy()
        out[self.state == 0] = 0.0
        corner = self.state == 1
        out[corner] = np.minimum(s[corner], 0.0)
        return out

    def dir_deriv(self, h):
        return self.cc_project(h)

    def dir_deriv_jac(self, h):
        h = np.asarray(h, dtype=float)
        diag = np.where(self.state == 0, 1.0,
                        np.where(self.state == 2, 0.0, (h > 0).astype(float)))
        return np.diag(diag)

    def upsilon(self, d):
        return 0.0

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

    def polar_project(self, s):
        s = np.asarray(s, dtype=float)
        case = self.case
        if case == "int":
            return np.zeros_like(s)
        if case == "polar_int":
            return s.copy()
        if case == "apex":
            return -_soc_project(-s)
        if case == "apex_ray":
            lam = max(float(self.rhat @ s), 0.0)
            return s - lam * self.rhat
        if case == "bdry":
            lam = min(float(self.vhat @ s), 0.0)
            return lam * self.vhat
        return float(self.vhat @ s) * self.vhat  # smooth: normal line

    # --- directional derivative of the projection --------------------------
    def dir_deriv(self, h):
        h = np.asarray(h, dtype=float)
        if self.case != "smooth":
            return self.cc_project(h)
        ht, hu = h[0], h[1:]
        p = float(self.uhat @ hu)
        hperp = hu - p * self.uhat
        dt = 0.5 * (ht + p)
        scale = self.sig2 / (self.sig2 - self.sig1)
        out = np.empty_like(h)
        out[0] = dt
        out[1:] = dt * self.uhat + scale * hperp
        return out

    def dir_deriv_jac(self, h):
        m = self.block.dim
        case = self.case
        if case == "int":
            return np.eye(m)
        if case == "polar_int":
            return np.zeros((m, m))
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
        J = np.zeros((m, m))
        basis = np.eye(m)
        for k in range(m):
            J[:, k] = self.dir_deriv(basis[k])
        return J

    # --- curvature term -----------------------------------------------------
    def upsilon(self, d):
        if self.case != "smooth":
            return 0.0
        d = np.asarray(d, dtype=float)
        coef = self.sig1 / self.sig2
        return coef * (d[0] ** 2 - float(d[1:] @ d[1:]))

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

    def _to_frame(self, h):
        return self.P.T @ smat(h) @ self.P

    def _from_frame(self, Ht):
        return svec(self.P @ Ht @ self.P.T)

    def cc_project(self, h):
        Ht = self._to_frame(h)
        out = Ht.copy()
        b, g = self.beta, self.gamma
        out[np.ix_(b, g)] = 0.0
        out[np.ix_(g, b)] = 0.0
        out[np.ix_(g, g)] = 0.0
        if len(b):
            out[np.ix_(b, b)] = _psd_project_mat(Ht[np.ix_(b, b)])
        return self._from_frame(out)

    def polar_project(self, s):
        St = self._to_frame(s)
        out = np.zeros_like(St)
        b, g = self.beta, self.gamma
        out[np.ix_(b, g)] = St[np.ix_(b, g)]
        out[np.ix_(g, b)] = St[np.ix_(g, b)]
        out[np.ix_(g, g)] = St[np.ix_(g, g)]
        if len(b):
            out[np.ix_(b, b)] = -_psd_project_mat(-St[np.ix_(b, b)])
        return self._from_frame(out)

    def dir_deriv(self, h):
        Ht = self._to_frame(h)
        a, b, g = self.alpha, self.beta, self.gamma
        out = np.zeros_like(Ht)
        out[np.ix_(a, a)] = Ht[np.ix_(a, a)]
        out[np.ix_(a, b)] = Ht[np.ix_(a, b)]
        out[np.ix_(b, a)] = Ht[np.ix_(b, a)]
        if len(a) and len(g):
            la = self.lam[a][:, None]
            lg = self.lam[g][None, :]
            W = la / (la - lg)
            out[np.ix_(a, g)] = W * Ht[np.ix_(a, g)]
            out[np.ix_(g, a)] = out[np.ix_(a, g)].T
        if len(b):
            out[np.ix_(b, b)] = _psd_project_mat(Ht[np.ix_(b, b)])
        return self._from_frame(out)

    def dir_deriv_jac(self, h):
        a, b, g = self.alpha, self.beta, self.gamma
        n = self.block.size
        Ht = self._to_frame(h)
        bb_jac = _psd_proj_jac_mat(Ht[np.ix_(b, b)]) if len(b) else None

        def apply(H):
            Hf = self.P.T @ H @ self.P
            out = np.zeros_like(Hf)
            out[np.ix_(a, a)] = Hf[np.ix_(a, a)]
            out[np.ix_(a, b)] = Hf[np.ix_(a, b)]
            out[np.ix_(b, a)] = Hf[np.ix_(b, a)]
            if len(a) and len(g):
                la = self.lam[a][:, None]
                lg = self.lam[g][None, :]
                W = la / (la - lg)
                out[np.ix_(a, g)] = W * Hf[np.ix_(a, g)]
                out[np.ix_(g, a)] = out[np.ix_(a, g)].T
            if len(b):
                out[np.ix_(b, b)] = bb_jac(Hf[np.ix_(b, b)])
            return self.P @ out @ self.P.T

        return _mat_op_to_svec(apply, n)

    def upsilon(self, d):
        D = smat(d)
        return -2.0 * float(np.sum(self.B * (D @ self.Apinv @ D)))

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

    def normal_span(self):
        ker = np.concatenate([self.beta, self.gamma])
        cols = []
        for ii in range(len(ker)):
            for jj in range(ii, len(ker)):
                u, v = self.P[:, ker[ii]], self.P[:, ker[jj]]
                if ii == jj:
                    M = np.outer(u, u)
                else:
                    M = (np.outer(u, v) + np.outer(v, u)) / SQRT2
                cols.append(svec(M))
        if not cols:
            return np.zeros((self.block.dim, 0))
        return np.array(cols).T

    def cc_equalities(self):
        b, g = self.beta, self.gamma
        rows = []
        pairs = [(i, j) for i in b for j in g]
        pairs += [(g[ii], g[jj]) for ii in range(len(g)) for jj in range(ii, len(g))]
        for i, j in pairs:
            u, v = self.P[:, i], self.P[:, j]
            if i == j:
                M = np.outer(u, u)
            else:
                M = (np.outer(u, v) + np.outer(v, u)) / SQRT2
            rows.append(svec(M))
        if not rows:
            return np.zeros((0, self.block.dim))
        return np.array(rows)


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
        return self._map("polar_project", s)

    def dir_deriv(self, h):
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

    def upsilon(self, d, check=True, tol=1e-7):
        d = np.asarray(d, dtype=float)
        if check and self.cc_dist(d) > tol * max(1.0, np.linalg.norm(d)):
            raise ValueError("direction is not in the critical cone")
        return sum(f.upsilon(p) for f, p in zip(self.frames, self.cone.split(d)))

    def upsilon_grad(self, d):
        return self._map("upsilon_grad", d)

    def _stack_cols(self, method):
        cols = []
        for f, s in zip(self.frames, self.cone._slices):
            basis = getattr(f, method)()
            for k in range(basis.shape[1]):
                v = np.zeros(self.cone.dim)
                v[s] = basis[:, k]
                cols.append(v)
        if not cols:
            return np.zeros((self.cone.dim, 0))
        return np.array(cols).T

    def normal_span(self):
        """Basis of span N_K(A), block by block.

        For zero, orthant, SOC and PSD blocks this subspace is also
        (lin T_K(A))^perp.  The critical cone is C = T_K(A) ∩ B^perp, so
        C° = cl(N_K(A) + R B), and B ∈ N_K(A) gives span C° = span N_K(A).
        One basis therefore serves RCQ, SRCQ and nondegeneracy.
        """
        return self._stack_cols("normal_span")

    def cc_equalities(self):
        rows = []
        for f, s in zip(self.frames, self.cone._slices):
            E = f.cc_equalities()
            for k in range(E.shape[0]):
                r = np.zeros(self.cone.dim)
                r[s] = E[k]
                rows.append(r)
        if not rows:
            return np.zeros((0, self.cone.dim))
        return np.array(rows)

    def cc_sample(self, rng, scale=1.0):
        return self.cc_project(scale * rng.standard_normal(self.cone.dim))


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
