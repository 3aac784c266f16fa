"""Dense symmetric linear algebra kernels (desk scale, n <= 64).

Determinism contract: bit-identical on the same build.  `sym_eig` is one
LAPACK call (numpy's eigh) with its ascending output reversed, so
repeated calls on the same input give the same bits under the same numpy
and LAPACK; other builds may differ in round-off.
"""

import numpy as np

# Eigenvalues within RANK_TOL_FACTOR * max|lambda| of zero are snapped to
# zero wherever an index partition is built.  A single shared tolerance
# keeps the partitions consistent across modules.
RANK_TOL_FACTOR = 1e-9


def sym_eig(S):
    """Eigendecomposition of a symmetric matrix by LAPACK (numpy's eigh).

    Returns (values, vectors): eigenvalues sorted descending and
    orthonormal eigenvector columns, so that
    vectors @ diag(values) @ vectors.T reconstructs the symmetric part of
    S.  Raises ValueError on an input that is not one square matrix (a
    stack of them included) or has a non-finite entry, since eigh would
    return NaN eigenvectors without raising.
    """
    A = np.asarray(S, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("sym_eig expects a square matrix")
    if not np.isfinite(A).all():
        raise ValueError("sym_eig expects finite entries")
    vals, vecs = np.linalg.eigh(0.5 * (A + A.T))
    return vals[::-1], vecs[:, ::-1]


def norm(v):
    """np.linalg.norm(v) of a float vector, by numpy's own formula."""
    v = v.ravel(order="K")
    return np.sqrt(v.dot(v))


def relative_rank(sig, tol):
    """The number of the descending singular values sig above
    tol * max(1, sig[0]): the one rank rule of every null space and
    nonsingularity test, each with its own tol."""
    return int(np.sum(sig > tol * max(1.0, sig[0])))


def nullspace(M, tol=1e-10):
    """Orthonormal basis of ker(M) as columns, at `relative_rank`; empty
    (n, 0) when trivial."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if tol <= 0:
        raise ValueError("tol must be positive")
    if M.size == 0 or not np.any(M):
        return np.eye(M.shape[1])
    _, s, Vt = np.linalg.svd(M)
    return Vt[relative_rank(s, tol):].T.copy()


def lstsq(M, r):
    """Minimum-norm minimizer of ||M v - r||."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    r = np.asarray(r, dtype=float)
    if M.size == 0:
        return np.zeros(M.shape[1])
    v, _, _, _ = np.linalg.lstsq(M, r, rcond=None)
    return v


def matvec(A, X):
    """A x for each vector x along the last axis of X.  matmul runs one
    product per vector, so each gives the bits of A @ x; X @ A.T does
    not."""
    return (A @ X[..., None])[..., 0]


def rank_tol_for(values):
    """Absolute snap tolerance from the spectral scale, floored at unit
    scale so numerically-zero data (entries near machine epsilon) snaps
    to exactly zero on desk-scale problems."""
    vmax = float(np.max(np.abs(values))) if len(values) else 0.0
    return RANK_TOL_FACTOR * max(vmax, 1.0)
