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
    """Eigendecomposition of a symmetric matrix, or of each matrix of a
    stack along the leading axes, by LAPACK (numpy's eigh).

    Returns (values, vectors): eigenvalues sorted descending and
    orthonormal eigenvector columns, so that
    vectors @ diag(values) @ vectors.T reconstructs the symmetric part of
    S.  eigh runs once per matrix of a stack, so each gives the bits of
    its own call.  Raises ValueError on a non-square or non-finite input,
    since eigh would return NaN eigenvectors without raising.
    """
    A = np.array(S, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError("sym_eig expects a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("sym_eig expects finite entries")
    vals, vecs = np.linalg.eigh(0.5 * (A + np.swapaxes(A, -1, -2)))
    return vals[..., ::-1], vecs[..., ::-1]


def nullspace(M, tol=1e-10):
    """Orthonormal basis of ker(M) as columns; empty (n, 0) when trivial."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if tol <= 0:
        raise ValueError("tol must be positive")
    if M.size == 0 or not np.any(M):
        return np.eye(M.shape[1])
    _, s, Vt = np.linalg.svd(M)
    rank = int(np.sum(s > tol * max(1.0, s[0])))
    return Vt[rank:].T.copy()


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


def norms(X):
    """The Euclidean norm of each vector x along the last axis of X, as
    sqrt(x . x) with one dot product per vector: the bits of
    np.linalg.norm(x), which np.linalg.norm(X, axis=-1) does not give."""
    return np.sqrt((X[..., None, :] @ X[..., :, None])[..., 0, 0])


def rank_tol_for(values):
    """Absolute snap tolerance from the spectral scale, floored at unit
    scale so numerically-zero data (entries near machine epsilon) snaps
    to exactly zero on desk-scale problems."""
    vmax = float(np.max(np.abs(values))) if len(values) else 0.0
    return RANK_TOL_FACTOR * max(vmax, 1.0)
