"""Tests for the dense symmetric linear algebra kernels."""

import numpy as np
import pytest

from conestab import linalg


class TestSymEig:
    def test_offdiagonal_two_by_two(self):
        vals, vecs = linalg.sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(vals, [1.0, -1.0])
        r = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(vecs[:, 0]), [r, r])
        assert np.allclose(np.abs(vecs[:, 1]), [r, r])
        assert np.allclose(vecs @ np.diag(vals) @ vecs.T,
                           [[0.0, 1.0], [1.0, 0.0]])

    def test_already_diagonal(self):
        vals, vecs = linalg.sym_eig(np.diag([3.0, 1.0]))
        assert np.allclose(vals, [3.0, 1.0])
        assert np.allclose(np.abs(vecs), np.eye(2))

    def test_isotropic(self):
        vals, vecs = linalg.sym_eig(2.0 * np.eye(2))
        assert np.allclose(vals, [2.0, 2.0])
        assert np.allclose(vecs.T @ vecs, np.eye(2))

    @staticmethod
    def _check_decomposition(S):
        n = S.shape[0]
        vals, vecs = linalg.sym_eig(S)
        norm = max(np.linalg.norm(S), 1.0)
        assert np.linalg.norm(vecs @ np.diag(vals) @ vecs.T - S) \
            <= 1e-10 * n * norm
        assert np.linalg.norm(vecs.T @ vecs - np.eye(n)) <= 1e-12 * n
        assert np.all(np.diff(vals) <= 1e-14)
        return vals

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = rng.integers(1, 33)
            S = rng.standard_normal((n, n))
            self._check_decomposition(S + S.T)

    def test_reconstruction_repeated_eigenvalues(self):
        rng = np.random.default_rng(5)
        for n in (4, 12, 32):
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            lam = np.repeat([3.0, 0.0, -1.0], [n // 2, 1, n - n // 2 - 1])
            vals = self._check_decomposition((Q * lam) @ Q.T)
            assert np.allclose(vals, lam, atol=1e-12)

    def test_rejects_nonfinite(self):
        for bad in (np.nan, np.inf):
            S = np.eye(3)
            S[0, 1] = S[1, 0] = bad
            with pytest.raises(ValueError):
                linalg.sym_eig(S)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        S = rng.standard_normal((5, 5))
        S = S + S.T
        v1, P1 = linalg.sym_eig(S)
        v2, P2 = linalg.sym_eig(S)
        assert np.array_equal(v1, v2)
        assert np.array_equal(P1, P2)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            linalg.sym_eig(np.zeros((2, 3)))

    def test_rejects_a_stack(self):
        with pytest.raises(ValueError):
            linalg.sym_eig(np.stack([np.eye(3)] * 4))


class TestStackedProducts:
    def test_matvec_equals_each_call(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((7, 5))
        X = rng.standard_normal((3, 4, 8))[..., 1:6]  # strided rows
        AX = linalg.matvec(A, X)
        for idx in np.ndindex(3, 4):
            assert AX[idx].tobytes() == (A @ X[idx]).tobytes()


class TestNullspace:
    def test_row_sum(self):
        basis = linalg.nullspace(np.array([[1.0, 1.0]]))
        assert basis.shape == (2, 1)
        assert np.allclose(np.abs(basis[:, 0]), 1.0 / np.sqrt(2.0))

    def test_identity_has_trivial_kernel(self):
        assert linalg.nullspace(np.eye(2)).shape == (2, 0)

    def test_zero_map(self):
        basis = linalg.nullspace(np.zeros((1, 2)))
        assert basis.shape == (2, 2)
        assert np.allclose(basis.T @ basis, np.eye(2))

    def test_kernel_property_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            M = rng.standard_normal((3, 6))
            basis = linalg.nullspace(M)
            assert basis.shape == (6, 3)
            assert np.linalg.norm(M @ basis) <= 1e-10 * np.linalg.norm(M)
            assert np.allclose(basis.T @ basis, np.eye(3), atol=1e-12)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            linalg.nullspace(np.eye(2), tol=0.0)


class TestLstsq:
    def test_identity(self):
        r = np.array([1.0, -2.0])
        assert np.allclose(linalg.lstsq(np.eye(2), r), r)

    def test_single_column(self):
        v = linalg.lstsq(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
        assert np.allclose(v, [2.0])

    def test_zero_map_minimum_norm(self):
        v = linalg.lstsq(np.zeros((2, 2)), np.array([1.0, 1.0]))
        assert np.allclose(v, 0.0)

    def test_normal_equations(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((5, 3))
        r = rng.standard_normal(5)
        v = linalg.lstsq(M, r)
        assert np.linalg.norm(M.T @ (M @ v - r)) <= 1e-10


def test_rank_tol_floors_at_unit_scale():
    tiny = linalg.rank_tol_for(np.array([1e-16, -3e-16]))
    assert tiny == linalg.RANK_TOL_FACTOR
    big = linalg.rank_tol_for(np.array([100.0, -5.0]))
    assert big == linalg.RANK_TOL_FACTOR * 100.0
