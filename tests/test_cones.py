"""Tests for the projection calculus on cone products."""

import types

import numpy as np
import pytest

from conestab import cones, linalg
from conestab.cones import (Cone, dir_deriv_fixed_point, dir_deriv_conditions,
                            smat, svec)


def random_cone(rng):
    """A single random primitive cone block of ambient dimension <= 15."""
    kind = rng.choice(["orthant", "soc", "psd"])
    if kind == "psd":
        size = int(rng.integers(2, 6))
    else:
        size = int(rng.integers(2, 6))
    return Cone([(kind, size)])


class TestSvec:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for n in range(1, 6):
            S = rng.standard_normal((n, n))
            S = S + S.T
            assert np.allclose(smat(svec(S)), S)

    def test_preserves_inner_product(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((4, 4))
        A = A + A.T
        B = rng.standard_normal((4, 4))
        B = B + B.T
        assert np.isclose(svec(A) @ svec(B), np.sum(A * B))

    def test_dimension(self):
        assert cones.svec_dim(2) == 3
        assert cones.svec_dim(5) == 15

    @staticmethod
    def _loop_svec(M):
        n = M.shape[0]
        out = np.empty(cones.svec_dim(n))
        k = 0
        for j in range(n):
            for i in range(j, n):
                out[k] = M[i, j] if i == j else cones.SQRT2 * M[i, j]
                k += 1
        return out

    @staticmethod
    def _loop_smat(v, n):
        M = np.zeros((n, n))
        k = 0
        for j in range(n):
            for i in range(j, n):
                if i == j:
                    M[i, j] = v[k]
                else:
                    M[i, j] = M[j, i] = v[k] / cones.SQRT2
                k += 1
        return M

    def test_matches_reference_loops_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for n in range(1, 13):
            S = rng.standard_normal((n, n))
            S = S + S.T
            v = rng.standard_normal(cones.svec_dim(n))
            assert np.array_equal(svec(S), self._loop_svec(S))
            assert np.array_equal(smat(v), self._loop_smat(v, n))
            assert np.allclose(smat(svec(S)), S, rtol=1e-15, atol=0.0)
            assert np.allclose(svec(smat(v)), v, rtol=1e-15, atol=0.0)

    def test_rejects_non_triangular_length(self):
        for m in (2, 4, 5, 7):
            with pytest.raises(ValueError, match="triangular"):
                smat(np.zeros(m))


class TestProject:
    def test_orthant_clips_negatives(self):
        cone = Cone([("orthant", 2)])
        assert np.allclose(cone.project(np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_psd_offdiagonal(self):
        cone = Cone([("psd", 2)])
        z = svec(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(smat(cone.project(z)), 0.5 * np.ones((2, 2)))

    def test_soc_boundary_case(self):
        cone = Cone([("soc", 3)])
        assert np.allclose(cone.project(np.array([0.0, 1.0, 0.0])),
                           [0.5, 0.5, 0.0])

    def test_variational_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            cone = random_cone(rng)
            z = 2.0 * rng.standard_normal(cone.dim)
            A = cone.project(z)
            for _ in range(10):
                w = cone.project(2.0 * rng.standard_normal(cone.dim))
                assert (z - A) @ (w - A) <= 1e-10

    def test_nonexpansive(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cone = random_cone(rng)
            u = rng.standard_normal(cone.dim)
            v = rng.standard_normal(cone.dim)
            assert (np.linalg.norm(cone.project(u) - cone.project(v))
                    <= np.linalg.norm(u - v) + 1e-12)

    def test_moreau_decomposition(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            cone = random_cone(rng)
            z = rng.standard_normal(cone.dim)
            p = cone.project(z)
            q = -cone.project(-z)
            assert np.allclose(p + q, z, atol=1e-10)
            assert abs(p @ (z - p)) <= 1e-10


class TestProjJacobian:
    def test_psd_matches_central_differences(self):
        rng = np.random.default_rng(20)
        step = 1e-6
        for n in range(2, 7):
            cone = Cone([("psd", n)])
            for _ in range(3):
                Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                lam = rng.permutation(np.arange(n) - n // 2 + 0.25)
                z = svec((Q * lam) @ Q.T)
                J = cone.proj_jacobian(z)
                E = np.eye(cone.dim)
                fd = np.column_stack([(cone.project(z + step * e)
                                       - cone.project(z - step * e))
                                      / (2.0 * step) for e in E])
                assert np.max(np.abs(J - fd)) <= 1e-7

    def test_psd_is_symmetric_at_a_cross_sign_tie(self):
        # eigenvalues +-1e-16 tie; the weight of the pair must not depend
        # on which of the two is taken first
        J = cones.Block("psd", 2).proj_jacobian(
            svec([[0.0, 1e-16], [1e-16, 0.0]]))
        assert np.max(np.abs(J - J.T)) <= 1e-12


class TestSpectralFrame:
    def test_psd_indefinite_diagonal(self):
        cone = Cone([("psd", 2)])
        f = cone.frame(svec(np.diag([1.0, -1.0])))
        assert np.allclose(smat(f.a), np.diag([1.0, 0.0]))
        assert np.allclose(smat(f.b), np.diag([0.0, -1.0]))

    def test_psd_origin_is_all_boundary(self):
        cone = Cone([("psd", 2)])
        f = cone.frame(np.zeros(3))
        assert np.allclose(f.a, 0.0)
        assert np.allclose(f.b, 0.0)

    def test_orthant_active_set(self):
        cone = Cone([("orthant", 2)])
        f = cone.frame(np.array([3.0, -2.0]))
        assert np.allclose(f.a, [3.0, 0.0])
        assert np.allclose(f.b, [0.0, -2.0])

    def test_decomposition_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            cone = random_cone(rng)
            c = 2.0 * rng.standard_normal(cone.dim)
            f = cone.frame(c)
            a, b = f.a, f.b
            assert np.allclose(a + b, c)
            assert cone.dist(a) <= 1e-10
            assert abs(a @ b) <= 1e-10 * max(1.0, a @ a + b @ b)
            # b in the polar cone: projection onto K of b is zero
            assert np.linalg.norm(cone.project(b)) <= 1e-8


class TestCriticalCone:
    def test_psd_rank_one_face(self):
        # A = diag(1,0), B = diag(0,-1): membership iff D22 = 0
        cone = Cone([("psd", 2)])
        f = cone.frame(svec(np.diag([1.0, -1.0])))
        ok = svec(np.array([[2.0, 1.0], [1.0, 0.0]]))
        bad = svec(np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert f.cc_dist(ok) <= 1e-10
        assert f.cc_dist(bad) > 1e-3

    def test_orthant_pinned_coordinate(self):
        cone = Cone([("orthant", 2)])
        f = cone.frame(np.array([-1.0, 2.0]))
        assert f.cc_dist(np.array([0.0, -3.0])) <= 1e-12
        assert f.cc_dist(np.array([1.0, 0.0])) > 0.5

    def test_interior_point_gives_tangent_space(self):
        cone = Cone([("psd", 2)])
        f = cone.frame(svec(np.eye(2)))
        rng = np.random.default_rng(6)
        for _ in range(5):
            assert f.cc_dist(rng.standard_normal(3)) <= 1e-12

    def test_projection_is_idempotent_and_conic(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            cone = random_cone(rng)
            f = cone.frame(rng.standard_normal(cone.dim))
            h = rng.standard_normal(cone.dim)
            d = f.cc_project(h)
            assert np.allclose(f.cc_project(d), d, atol=1e-9)
            assert np.allclose(f.cc_project(2.5 * d), 2.5 * d, atol=1e-9)
            assert f.cc_dist(np.zeros(cone.dim)) <= 1e-12


class TestCriticalPolar:
    def test_psd_rank_one_face_polar(self):
        # critical cone {D : D22 = 0} has polar {S : S11 = S12 = 0, S22 <= 0}
        cone = Cone([("psd", 2)])
        f = cone.frame(svec(np.diag([1.0, -1.0])))
        assert f.polar_dist(svec(np.diag([0.0, -3.0]))) <= 1e-10
        assert f.polar_dist(svec(np.diag([1.0, 0.0]))) > 0.5

    def test_polar_of_full_space_is_zero(self):
        cone = Cone([("psd", 2)])
        f = cone.frame(svec(np.eye(2)))
        s = np.array([1.0, 0.0, 0.0])
        assert np.allclose(f.polar_project(s), 0.0)

    def test_polar_pairing_nonpositive(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            cone = random_cone(rng)
            f = cone.frame(rng.standard_normal(cone.dim))
            d = f.cc_project(rng.standard_normal(cone.dim))
            s = f.polar_project(rng.standard_normal(cone.dim))
            assert d @ s <= 1e-9

    def test_polar_of_polar_recovers_cone_samples(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            cone = random_cone(rng)
            f = cone.frame(rng.standard_normal(cone.dim))
            d = f.cc_project(rng.standard_normal(cone.dim))
            # d maximizes <d, s> = 0 over the polar, so it survives the
            # double-polar test: <d, s> <= 0 for all sampled polar s
            for _ in range(10):
                s = f.polar_project(rng.standard_normal(cone.dim))
                assert d @ s <= 1e-9

    def test_moreau_polar_matches_the_closed_forms(self):
        rng = np.random.default_rng(15)
        seen = set()
        for cone, c in _span_cases(rng):
            f = cone.frame(c)
            for b in f.frames:
                seen.add(_case_data(b).case if b.block.kind == "soc"
                         else b.block.kind)
                if b.block.kind == "psd" and len(b.beta):
                    seen.add("psd-beta")
            for _ in range(5):
                s = 3.0 * rng.standard_normal(cone.dim)
                ref = np.concatenate([_closed_form_polar(b, p) for b, p
                                      in zip(f.frames, cone.split(s))])
                assert np.max(np.abs(f.polar_project(s) - ref)) <= 1e-12
        assert seen >= {"int", "bdry", "smooth", "apex_ray", "apex",
                        "polar_int", "psd-beta", "zero", "orthant"}


def _case_data(f):
    """The data of one block frame's closed forms, derived from its
    snapped eigenvalues f.lam, its rows f.R and the eigenvectors of
    smat(f.c): an orthant's state per coordinate (0 inactive, 1 corner, 2
    strictly active); an SOC block's case, sig1 = t - |u|, sig2 = t + |u|,
    uhat, rhat and vhat; a PSD block's P, B and A^+."""
    k = types.SimpleNamespace()
    lam = getattr(f, "lam", None)  # a zero block has no eigenvalues
    if f.block.kind == "orthant":
        k.state = np.where(lam > 0, 0, np.where(lam < 0, 2, 1))
    elif f.block.kind == "soc":
        k.case = {(1, 1): "int", (1, 0): "bdry", (1, -1): "smooth",
                  (0, -1): "apex_ray", (0, 0): "apex",
                  (-1, -1): "polar_int"}[tuple(np.sign(lam).astype(int))]
        k.sig1, k.sig2 = lam[1], lam[0]
        k.rhat, k.vhat = f.R[0], f.R[1]
        k.uhat = cones.SQRT2 * f.R[0, 1:]
    elif f.block.kind == "psd":
        k.P = linalg.sym_eig(smat(f.c))[1]
        k.B = (k.P * np.minimum(lam, 0.0)) @ k.P.T
        inv = np.where(lam > 0, 1.0 / np.where(lam == 0, 1.0, lam), 0.0)
        k.Apinv = (k.P * inv) @ k.P.T
    return k


def _closed_form_polar(f, s):
    """Projection of s onto the polar of one block's critical cone, in
    the closed form of each block case (the reference for the Moreau
    complement s - cc_project(s))."""
    kind, k = f.block.kind, _case_data(f)
    if kind == "zero":
        return s.copy()
    if kind == "orthant":
        out = s.copy()
        out[k.state == 0] = 0.0
        corner = k.state == 1
        out[corner] = np.minimum(s[corner], 0.0)
        return out
    if kind == "soc":
        if k.case == "int":
            return np.zeros_like(s)
        if k.case == "polar_int":
            return s.copy()
        if k.case == "apex":
            return -cones._soc_project(-s)
        if k.case == "apex_ray":
            return s - max(float(k.rhat @ s), 0.0) * k.rhat
        if k.case == "bdry":
            return min(float(k.vhat @ s), 0.0) * k.vhat
        return float(k.vhat @ s) * k.vhat  # smooth: normal line
    St = k.P.T @ smat(s) @ k.P
    out = np.zeros_like(St)
    for rows, cols in ((f.beta, f.gamma), (f.gamma, f.beta),
                       (f.gamma, f.gamma)):
        out[np.ix_(rows, cols)] = St[np.ix_(rows, cols)]
    if len(f.beta):
        bb = np.ix_(f.beta, f.beta)
        out[bb] = -cones._psd_project_mat(-St[bb])
    return svec(k.P @ out @ k.P.T)


def _closed_form_dir_deriv(f, h):
    """The directional derivative of the projection on one block, in the
    closed form of each block case: the critical-cone projection, except
    on a smooth SOC boundary and on PSD blocks (the reference for
    J(h) h)."""
    k = _case_data(f)
    if f.block.kind == "soc" and k.case == "smooth":
        p = float(k.uhat @ h[1:])
        dt = 0.5 * (h[0] + p)
        scale = k.sig2 / (k.sig2 - k.sig1)
        return np.concatenate(([dt], dt * k.uhat
                               + scale * (h[1:] - p * k.uhat)))
    if f.block.kind != "psd":
        return f.cc_project(h)
    Ht = k.P.T @ smat(h) @ k.P
    out = np.zeros_like(Ht)
    a, b, g = f.alpha, f.beta, f.gamma
    for rows, cols in ((a, a), (a, b), (b, a)):
        out[np.ix_(rows, cols)] = Ht[np.ix_(rows, cols)]
    la, lg = f.lam[a][:, None], f.lam[g][None, :]
    out[np.ix_(a, g)] = la / (la - lg) * Ht[np.ix_(a, g)]
    out[np.ix_(g, a)] = out[np.ix_(a, g)].T
    if len(b):
        out[np.ix_(b, b)] = cones._psd_project_mat(Ht[np.ix_(b, b)])
    return svec(k.P @ out @ k.P.T)


def _closed_form_upsilon(f, d):
    """The sigma term of one block at a critical direction d, in closed
    form: nonzero only on a smooth SOC boundary and on PSD blocks."""
    k = _case_data(f)
    if f.block.kind == "soc" and k.case == "smooth":
        return k.sig1 / k.sig2 * (d[0] ** 2 - float(d[1:] @ d[1:]))
    if f.block.kind == "psd":
        D = smat(d)
        return -2.0 * float(np.sum(k.B * (D @ k.Apinv @ D)))
    return 0.0


def _span_cases(rng):
    """(cone, c) pairs covering every block kind, orthant corners, every
    SOC case and PSD frames with a nonempty zero-eigenvalue index set."""
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    soc = {"int": 2.0, "bdry": 1.0, "smooth": 0.3, "apex_ray": -1.0,
           "polar_int": -2.0}
    cases = [(Cone([("zero", 3)]), rng.standard_normal(3)),
             (Cone([("soc", 4)]), np.zeros(4))]
    cases += [(Cone([("soc", 4)]), np.concatenate(([t], u)))
              for t in soc.values()]
    for _ in range(10):
        signs = rng.integers(-1, 2, size=5)
        cases.append((Cone([("orthant", 5)]),
                      signs * (1.0 + rng.random(5))))
        n = int(rng.integers(2, 6))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = rng.integers(-1, 2, size=n) * (1.0 + rng.random(n))
        cases.append((Cone([("psd", n)]), svec((Q * lam) @ Q.T)))
    mixed = Cone([("zero", 1), ("orthant", 2), ("soc", 3), ("psd", 2)])
    cases.append((mixed, rng.standard_normal(mixed.dim)))
    return cases


def _in_range(U, v, tol=1e-9):
    if U.shape[1] == 0:
        return np.linalg.norm(v) <= tol
    coef = np.linalg.lstsq(U, v, rcond=None)[0]
    return np.linalg.norm(U @ coef - v) <= tol * max(1.0, np.linalg.norm(v))


class TestNormalSpan:
    def test_columns_are_orthonormal(self):
        # lets ker(G'*) ∩ span N be computed as N null(G'* N)
        rng = np.random.default_rng(16)
        for cone, c in _span_cases(rng):
            U = cone.frame(c).normal_span()
            err = np.abs(U.T @ U - np.eye(U.shape[1]))
            assert np.max(err, initial=0.0) <= 1e-12

    def test_soc_cases_are_all_covered(self):
        rng = np.random.default_rng(12)
        seen = {_case_data(f).case for cone, c in _span_cases(rng)
                for f in cone.frame(c).frames if f.block.kind == "soc"}
        assert seen == {"int", "bdry", "smooth", "apex_ray", "apex",
                        "polar_int"}

    def test_polar_lies_in_normal_span(self):
        rng = np.random.default_rng(13)
        for cone, c in _span_cases(rng):
            f = cone.frame(c)
            U = f.normal_span()
            for _ in range(5):
                s = f.polar_project(3.0 * rng.standard_normal(cone.dim))
                assert _in_range(U, s)

    def test_normal_cone_lies_in_normal_span(self):
        # a frame built at a point of K has B = 0, as at y = 0
        rng = np.random.default_rng(14)
        for cone, c in _span_cases(rng):
            f = cone.frame(cone.frame(c).a)
            U = f.normal_span()
            for _ in range(5):
                y = f.normal_project(3.0 * rng.standard_normal(cone.dim))
                assert _in_range(U, y)


def _rows_margin(rows, y):
    """The least t - ||u|| over the Lorentz rows (s, L) of y."""
    return min((float((L @ y[s])[0] - np.linalg.norm((L @ y[s])[1:]))
                for s, L in rows), default=np.inf)


def _piece_cases(rng):
    """`_span_cases` plus every case of SOC(1) and SOC(2) and PSD frames
    whose zero-eigenvalue index set has order 1, 2 and 3 next to positive
    and negative eigenvalues."""
    cases = _span_cases(rng)
    cases += [(Cone([("soc", 1)]), np.array([t])) for t in (1.0, 0.0, -1.0)]
    for u in (1.0, -1.0, 0.0):
        cases += [(Cone([("soc", 2)]), np.array([t, u]))
                  for t in (2.0, 1.0, 0.3, -1.0, -2.0)]
    cases.append((Cone([("soc", 2)]), np.zeros(2)))
    for lam in ([2.0, 0.0, -1.0], [1.5, 0.0, 0.0, -2.0],
                [1.0, 0.0, 0.0, 0.0, -1.0]):
        n = len(lam)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        cases.append((Cone([("psd", n)]), svec((Q * lam) @ Q.T)))
    return cases


class TestFramePieces:
    def test_relint_point_has_a_positive_margin_in_the_cone(self):
        # on frames with a borderline piece; elsewhere C is a subspace
        rng = np.random.default_rng(21)
        checked = 0
        for cone, c in _piece_cases(rng):
            f = cone.frame(c)
            rows, curved = f.borderline()
            if not (len(rows) or curved):
                continue
            p = f.relint_point()
            assert f.cc_dist(p) <= 1e-12 * max(1.0, np.linalg.norm(p))
            assert f.relint_margin(p) > 0.0
            checked += 1
        assert checked >= 20

    def test_borderline_rows_hold_on_the_critical_cone(self):
        rng = np.random.default_rng(22)
        for cone, c in _piece_cases(rng):
            f = cone.frame(c)
            rows, _ = f.borderline()
            for _ in range(10):
                d = f.cc_project(3.0 * rng.standard_normal(cone.dim))
                assert np.min(rows @ d, initial=0.0) >= -1e-12

    def test_normal_face_span_is_orthonormal_in_the_normal_span(self):
        rng = np.random.default_rng(23)
        for cone, c in _piece_cases(rng):
            f = cone.frame(c)
            F, U = f.normal_face_span(), f.normal_span()
            err = np.abs(F.T @ F - np.eye(F.shape[1]))
            assert np.max(err, initial=0.0) <= 1e-12
            for v in F.T:
                assert _in_range(U, v)


class TestPolarRows:
    def test_rows_agree_with_polar_membership(self):
        # points of the normal span and their polar projections, at every
        # frame and at the frame built on K, where C° is N_K(A)
        rng = np.random.default_rng(18)
        frames, seen = 0, set()
        for cone, c in _span_cases(rng):
            for f, on_k in ((cone.frame(c), False),
                            (cone.frame(cone.frame(c).a), True)):
                rows = f.polar_rows()
                if rows is None:
                    continue
                U = f.normal_span()
                for _ in range(20):
                    y = U @ rng.standard_normal(U.shape[1])
                    for z in (y, f.polar_project(y)):
                        inside = f.polar_dist(z) <= 1e-10
                        margin = _rows_margin(rows, z)
                        assert margin >= -1e-10 if inside else margin < 0
                        seen.add(inside)
                    if on_k:
                        n = f.normal_project(y)
                        assert _rows_margin(rows, n) >= -1e-10
                        assert (np.linalg.norm(y - n) <= 1e-10) == \
                            (_rows_margin(rows, y) >= -1e-10)
                frames += 1
        assert frames >= 40 and seen == {True, False}

    def test_psd_kernel_of_order_three_has_no_rows(self):
        assert Cone([("psd", 3)]).frame(np.zeros(6)).polar_rows() is None
        assert Cone([("psd", 3)]).frame(svec(np.diag(
            [1.0, 0.0, 0.0]))).polar_rows() is not None


class TestDirDeriv:
    def test_psd_offdiagonal_direction(self):
        cone = Cone([("psd", 2)])
        f = cone.frame(svec(np.diag([1.0, -1.0])))
        h = svec(np.array([[0.0, 1.0], [1.0, 0.0]]))
        got = smat(f.dir_deriv(h))
        assert np.allclose(got, [[0.0, 0.5], [0.5, 0.0]])

    def test_identity_on_interior(self):
        cone = Cone([("psd", 2)])
        f = cone.frame(svec(np.eye(2)))
        h = np.array([0.3, -1.0, 2.0])
        assert np.allclose(f.dir_deriv(h), h)

    def test_zero_on_polar_interior(self):
        cone = Cone([("psd", 2)])
        f = cone.frame(svec(-np.eye(2)))
        h = np.array([0.3, -1.0, 2.0])
        assert np.allclose(f.dir_deriv(h), 0.0)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(10)
        t = 1e-6
        for _ in range(60):
            cone = random_cone(rng)
            c = rng.standard_normal(cone.dim)
            f = cone.frame(c)
            h = rng.standard_normal(cone.dim)
            fd = (cone.project(c + t * h) - cone.project(c)) / t
            assert (np.linalg.norm(f.dir_deriv(h) - fd)
                    <= 10.0 * t * max(1.0, h @ h))

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            cone = random_cone(rng)
            f = cone.frame(rng.standard_normal(cone.dim))
            h = rng.standard_normal(cone.dim)
            for t in (0.5, 2.0, 7.25):
                assert np.allclose(f.dir_deriv(t * h), t * f.dir_deriv(h),
                                   atol=1e-10)

    def test_variational_characterization(self):
        # the output minimizes ||d - h||^2 + upsilon(d) over the critical cone
        rng = np.random.default_rng(12)
        for _ in range(10):
            cone = random_cone(rng)
            f = cone.frame(rng.standard_normal(cone.dim))
            h = rng.standard_normal(cone.dim)
            d = f.dir_deriv(h)
            val = float((d - h) @ (d - h)) + f.upsilon(d)
            for _ in range(200):
                w = f.cc_project(rng.standard_normal(cone.dim))
                trial = float((w - h) @ (w - h)) + f.upsilon(w)
                assert val <= trial + 1e-8

    def test_matches_finite_differences_on_borderline_frames(self):
        # PSD frames with |beta| = 1, 2, 3 next to alpha and gamma, and
        # every SOC case: the pieces the random frames above almost never
        # reach
        rng = np.random.default_rng(18)
        t = 1e-7
        cases = []
        for lam in ([2.0, 0.0, -1.0], [1.5, 0.0, 0.0, -2.0],
                    [0.0, 0.0, 0.0, 1.0, -1.0], [0.0, 0.0, -1.0, -1.5],
                    [1.0, 2.0, 0.0, 0.0, 0.0]):
            n = len(lam)
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            cases.append((Cone([("psd", n)]), svec((Q * lam) @ Q.T)))
        cases += [(cone, c) for cone, c in _span_cases(rng)
                  if cone.blocks[0].kind == "soc"]
        for cone, c in cases:
            f = cone.frame(c)
            for _ in range(10):
                h = rng.standard_normal(cone.dim)
                fd = (cone.project(c + t * h) - cone.project(c)) / t
                assert (np.linalg.norm(f.dir_deriv(h) - fd)
                        <= 1e2 * t * max(1.0, h @ h))

    def test_matches_the_closed_forms(self):
        rng = np.random.default_rng(19)
        seen = set()
        for cone, c in _span_cases(rng):
            f = cone.frame(c)
            for b in f.frames:
                if b.block.kind == "psd":
                    seen.add("psd-beta-%d" % min(len(b.beta), 2))
            for _ in range(5):
                h = 3.0 * rng.standard_normal(cone.dim)
                ref = np.concatenate([_closed_form_dir_deriv(b, p) for b, p
                                      in zip(f.frames, cone.split(h))])
                assert np.max(np.abs(f.dir_deriv(h) - ref)) <= 1e-12
        assert seen == {"psd-beta-0", "psd-beta-1", "psd-beta-2"}

    def test_equals_the_jacobian_product_on_every_block_case(
            self, monkeypatch):
        # every block kind and SOC case, PSD beta of size 0 to 3 and a
        # PSD(12); a PSD block forms neither its Jacobian nor the pair
        # basis, each of order n^2
        rng = np.random.default_rng(20)
        cases = _span_cases(rng)
        for lam in ([2.0, 0.0, -1.0], [0.0, 0.0, 0.0, 1.0, -1.0],
                    np.repeat([1.0, 0.0, -1.0], 4)):
            n = len(lam)
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            cases.append((Cone([("psd", n)]), svec((Q * lam) @ Q.T)))
        pairs = []
        for cone, c in cases:
            f = cone.frame(c)
            for _ in range(5):
                h = 3.0 * rng.standard_normal(cone.dim)
                pairs.append((f, h, f.dir_deriv_jac(h) @ h))
        seen = set()
        for f, _, _ in pairs:
            for b in f.frames:
                seen.add(_case_data(b).case if b.block.kind == "soc" else
                         "psd-beta-%d" % len(b.beta) if b.block.kind == "psd"
                         else b.block.kind)
        assert {"zero", "orthant", "int", "bdry", "smooth", "apex",
                "apex_ray", "polar_int", "psd-beta-0", "psd-beta-1",
                "psd-beta-2", "psd-beta-3"} <= seen

        def formed(*args):
            raise AssertionError("dir_deriv formed an n^2 x n^2 matrix")

        monkeypatch.setattr(cones, "_psd_jacobian", formed)
        monkeypatch.setattr(cones, "_pair_basis", formed)
        for f, h, ref in pairs:
            assert np.max(np.abs(f.dir_deriv(h) - ref)) <= 1e-12

    def test_euler_identity(self):
        # positively homogeneous piecewise linear maps satisfy J(h) h = D(h)
        rng = np.random.default_rng(13)
        for _ in range(30):
            cone = random_cone(rng)
            f = cone.frame(rng.standard_normal(cone.dim))
            h = rng.standard_normal(cone.dim)
            J = f.dir_deriv_jac(h)
            assert np.allclose(J @ h, f.dir_deriv(h), atol=1e-8)


class TestUpsilon:
    def test_psd_rank_one_face_value(self):
        cone = Cone([("psd", 2)])
        f = cone.frame(svec(np.diag([1.0, -1.0])))
        d = svec(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.isclose(f.upsilon(d), 2.0)

    def test_zero_direction(self):
        cone = Cone([("psd", 3)])
        f = cone.frame(np.random.default_rng(14).standard_normal(6))
        assert f.upsilon(np.zeros(6)) == 0.0

    def test_polyhedral_blocks_contribute_nothing(self):
        cone = Cone([("orthant", 3)])
        f = cone.frame(np.array([1.0, -2.0, 0.0]))
        d = f.cc_project(np.array([0.5, 0.0, 1.0]))
        assert f.upsilon(d) == 0.0

    def test_rejects_noncritical_direction(self):
        cone = Cone([("psd", 2)])
        f = cone.frame(svec(np.diag([1.0, -1.0])))
        with pytest.raises(ValueError):
            f.upsilon(svec(np.diag([0.0, 1.0])))

    def test_copositive_and_quadratic(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            cone = random_cone(rng)
            f = cone.frame(rng.standard_normal(cone.dim))
            d = f.cc_project(rng.standard_normal(cone.dim))
            u = f.upsilon(d)
            assert u >= -1e-10 * max(1.0, d @ d)
            assert np.isclose(f.upsilon(3.0 * d), 9.0 * u, atol=1e-9)

    def test_matches_the_closed_forms(self):
        rng = np.random.default_rng(17)
        for cone, c in _span_cases(rng):
            f = cone.frame(c)
            for _ in range(5):
                d = f.cc_project(3.0 * rng.standard_normal(cone.dim))
                ref = sum(_closed_form_upsilon(b, p) for b, p
                          in zip(f.frames, cone.split(d)))
                assert abs(f.upsilon(d) - ref) <= 1e-10 * max(1.0, d @ d)

    def test_gradient_pairing(self):
        # upsilon(d) = <d, grad upsilon(d)> / 2 for the quadratic form
        rng = np.random.default_rng(16)
        for _ in range(30):
            cone = random_cone(rng)
            f = cone.frame(rng.standard_normal(cone.dim))
            d = f.cc_project(rng.standard_normal(cone.dim))
            assert np.isclose(f.upsilon(d), 0.5 * d @ f.upsilon_grad(d),
                              atol=1e-9)


class TestFixedPointCharacterization:
    def test_zero_direction_with_polar_offset(self):
        cone = Cone([("psd", 2)])
        f = cone.frame(svec(np.diag([1.0, -1.0])))
        dA = np.zeros(3)
        dB = f.polar_project(svec(np.diag([-1.0, -2.0])))
        assert dir_deriv_conditions(f, dA, dB) == (True, True, True)
        assert dir_deriv_fixed_point(f, dA, dB)

    def test_face_direction_with_zero_offset(self):
        cone = Cone([("psd", 2)])
        f = cone.frame(svec(np.diag([1.0, -1.0])))
        dA = svec(np.diag([1.0, 0.0]))
        dB = np.zeros(3)
        assert dir_deriv_conditions(f, dA, dB) == (True, True, True)
        assert dir_deriv_fixed_point(f, dA, dB)

    def test_noncritical_direction_fails_first_condition(self):
        cone = Cone([("psd", 2)])
        f = cone.frame(svec(np.diag([1.0, -1.0])))
        dA = svec(np.diag([0.0, 1.0]))
        assert dir_deriv_conditions(f, dA, np.zeros(3))[0] is False

    def test_equivalence_random(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            cone = random_cone(rng)
            f = cone.frame(rng.standard_normal(cone.dim))
            dA = rng.standard_normal(cone.dim)
            dB = rng.standard_normal(cone.dim)
            if rng.random() < 0.5:
                # bias toward satisfying pairs, which are measure zero
                d = f.dir_deriv(dA + dB)
                dA, dB = d, dA + dB - d
            conj = all(dir_deriv_conditions(f, dA, dB))
            assert conj == dir_deriv_fixed_point(f, dA, dB)


def _frame_outputs(f, hs):
    """Every method of a product frame, at the directions hs where it
    takes one: (name, value) pairs."""
    out = []
    for h in hs:
        out += [("cc_project", f.cc_project(h)),
                ("polar_project", f.polar_project(h)),
                ("normal_project", f.normal_project(h)),
                ("dir_deriv", f.dir_deriv(h)),
                ("dir_deriv_jac", f.dir_deriv_jac(h)),
                ("upsilon_grad", f.upsilon_grad(h))]
    rows, curved = f.borderline()
    polar = np.vstack([L for _, L in f.polar_rows()] + [rows[:0]])
    return out + [("normal_span", f.normal_span()),
                  ("cc_equalities", f.cc_equalities()),
                  ("normal_face_span", f.normal_face_span()),
                  ("borderline", rows), ("curved", float(len(curved))),
                  ("polar_rows", polar),
                  ("relint_point", f.relint_point()),
                  ("lam", f.frames[0].lam)]


class TestLowOrderSoc:
    """SOC(1) is the half-line and SOC(2) a quadrant turned by 45
    degrees: their frames are orthant frames."""

    def test_soc1_frames_equal_orthant1_frames(self):
        hs = [np.array([v]) for v in (2.0, -0.5, 0.0)]
        for c in (1.0, 0.0, -1.0):
            soc = Cone([("soc", 1)]).frame(np.array([c]))
            orth = Cone([("orthant", 1)]).frame(np.array([c]))
            for (name, a), (_, b) in zip(_frame_outputs(soc, hs),
                                         _frame_outputs(orth, hs)):
                assert np.shape(a) == np.shape(b), (c, name)
                assert np.allclose(a, b, rtol=0.0, atol=1e-15), (c, name)
            assert soc.relint_margin(soc.relint_point()) == \
                orth.relint_margin(orth.relint_point())
            for h in hs:
                assert soc.relint_margin(h) == orth.relint_margin(h)

    def test_soc2_frames_equal_orthant2_frames_in_rhat_vhat(self):
        # Q has rows rhat and vhat, and maps SOC(2) onto the orthant; the
        # eigenvalue-valued pieces carry the SOC scale s = 1/sqrt2
        rng = np.random.default_rng(24)
        s = 1.0 / cones.SQRT2
        seen = set()
        points = [np.array([t, u]) for u in (1.0, -1.0)
                  for t in (2.0, 1.0, 0.3, 0.0, -1.0, -2.0)]
        points += [np.array([t, 0.0]) for t in (1.0, 0.0, -1.0)]
        for c in points:
            soc = Cone([("soc", 2)]).frame(c)
            Q = soc.frames[0].R
            orth = Cone([("orthant", 2)]).frame(Q @ c)
            seen.add(tuple(np.sign(orth.frames[0].lam)))
            hs = [3.0 * rng.standard_normal(2) for _ in range(4)]
            got = _frame_outputs(soc, hs)
            ref = _frame_outputs(orth, [Q @ h for h in hs])
            for (name, a), (_, b) in zip(got, ref):
                if name == "dir_deriv_jac":
                    b = Q.T @ b @ Q
                elif name in ("normal_span", "normal_face_span"):
                    b = Q.T @ b
                elif name in ("cc_equalities", "borderline", "polar_rows"):
                    b = b @ Q
                elif name == "relint_point":
                    b = s * Q.T @ b
                elif name == "lam":
                    b = b / s
                elif name != "curved":
                    b = Q.T @ b
                assert np.shape(a) == np.shape(b), (c, name)
                assert np.allclose(a, b, rtol=0.0, atol=1e-14), (c, name)
            for h in hs:
                assert np.isclose(soc.relint_margin(h),
                                  orth.relint_margin(Q @ h) / s,
                                  rtol=1e-14, atol=0.0)
        # every sign pattern of the two eigenvalues, the apex among them
        assert seen == {(1, 1), (1, 0), (1, -1), (0, -1), (0, 0),
                        (-1, -1)}


class TestConeContainer:
    def test_split_and_dim(self):
        cone = Cone([("orthant", 1), ("psd", 2)])
        assert cone.dim == 4
        parts = cone.split(np.arange(4.0))
        assert np.allclose(parts[0], [0.0])
        assert np.allclose(parts[1], [1.0, 2.0, 3.0])

    def test_spec_round_trip(self):
        cone = Cone([("zero", 2), ("orthant", 1), ("soc", 3), ("psd", 2)])
        again = Cone.from_spec(cone.to_spec())
        assert again.dim == cone.dim
        assert [(b.kind, b.size) for b in again.blocks] == \
            [(b.kind, b.size) for b in cone.blocks]

    def test_zero_block_projects_to_origin(self):
        cone = Cone([("zero", 2)])
        assert np.allclose(cone.project(np.array([1.0, -3.0])), 0.0)
