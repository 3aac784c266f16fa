"""Tests for the KKT residual maps, multiplier recovery, and the solver."""

import numpy as np

from conestab import kkt, model
from conestab.cones import smat, svec
from conestab.kkt import (KKTPoint, SolveOptions, natural_map,
                          natural_residual, normal_map, recover_multipliers,
                          solve_kkt, solve_kkt_multistart)

ALL_REFERENCED = ("example1", "example2", "example3", "example4")


class TestNaturalMap:
    def test_vanishes_at_reference_pairs(self):
        for name in ALL_REFERENCED:
            prog = model.builtin(name)
            x, y = model.fixture(name).reference
            assert natural_residual(prog, x, y) <= 1e-12, name

    def test_vanishes_at_generated_instances(self):
        for kind in ("orthant", "psd"):
            prog, x, y = model.well_conditioned_instance(kind, seed=0)
            assert natural_residual(prog, x, y) <= 1e-12

    def test_positive_away_from_solutions(self):
        rng = np.random.default_rng(0)
        prog = model.builtin("example1")
        for _ in range(10):
            x = rng.standard_normal(2)
            y = rng.standard_normal(3)
            assert natural_residual(prog, x, y) > 1e-4

    def test_stationarity_block_is_linear_in_y(self):
        prog = model.builtin("example4")
        rng = np.random.default_rng(1)
        x = rng.standard_normal(3)
        y1 = rng.standard_normal(4)
        y2 = rng.standard_normal(4)
        n = prog.n
        s1 = natural_map(prog, x, y1)[:n]
        s2 = natural_map(prog, x, y2)[:n]
        s12 = natural_map(prog, x, y1 + y2)[:n]
        grad = prog.gradient(x)
        assert np.allclose(s12 - grad, (s1 - grad) + (s2 - grad))


class TestNormalMap:
    def test_zero_at_shifted_reference(self):
        # z = G(x) + b + y turns a natural-map root into a normal-map root
        for name in ALL_REFERENCED:
            prog = model.builtin(name)
            x, y = model.fixture(name).reference
            z = prog.constraint(x) + y
            assert np.linalg.norm(normal_map(prog, x, z)) <= 1e-12, name

    def test_consistency_for_solved_perturbed_pairs(self):
        prog = model.builtin("example4")
        direction = model.fixture("example4").direction
        for eps in (1e-2, 1e-4):
            pert = direction.scaled(eps)
            pt = solve_kkt_multistart(prog, pert)
            assert pt.converged
            z = prog.constraint(pt.x, pert.b) + pt.y
            assert np.linalg.norm(normal_map(prog, pt.x, z, pert)) <= 1e-9

    def test_interior_z_reduces_to_smooth_equations(self):
        prog = model.builtin("example1")
        rng = np.random.default_rng(2)
        x = rng.standard_normal(2)
        z = svec(np.eye(2) + 0.1 * smat(rng.standard_normal(3)))
        r = normal_map(prog, x, z)
        assert np.allclose(r[2:], prog.constraint(x) - z)


class TestRecoverMultipliers:
    def test_unique_multiplier_is_recovered(self):
        prog = model.builtin("example1")
        mset = recover_multipliers(prog, np.zeros(2))
        assert mset is not None
        assert mset.is_singleton
        assert np.allclose(smat(mset.representative), np.diag([-1.0, 0.0]),
                           atol=1e-8)

    def test_nonunique_face_is_detected(self):
        prog = model.builtin("example2")
        mset = recover_multipliers(prog, np.zeros(2))
        assert mset is not None
        assert mset.affine_dim >= 1
        assert not mset.is_singleton
        # representative satisfies the KKT system
        assert natural_residual(prog, np.zeros(2), mset.representative) <= 1e-8
        # so does every small move along the recorded directions
        for k in range(mset.directions.shape[1]):
            y = mset.representative + 1e-7 * mset.directions[:, k]
            assert natural_residual(prog, np.zeros(2), y) <= 1e-6

    def test_nonstationary_point_has_no_multiplier(self):
        prog = model.builtin("example1")
        assert recover_multipliers(prog, np.array([1.0, 1.0])) is None

    def test_infeasible_point_has_no_multiplier(self):
        prog = model.builtin("example4")
        assert recover_multipliers(prog, np.array([5.0, 0.0, -3.0])) is None


class TestSolveKkt:
    def test_noisy_start_converges_on_nondegenerate_fixture(self):
        prog = model.builtin("example4")
        x, y = model.fixture("example4").reference
        rng = np.random.default_rng(3)
        start = KKTPoint(x + 1e-2 * rng.standard_normal(3),
                         y + 1e-2 * rng.standard_normal(4), 1.0)
        pt = solve_kkt(prog, start=start)
        assert pt.converged
        assert pt.residual <= 1e-11
        assert np.allclose(smat(pt.x), np.diag([1.0, 0.0]), atol=1e-8)

    def test_exact_start_needs_no_iterations(self):
        prog = model.builtin("example4")
        x, y = model.fixture("example4").reference
        pt = solve_kkt(prog, start=KKTPoint(x, y, 0.0))
        assert pt.iterations == 0
        assert pt.converged

    def test_primal_converges_despite_nonunique_multipliers(self):
        prog = model.builtin("example2")
        pt = solve_kkt_multistart(prog)
        assert pt.converged
        assert np.linalg.norm(pt.x) <= 1e-8
        assert natural_residual(prog, np.zeros(2), pt.y) <= 1e-10

    def test_failure_keeps_best_iterate(self):
        prog = model.builtin("example1")
        opts = SolveOptions(max_iter=2)
        pt = solve_kkt(prog, start=KKTPoint(np.ones(2), np.ones(3), 1.0),
                       opts=opts)
        assert not pt.converged
        assert pt.residual == natural_residual(prog, pt.x, pt.y)

    def test_deterministic(self):
        prog = model.builtin("example3")
        a = solve_kkt_multistart(prog)
        b = solve_kkt_multistart(prog)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_nan_data_is_not_converged(self):
        base = model.builtin("example4")
        c = base.c.copy()
        c[0] = np.nan
        prog = model.ConicProgram(base.n, base.Q, c, base.c0, base.A0,
                                  base.Ai, base.cone, name="nan-c")
        pt = solve_kkt(prog)
        assert not pt.converged
        assert not solve_kkt_multistart(prog).converged


class TestSemismoothness:
    def test_jacobian_linearizes_natural_map(self):
        # away from partition boundaries the selected generalized Jacobian
        # satisfies ||F(w + d) - F(w) - V d|| = o(||d||)
        rng = np.random.default_rng(4)
        prog = model.builtin("example4")
        x, y = model.fixture("example4").reference
        x = x + 0.05 * rng.standard_normal(3)
        y = y + 0.05 * rng.standard_normal(4)
        J = prog.cone.proj_jacobian(prog.constraint(x) + y)
        V = kkt.kkt_matrix(prog.Q, prog.constraint_jac(x), J)
        F = natural_map(prog, x, y)
        d = rng.standard_normal(7)
        d *= 1e-6 / np.linalg.norm(d)
        Fd = natural_map(prog, x + d[:3], y + d[3:])
        ratio = np.linalg.norm(Fd - F - V @ d) / np.linalg.norm(d)
        assert ratio <= 0.1


class TestErrorBound:
    def test_kappa_is_finite_at_regular_point(self):
        prog, x, y = model.well_conditioned_instance("orthant", seed=1)
        kap = kkt.error_bound_kappa(prog, x, y, n_samples=200)
        assert np.isfinite(kap)
        assert kap > 0.0

