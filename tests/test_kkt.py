"""Tests for the KKT residual maps, multiplier recovery, and the solver."""

import numpy as np
import pytest

from conestab import kkt, linalg, model
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

    @pytest.mark.parametrize("scale", [1e3, 1e-3])
    @pytest.mark.parametrize("part", ["objective", "constraint"])
    def test_affine_dim_does_not_depend_on_the_data_scale(self, part,
                                                          scale):
        # scaling the objective by s scales the multipliers by s; scaling
        # G by s scales them by 1/s; the multiplier set keeps its shape
        from conestab.model import ConicProgram
        for name, dim in zip(ALL_REFERENCED, (0, 2, 0, 0)):
            p = model.builtin(name)
            x, _ = model.fixture(name).reference
            q = scale if part == "objective" else 1.0
            g = scale if part == "constraint" else 1.0
            scaled = ConicProgram(p.n, q * p.Q, q * p.c, q * p.c0,
                                  g * p.A0, g * p.Ai, p.cone)
            mset = recover_multipliers(scaled, x)
            assert mset is not None and mset.affine_dim == dim, name

    def test_ray_in_a_plane_has_affine_dim_one(self):
        # Lambda = {(-s, -s, 0, 0) | s >= 0}: the stationarity set is a
        # plane, whose null basis need not hold the ray's direction
        from conestab.cones import Cone
        from conestab.model import ConicProgram
        Ai = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        rng = np.random.default_rng(5)
        mixes = [np.eye(2)] + [rng.standard_normal((2, 2)) for _ in range(20)]
        for mix in mixes:
            prog = ConicProgram(2, np.eye(2), np.zeros(2), 0.0, np.zeros(4),
                                mix @ Ai, Cone([("orthant", 4)]), name="ray")
            mset = recover_multipliers(prog, np.zeros(2))
            assert mset is not None and mset.affine_dim == 1
            d = mset.directions[:, 0]
            assert np.isclose(abs(d @ [1.0, 1.0, 0.0, 0.0]), np.sqrt(2.0))
            assert natural_residual(prog, np.zeros(2),
                                    mset.representative) <= 1e-8

    def test_nonstationary_point_has_no_multiplier(self):
        prog = model.builtin("example1")
        assert recover_multipliers(prog, np.array([1.0, 1.0])) is None

    def test_infeasible_point_has_no_multiplier(self):
        prog = model.builtin("example4")
        assert recover_multipliers(prog, np.array([5.0, 0.0, -3.0])) is None


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _line_cases():
    """(case, Cone, G(x), y0, unit v, expected affine dim or None for a
    miss) for each closed form of the line test: a segment with interior
    (dim 1), a point where the line touches N (dim 0) and a miss.  The
    touching point sits at s = -0.5 on a polyhedral N and at s = 0, as on
    example1 and example3, on a curved one, where the projections from a
    farther y0 do not converge to it (see
    `test_closed_form_finds_a_touching_point_away_from_y0`).  SOC
    boundary rays and PSD kernels of order 1 have a one-dimensional
    normal span, so an orthant corner is added to give the line room."""
    from conestab.cones import Cone
    E = np.eye(4)
    ev = np.concatenate([_unit([1.0, -1.0, 0.0]), [0.0]])  # -vhat spans N
    ek = E[2]  # svec(e2 e2') of PSD(2) at diag(1, 0)
    off = svec(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                         [0.0, 1.0, 0.0]]) / np.sqrt(2.0))
    polyhedral = {
        "orthant-corner": (Cone([("orthant", 2)]), np.zeros(2),
                           np.eye(2)[0], np.eye(2)[1]),
        "soc-bdry": (Cone([("soc", 3), ("orthant", 1)]),
                     np.array([1.0, 1.0, 0.0, 0.0]), ev, E[3]),
        "psd-ker1": (Cone([("psd", 2), ("orthant", 1)]),
                     np.concatenate([svec(np.diag([1.0, 0.0])), [0.0]]),
                     ek, E[3]),
    }
    cases = []
    for name, (cone, g, a, b) in polyhedral.items():
        # N meets span{a, b} in the quadrant of -a and -b
        v = _unit(a - b)
        cases += [(name, cone, g, -a - b, v, 1),
                  (name, cone, g, 0.5 * v, v, 0),
                  (name, cone, g, a + b, v, None)]
    soc = Cone([("soc", 3)])
    cases += [("soc-apex", soc, np.zeros(3), np.array([-1.0, 0.0, 0.0]),
               np.eye(3)[1], 1),
              ("soc-apex", soc, np.zeros(3), np.array([-1.0, 1.0, 0.0]),
               np.eye(3)[2], 0),
              ("soc-apex", soc, np.zeros(3), np.array([1.0, 0.0, 0.0]),
               np.eye(3)[1], None),
              # along a boundary ray of N: a half-line
              ("soc-apex", soc, np.zeros(3), np.array([-1.0, 1.0, 0.0]),
               _unit([1.0, -1.0, 0.0]), 1)]
    psd = Cone([("psd", 3)])
    g = svec(np.diag([1.0, 0.0, 0.0]))
    cases += [("psd-ker2", psd, g, -svec(np.diag([0.0, 1.0, 1.0])), off, 1),
              ("psd-ker2", psd, g, -svec(np.diag([0.0, 1.0, 0.0])), off, 0),
              ("psd-ker2", psd, g, svec(np.diag([0.0, 1.0, 1.0])), off,
               None)]
    return cases


def _sampled_dim(frame, y0, v, grid):
    """None, 0 or 1 as no, one or several grid points y0 + s v lie in N."""
    hits = [s for s in grid
            if np.linalg.norm((y0 + s * v) - frame.normal_project(y0 + s * v))
            <= 1e-12]
    return (None if not hits else 0 if len(hits) == 1 else 1), hits


def _ladder_instance():
    """Orthant(3) x SOC(3) x PSD(3) with G = I and a strictly complementary
    pair, as the benchmark's ladder builds: the stationarity set is a
    point."""
    from conestab.cones import Cone
    from conestab.model import ConicProgram
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    s = np.concatenate([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0],
                        svec((q * [1.0, 0.0, 0.0]) @ q.T)])
    y = np.concatenate([[0.0, -1.0, -2.0], [-1.0, 1.0, 0.0],
                        svec((q * [0.0, -1.0, -2.0]) @ q.T)])
    R = np.random.default_rng(0).standard_normal((12, 12))
    Q = R @ R.T + 12 * np.eye(12)
    prog = ConicProgram(12, Q, -(Q @ s) - y, 0.0, np.zeros(12),
                        np.eye(12), Cone([("orthant", 3), ("soc", 3),
                                          ("psd", 3)]), name="ladder")
    return prog, s, y


def _line_point(frame, y0, v):
    """The closed-form line test against N_K(A) at a frame built on K."""
    return kkt._line_point(frame.normal_project, frame.polar_rows(), y0, v)


def _count_normal_projections(monkeypatch):
    from conestab.cones import ConeFrame
    count = [0]
    original = ConeFrame.normal_project

    def counted(self, y):
        count[0] += 1
        return original(self, y)

    monkeypatch.setattr(ConeFrame, "normal_project", counted)
    return count


class TestExactMultiplierLine:
    @pytest.mark.parametrize("k", range(len(_line_cases())))
    def test_closed_form_agrees_with_search_and_sample(self, k):
        name, cone, g, y0, v, dim = _line_cases()[k]
        frame = cone.frame(g)
        assert frame.polar_rows() is not None, name
        V = v.reshape(-1, 1)
        grid = np.linspace(-4.0, 4.0, 8001)
        sampled, hits = _sampled_dim(frame, y0, v, grid)
        # the Lorentz rows' interval, without slack, spans the sampled hits
        lo, hi = -np.inf, np.inf
        for s, L in frame.polar_rows():
            iv = kkt._line_interval(L[0] @ y0[s], L[0] @ v[s],
                                    L[1:] @ y0[s], L[1:] @ v[s])
            iv = iv or (np.inf, -np.inf)
            lo, hi = max(lo, iv[0]), min(hi, iv[1])
        if sampled is None:
            assert lo > hi, name
        else:
            assert abs(max(lo, grid[0]) - hits[0]) <= 1e-3, name
            assert abs(min(hi, grid[-1]) - hits[-1]) <= 1e-3, name
        exact = _line_point(frame, y0, v)
        search = kkt._projection_search(frame.normal_project, y0, V, seed=0)
        found = []
        for rep in (exact, search):
            found.append(None if rep is None else
                         kkt._hull_directions(cone, g, rep, V).shape[1])
        assert found == [dim, dim] and sampled == dim, name

    @pytest.mark.parametrize("name", ["soc-apex", "psd-ker2"])
    def test_closed_form_finds_a_touching_point_away_from_y0(self, name):
        # the curved touching case with y0 moved 0.5 along the line
        _, cone, g, y0, v, _ = next(c for c in _line_cases()
                                    if c[0] == name and c[5] == 0)
        frame = cone.frame(g)
        y0 = y0 - 0.5 * v
        exact = _line_point(frame, y0, v)
        assert exact is not None, name
        assert abs(float(v @ (exact - y0)) - 0.5) <= 1e-5, name
        sampled, hits = _sampled_dim(frame, y0, v,
                                     np.linspace(-4.0, 4.0, 8001))
        assert sampled == 0 and abs(hits[0] - 0.5) <= 1e-12
        assert kkt._hull_directions(cone, g, exact,
                                    v.reshape(-1, 1)).shape[1] == 0

    def test_each_closed_form_is_covered(self):
        assert {c[0] for c in _line_cases()} == {
            "orthant-corner", "soc-bdry", "soc-apex", "psd-ker1",
            "psd-ker2"}

    def test_psd_kernel_of_order_three_has_no_closed_form(self):
        from conestab.cones import Cone
        frame = Cone([("psd", 3)]).frame(np.zeros(6))
        assert frame.polar_rows() is None

    def test_rounding_on_example3_stays_a_point(self, monkeypatch):
        # example3's y0 lies 1.6e-15 outside N, on a line tangent to the
        # PSD block's normal cone: without the slack the interval is empty
        prog = model.builtin("example3")
        x, _ = model.fixture("example3").reference
        frame = prog.cone.frame(prog.constraint(x))
        span = frame.normal_span()
        M = prog.constraint_jac(x).T @ span
        y0 = span @ linalg.lstsq(M, -prog.gradient(x))
        v = (span @ linalg.nullspace(M))[:, 0]
        assert _line_point(frame, y0, v) is not None
        monkeypatch.setattr(kkt, "_LINE_SLACK", 0.0)
        assert _line_point(frame, y0, v) is None
        monkeypatch.undo()
        mset = recover_multipliers(prog, x)
        assert mset is not None and mset.affine_dim == 0

    def test_no_search_where_a_closed_form_exists(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the projection search ran")

        monkeypatch.setattr(kkt, "_projection_search", refuse)
        cases = [(model.builtin(name), model.fixture(name).reference[0])
                 for name in ("example1", "example3", "example4")]
        prog, x, _ = _ladder_instance()
        cases.append((prog, x))
        for prog, x in cases:
            mset = recover_multipliers(prog, x)
            assert mset is not None and mset.is_singleton, prog.name

    @pytest.mark.parametrize("name", ["example1", "example3"])
    def test_work_count(self, name, monkeypatch):
        # the search made 5,612 and 4,077 projections here
        count = _count_normal_projections(monkeypatch)
        x, _ = model.fixture(name).reference
        assert recover_multipliers(model.builtin(name), x) is not None
        assert count[0] <= 4


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

