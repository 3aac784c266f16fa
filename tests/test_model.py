"""Tests for problem representation, file format, and builtin fixtures."""

import numpy as np
import pytest

from conestab import model
from conestab.cones import smat, svec
from conestab.kkt import natural_residual
from conestab.model import (ConicProgram, Perturbation, ProblemFormatError,
                            builtin, evaluate, load_problem, save_problem)


class TestFileFormat:
    def test_round_trip_identity(self):
        for name in ("example1", "example2", "example3", "example4"):
            prog = builtin(name)
            again = load_problem(save_problem(prog))
            assert again.n == prog.n
            assert np.array_equal(again.Q, prog.Q)
            assert np.array_equal(again.c, prog.c)
            assert again.c0 == prog.c0
            assert np.array_equal(again.A0, prog.A0)
            assert np.array_equal(again.Ai, prog.Ai)
            assert again.cone.to_spec() == prog.cone.to_spec()

    def test_missing_key_rejected(self):
        with pytest.raises(ProblemFormatError, match="objective"):
            load_problem('{"name": "t", "n": 1, "constraint": {}, "cone": []}')

    def test_dimension_mismatch_rejected(self):
        prog = builtin("example1")
        data = prog.to_dict()
        data["constraint"]["Ai"] = data["constraint"]["Ai"][:1]
        with pytest.raises(ProblemFormatError, match="Ai"):
            model.problem_from_dict(data)

    def test_nonfinite_data_rejected(self):
        for bad in (float("nan"), float("inf")):
            for section, key in (("objective", "Q"), ("objective", "c"),
                                 ("objective", "c0"), ("constraint", "A0"),
                                 ("constraint", "Ai")):
                data = builtin("example4").to_dict()
                if key == "c0":
                    data[section][key] = bad
                elif key in ("Q", "Ai"):
                    data[section][key][0][0] = bad
                else:
                    data[section][key][0] = bad
                with pytest.raises(ProblemFormatError, match=key):
                    model.problem_from_dict(data)

    def test_invalid_json_reports_position(self):
        with pytest.raises(ProblemFormatError, match="line"):
            load_problem("{not json")

    def test_minimal_orthant_problem(self):
        text = """{"name": "tiny", "n": 1,
                   "objective": {"Q": [[1.0]], "c": [0.0], "c0": 0.0},
                   "constraint": {"A0": [0.0], "Ai": [[1.0]]},
                   "cone": [{"type": "orthant", "size": 1}]}"""
        prog = load_problem(text)
        assert prog.n == 1
        assert prog.cone.dim == 1

    def test_load_problem_file(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(save_problem(builtin("example4")))
        prog = model.load_problem_file(str(path))
        assert prog.name == "example4"


class TestEvaluate:
    def test_origin_returns_constant_data(self):
        prog = builtin("example3")
        f, grad, g = evaluate(prog, np.zeros(prog.n))
        assert np.isclose(f, prog.c0)
        assert np.allclose(grad, prog.c)
        assert np.allclose(g, prog.A0)

    def test_psd_fixture_at_origin(self):
        prog = builtin("example1")
        f, grad, g = evaluate(prog, np.zeros(2))
        assert f == 0.0
        assert np.allclose(grad, [1.0, 0.0])
        assert np.allclose(g, 0.0)

    def test_perturbation_shifts_gradient_and_constraint(self):
        prog = builtin("example1")
        pert = Perturbation(np.array([0.5, 0.0]),
                            svec(np.array([[0.0, 1.0], [1.0, 0.0]])))
        _, grad, g = evaluate(prog, np.zeros(2), pert)
        assert np.allclose(grad, [0.5, 0.0])
        assert np.allclose(smat(g), [[0.0, 1.0], [1.0, 0.0]])

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(0)
        prog = builtin("example4")
        h = 1e-5
        for _ in range(10):
            x = rng.standard_normal(prog.n)
            e = rng.standard_normal(prog.n)
            e /= np.linalg.norm(e)
            fd = (prog.objective(x + h * e) - prog.objective(x - h * e)) \
                / (2.0 * h)
            assert abs(fd - prog.gradient(x) @ e) <= 1e-6

    def test_constraint_map_is_affine(self):
        rng = np.random.default_rng(1)
        prog = builtin("example3")
        G = prog.constraint_jac()
        for _ in range(5):
            x = rng.standard_normal(prog.n)
            d = rng.standard_normal(prog.n)
            assert np.allclose(prog.constraint(x + d) - prog.constraint(x),
                               G @ d)

    def test_adjoint_pairing(self):
        rng = np.random.default_rng(2)
        prog = builtin("example2")
        G = prog.constraint_jac()
        for _ in range(5):
            d = rng.standard_normal(prog.n)
            y = rng.standard_normal(prog.cone.dim)
            assert np.isclose((G @ d) @ y, prog.adjoint(y) @ d)


class TestBuiltins:
    def test_names(self):
        assert set(model.BUILTIN_NAMES) >= {
            "example1", "example2", "example3", "example4", "remark2"}
        with pytest.raises(KeyError):
            builtin("nope")

    def test_psd_coupling_fixture(self):
        # min x1 + x1^2 + x2^2 with Diag(x) plus an off-diagonal
        # perturbation constrained to the PSD cone
        prog = builtin("example1")
        assert prog.n == 2
        assert np.allclose(prog.Q, np.diag([2.0, 2.0]))
        assert np.allclose(smat(prog.Ai[0]), np.diag([1.0, 0.0]))
        assert np.allclose(smat(prog.Ai[1]), np.diag([0.0, 1.0]))
        assert [(b.kind, b.size) for b in prog.cone.blocks] == [("psd", 2)]

    def test_nonunique_multiplier_fixture(self):
        prog = builtin("example2")
        assert prog.n == 2
        assert np.allclose(smat(prog.Ai[0][1:]), np.eye(2))
        assert np.allclose(smat(prog.Ai[1][1:]),
                           [[1.0, -2.0], [-2.0, 1.0]])

    def test_scaling_matrix_fixture_data(self):
        B, Bh, Bih, b = model.example3_data()
        assert np.allclose(B, [[1.5, -2.0], [-2.0, 3.0]])
        assert np.allclose(Bh @ Bh, B)
        assert np.allclose(Bh @ b, [2.5, -1.0])

    def test_degenerate_quartic_fixture(self):
        # objective (X11 - 1)^2/2 + (X22 - 2 X12)^2/2 in svec coordinates
        prog = builtin("example4")
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.standard_normal(3)
            X = smat(x)
            want = 0.5 * (X[0, 0] - 1.0) ** 2 \
                + 0.5 * (X[1, 1] - 2.0 * X[0, 1]) ** 2
            assert np.isclose(prog.objective(x), want)
        # trace constraint enters through the orthant block
        g = prog.constraint(np.array([0.25, 0.0, 0.25]))
        assert np.isclose(g[0], 0.5)

    def test_nonaffine_fixture_is_flagged(self):
        prog = builtin("remark2")
        assert not prog.is_affine
        assert builtin("example1").is_affine

    def test_reference_points_have_expected_values(self):
        x, y = model.fixture("example1").reference
        assert np.allclose(x, 0.0)
        assert np.allclose(smat(y), np.diag([-1.0, 0.0]))
        x4, y4 = model.fixture("example4").reference
        assert np.allclose(smat(x4), np.diag([1.0, 0.0]))
        assert np.allclose(y4, 0.0)


class TestFixtureTable:
    def test_every_fixture_has_reference_and_direction(self):
        for name in model.BUILTIN_NAMES:
            fx = model.fixture(name)
            x, y = fx.reference
            assert natural_residual(fx.prog, x, y) <= 1e-8, name
            assert fx.direction.a.shape == (fx.prog.n,), name
            assert fx.direction.b.shape == (fx.prog.cone.dim,), name

    def test_problem_without_fixture_data_gets_default_direction(self):
        data = builtin("example4").to_dict()
        data["name"] = "mine"
        fx = model.Fixture(model.problem_from_dict(data))
        assert fx.reference is None and fx.oracle is None
        assert fx.observable == "x"
        assert fx.direction.a.shape == (3,)
        assert fx.direction.b.shape == (4,)
        assert np.isclose(fx.direction.norm(), 1.0)


class TestGeneratedInstances:
    def test_orthant_instance_is_strictly_complementary(self):
        prog, x, y = model.well_conditioned_instance("orthant", seed=0)
        g = prog.constraint(x)
        assert prog.cone.dist(g) <= 1e-12
        # exactly one of (g_i, y_i) vanishes at every coordinate
        assert np.all((np.abs(g) > 1e-8) ^ (np.abs(y) > 1e-8))

    def test_psd_instance_has_rank_deficient_optimum(self):
        prog, x, y = model.well_conditioned_instance("psd", seed=0)
        vals = np.linalg.eigvalsh(smat(prog.constraint(x)))
        assert np.isclose(min(vals), 0.0)
        assert max(vals) > 0.5

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            model.well_conditioned_instance("lorentz")


class TestPerturbation:
    def test_scaled(self):
        p = Perturbation(np.array([2.0]), np.array([0.0, 4.0]))
        q = p.scaled(0.5)
        assert np.allclose(q.a, [1.0])
        assert np.allclose(q.b, [0.0, 2.0])

    def test_default_directions_are_deterministic_units(self):
        for name in ("example1", "example2", "example3", "example4"):
            p = model.fixture(name).direction
            q = model.fixture(name).direction
            assert np.array_equal(p.a, q.a)
            assert np.array_equal(p.b, q.b)
            assert np.isclose(p.norm(), 1.0) or name in ("example1",
                                                         "example3")
