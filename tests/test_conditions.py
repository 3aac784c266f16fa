"""Tests for the stability-condition checkers and the assembled report."""

import numpy as np
import pytest

from conestab import conditions, kkt, model
from conestab.cones import smat, svec
from conestab.conditions import (FAILS, HOLDS, affine_hull_probe,
                                 assemble_report, check_nondegeneracy,
                                 check_rcq, check_robinson_sosc, check_sosc,
                                 check_srcq, kernel_probe,
                                 kernel_probe_verdict, problem_critical_cone)


def fixture(name):
    prog = model.builtin(name)
    x, y = model.fixture(name).reference
    return prog, x, y


class TestProblemCriticalCone:
    def test_trivial_cone_on_nonunique_multiplier_fixture(self):
        prog, x, y = fixture("example2")
        cc = problem_critical_cone(prog, x, y)
        assert cc.is_subspace
        assert cc.affine_dim == 0
        for d in (np.array([1.0, 0.0]), np.array([0.0, -1.0])):
            assert not cc.member(d)

    def test_degenerate_quartic_fixture_cone(self):
        # C = {d in S^2 : <E, d> <= 0, d22 >= 0} in svec coordinates
        prog, x, y = fixture("example4")
        cc = problem_critical_cone(prog, x, y)
        assert not cc.is_subspace
        inside = svec(np.array([[-1.0, 0.0], [0.0, 0.5]]))
        outside_trace = svec(np.array([[1.0, 0.0], [0.0, 0.5]]))
        outside_psd = svec(np.array([[0.0, 0.0], [0.0, -1.0]]))
        assert cc.member(inside)
        assert not cc.member(outside_trace)
        assert not cc.member(outside_psd)

    def test_interior_constraint_gives_full_space(self):
        # G(x) strictly inside the cone: every direction is critical
        prog, x, y = model.well_conditioned_instance("orthant", seed=2)
        from conestab.cones import Cone
        from conestab.model import ConicProgram
        free = ConicProgram(2, np.eye(2), np.zeros(2), 0.0,
                            np.array([5.0]), np.array([[1.0], [0.0]]),
                            Cone([("orthant", 1)]), name="interior")
        cc = problem_critical_cone(free, np.zeros(2), np.zeros(1))
        assert cc.is_subspace
        assert cc.affine_dim == 2

    def test_membership_scales(self):
        prog, x, y = fixture("example4")
        cc = problem_critical_cone(prog, x, y)
        d = svec(np.array([[-1.0, 0.25], [0.25, 0.5]]))
        assert cc.member(d)
        assert cc.member(10.0 * d)
        assert cc.member(np.zeros(3))


class TestConstraintQualifications:
    def test_rcq_holds_on_all_fixtures(self):
        for name in ("example1", "example2", "example3", "example4"):
            prog, x, y = fixture(name)
            assert check_rcq(prog, x).status == HOLDS, name

    def test_rcq_fails_without_slack_directions(self):
        # single variable mapped to nothing: G' = 0 and G(x) on the boundary
        from conestab.cones import Cone
        from conestab.model import ConicProgram
        prog = ConicProgram(1, np.eye(1), np.zeros(1), 0.0,
                            np.zeros(1), np.zeros((1, 1)),
                            Cone([("orthant", 1)]), name="flat")
        v = check_rcq(prog, np.zeros(1))
        assert v.status == FAILS
        assert v.witness is not None

    def test_srcq_by_fixture(self):
        expected = {"example1": FAILS, "example2": FAILS,
                    "example3": FAILS, "example4": HOLDS}
        for name, status in expected.items():
            prog, x, y = fixture(name)
            assert check_srcq(prog, x, y).status == status, name

    def test_srcq_failure_carries_polar_witness(self):
        prog, x, y = fixture("example3")
        v = check_srcq(prog, x, y)
        w = v.witness
        assert w is not None
        # witness lies in ker(G'*) and in the critical-cone polar
        assert np.linalg.norm(prog.adjoint(w)) <= 1e-8
        frame = prog.cone.frame(prog.constraint(x) + y)
        assert frame.polar_dist(w) <= 1e-8

    def test_nondegeneracy_by_fixture(self):
        expected = {"example1": FAILS, "example2": FAILS,
                    "example3": FAILS, "example4": HOLDS}
        for name, status in expected.items():
            prog, x, y = fixture(name)
            assert check_nondegeneracy(prog, x).status == status, name

    def test_nondegeneracy_holds_for_surjective_jacobian(self):
        prog, x, y = model.well_conditioned_instance("psd", seed=0)
        assert check_nondegeneracy(prog, x).status == HOLDS

    def test_implication_nondegeneracy_gives_srcq(self):
        for kind, seed in (("orthant", 0), ("psd", 0), ("orthant", 7)):
            prog, x, y = model.well_conditioned_instance(kind, seed)
            if check_nondegeneracy(prog, x).status == HOLDS:
                assert check_srcq(prog, x, y).status == HOLDS


class TestSecondOrderConditions:
    def test_sosc_by_fixture(self):
        for name in ("example1", "example2", "example3", "example4"):
            prog, x, y = fixture(name)
            assert check_sosc(prog, x, y).status == HOLDS, name

    def test_sosc_fails_on_flat_objective(self):
        # zero curvature with a full-dimensional critical cone
        from conestab.cones import Cone
        from conestab.model import ConicProgram
        prog = ConicProgram(1, np.zeros((1, 1)), np.zeros(1), 0.0,
                            np.zeros(1), np.array([[1.0]]),
                            Cone([("orthant", 1)]), name="flat-objective")
        v = check_sosc(prog, np.zeros(1), np.zeros(1))
        assert v.status == FAILS
        assert v.witness is not None

    def test_robinson_sosc_over_sampled_multipliers(self):
        prog, x, y = fixture("example2")
        mset = kkt.recover_multipliers(prog, x)
        mults = [mset.representative]
        for k in range(mset.directions.shape[1]):
            mults.append(mset.representative + 1e-3 * mset.directions[:, k])
        v = check_robinson_sosc(prog, x, mults)
        assert v.status == HOLDS
        assert "sample" in v.note or "multiplier" in v.note

    def test_robinson_sosc_singleton_matches_sosc(self):
        prog, x, y = fixture("example1")
        assert check_robinson_sosc(prog, x, [y]).status == \
            check_sosc(prog, x, y).status

    def test_affine_hull_probe_fails_on_degenerate_quartic(self):
        prog, x, y = fixture("example4")
        v = affine_hull_probe(prog, x, y)
        assert v.status == FAILS
        D = smat(v.witness)
        scale = np.linalg.norm(v.witness)
        assert abs(D[0, 0]) <= 1e-8 * scale
        assert abs(2.0 * D[0, 1] - D[1, 1]) <= 1e-8 * scale

    def test_affine_hull_probe_holds_with_strong_curvature(self):
        prog, x, y = model.well_conditioned_instance("orthant", seed=3)
        assert affine_hull_probe(prog, x, y).status == HOLDS

    def test_affine_hull_probe_vacuous_on_trivial_hull(self):
        prog, x, y = fixture("example2")
        v = affine_hull_probe(prog, x, y)
        assert v.status == HOLDS
        assert v.margin == np.inf


class TestKernelProbe:
    def test_no_kernel_at_nondegenerate_fixture(self):
        prog, x, y = fixture("example4")
        probe = kernel_probe(prog, x, y)
        assert probe["min_residual"] >= conditions.KERNEL_ABSENT_TOL
        assert kernel_probe_verdict(probe).status == HOLDS

    def test_kernel_witness_at_degenerate_fixtures(self):
        for name in ("example1", "example2", "example3"):
            prog, x, y = fixture(name)
            v = check_srcq(prog, x, y)
            seeds = []
            if v.witness is not None:
                seeds.append(np.concatenate([np.zeros(prog.n), v.witness]))
            probe = kernel_probe(prog, x, y, extra_seeds=seeds)
            assert probe["min_residual"] <= conditions.KERNEL_FOUND_TOL, name
            assert kernel_probe_verdict(probe).status == FAILS

    def test_residual_is_positively_homogeneous_of_degree_two(self):
        prog, x, y = fixture("example3")
        rng = np.random.default_rng(5)
        n, m = prog.n, prog.cone.dim
        g = prog.constraint(x)
        frame = prog.cone.frame(g + y)
        G = prog.constraint_jac(x)
        H = kkt.hess_lagrangian(prog, x, y)

        def r(w):
            dx, dy = w[:n], w[n:]
            h = G @ dx + dy
            r1 = H @ dx + G.T @ dy
            r2 = G @ dx - frame.dir_deriv(h)
            return float(r1 @ r1 + r2 @ r2)

        for _ in range(10):
            w = rng.standard_normal(n + m)
            for t in (0.5, 3.0):
                assert np.isclose(r(t * w), t ** 2 * r(w), rtol=1e-8)


class TestAssembleReport:
    def test_rejects_non_kkt_pairs(self):
        prog = model.builtin("example1")
        with pytest.raises(ValueError, match="KKT"):
            assemble_report(prog, np.ones(2), np.zeros(3))

    def test_rejects_nan_residual(self):
        prog, x, y = model.well_conditioned_instance("orthant", seed=0)
        y = y.copy()
        y[0] = np.nan
        with pytest.raises(ValueError, match="KKT"):
            assemble_report(prog, x, y)

    def test_rejects_nonaffine_fixture(self):
        prog = model.builtin("remark2")
        with pytest.raises(ValueError):
            assemble_report(prog, np.zeros(1), np.zeros(1))

    def test_verdicts_and_consistency_on_battery(self):
        expected = {"example1": FAILS, "example2": FAILS,
                    "example3": FAILS, "example4": HOLDS}
        for name, verdict in expected.items():
            prog, x, y = fixture(name)
            mset = kkt.recover_multipliers(prog, x)
            report = assemble_report(prog, x, y, multiplier_set=mset)
            assert report.theorem_verdict == verdict, name
            assert report.consistency_flag is True, name
            assert report.inconsistencies == [], name

    def test_generated_instances_are_robustly_isolated_calm(self):
        for kind in ("orthant", "psd"):
            prog, x, y = model.well_conditioned_instance(kind, seed=0)
            report = assemble_report(prog, x, y)
            assert report.theorem_verdict == HOLDS
            assert report.consistency_flag is True

    def test_report_serializes(self):
        import json
        prog, x, y = fixture("example4")
        report = assemble_report(prog, x, y)
        data = report.to_dict()
        assert data["theorem_verdict"] == HOLDS
        assert data["srcq"]["status"] == HOLDS
        json.dumps({k: v for k, v in data.items()
                    if k != "kernel_probe"})  # witness arrays already listed
