"""Tests for the stability-condition checkers and the assembled report."""

import numpy as np
import pytest

from conestab import conditions, kkt, model
from conestab.cones import smat, svec
from conestab.conditions import (FAILS, HOLDS, INCONCLUSIVE,
                                 affine_hull_probe,
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


def _instance(blocks, s, y, G=None, seed=0, null=None):
    """Program over Cone(blocks) with KKT pair (s, y): G(x) = G x, x = s,
    Q positive definite (or with kernel spanned by the unit vector `null`)
    and c closing the stationarity equation."""
    from conestab.cones import Cone
    from conestab.model import ConicProgram
    cone = Cone(blocks)
    n = cone.dim
    G = np.eye(n) if G is None else G
    R = np.random.default_rng(seed).standard_normal((n, n))
    Q = R @ R.T + n * np.eye(n)
    if null is not None:
        P = np.eye(n) - np.outer(null, null)
        Q = P @ Q @ P
    x = np.asarray(s, float)
    c = -(Q @ x) - G.T @ y
    prog = ConicProgram(n, Q, c, 0.0, x - G @ x, G.T, cone, name="probe")
    assert kkt.natural_residual(prog, x, y) <= 1e-12
    return prog, x, np.asarray(y, float)


def _psd_pair(lam_s, lam_y, seed=0):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(
        (len(lam_s), len(lam_s))))
    return svec((q * lam_s) @ q.T), svec((q * lam_y) @ q.T), q


def _strict_instance(nonunique=False):
    """Orthant(3) x SOC(3) x PSD(3), strictly complementary, SOC smooth.
    With nonunique=True, G = I - d d' for a unit d in the normal span, so
    ker G'* meets it and the multipliers form a segment."""
    ps, py, q = _psd_pair([1.0, 0.0, 0.0], [0.0, -1.0, -2.0], seed=3)
    s = np.concatenate([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], ps])
    y = np.concatenate([[0.0, -1.0, -2.0], [-1.0, 1.0, 0.0], py])
    G = None
    if nonunique:
        d = np.zeros(12)
        d[2] = 1.0
        d[6:] = -svec(np.outer(q[:, 2], q[:, 2]))
        d /= np.linalg.norm(d)
        G = np.eye(12) - np.outer(d, d)
    return _instance([("orthant", 3), ("soc", 3), ("psd", 3)], s, y, G)


def _borderline_instances():
    ps, py, _ = _psd_pair([1.0, 0.0], [0.0, 0.0])
    return {
        "psd-beta": _instance([("psd", 2)], ps, py),
        "orthant-corner": _instance([("orthant", 3)], [1.0, 0.0, 0.0],
                                    [0.0, 0.0, -2.0]),
        "soc-bdry": _instance([("soc", 3)], [1.0, 1.0, 0.0], np.zeros(3)),
    }


def _count_tmatrix_builds(monkeypatch):
    from conestab.cones import ConeFrame
    calls = []
    original = ConeFrame.dir_deriv_jac

    def counted(self, h):
        calls.append(np.array(h))
        return original(self, h)

    monkeypatch.setattr(ConeFrame, "dir_deriv_jac", counted)
    return calls


class TestKernelProbeFastPath:
    def test_constant_t_is_one_svd(self, monkeypatch):
        prog, x, y = _strict_instance()
        frame = prog.cone.frame(prog.constraint(x) + y)
        assert conditions.dir_deriv_is_linear(frame)
        assert problem_critical_cone(prog, x, y).is_subspace
        calls = _count_tmatrix_builds(monkeypatch)
        probe = kernel_probe(prog, x, y)
        assert len(calls) == 1
        monkeypatch.undo()
        H = kkt.hess_lagrangian(prog, x, y)
        T = kkt.kkt_matrix(H, prog.constraint_jac(x),
                           frame.dir_deriv_jac(np.zeros(prog.cone.dim)))
        v = np.linalg.svd(T)[2][-1]
        assert np.array_equal(probe["witness"], v)
        assert np.isclose(probe["min_residual"], float(np.sum((T @ v) ** 2)),
                          rtol=1e-9, atol=0.0)
        assert kernel_probe_verdict(probe).status == HOLDS

    def test_fast_path_equals_the_search(self, monkeypatch):
        # every start of the search lands on the same singular vector
        prog, x, y = _strict_instance()
        fast = kernel_probe(prog, x, y, seed=4)
        monkeypatch.setattr(conditions, "dir_deriv_is_linear",
                            lambda frame: False)
        search = kernel_probe(prog, x, y, seed=4)
        assert search["min_residual"] == fast["min_residual"]
        assert np.array_equal(search["witness"], fast["witness"])

    def test_constant_t_with_nonunique_multipliers_fails(self, monkeypatch):
        prog, x, y = _strict_instance(nonunique=True)
        frame = prog.cone.frame(prog.constraint(x) + y)
        assert conditions.dir_deriv_is_linear(frame)
        calls = _count_tmatrix_builds(monkeypatch)
        probe = kernel_probe(prog, x, y)
        assert len(calls) == 1
        assert probe["min_residual"] <= conditions.KERNEL_FOUND_TOL
        assert kernel_probe_verdict(probe).status == FAILS

    @pytest.mark.parametrize("name", ["psd-beta", "orthant-corner",
                                      "soc-bdry"])
    def test_borderline_frame_takes_the_search(self, name, monkeypatch):
        prog, x, y = _borderline_instances()[name]
        frame = prog.cone.frame(prog.constraint(x) + y)
        assert not conditions.dir_deriv_is_linear(frame)
        assert not problem_critical_cone(prog, x, y).is_subspace
        # no starts at all: the search finds nothing
        none = kernel_probe(prog, x, y, n_starts=0)
        assert none["min_residual"] == np.inf and none["witness"] is None
        verdict = kernel_probe_verdict(none)
        assert verdict.status == INCONCLUSIVE
        assert verdict.note == "no start was tried"
        # a lone extra seed is the start the search refines
        w0 = np.random.default_rng(1).standard_normal(prog.n + prog.cone.dim)
        calls = _count_tmatrix_builds(monkeypatch)
        probe = kernel_probe(prog, x, y, n_starts=0, extra_seeds=[w0])
        G = prog.constraint_jac(x)
        w0 = w0 / np.linalg.norm(w0)
        assert np.array_equal(calls[0], G @ w0[:prog.n] + w0[prog.n:])
        assert len(calls) >= 2
        assert np.isfinite(probe["min_residual"])
        assert probe["witness"] is not None


def _uncut_probe(prog, x, y, n_starts, seed):
    """The multi-start search with every start run until it converges or
    for its full 50 steps, as it was written before the repeat cut."""
    n, m = prog.n, prog.cone.dim
    frame = prog.cone.frame(prog.constraint(x) + y)
    Gmat = prog.constraint_jac(x)
    H = kkt.hess_lagrangian(prog, x, y)
    rng = np.random.default_rng(seed)
    best_val, best_w, cycled = np.inf, None, 0
    for _ in range(n_starts):
        w = rng.standard_normal(n + m)
        w = w / np.linalg.norm(w)
        seen = {w.tobytes()}
        repeated = False
        for _ in range(50):
            T = kkt.kkt_matrix(H, Gmat, frame.dir_deriv_jac(
                Gmat @ w[:n] + w[n:]))
            wn = np.linalg.svd(T)[2][-1]
            if np.linalg.norm(wn - w) < 1e-14 or \
               np.linalg.norm(wn + w) < 1e-14:
                w = wn
                break
            w = wn
            repeated = repeated or w.tobytes() in seen
            seen.add(w.tobytes())
        cycled += repeated
        dx, dy = w[:n], w[n:]
        r1 = H @ dx + Gmat.T @ dy
        r2 = Gmat @ dx - frame.dir_deriv(Gmat @ dx + dy)
        val = float(r1 @ r1 + r2 @ r2)
        if val < best_val:
            best_val, best_w = val, w
        if best_val <= conditions.KERNEL_FOUND_TOL:
            break
    return {"min_residual": best_val, "witness": best_w}, cycled


def _corner_instance():
    """Orthant(3) at s = 0 with corners at indices 0 and 1 and Q null
    along e0: most search starts enter a cycle of period 2 at step 1."""
    return _instance([("orthant", 3)], np.zeros(3), [0.0, 0.0, -1.0],
                     seed=1, null=np.eye(3)[0])


class TestKernelProbeRepeatCut:
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_the_uncut_search(self, seed):
        # one start per seed, so the witness is that start's last iterate
        prog, x, y = _corner_instance()
        probe = kernel_probe(prog, x, y, n_starts=1, seed=seed)
        uncut, _ = _uncut_probe(prog, x, y, n_starts=1, seed=seed)
        assert probe["min_residual"] == uncut["min_residual"]
        assert np.array_equal(probe["witness"], uncut["witness"])

    def test_cycling_starts_stop_early(self, monkeypatch):
        prog, x, y = _corner_instance()
        _, cycled = _uncut_probe(prog, x, y, n_starts=20, seed=1)
        assert cycled >= 10  # 50 T builds each without the cut
        calls = _count_tmatrix_builds(monkeypatch)
        kernel_probe(prog, x, y, n_starts=20, seed=1)
        assert len(calls) <= 5 * 20


def _face_null_instances():
    """Borderline KKT pairs with Q null along a direction d of the
    critical cone: d'Md = 0, so SOSC fails, and (d, -Q d) lies in the
    kernel of the directional-derivative system.  Hull dimensions 5-6."""
    ps, py, q = _psd_pair([1.0, 1.0, 0.0], [0.0, 0.0, 0.0], seed=2)
    ray = svec(np.outer(q[:, 2], q[:, 2]))
    return {
        # e0 is an orthant corner (s0 = y0 = 0)
        "orthant-corner": _instance(
            [("orthant", 6)], [0.0, 1.0, 1.0, 1.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, -1.0], null=np.eye(6)[0]),
        # s on the SOC boundary with y = 0; the ray through s bounds C
        "soc-bdry": _instance(
            [("soc", 5)], [1.0, 1.0, 0.0, 0.0, 0.0], np.zeros(5),
            null=np.array([1.0, 1.0, 0.0, 0.0, 0.0]) / np.sqrt(2.0)),
        # beta = {q2} of size 1; the ray svec(q2 q2') is critical
        "psd-beta1": _instance([("psd", 3)], ps, py, null=ray),
    }


class TestExactSosc:
    @pytest.mark.parametrize("name", ["orthant-corner", "soc-bdry",
                                      "psd-beta1"])
    def test_face_null_instance_fails_with_witness(self, name):
        prog, x, y = _face_null_instances()[name]
        cc = problem_critical_cone(prog, x, y)
        assert not cc.is_subspace and cc.affine_dim >= 5
        v = check_sosc(prog, x, y)
        assert v.status == FAILS
        w = v.witness
        assert np.isclose(np.linalg.norm(w), 1.0)
        assert cc.member(w)
        M = conditions._sosc_quadratic(prog, x, y, cc)
        assert float(w @ M @ w) <= conditions.SOSC_FAILS_TOL
        assert check_robinson_sosc(prog, x, [y]).status == FAILS
        report = assemble_report(prog, x, y)
        assert report.theorem_verdict == FAILS
        assert report.kernel_probe["status"] == FAILS
        assert report.consistency_flag is True

    @pytest.mark.parametrize("q", [(1.0, -0.5, -0.5), (1.0, -0.5, -0.25)])
    def test_soc_apex_is_inconclusive(self, q):
        # positive on the cone, but C is curved and the hull eigenvalue is
        # negative: no certificate, so no holds from a sample
        from conestab.cones import Cone
        from conestab.model import ConicProgram
        prog = ConicProgram(3, np.diag(q), np.zeros(3), 0.0, np.zeros(3),
                            np.eye(3), Cone([("soc", 3)]), name="apex")
        v = check_sosc(prog, np.zeros(3), np.zeros(3))
        assert v.status == INCONCLUSIVE
        assert "curved" in v.note

    def test_example4_margin_is_the_cone_minimum(self):
        # C = {D in S^2 : <E, D> <= 0, D22 >= 0} with E all ones (svec
        # coordinates); a dense Fibonacci sample of its unit sphere bounds
        # the minimum from above
        prog, x, y = fixture("example4")
        cc = problem_critical_cone(prog, x, y)
        M = conditions._sosc_quadratic(prog, x, y, cc)
        k = np.arange(200000) + 0.5
        z = 1.0 - 2.0 * k / len(k)
        t = np.pi * (1.0 + 5.0 ** 0.5) * k
        r = np.sqrt(1.0 - z * z)
        pts = np.column_stack([r * np.cos(t), r * np.sin(t), z])
        inside = (pts @ svec(np.ones((2, 2))) <= 0.0) & \
            (pts @ svec(np.diag([0.0, 1.0])) >= 0.0)
        sample_min = float(np.min(np.einsum("ij,jk,ik->i", pts[inside], M,
                                            pts[inside])))
        v = check_sosc(prog, x, y)
        assert v.status == HOLDS
        assert v.margin <= sample_min
        assert sample_min - v.margin <= 1e-2
        assert abs(v.margin - 0.7192) <= 1e-4


def _nonunique_instances():
    """G = I - d d' with d a unit normal-span direction orthogonal to s, as
    in the benchmark's nonunique constructions: ker G'* meets the normal
    span, so RCQ is not decided by the polar span alone."""
    ps, py, q = _psd_pair([1.0, 0.0, 0.0, 0.0], [0.0, -1.0, -2.0, -1.5],
                          seed=4)
    specs = {
        "psd4": ([("psd", 4)], ps, py,
                 svec(np.outer(q[:, 1], q[:, 1])
                      - np.outer(q[:, 2], q[:, 2]))),
        "orthant8": ([("orthant", 8)], [1.0, 1.5, 0, 0, 0, 0, 0, 0],
                     [0, 0, -1.0, -0.5, -2.0, -1.0, -1.5, -0.7],
                     np.eye(8)[2] - np.eye(8)[3]),
        # SOC(6) at its apex (s = 0) with y in -int K, orthant(4) with two
        # corners of the tangent cone
        "soc6+orthant4": ([("soc", 6), ("orthant", 4)],
                          [0, 0, 0, 0, 0, 0, 1.0, 2.0, 0, 0],
                          [-2.0, 0.5, 0.3, 0, 0, 0, 0, 0, -1.0, -1.0],
                          np.eye(10)[1] - np.eye(10)[2]),
    }
    out = {}
    for name, (blocks, s, y, d) in specs.items():
        d = d / np.linalg.norm(d)
        out[name] = _instance(blocks, s, y, np.eye(len(d)) - np.outer(d, d))
    return out


def _tangent_interior_values(prog, x, d):
    """The values that must all be positive for G'd to lie in the relative
    interior of T_K(G(x)), recomputed from G(x) block by block: G'd on the
    orthant corners, t - ||u|| on an SOC block at its apex, and the least
    eigenvalue of G'd on a PSD block's zero eigenspace."""
    s, h = prog.constraint(x), prog.constraint_jac(x) @ d
    vals = []
    for blk, sl in zip(prog.cone.blocks, prog.cone._slices):
        sb, hb = s[sl], h[sl]
        assert blk.kind in ("orthant", "soc", "psd")
        if blk.kind == "orthant":
            vals.extend(hb[np.abs(sb) <= 1e-9])
        elif blk.kind == "soc":
            assert np.linalg.norm(sb) <= 1e-9 or sb[0] > np.linalg.norm(sb[1:])
            if np.linalg.norm(sb) <= 1e-9:
                vals.append(hb[0] - np.linalg.norm(hb[1:]))
        else:
            lam, P = np.linalg.eigh(smat(sb))
            Pb = P[:, np.abs(lam) <= 1e-9]
            if Pb.shape[1]:
                vals.append(np.linalg.eigvalsh(Pb.T @ smat(hb) @ Pb)[0])
    return vals


class TestRobinsonCertificate:
    @pytest.mark.parametrize("name", ["example1", "example2", "example3",
                                      "psd4", "orthant8", "soc6+orthant4"])
    def test_rcq_holds_with_an_interior_direction(self, name):
        if name.startswith("example"):
            prog, x, y = fixture(name)
        else:
            prog, x, y = _nonunique_instances()[name]
        v = check_rcq(prog, x)
        assert v.status == HOLDS
        assert "interior direction" in v.note
        assert v.margin > conditions.WITNESS_TOL
        assert np.isclose(np.linalg.norm(v.witness), 1.0)
        vals = _tangent_interior_values(prog, x, v.witness)
        assert vals and min(vals) > 0.0

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_srcq_span_witness(self, name):
        prog, x, y = fixture(name)
        v = check_srcq(prog, x, y)
        assert v.status == FAILS
        assert "span C" in v.note
        w = v.witness
        assert np.isclose(np.linalg.norm(w), 1.0)
        assert np.linalg.norm(prog.constraint_jac(x).T @ w) <= 1e-8
        frame = prog.cone.frame(prog.constraint(x) + y)
        assert frame.polar_dist(w) <= 1e-8

    @pytest.mark.parametrize("name", ["example1", "example2", "example3",
                                      "psd4", "soc6+orthant4"])
    def test_nondegeneracy_witness_is_signed(self, name):
        # the span-witness rule of SRCQ: a unit vector of ker G'* whose
        # largest-magnitude entry is positive, whatever sign the SVD gave
        if name.startswith("example"):
            prog, x, y = fixture(name)
        else:
            prog, x, y = _nonunique_instances()[name]
        v = check_nondegeneracy(prog, x)
        assert v.status == FAILS
        w = v.witness
        assert np.isclose(np.linalg.norm(w), 1.0)
        assert w[np.argmax(np.abs(w))] > 0.0
        assert np.linalg.norm(prog.constraint_jac(x).T @ w) <= 1e-8

    def test_zero_interior_margin_is_not_a_certificate(self):
        # example3's critical cone has no interior direction in range G'
        # (least-squares margin exactly zero); the polar search refutes it
        prog, x, y = fixture("example3")
        _, margin = conditions._interior_direction(
            problem_critical_cone(prog, x, y))
        assert margin == 0.0
        v = check_srcq(prog, x, y)
        assert v.status == FAILS
        assert "polar element" in v.note

    def test_no_certificate_and_no_witness_is_inconclusive(self,
                                                           monkeypatch):
        prog, x, y = fixture("example3")
        monkeypatch.setattr(conditions, "_cone_element_in_subspace",
                            lambda *args, **kwargs: (None, np.inf))
        v = check_srcq(prog, x, y)
        assert v.status == INCONCLUSIVE
        assert v.witness is None

    @pytest.mark.parametrize("scale", [1e3, 1e-3])
    def test_verdicts_do_not_depend_on_the_constraint_scale(self, scale):
        # G scaled by s keeps (x, y / s) a KKT pair; the program is rebuilt
        # because it keeps G' as a copy of Ai'
        from conestab.model import ConicProgram
        for name in ("example1", "example2", "example3", "example4"):
            prog, x, y = fixture(name)
            scaled = ConicProgram(prog.n, prog.Q, prog.c, prog.c0,
                                  scale * prog.A0, scale * prog.Ai, prog.cone)
            ys = y / scale
            assert kkt.natural_residual(scaled, x, ys) <= 1e-12, name
            assert check_rcq(scaled, x).status == \
                check_rcq(prog, x).status, name
            assert check_srcq(scaled, x, ys).status == \
                check_srcq(prog, x, y).status, name


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
