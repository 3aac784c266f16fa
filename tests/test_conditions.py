"""Tests for the stability-condition checkers and the assembled report."""

import functools
import itertools

import numpy as np
import pytest

from conestab import conditions, kkt, linalg, model
from conestab.cones import Cone, smat, svec
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

    def test_interior_constraint_gives_full_space(
            self, well_conditioned_instance):
        # G(x) strictly inside the cone: every direction is critical
        prog, x, y = well_conditioned_instance("orthant", seed=2)
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

    @pytest.mark.parametrize("case", [
        None, ("ladder", 1), ("ladder", 5), ("ladder", 6), ("ladder", 10),
        ("degenerate", 8), ("degenerate", 11)],
        ids=lambda case: "%s%d" % case if case else "strict")
    def test_quadratic_equals_the_unit_vector_loop(self, case, bench_gen):
        # orthant x SOC x PSD with (alpha, gamma) pairs in the SOC and PSD
        # blocks, so that Upsilon is not zero, and G' not the identity; and
        # benchmark instances of the `ladder` and `degenerate` lists, each
        # generated with its list position as seed, on which forming
        # Upsilon by one matrix product per block changes the bits
        if case is None:
            prog, x, y = _strict_instance(nonunique=True)
        else:
            spec = {("ladder", 1): ([("psd", 4)], [2]),
                    ("ladder", 5): ([("psd", 8)], [4]),
                    ("ladder", 6): ([("soc", 12)], [1]),
                    ("ladder", 10): ([("orthant", 10), ("soc", 8),
                                      ("psd", 6)], [4, 1, 3]),
                    ("degenerate", 8): ([("psd", 4)], [2], [0], "identity",
                                        "face-null"),
                    ("degenerate", 11): ([("soc", 8)], [1], [0], "identity",
                                         "face-null")}[case]
            inst = bench_gen.make_instance(*spec, seed=case[1])
            prog, x, y = inst.prog, inst.x, inst.y
        cc = problem_critical_cone(prog, x, y)
        m = cc.Gmat.shape[0]
        Ups = np.zeros((m, m))
        for k in range(m):
            Ups[:, k] = 0.5 * cc.frame.upsilon_grad(np.eye(m)[k])
        assert np.any(Ups)
        Ups = 0.5 * (Ups + Ups.T)
        ref = cc.H + cc.Gmat.T @ Ups @ cc.Gmat
        assert cc.quadratic.tobytes() == ref.tobytes()


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

    def test_nondegeneracy_holds_for_surjective_jacobian(
            self, well_conditioned_instance):
        prog, x, y = well_conditioned_instance("psd", seed=0)
        assert check_nondegeneracy(prog, x).status == HOLDS

    def test_implication_nondegeneracy_gives_srcq(
            self, well_conditioned_instance):
        for kind, seed in (("orthant", 0), ("psd", 0), ("orthant", 7)):
            prog, x, y = well_conditioned_instance(kind, seed)
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

    def test_more_face_rows_than_the_cap_is_not_certified_exact(self):
        # orthant(13) at its apex: C is the orthant, with one row more than
        # MAX_FACE_ROWS; Q = I with Q01 = Q10 = 2 is copositive there but
        # not positive definite on the hull
        n = conditions.MAX_FACE_ROWS + 1
        Q = np.eye(n)
        Q[0, 1] = Q[1, 0] = 2.0
        prog = model.ConicProgram(n, Q, np.zeros(n), 0.0, np.zeros(n),
                                  np.eye(n), Cone([("orthant", n)]),
                                  name="orthant13-apex")
        v = check_sosc(prog, np.zeros(n), np.zeros(n))
        assert v.status == INCONCLUSIVE
        assert v.note == "face minimum not certified exact"

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

    def test_affine_hull_probe_holds_with_strong_curvature(
            self, well_conditioned_instance):
        prog, x, y = well_conditioned_instance("orthant", seed=3)
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

    @pytest.mark.parametrize("method", ["exact", "pieces"])
    def test_a_minimum_in_the_tolerance_gap_is_inconclusive(self, method):
        w = np.ones(4) / 2.0
        r = np.sqrt(conditions.KERNEL_FOUND_TOL * conditions.KERNEL_ABSENT_TOL)
        v = kernel_probe_verdict({"min_residual": r, "witness": w,
                                  "method": method})
        assert v.status == INCONCLUSIVE
        assert v.margin == r and v.witness is w

    def test_residual_is_positively_homogeneous_of_degree_two(self):
        prog, x, y = fixture("example3")
        rng = np.random.default_rng(5)
        n, m = prog.n, prog.cone.dim
        g = prog.constraint(x)
        frame = prog.cone.frame(g + y)
        G = prog.constraint_jac(x)
        H = prog.Q

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
    """Patch ConeFrame.dir_deriv_jac to record its argument h, one entry
    per T matrix: each call takes one 1-D h."""
    from conestab.cones import ConeFrame
    calls = []
    original = ConeFrame.dir_deriv_jac

    def counted(self, h):
        h = np.array(h)
        assert h.ndim == 1
        calls.append(h)
        return original(self, h)

    monkeypatch.setattr(ConeFrame, "dir_deriv_jac", counted)
    return calls


def _count_t_builds(monkeypatch):
    """Patch the kernel probe's `kkt_matrix` to count the T matrices it
    builds."""
    calls = []
    original = conditions.kkt_matrix

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(conditions, "kkt_matrix", counted)
    return calls


def _search(prog, x, y, n_starts=conditions._KERNEL_STARTS, seed=0,
            extra_seeds=()):
    """The kernel probe's multi-start search, called directly: polyhedral
    frames with few rows no longer reach it through `kernel_probe`."""
    return conditions._kernel_search(problem_critical_cone(prog, x, y),
                                     n_starts, seed, extra_seeds)


class TestKernelProbeFastPath:
    def test_constant_t_is_one_svd(self, monkeypatch):
        # one T, whose least singular value, from its values alone, is the
        # certificate; a HOLDS carries no witness
        prog, x, y = _strict_instance()
        frame = prog.cone.frame(prog.constraint(x) + y)
        rows, curved = frame.borderline
        assert len(rows) == 0 and not curved
        assert problem_critical_cone(prog, x, y).is_subspace
        calls = _count_t_builds(monkeypatch)
        probe = kernel_probe(prog, x, y)
        assert len(calls) == 1
        assert probe["method"] == "exact" and probe["witness"] is None
        monkeypatch.undo()
        T = kkt.kkt_matrix(prog.Q, prog.constraint_jac(x),
                           frame.dir_deriv_jac(np.zeros(prog.cone.dim)))
        least = np.linalg.svd(T, compute_uv=False)[-1] ** 2
        assert np.float64(probe["min_residual"]).tobytes() == least.tobytes()
        v = kernel_probe_verdict(probe)
        assert v.status == HOLDS and v.margin == probe["min_residual"]
        assert v.note == "every piece is empty"

    def test_fast_path_equals_the_search(self):
        # every start of the search lands on T's least right singular
        # vector, where the residual is the certificate's value
        prog, x, y = _strict_instance()
        fast = kernel_probe(prog, x, y, seed=4)
        search = _search(prog, x, y, seed=4)
        T = problem_critical_cone(prog, x, y).tmatrix(np.zeros(prog.cone.dim))
        assert search["witness"].tobytes() == np.linalg.svd(T)[2][-1].tobytes()
        assert np.isclose(search["min_residual"], fast["min_residual"],
                          rtol=1e-9, atol=0.0)
        assert kernel_probe_verdict(fast).status == HOLDS
        assert kernel_probe_verdict(search).status == INCONCLUSIVE

    def test_constant_t_with_nonunique_multipliers_fails(self, monkeypatch):
        prog, x, y = _strict_instance(nonunique=True)
        frame = prog.cone.frame(prog.constraint(x) + y)
        rows, curved = frame.borderline
        assert len(rows) == 0 and not curved
        calls = _count_t_builds(monkeypatch)
        probe = kernel_probe(prog, x, y)
        assert len(calls) == 1
        assert probe["min_residual"] <= conditions.KERNEL_FOUND_TOL
        assert kernel_probe_verdict(probe).status == FAILS

    @pytest.mark.parametrize("name", ["psd-beta", "orthant-corner",
                                      "soc-bdry"])
    def test_search_contracts_on_a_borderline_frame(self, name,
                                                     monkeypatch):
        prog, x, y = _borderline_instances()[name]
        frame = prog.cone.frame(prog.constraint(x) + y)
        rows, curved = frame.borderline
        assert len(rows) == 1 and not curved
        assert not problem_critical_cone(prog, x, y).is_subspace
        # the probe decides this frame by its faces, so the search's
        # contracts are tested by calling it on the same data
        assert kernel_probe(prog, x, y, n_starts=0)["method"] == "exact"
        # no starts at all: the search finds nothing
        none = _search(prog, x, y, n_starts=0)
        assert none["min_residual"] == np.inf and none["witness"] is None
        verdict = kernel_probe_verdict(none)
        assert verdict.status == INCONCLUSIVE
        assert verdict.note == "no start was tried"
        # a lone extra seed is the start the search refines
        w0 = np.random.default_rng(1).standard_normal(prog.n + prog.cone.dim)
        calls = _count_tmatrix_builds(monkeypatch)
        probe = _search(prog, x, y, n_starts=0, extra_seeds=[w0])
        G = prog.constraint_jac(x)
        w0 = w0 / np.linalg.norm(w0)
        assert np.array_equal(calls[0], G @ w0[:prog.n] + w0[prog.n:])
        assert len(calls) >= 2
        assert np.isfinite(probe["min_residual"])
        assert probe["witness"] is not None


def _reference_search(prog, x, y, n_starts, seed):
    """The multi-start search written out start by start: each start runs
    until it converges or for its full 50 steps."""
    n, m = prog.n, prog.cone.dim
    frame = prog.cone.frame(prog.constraint(x) + y)
    Gmat = prog.constraint_jac(x)
    H = prog.Q
    rng = np.random.default_rng(seed)
    best_val, best_w = np.inf, None
    for _ in range(n_starts):
        w = rng.standard_normal(n + m)
        w = w / np.linalg.norm(w)
        for _ in range(50):
            T = kkt.kkt_matrix(H, Gmat, frame.dir_deriv_jac(
                Gmat @ w[:n] + w[n:]))
            wn = np.linalg.svd(T)[2][-1]
            if np.linalg.norm(wn - w) < 1e-14 or \
               np.linalg.norm(wn + w) < 1e-14:
                w = wn
                break
            w = wn
        dx, dy = w[:n], w[n:]
        r1 = H @ dx + Gmat.T @ dy
        r2 = Gmat @ dx - frame.dir_deriv(Gmat @ dx + dy)
        val = float(r1 @ r1 + r2 @ r2)
        if val < best_val:
            best_val, best_w = val, w
        if best_val <= conditions.KERNEL_FOUND_TOL:
            break
    return {"min_residual": best_val, "witness": best_w}


def _corner_instance():
    """Orthant(3) at s = 0 with corners at indices 0 and 1 and Q null
    along e0: most search starts enter a cycle of period 2 at step 1."""
    return _instance([("orthant", 3)], np.zeros(3), [0.0, 0.0, -1.0],
                     seed=1, null=np.eye(3)[0])


def _search_instances():
    """The corner instance and two curved frames: an SOC(4) apex and a
    PSD(3) beta of order 2.  None has a kernel, so every start runs and
    the search's verdict is INCONCLUSIVE: it never gives HOLDS."""
    ps, py, _ = _psd_pair([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    return {"corner": _corner_instance(),
            "soc-apex": _instance([("soc", 4)], np.zeros(4), np.zeros(4)),
            "psd-beta2": _instance([("psd", 3)], ps, py)}


class TestKernelSearch:
    """The search's result is the start-by-start reference's, bit for
    bit."""

    @pytest.mark.parametrize("seed", range(8))
    def test_one_start_equals_the_reference(self, seed):
        # one start per seed, so the witness is that start's last iterate
        prog, x, y = _corner_instance()
        probe = _search(prog, x, y, n_starts=1, seed=seed)
        ref = _reference_search(prog, x, y, n_starts=1, seed=seed)
        assert probe["min_residual"] == ref["min_residual"]
        assert np.array_equal(probe["witness"], ref["witness"])

    @pytest.mark.parametrize("n_starts", [1, 33, 70])
    @pytest.mark.parametrize("name", ["corner", "soc-apex", "psd-beta2"])
    def test_equals_the_start_by_start_reference(self, name, n_starts,
                                                 monkeypatch):
        prog, x, y = _search_instances()[name]
        cc = problem_critical_cone(prog, x, y)
        assert bool(cc.curved) == (name != "corner")
        calls = _count_tmatrix_builds(monkeypatch)
        probe = _search(prog, x, y, n_starts=n_starts, seed=3)
        monkeypatch.undo()
        ref = _reference_search(prog, x, y, n_starts=n_starts, seed=3)
        assert probe["min_residual"] == ref["min_residual"]
        assert probe["witness"].tobytes() == ref["witness"].tobytes()
        assert kernel_probe_verdict(probe).status == INCONCLUSIVE
        # each start builds at least one T matrix
        assert len(calls) >= n_starts

    def test_a_later_exact_witness_ends_the_search(self, monkeypatch):
        # the SOSC witness seed solves the corner instance's system; it
        # follows five random seeds that do not, and two more follow it
        prog, x, y = _corner_instance()
        cc = problem_critical_cone(prog, x, y)
        d = check_sosc(prog, x, y).witness
        exact = np.concatenate([d, linalg.lstsq(cc.Gmat.T, -cc.H @ d)])
        assert conditions._probe_residual(
            cc, exact / np.linalg.norm(exact)) <= conditions.KERNEL_FOUND_TOL
        rng = np.random.default_rng(7)
        seeds = [rng.standard_normal(len(exact)) for _ in range(7)]
        calls = _count_tmatrix_builds(monkeypatch)
        # each start before the witness, searched alone
        for w0 in seeds[:5]:
            alone = _search(prog, x, y, n_starts=0, extra_seeds=[w0])
            assert alone["min_residual"] > conditions.KERNEL_FOUND_TOL
        sequential = len(calls)
        del calls[:]
        # the witness is the sixth start, and it ends the search
        probe = _search(prog, x, y, n_starts=20,
                        extra_seeds=seeds[:5] + [exact] + seeds[5:])
        assert probe["witness"].tobytes() == \
            (exact / np.linalg.norm(exact)).tobytes()
        assert probe["min_residual"] <= conditions.KERNEL_FOUND_TOL
        assert 0 < len(calls) <= sequential


@pytest.mark.parametrize("name", ["corner", "soc-apex"])
def test_a_nan_start_is_neither_refined_nor_the_witness(name, monkeypatch):
    # the NaN start sits between two finite ones
    prog, x, y = _search_instances()[name]
    cc = problem_critical_cone(prog, x, y)
    nan = np.full(prog.n + prog.cone.dim, np.nan)
    assert np.isnan(conditions._probe_residual(cc, nan))
    rng = np.random.default_rng(2)
    w1, w2 = rng.standard_normal((2, len(nan)))
    calls = _count_tmatrix_builds(monkeypatch)
    probe = _search(prog, x, y, n_starts=5, seed=3,
                    extra_seeds=[w1, nan, w2])
    assert np.all(np.isfinite(calls))
    builds = len(calls)
    del calls[:]
    without = _search(prog, x, y, n_starts=5, seed=3, extra_seeds=[w1, w2])
    assert len(calls) == builds
    assert probe["min_residual"] == without["min_residual"]
    assert probe["witness"].tobytes() == without["witness"].tobytes()


def _piece(kind, rng):
    """(block, s, y, row) for one borderline piece of the given kind and
    the unit row a with a . h >= 0 that it contributes."""
    a, b = rng.uniform(0.5, 2.0, size=2)
    u = rng.standard_normal(2)
    u /= np.linalg.norm(u)
    if kind == "corner":  # index 0 is a corner, index 1 inactive
        return ("orthant", 2), [0.0, a], [0.0, 0.0], [1.0, 0.0]
    if kind == "bdry":  # s on the boundary ray, y = 0
        return (("soc", 3), a * np.concatenate(([1.0], u)), np.zeros(3),
                np.concatenate(([1.0], -u)) / np.sqrt(2.0))
    if kind == "apex_ray":  # s = 0, y on the boundary of -K
        return (("soc", 3), np.zeros(3), -b * np.concatenate(([1.0], -u)),
                np.concatenate(([1.0], u)) / np.sqrt(2.0))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))  # beta = {q1}
    return (("psd", 3), svec((q * [a, 0.0, 0.0]) @ q.T),
            svec((q * [0.0, 0.0, -b]) @ q.T), svec(np.outer(q[:, 1], q[:, 1])))


def _polyhedral_instance(pieces, null, seed=0):
    """One block per borderline piece, G = I + 0.3 N / sqrt(m) for a
    seeded Gaussian N, and Q positive definite or, with null, zero along
    d = G^-1 a for the first piece's row a: then G d = a lies in the
    critical cone, Pi'(C; a) = a, and (d, 0) is a kernel direction."""
    rng = np.random.default_rng(seed)
    parts = [_piece(kind, rng) for kind in pieces]
    s = np.concatenate([p[1] for p in parts])
    m = len(s)
    G = np.eye(m) + 0.3 * rng.standard_normal((m, m)) / np.sqrt(m)
    d = None
    if null:
        a = np.zeros(m)
        a[:len(parts[0][3])] = parts[0][3]
        d = np.linalg.solve(G, a)
        d /= np.linalg.norm(d)
    return _instance([p[0] for p in parts], s,
                     np.concatenate([p[2] for p in parts]), G, seed, d)


_POLYHEDRAL = {
    "corner2": ["corner"] * 2,
    "corner4": ["corner"] * 4,
    "corner6": ["corner"] * conditions._MAX_PROBE_ROWS,
    "bdry": ["bdry"],
    "apex_ray": ["apex_ray"],
    "beta1": ["beta1"],
    "mix3": ["corner", "bdry", "beta1"],
    "mix4": ["apex_ray", "corner", "beta1", "corner"],
    "mix6": ["bdry", "corner", "apex_ray", "beta1", "corner", "beta1"],
}


class TestExactKernelProbe:
    @pytest.mark.parametrize("null", [False, True])
    @pytest.mark.parametrize("name", sorted(_POLYHEDRAL))
    def test_faces_agree_with_the_search(self, name, null):
        prog, x, y = _polyhedral_instance(_POLYHEDRAL[name], null)
        frame = prog.cone.frame(prog.constraint(x) + y)
        rows, curved = frame.borderline
        assert len(rows) == len(_POLYHEDRAL[name]) and not curved
        G = prog.constraint_jac(x)
        H = prog.Q
        exact = kernel_probe(prog, x, y)
        assert exact["method"] == "exact"
        # a positive definite Q leaves every piece of T nonsingular: the
        # certificate holds, with no witness
        assert (exact["witness"] is None) == (not null)
        # the search gets the SOSC witness seed that the report gives it
        seeds = []
        sosc = check_sosc(prog, x, y)
        if sosc.fails:
            d = sosc.witness
            seeds.append(np.concatenate([d, linalg.lstsq(G.T, -H @ d)]))
        search = _search(prog, x, y, n_starts=20, extra_seeds=seeds)
        assert kernel_probe_verdict(exact).status == \
            (FAILS if null else HOLDS)
        # a search never gives HOLDS
        assert kernel_probe_verdict(search).status == \
            (FAILS if null else INCONCLUSIVE)
        assert exact["min_residual"] <= search["min_residual"] + 1e-12
        if not null:
            return
        # the reported residual is ||T(w) w||^2 at the reported witness
        w = exact["witness"]
        T = kkt.kkt_matrix(H, G, frame.dir_deriv_jac(
            G @ w[:prog.n] + w[prog.n:]))
        assert np.isclose(np.linalg.norm(w), 1.0)
        assert np.isclose(exact["min_residual"], float(np.sum((T @ w) ** 2)),
                          rtol=1e-9, atol=1e-20)

    def test_above_the_face_cap_the_certificate_comes_first(self):
        # 7 corners: the certificate decides the pd frame, which has no
        # face; the null frame has a singular piece and takes the search,
        # seeded as the report seeds it
        pieces = ["corner"] * (conditions._MAX_PROBE_ROWS + 1)
        prog, x, y = _polyhedral_instance(pieces, False)
        probe = kernel_probe(prog, x, y, n_starts=3)
        assert probe["method"] == "exact" and probe["witness"] is None
        assert "%.3g" % probe["min_residual"] == "0.000536"
        assert kernel_probe_verdict(probe).status == HOLDS
        prog, x, y = _polyhedral_instance(pieces, True)
        sosc = check_sosc(prog, x, y)
        assert sosc.fails
        d = sosc.witness
        seed = np.concatenate([d, linalg.lstsq(prog.constraint_jac(x).T,
                                               -prog.Q @ d)])
        probe = kernel_probe(prog, x, y, n_starts=3, extra_seeds=[seed])
        assert probe["method"] == "search"
        assert kernel_probe_verdict(probe).status == FAILS

    def test_soc_apex_is_decided_by_pieces(self):
        # SOC(3) at its apex, s = y = 0
        prog, x, y = _instance([("soc", 3)], np.zeros(3), np.zeros(3))
        assert prog.cone.frame(prog.constraint(x) + y).borderline[1]
        probe = kernel_probe(prog, x, y, n_starts=3)
        assert probe["method"] == "pieces"
        assert kernel_probe_verdict(probe).status == HOLDS

    def test_psd_beta_of_order_three_takes_the_search(self):
        # PSD(4) at diag(1, 0, 0, 0) with y = 0: no Lorentz rows
        ps, py, _ = _psd_pair([1.0, 0.0, 0.0, 0.0], [0.0] * 4)
        prog, x, y = _instance([("psd", 4)], ps, py)
        (_, f), = problem_critical_cone(prog, x, y).curved
        assert f.lorentz_rows() is None
        probe = kernel_probe(prog, x, y, n_starts=3)
        assert probe["method"] == "search"
        assert kernel_probe_verdict(probe).status != HOLDS

    def test_a_rejected_tie_below_the_minimum_takes_the_search(
            self, monkeypatch):
        # on the null frame a piece of T is singular, so the faces run;
        # on the pd frame the certificate decides before any face does
        face_minimum = conditions._face_minimum

        def tied(*args):
            mn, w, _, first = face_minimum(*args)
            return mn, w, 0.5 * mn, first

        monkeypatch.setattr(conditions, "_face_minimum", tied)
        for null, method in ((True, "search"), (False, "exact")):
            prog, x, y = _polyhedral_instance(["corner", "bdry"], null)
            probe = kernel_probe(prog, x, y, n_starts=3)
            assert probe["method"] == method
        assert probe["witness"] is None
        assert kernel_probe_verdict(probe).status == HOLDS

    def test_example4_builds_one_t_matrix_per_face(self, monkeypatch):
        # 2 borderline rows: 3^2 faces, which share the T of 2^2 pieces
        prog, x, y = fixture("example4")
        calls = _count_t_builds(monkeypatch)
        report = assemble_report(prog, x, y)
        assert len(calls) == 4
        assert report.kernel_probe["method"] == "exact"
        assert report.kernel_probe["status"] == HOLDS

    def test_exact_probe_reads_no_search_setting(self):
        # n_starts, seed and extra_seeds reach only the search
        prog, x, y = fixture("example4")
        first = kernel_probe(prog, x, y)
        w0 = np.ones(prog.n + prog.cone.dim)
        for kw in ({"seed": 7}, {"n_starts": 0}, {"extra_seeds": [w0]}):
            probe = kernel_probe(prog, x, y, **kw)
            assert probe["min_residual"] == first["min_residual"]
            assert np.array_equal(probe["witness"], first["witness"])


def _reference_faces(cc):
    """The kernel faces' (minimum, witness, rejected, first value) by a
    plain loop: every face in `_face_minimum`'s order, each with the T of
    its piece from `ProblemCriticalCone.tmatrix`, a zero read as minus,
    one SVD of T W, and no skip."""
    m, n = cc.Gmat.shape
    rows, k = cc.rows, len(cc.rows)
    P = np.hstack([cc.Gmat, np.eye(m)])
    A = rows @ P
    Z = np.eye(n + m)
    mn, wit, rejected, first = np.inf, None, np.inf, None
    for r in range(k + 1):
        for zero in itertools.combinations(range(k), r):
            W = Z @ linalg.nullspace(A[list(zero)], tol=1e-10) if zero else Z
            if W.shape[1] == 0:
                continue
            free = [i for i in range(k) if i not in zero]
            for vals in itertools.product((1, -1), repeat=k - r):
                s = np.zeros(k)
                s[free] = vals
                _, sig, Vt = np.linalg.svd(cc.tmatrix(_minus(s) @ rows) @ W)
                val, v, tied = conditions._least(sig, W @ Vt[-1])
                val = val ** 2
                first = val if first is None else first
                inside = None
                for e in (v, -v):
                    h = P @ e
                    if np.all(s * (rows @ h)
                              >= -conditions.WITNESS_TOL * np.linalg.norm(h)):
                        inside = e
                        break
                if inside is not None and val < mn:
                    mn, wit = val, inside
                elif tied and inside is None:
                    rejected = min(rejected, val)
    return mn, wit, rejected, first


def _minus(s):
    """The piece of a sign vector s: its zeros read as minus."""
    return np.where(np.asarray(s) > 0, 1.0, -1.0)


def _face_family():
    """Seeded polyhedral frames with 3-5 borderline rows, with Q positive
    definite or null along a critical direction (a face-null FAILS frame,
    whose minimum is round-off), and an SOC(2) apex beside an orthant
    corner, where a zero row gives the plus row's J, not the minus row's,
    though both give the same T on the face."""
    out = {}
    for k in (3, 4, 5):
        for seed in range(3):
            rng = np.random.default_rng(100 * k + seed)
            pieces = list(rng.choice(["corner", "bdry", "apex_ray", "beta1"],
                                     size=k))
            for null in (False, True):
                out["k%d-%d-%s" % (k, seed, "null" if null else "pd")] = \
                    _polyhedral_instance(pieces, null, seed)
    G = np.eye(4) + 0.15 * np.random.default_rng(5).standard_normal((4, 4))
    # with Q null along d = G^-1 (1, 1, 0, 0), G d lies on the apex's
    # (+, 0) face, whose J is (+, +)'s, not that of the (+, -) piece the
    # probe reads there
    d = np.linalg.solve(G, [1.0, 1.0, 0.0, 0.0])
    for null in (None, d / np.linalg.norm(d)):
        out["soc2-apex-%s" % ("pd" if null is None else "null")] = \
            _instance([("soc", 2), ("orthant", 2)], [0.0, 0.0, 0.0, 1.0],
                      np.zeros(4), G, null=null)
    return out


class TestFaceEnumeration:
    """`_face_minimum` on the kernel faces (one T per piece in {+, -}^k,
    one stacked SVD per zero set, faces skipped by interlacing) against the
    plain loop of `_reference_faces`, bit for bit, on every frame, the
    ones the piece certificate decides too."""

    @staticmethod
    def _check(cc, monkeypatch):
        seen = []
        face_minimum = conditions._face_minimum

        def recorded(*args):
            seen.append(face_minimum(*args))
            return seen[-1]

        monkeypatch.setattr(conditions, "_face_minimum", recorded)
        conditions._face_residual(cc, *cc.piece_tmatrices())
        monkeypatch.undo()
        (mn, wit, rejected, first), = seen
        ref = _reference_faces(cc)
        assert np.float64(mn).tobytes() == np.float64(ref[0]).tobytes()
        assert wit.tobytes() == ref[1].tobytes()
        assert (rejected < mn) == (ref[2] < ref[0])
        assert np.float64(first).tobytes() == np.float64(ref[3]).tobytes()
        return mn

    @pytest.mark.parametrize("i", range(13))
    def test_degenerate_constructions(self, i, bench_gen, bench_workloads,
                                      monkeypatch):
        inst = bench_gen.make_instance(*bench_workloads.DEGENERATE[i], seed=i)
        self._check(problem_critical_cone(inst.prog, inst.x, inst.y),
                    monkeypatch)

    @pytest.mark.parametrize("name", model.BUILTIN_NAMES)
    def test_builtins(self, name, monkeypatch):
        self._check(problem_critical_cone(*fixture(name)), monkeypatch)

    @pytest.mark.parametrize("name", sorted(_face_family()))
    def test_seeded_family(self, name, monkeypatch):
        cc = problem_critical_cone(*_face_family()[name])
        assert 3 <= len(cc.rows) <= 5 and not cc.curved
        mn = self._check(cc, monkeypatch)
        if name.endswith("null"):
            assert mn <= conditions.KERNEL_FOUND_TOL

    def test_stacked_svd_equals_each_call(self):
        # one stacked SVD, with and without the product F W, gives each
        # face the bits of its own SVD of F W; block-diagonal F, as T often
        # is, puts exact zeros, some of them -0.0, in the singular vectors,
        # which W @ v turns to 0.0 even at W = I
        rng = np.random.default_rng(4)
        F = np.zeros((5, 9, 9))
        F[:, :5, :5] = rng.standard_normal((5, 5, 5)) + 5.0 * np.eye(5)
        F[:, 5:, 5:] = rng.standard_normal((5, 4, 4))
        F[0, 8] = 0.0  # a zero row: a least singular value at round-off
        for W in (np.eye(9), linalg.nullspace(rng.standard_normal((3, 9)))):
            FW = F if W.shape[1] == 9 else F @ W
            for f, (val, v, tied) in zip(F, conditions._face_svd(FW, W)):
                _, sig, Vt = np.linalg.svd(f @ W)
                ref = conditions._least(sig, W @ Vt[-1])
                assert np.float64(val).tobytes() == \
                    np.float64(ref[0] ** 2).tobytes()
                assert v.tobytes() == ref[1].tobytes()
                assert tied == ref[2]


def _degenerate_ccs(bench_gen, bench_workloads, pick=lambda spec: True):
    """The cone at (x, y) of each `degenerate` construction picked that
    the kernel faces decide (no curved block), by list position."""
    out = {}
    for i, spec in enumerate(bench_workloads.DEGENERATE):
        if pick(spec):
            inst = bench_gen.make_instance(*spec, seed=i)
            cc = problem_critical_cone(inst.prog, inst.x, inst.y)
            if not cc.curved:
                out[i] = cc
    return out


def _reference_certificate(cc):
    """The piece certificate by a plain loop: the least
    svd(T, compute_uv=False)[-1] ** 2 over the T of every piece in
    {+, -}^k, each from `ProblemCriticalCone.tmatrix`."""
    return min(np.linalg.svd(cc.tmatrix(np.array(s) @ cc.rows),
                             compute_uv=False)[-1] ** 2
               for s in itertools.product((1.0, -1.0), repeat=len(cc.rows)))


def _ladder_ccs(bench_gen, bench_workloads):
    """The cone at (x, y) of each `ladder` rung of a seed-1 pass."""
    return [problem_critical_cone(inst.prog, inst.x, inst.y) for inst in
            (bench_gen.make_instance(b, r, None, "identity", "pd",
                                     seed=1000 + i)
             for i, (b, r) in enumerate(bench_workloads.LADDER))]


class TestPieceCertificate:
    """The kernel faces' first step: min_s sigma_min(T_s)^2 over the
    pieces T_s, a HOLDS with no witness where it reaches
    KERNEL_ABSENT_TOL; elsewhere the face enumeration decides."""

    @staticmethod
    def _certified(cc):
        probe = conditions._kernel_probe(cc, 3, 0, ())
        assert probe["method"] == "exact" and probe["witness"] is None
        assert np.float64(probe["min_residual"]).tobytes() == \
            np.float64(_reference_certificate(cc)).tobytes()
        v = kernel_probe_verdict(probe)
        assert v.status == HOLDS
        assert v.note == "every piece is empty"

    def test_strict_instance(self):
        self._certified(problem_critical_cone(*_strict_instance()))

    def test_ladder_rungs(self, bench_gen, bench_workloads):
        ccs = _ladder_ccs(bench_gen, bench_workloads)
        assert len(ccs) == 11
        for cc in ccs:
            assert cc.is_subspace
            self._certified(cc)

    def test_degenerate_pd_frames(self, bench_gen, bench_workloads):
        # the borderline pd constructions; the nonunique ones have a kernel
        ccs = _degenerate_ccs(bench_gen, bench_workloads,
                              lambda spec: spec[3:] == ("identity", "pd"))
        assert sorted(ccs) == [0, 3, 4]
        for cc in ccs.values():
            self._certified(cc)

    @staticmethod
    def _undecided(cc):
        """Where the certificate does not decide, the probe's output is
        the plain face loop's, bit for bit."""
        assert _reference_certificate(cc) < conditions.KERNEL_ABSENT_TOL
        probe = conditions._kernel_probe(cc, 3, 0, ())
        mn, wit, rejected, _ = _reference_faces(cc)
        assert rejected >= mn
        assert probe["method"] == "exact"
        assert probe["witness"].tobytes() == wit.tobytes()
        assert np.float64(probe["min_residual"]).tobytes() == \
            np.float64(conditions._probe_residual(cc, wit)).tobytes()

    def test_undecided_degenerate_constructions(self, bench_gen,
                                                bench_workloads):
        ccs = _degenerate_ccs(bench_gen, bench_workloads,
                              lambda spec: spec[3:] != ("identity", "pd"))
        assert sorted(ccs) == [5, 6, 7, 8, 9, 10, 11]
        for cc in ccs.values():
            self._undecided(cc)

    @pytest.mark.parametrize("name", ["example1", "example2", "example3",
                                      "example4"])
    def test_undecided_builtins(self, name):
        # example4 holds, but one of its pieces is singular
        self._undecided(problem_critical_cone(*fixture(name)))

    @pytest.mark.parametrize("name", [n for n in sorted(_face_family())
                                      if n.endswith("null")])
    def test_undecided_face_null_family(self, name):
        self._undecided(problem_critical_cone(*_face_family()[name]))

    @staticmethod
    def _pairs(bench_gen, bench_workloads):
        import random_problems
        for cc in _degenerate_ccs(bench_gen, bench_workloads).values():
            yield cc
        for i in range(200):
            prog = random_problems.random_problem(i)
            pt = kkt.solve_kkt_multistart(prog)
            if pt.converged:
                cc = problem_critical_cone(prog, pt.x, pt.y)
                if not (cc.curved
                        or len(cc.rows) > conditions._MAX_PROBE_ROWS):
                    yield cc

    def test_never_above_the_counted_minimum(self, bench_gen,
                                             bench_workloads, monkeypatch):
        # min_s sigma_min(T_s) bounds every face's least singular value
        # from below, up to the round-off of either SVD
        seen = []
        face_minimum = conditions._face_minimum

        def recorded(*args):
            seen.append(face_minimum(*args))
            return seen[-1]

        monkeypatch.setattr(conditions, "_face_minimum", recorded)
        count = 0
        for cc in self._pairs(bench_gen, bench_workloads):
            key, T = cc.piece_tmatrices()
            cert = conditions._piece_margin(T)
            del seen[:]
            conditions._face_residual(cc, key, T)
            (mn, _, _, _), = seen
            scale = max(np.linalg.norm(t, 2) for t in T.values())
            assert np.sqrt(cert) <= np.sqrt(mn) + 1e-13 * max(1.0, scale)
            assert not (cert >= conditions.KERNEL_ABSENT_TOL
                        and mn <= conditions.KERNEL_FOUND_TOL)
            count += 1
        assert count >= 100


def _sign_family():
    """`_face_family` and 7 and 8 orthant corners with Q positive definite,
    above the face cap, where the piece certificate decides."""
    out = dict(_face_family())
    for k in (7, 8):
        out["corner%d-pd" % k] = _polyhedral_instance(["corner"] * k, False)
    return out


class TestSignKeyedPieces:
    """The kernel faces read T on the 2^k pieces s in {+, -}^k of the k
    borderline rows, a zero sign read as minus."""

    @pytest.mark.parametrize("name", sorted(_sign_family()))
    def test_the_exact_probe_builds_one_jacobian_per_piece(self, name,
                                                           monkeypatch):
        cc = problem_critical_cone(*_sign_family()[name])
        k = len(cc.rows)
        calls = _count_tmatrix_builds(monkeypatch)
        probe = conditions._kernel_probe(cc, 3, 0, ())
        assert probe["method"] == "exact"
        assert len(calls) == 2 ** k
        # the rows are orthonormal, so rows @ (s @ rows) is s
        assert {tuple(np.round(cc.rows @ h)) for h in calls} == \
            set(itertools.product((1.0, -1.0), repeat=k))

    @pytest.mark.parametrize("name", sorted(_face_family()))
    def test_a_zero_face_reads_its_minus_piece(self, name):
        # on a face with zero rows W, the minus piece's T W has the least
        # singular value of the true Jacobian element's, up to round-off;
        # only at the SOC(2) apex are the two elements different
        cc = problem_critical_cone(*_face_family()[name])
        m, n = cc.Gmat.shape
        rows, k = cc.rows, len(cc.rows)
        A = rows @ np.hstack([cc.Gmat, np.eye(m)])
        differ = 0
        for r in range(1, k + 1):
            for zero in itertools.combinations(range(k), r):
                W = linalg.nullspace(A[list(zero)], tol=1e-10)
                if W.shape[1] == 0:
                    continue
                free = [i for i in range(k) if i not in zero]
                for vals in itertools.product((1.0, -1.0), repeat=k - r):
                    s = np.zeros(k)
                    s[free] = vals
                    true = cc.tmatrix(s @ rows)
                    piece = cc.tmatrix(_minus(s) @ rows)
                    differ += not np.array_equal(true, piece)
                    a, b = (np.linalg.svd(t @ W, compute_uv=False)[-1]
                            for t in (true, piece))
                    assert abs(a - b) <= 1e-12 * np.linalg.norm(true, 2)
        assert (differ > 0) == name.startswith("soc2-apex")


def _planted_apex(m, seed, piece="P3"):
    """SOC(m) at its apex, x = 0 and y = 0, with G random and H symmetric
    and rank-2-corrected so that a planted unit w = (dx, dy) solves the
    directional-derivative system, on the piece named:

      P3  G dx = a on bd K and dy = -mu J a;
      P1  dy = 0 and G dx in int K;
      P2  G dx = 0 (one more variable than rows) and -dy in int K.

    H is indefinite or singular: dx'H dx = -<G dx, dy> = 0."""
    from conestab.cones import Cone
    from conestab.model import ConicProgram
    rng = np.random.default_rng(seed)
    n = m + (piece == "P2")
    G = rng.standard_normal((m, n))
    u = rng.standard_normal(m - 1)
    u /= np.linalg.norm(u)
    mu = rng.uniform(0.5, 2.0)
    J = np.diag(np.r_[1.0, -np.ones(m - 1)])
    if piece == "P2":
        dx = linalg.nullspace(G)[:, 0]
        dy = -np.r_[1.0, 0.5 * u]
    else:
        a = np.r_[1.0, u if piece == "P3" else 0.5 * u]
        dx = np.linalg.solve(G, a)
        dy = -mu * J @ a if piece == "P3" else np.zeros(m)
    R = rng.standard_normal((n, n))
    H0 = R @ R.T / n + np.eye(n)
    r = -G.T @ dy - H0 @ dx
    H = H0 + (np.outer(r, dx) + np.outer(dx, r)) / (dx @ dx) \
        - (r @ dx) * np.outer(dx, dx) / (dx @ dx) ** 2
    prog = ConicProgram(n, H, np.zeros(n), 0.0, np.zeros(m), G.T,
                        Cone([("soc", m)]), name="planted-" + piece)
    w = np.r_[dx, dy]
    return prog, np.zeros(n), np.zeros(m), w / np.linalg.norm(w)


def _pieces_controls():
    """Kernel-free frames with one Lorentz block: SOC(3..6) apexes with Q
    positive definite, the PSD(3) beta of order 2, an SOC(4) apex beside
    two orthant corners, and an SOC(3) apex whose Q = diag(1, -1/2, -1/2)
    is certified off P3 only at tau = -3/4."""
    from conestab.cones import Cone
    from conestab.model import ConicProgram
    out = {"soc%d" % m: _instance([("soc", m)], np.zeros(m), np.zeros(m),
                                  seed=m) for m in range(3, 7)}
    out["psd-beta2"] = _search_instances()["psd-beta2"]
    G = np.eye(7) + 0.3 * np.random.default_rng(4).standard_normal(
        (7, 7)) / np.sqrt(7)
    out["soc4+corners"] = _instance([("soc", 4), ("orthant", 3)],
                                    np.r_[np.zeros(6), 1.0], np.zeros(7), G)
    out["soc3-indefinite"] = (
        ConicProgram(3, np.diag([1.0, -0.5, -0.5]), np.zeros(3), 0.0,
                     np.zeros(3), np.eye(3), Cone([("soc", 3)]),
                     name="apex"), np.zeros(3), np.zeros(3))
    return out


class TestKernelPieces:
    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_planted_apex_family_never_holds(self, m):
        for seed in range(3):
            prog, x, y, w = _planted_apex(m, seed)
            cc = problem_critical_cone(prog, x, y)
            assert conditions._probe_residual(cc, w) <= 1e-25
            probe = kernel_probe(prog, x, y, n_starts=20, seed=seed)
            verdict = kernel_probe_verdict(probe)
            assert verdict.status != HOLDS
            if verdict.fails:
                assert conditions._probe_residual(
                    cc, probe["witness"]) <= conditions.KERNEL_FOUND_TOL

    @pytest.mark.parametrize("m", [3, 5])
    @pytest.mark.parametrize("piece", ["P1", "P2"])
    def test_planted_p1_and_p2_kernels_are_found(self, piece, m,
                                                  monkeypatch):
        prog, x, y, w = _planted_apex(m, 0, piece)
        cc = problem_critical_cone(prog, x, y)
        assert conditions._probe_residual(cc, w) <= 1e-25
        calls = _count_tmatrix_builds(monkeypatch)
        probe = kernel_probe(prog, x, y)
        assert probe["method"] == "pieces" and not calls
        assert kernel_probe_verdict(probe).status == FAILS
        assert conditions._probe_residual(
            cc, probe["witness"]) <= conditions.KERNEL_FOUND_TOL

    @pytest.mark.parametrize("name", sorted(_pieces_controls()))
    def test_controls_hold_by_pieces(self, name, monkeypatch):
        prog, x, y = _pieces_controls()[name]
        cc = problem_critical_cone(prog, x, y)
        assert len(cc.curved) == 1
        assert len(cc.rows) == (2 if name == "soc4+corners" else 0)
        calls = _count_tmatrix_builds(monkeypatch)
        probe = kernel_probe(prog, x, y)
        assert not calls
        assert probe["method"] == "pieces" and probe["witness"] is None
        assert kernel_probe_verdict(probe).status == HOLDS
        assert probe["min_residual"] >= conditions.KERNEL_ABSENT_TOL
        monkeypatch.undo()
        search = _search(prog, x, y, n_starts=20, seed=1)
        assert search["min_residual"] > conditions.KERNEL_FOUND_TOL

    def test_two_curved_blocks_fall_back_to_the_search(self):
        # two SOC(3) apexes, G = Q = I: SRCQ and SOSC hold, but the pieces
        # take one curved block only, and a search never reads HOLDS
        prog = model.ConicProgram(6, np.eye(6), np.zeros(6), 0.0,
                                  np.zeros(6), np.eye(6),
                                  Cone([("soc", 3), ("soc", 3)]),
                                  name="soc3+soc3-apex")
        x = y = np.zeros(6)
        cc = problem_critical_cone(prog, x, y)
        assert len(cc.curved) == 2
        assert conditions._kernel_pieces(cc) is None
        probe = kernel_probe(prog, x, y)
        assert probe["method"] == "search"
        assert kernel_probe_verdict(probe).status != HOLDS
        assert check_srcq(prog, x, y).holds and check_sosc(prog, x, y).holds

    def test_pieces_read_no_search_setting(self):
        prog, x, y = _pieces_controls()["soc4+corners"]
        first = kernel_probe(prog, x, y)
        w0 = np.ones(prog.n + prog.cone.dim)
        for kw in ({"seed": 7}, {"n_starts": 0}, {"extra_seeds": [w0]}):
            assert kernel_probe(prog, x, y, **kw) == first

    @pytest.mark.parametrize("i, status", [(1, HOLDS), (2, HOLDS),
                                           (12, FAILS)])
    def test_curved_benchmark_instances(self, i, status, bench_gen,
                                        monkeypatch):
        # the `degenerate` list's soc6 pd, soc5+orthant6 pd and soc6+soc6
        # face-null entries, each generated with its list position as seed
        spec = {1: ([("soc", 6)], [0], [1], "identity", "pd"),
                2: ([("soc", 5), ("orthant", 6)], [0, 2], [1, 2], "identity",
                    "pd"),
                12: ([("soc", 6), ("soc", 6)], [2, 0], [0, 1], "identity",
                     "face-null")}[i]
        inst = bench_gen.make_instance(*spec, seed=i)
        calls = _count_tmatrix_builds(monkeypatch)
        probe = kernel_probe(inst.prog, inst.x, inst.y)
        assert not calls
        assert probe["method"] == "pieces"
        assert kernel_probe_verdict(probe).status == status


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
        M = cc.quadratic
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
        M = cc.quadratic
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


def _kernel_program(name, trial, cols=2):
    """A program whose RCQ at x = 0 has a polar kernel V of `cols`
    columns, and the frame at G(0): G(x) = g + (I - V V') x, so
    ker G'* = range V, for a seeded random subspace V of the normal span
    at g.  Every frame's tangent cone spans the whole space, so
    (span C)^perp is {0}."""
    from conestab.cones import Cone
    from conestab.model import ConicProgram
    cone, g = {
        "orthant-corner": (Cone([("orthant", 3)]), np.zeros(3)),
        "soc-bdry": (Cone([("soc", 3), ("orthant", 2)]),
                     np.array([1.0, 1.0, 0.0, 0.0, 0.0])),
        "soc-apex": (Cone([("soc", 3)]), np.zeros(3)),
        "psd-beta1": (Cone([("psd", 2), ("orthant", 2)]),
                      np.concatenate([svec(np.diag([1.0, 0.0])), [0.0, 0.0]])),
        "psd-beta2": (Cone([("psd", 3)]), svec(np.diag([1.0, 0.0, 0.0]))),
    }[name]
    frame = cone.frame(g)
    N = frame.normal_span()
    rng = np.random.default_rng(trial)
    V = N @ np.linalg.qr(rng.standard_normal((N.shape[1], cols)))[0]
    n = cone.dim
    prog = ConicProgram(n, np.eye(n), np.zeros(n), 0.0, g,
                        np.eye(n) - V @ V.T, cone, name=name)
    return prog, frame


class TestPolarKernelStage:
    @pytest.mark.parametrize("cols", [1, 2])
    @pytest.mark.parametrize("name", ["orthant-corner", "soc-bdry",
                                      "soc-apex", "psd-beta1", "psd-beta2"])
    def test_witness_exactly_when_the_unit_sphere_meets_the_polar(
            self, name, cols, monkeypatch):
        # range V meets C° in a sector (or a ray of ±v) or only at 0;
        # without the interior direction every kernel reaches the test,
        # which is exact on a line; a plane's miss holds where the polar
        # slice vanishes, |<v, c>| < 1/sqrt2 on its unit circle (span C
        # is the whole space, so no G' term), and else where the slice, a
        # line, misses C°'s Lorentz rows, which every frame here has
        monkeypatch.setattr(conditions, "_interior_direction",
                            lambda cc: (None, 0.0))
        t = np.linspace(0.0, 2.0 * np.pi, 1440, endpoint=False)
        sphere = np.vstack([np.cos(t), np.sin(t)]) if cols == 2 else \
            np.array([[1.0, -1.0]])
        seen = set()
        for trial in range(12):
            prog, frame = _kernel_program(name, trial, cols)
            V = linalg.nullspace(prog.constraint_jac(np.zeros(prog.n)).T)
            assert V.shape[1] == cols
            hit = any(frame.polar_dist(u) <= 1e-10 for u in (V @ sphere).T)
            v = check_rcq(prog, np.zeros(prog.n))
            if hit:
                assert v.status == FAILS, (name, trial)
                assert np.isclose(np.linalg.norm(v.witness), 1.0)
                assert frame.polar_dist(v.witness) <= 1e-10
                assert np.linalg.norm(V @ (V.T @ v.witness) - v.witness) \
                    <= 1e-10
            elif cols == 1:
                assert v.status == HOLDS and v.witness is None, (name, trial)
                assert np.isclose(v.margin, min(frame.polar_dist(u) for u
                                                in (V[:, 0], -V[:, 0])))
            else:
                gap = np.sqrt(0.5) - np.linalg.norm(V.T @ frame.relint_point())
                assert frame.polar_rows() is not None
                assert v.status == HOLDS and v.witness is None, (name, trial)
                if gap > 0:
                    assert np.isclose(v.margin, gap)
                else:
                    assert "misses" in v.note and v.margin > 0, (name, trial)
            seen.add(hit)
        assert seen == {True, False}, name


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
        # a two-column polar kernel that meets C° in a sector, so that no
        # interior direction exists, with the shared search finding nothing
        prog, frame = _kernel_program("orthant-corner", 2)
        v = check_rcq(prog, np.zeros(prog.n))
        assert v.status == FAILS and frame.polar_dist(v.witness) <= 1e-10
        monkeypatch.setattr(conditions, "affine_cone_point",
                            lambda *args, **kwargs: None)
        v = check_rcq(prog, np.zeros(prog.n))
        assert v.status == INCONCLUSIVE
        assert v.witness is None

    def test_polar_slice_witness_needs_no_search(self, monkeypatch):
        # the same sector meets ri C°, so the interior candidate on the
        # slice <v, c> = -1 is the witness
        def refuse(*args):
            raise AssertionError("the projection search ran")

        monkeypatch.setattr(kkt, "_projection_search", refuse)
        prog, frame = _kernel_program("orthant-corner", 2)
        v = check_rcq(prog, np.zeros(prog.n))
        assert v.status == FAILS and frame.polar_dist(v.witness) <= 1e-10
        assert frame.relint_margin(-v.witness) > 0.0

    @pytest.mark.parametrize("zero_block", [False, True])
    def test_vanishing_polar_slice_holds(self, zero_block, monkeypatch):
        # orthant(6) at s = (0, 0, 0, 0, 1, 1) with G' an orthonormal basis
        # of the complement of the rows below: ker G'* ∩ span N is the
        # plane of the first two rows, orthogonal to c = (1, 1, 1, 1, 0, 0),
        # and no interior direction is found; yet z = (1, 1, 1, 1, -6, 0)
        # lies in range G' with its corner part in ri C, so RCQ holds.  A
        # zero block with G' = 1 on it adds (span C)^perp with sigma = 1
        # and ||G'|| = 1, which halves the margin 1/sqrt2
        from conestab.cones import Cone
        from conestab.model import ConicProgram

        def refuse(*args):
            raise AssertionError("affine_cone_point ran")

        monkeypatch.setattr(conditions, "affine_cone_point", refuse)
        B = linalg.nullspace(np.array([[1.0, -1.0, 0.0, 0.0, 0.0, 0.0],
                                       [0.0, 0.0, 1.0, -1.0, 0.0, 0.0],
                                       [2.0, 2.0, 1.0, 1.0, 1.0, 0.0]]))
        s = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
        z = np.array([1.0, 1.0, 1.0, 1.0, -6.0, 0.0])
        assert np.allclose(B @ (B.T @ z), z)
        blocks, G = [("orthant", 6)], B
        if zero_block:
            blocks.append(("zero", 1))
            G = np.block([[B, np.zeros((6, 1))], [np.zeros((1, 3)), 1.0]])
            s = np.r_[s, 0.0]
        m, n = G.shape
        prog = ConicProgram(n, np.eye(n), np.zeros(n), 0.0, s, G.T,
                            Cone(blocks))
        x, y = np.zeros(n), np.zeros(m)
        assert kkt.natural_residual(prog, x, y) == 0.0
        margin = np.sqrt(0.5) / (2.0 if zero_block else 1.0)
        for v in (check_rcq(prog, x), check_srcq(prog, x, y)):
            assert v.status == HOLDS and "vanishes" in v.note
            assert v.witness is None
            assert np.isclose(v.margin, margin)

    def test_polar_slice_line_that_misses_holds(self, tmp_path, capsys,
                                                monkeypatch):
        # random file 12, orthant(4) x psd(1) with n = 2: the polar kernel
        # has two columns and no interior direction, its slice is a line
        # whose orthant rows give intervals that do not meet, so RCQ holds
        # in closed form, with no search
        import json

        import random_problems
        from conestab import cli
        from conestab.model import save_problem

        def refuse(*args):
            raise AssertionError("the projection search ran")

        monkeypatch.setattr(kkt, "_projection_search", refuse)
        prog = random_problems.random_problem(12)
        path, report = tmp_path / "p12.json", tmp_path / "r12.json"
        path.write_text(save_problem(prog))
        assert cli.main(["analyze", "--problem", str(path),
                         "--report", str(report)]) == 0
        capsys.readouterr()
        rcq = json.loads(report.read_text())["rcq"]
        assert rcq["status"] == HOLDS and "misses" in rcq["note"]
        assert 0.0 < rcq["margin"] < np.inf
        x = kkt.solve_kkt_multistart(prog).x
        cc = conditions._tangent_cone(prog, x)
        assert cc.polar_kernel.shape[1] == 2
        assert conditions._interior_direction(cc)[1] <= conditions.WITNESS_TOL

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


def _count_calls(monkeypatch, cls, method):
    """A list that grows by one at each call of cls.method."""
    calls = []
    original = getattr(cls, method)

    def counted(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(cls, method, counted)
    return calls


_PUBLIC_CHECKS = {
    "check_rcq": lambda prog, x, y: check_rcq(prog, x),
    "check_srcq": check_srcq,
    "check_nondegeneracy": lambda prog, x, y: check_nondegeneracy(prog, x),
    "check_sosc": check_sosc,
    "check_robinson_sosc": lambda prog, x, y: check_robinson_sosc(prog, x,
                                                                  [y]),
    "affine_hull_probe": affine_hull_probe,
    "kernel_probe": kernel_probe,
}


class TestAffineMapGuard:
    """remark2 carries callbacks: at its reference y = 0 the Hessian of
    the Lagrangian is Q, and every check answers from G'(0) = 0 and Q;
    at y != 0 it would need the Hessian of <y, G>, and the pulled-back
    cone refuses it."""

    @pytest.mark.parametrize("name, status", [
        ("check_rcq", FAILS), ("check_srcq", FAILS),
        ("check_nondegeneracy", FAILS), ("check_sosc", HOLDS),
        ("check_robinson_sosc", HOLDS), ("affine_hull_probe", HOLDS),
        ("kernel_probe", FAILS)])
    def test_every_check_answers_a_callback_map_at_zero(self, name, status):
        result = _PUBLIC_CHECKS[name](*fixture("remark2"))
        if name == "kernel_probe":
            result = kernel_probe_verdict(result)
        assert result.status == status

    @pytest.mark.parametrize("name", sorted(
        set(_PUBLIC_CHECKS) - {"check_rcq", "check_nondegeneracy"}))
    def test_a_callback_map_is_refused_at_nonzero_y(self, name):
        prog, x, _ = fixture("remark2")
        with pytest.raises(ValueError, match="affine constraint map"):
            _PUBLIC_CHECKS[name](prog, x, np.ones(1))

    @pytest.mark.parametrize("name", ["check_nondegeneracy", "kernel_probe"])
    def test_one_frame_per_check(self, name, monkeypatch):
        from conestab.cones import Cone
        calls = _count_calls(monkeypatch, Cone, "frame")
        for fx in ("example1", "example2", "example3", "example4"):
            calls.clear()
            _PUBLIC_CHECKS[name](*fixture(fx))
            assert len(calls) == 1, fx


class TestAssembleReport:
    def test_rejects_non_kkt_pairs(self):
        prog = model.builtin("example1")
        with pytest.raises(ValueError, match="KKT"):
            assemble_report(prog, np.ones(2), np.zeros(3))

    def test_rejects_nan_residual(self, well_conditioned_instance):
        prog, x, y = well_conditioned_instance("orthant", seed=0)
        y = y.copy()
        y[0] = np.nan
        with pytest.raises(ValueError, match="KKT"):
            assemble_report(prog, x, y)

    def test_reports_the_nonaffine_fixture_at_its_reference(self):
        report = assemble_report(*fixture("remark2"))
        for key in ("rcq", "srcq", "nondegeneracy"):
            v = getattr(report, key)
            assert (v.status, v.margin) == (FAILS, 0.0), key
        for key in ("sosc", "affine_hull_probe"):
            v = getattr(report, key)
            assert (v.status, v.margin) == (HOLDS, 1.0), key
        assert report.kernel_probe["status"] == FAILS
        assert report.kernel_probe["min_residual"] == 0.0
        assert report.multiplier_affine_dim == 1
        assert report.theorem_verdict == FAILS
        assert report.consistency_flag is True
        assert report.inconsistencies == []

    @pytest.mark.parametrize("name, dim", [("example2", 2), ("example4", 0)])
    def test_report_carries_the_multiplier_set(self, name, dim):
        report = assemble_report(*fixture(name))
        assert report.multiplier_affine_dim == dim
        assert report.multiplier_singleton is (dim == 0)
        assert report.to_dict()["multiplier_affine_dim"] == dim

    def test_zero_interior_direction_to_round_off_is_no_certificate(self):
        # random file 367: G'd has norm ~1e-16, and its relint margin over
        # that norm once read 0.654, so SRCQ held while the multiplier set
        # has affine dimension 2 and the kernel probe failed
        import random_problems
        prog = random_problems.random_problem(367)
        pt = kkt.solve_kkt_multistart(prog)
        report = assemble_report(prog, pt.x, pt.y)
        assert report.srcq.status == FAILS
        assert report.srcq.witness is not None
        assert report.multiplier_affine_dim == 2
        assert report.theorem_verdict == FAILS
        assert report.consistency_flag is True
        assert report.inconsistencies == []

    def test_verdicts_and_consistency_on_battery(self):
        expected = {"example1": FAILS, "example2": FAILS,
                    "example3": FAILS, "example4": HOLDS}
        for name, verdict in expected.items():
            report = assemble_report(*fixture(name))
            assert report.theorem_verdict == verdict, name
            assert report.consistency_flag is True, name
            assert report.inconsistencies == [], name

    def test_generated_instances_are_robustly_isolated_calm(
            self, well_conditioned_instance):
        for kind in ("orthant", "psd"):
            prog, x, y = well_conditioned_instance(kind, seed=0)
            report = assemble_report(prog, x, y)
            assert report.theorem_verdict == HOLDS
            assert report.consistency_flag is True

    @pytest.mark.parametrize("name", ["example1", "example2", "example3",
                                      "example4"])
    def test_shared_cones_give_the_public_verdicts(self, name):
        prog, x, y = fixture(name)
        report = assemble_report(prog, x, y, seed=1)
        for key, v in (("rcq", check_rcq(prog, x)),
                       ("srcq", check_srcq(prog, x, y)),
                       ("nondegeneracy", check_nondegeneracy(prog, x)),
                       ("sosc", check_sosc(prog, x, y)),
                       ("affine_hull_probe", affine_hull_probe(prog, x, y))):
            assert getattr(report, key).to_dict() == v.to_dict(), key
        if not (report.srcq.fails or report.sosc.fails):
            # no witness seeds the report's probe
            probe = kernel_probe(prog, x, y, seed=1)
            assert report.kernel_probe["min_residual"] == \
                probe["min_residual"]

    @staticmethod
    def _alone(prog, x, y, seed=0):
        """The report's fields from the public checkers, each run alone,
        with the probe's search seeds built as `assemble_report` does."""
        srcq, sosc = check_srcq(prog, x, y), check_sosc(prog, x, y)
        seeds = []
        if srcq.fails and srcq.witness is not None:
            seeds.append(np.concatenate([np.zeros(prog.n), srcq.witness]))
        if sosc.fails:
            G = prog.constraint_jac(x)
            seeds.append(np.concatenate(
                [sosc.witness, linalg.lstsq(G.T, -prog.Q @ sosc.witness)]))
        probe = kernel_probe(prog, x, y, seed=seed, extra_seeds=seeds)
        mset = kkt.recover_multipliers(prog, x)
        return {"rcq": check_rcq(prog, x).to_dict(),
                "srcq": srcq.to_dict(),
                "nondegeneracy": check_nondegeneracy(prog, x).to_dict(),
                "sosc": sosc.to_dict(),
                "affine_hull_probe": affine_hull_probe(prog, x, y).to_dict(),
                "kernel_probe": {
                    "min_residual": probe["min_residual"],
                    "witness": None if probe["witness"] is None
                    else probe["witness"].tolist(),
                    "status": kernel_probe_verdict(probe).status,
                    "method": probe["method"]},
                "multiplier_singleton": None if mset is None
                else mset.is_singleton,
                "multiplier_affine_dim": None if mset is None
                else mset.affine_dim}

    @staticmethod
    def _report_pairs(bench_gen, bench_workloads):
        import random_problems
        for name in model.BUILTIN_NAMES:
            yield fixture(name)
        for i, spec in enumerate(bench_workloads.DEGENERATE):
            inst = bench_gen.make_instance(*spec, seed=i)
            yield inst.prog, inst.x, inst.y
        for i in range(40):
            prog = random_problems.random_problem(i)
            pt = kkt.solve_kkt_multistart(prog)
            if pt.converged:
                yield prog, pt.x, pt.y

    def test_report_equals_the_checkers_alone(self, bench_gen,
                                              bench_workloads):
        # the shared tangent cone, hull face and T matrices leave every
        # field as the public checkers give it, bit for bit
        import json
        count = 0
        for prog, x, y in self._report_pairs(bench_gen, bench_workloads):
            report = assemble_report(prog, x, y).to_dict()
            alone = self._alone(prog, x, y)
            assert json.dumps({k: report[k] for k in alone}) == \
                json.dumps(alone), prog.name
            count += 1
        assert count >= 50

    @staticmethod
    def _count_apart(monkeypatch, cls, method):
        """Calls of cls.method, keyed by whether the multiplier recovery
        made them; on a cached property, its evaluations."""
        calls = {"checks": 0, "recovery": 0}
        key = ["checks"]
        original = vars(cls)[method]
        cached = isinstance(original, functools.cached_property)
        if cached:
            original = original.func
        recover = conditions.recover_multipliers

        def counted(self, *args):
            calls[key[0]] += 1
            return original(self, *args)

        if cached:
            counted = functools.cached_property(counted)
            counted.__set_name__(cls, method)

        def recovery(*args):
            key[0] = "recovery"
            try:
                return recover(*args)
            finally:
                key[0] = "checks"

        monkeypatch.setattr(cls, method, counted)
        monkeypatch.setattr(conditions, "recover_multipliers", recovery)
        return calls

    def test_two_frames_per_report(self, monkeypatch):
        # one at G(x) for RCQ, nondegeneracy and the recovery, one at
        # G(x) + y for SRCQ, SOSC, the hull probe and the kernel probe;
        # the recovery takes one only in `_hull_directions`, at
        # Pi_K(G(x)) + the representative, where the stationarity
        # equation leaves a line or more
        from conestab.cones import Cone
        calls = self._count_apart(monkeypatch, Cone, "frame")
        for name, recovery in (("example1", 1), ("example2", 1),
                               ("example3", 1), ("example4", 0)):
            calls.update(checks=0, recovery=0)
            assemble_report(*fixture(name))
            assert calls == {"checks": 2, "recovery": recovery}, name

    def test_one_borderline_split_per_cone(self, monkeypatch):
        # each frame is split once: the kernel probe reads the rows its
        # cone already holds, and the recovery's `polar_rows` the split
        # that its frame cached (1/0/1/0 without the cache)
        from conestab.cones import ConeFrame
        calls = self._count_apart(monkeypatch, ConeFrame, "borderline")
        for name, recovery in (("example1", 0), ("example2", 0),
                               ("example3", 0), ("example4", 0)):
            calls.update(checks=0, recovery=0)
            assemble_report(*fixture(name))
            assert calls == {"checks": 2, "recovery": recovery}, name

    def test_report_records_the_multiplier(self):
        prog, x, y = fixture("example2")
        data = assemble_report(prog, x, y).to_dict()
        assert data["multiplier"] == y.tolist()

    def test_report_serializes(self):
        import json
        prog, x, y = fixture("example4")
        report = assemble_report(prog, x, y)
        data = report.to_dict()
        assert data["theorem_verdict"] == HOLDS
        assert data["srcq"]["status"] == HOLDS
        json.dumps({k: v for k, v in data.items()
                    if k != "kernel_probe"})  # witness arrays already listed
