"""Tests for perturbation sweeps, rate fitting, and the analytic oracles."""

import numpy as np
import pytest

from conestab import model, sweep
from conestab.cli import SLOPE_CUTOFF
from conestab.kkt import KKTPoint, natural_residual, solve_kkt_multistart
from conestab.model import oracle_example1, oracle_example3
from conestab.sweep import (SweepRecord, SweepResult, builtin_sweep,
                            default_grid, fit_exponent, run_sweep)


def synthetic_result(exponent, grid=None):
    grid = grid if grid is not None else default_grid()
    records = [SweepRecord(e, True, e ** exponent, e ** exponent, 0.0, 1)
               for e in grid]
    return SweepResult(grid, records)


class TestFitExponent:
    def test_exact_power_law(self):
        slope, stderr = fit_exponent(synthetic_result(2.0 / 3.0))
        assert np.isclose(slope, 2.0 / 3.0, atol=1e-12)
        assert stderr <= 1e-12

    def test_exact_linear_law(self):
        slope, _ = fit_exponent(synthetic_result(1.0))
        assert np.isclose(slope, 1.0, atol=1e-12)

    def test_window_drops_largest_decade(self):
        result = synthetic_result(0.5)
        fit_exponent(result)
        assert result.window[1] <= max(result.grid) / 10.0 * (1 + 1e-9)

    def test_unsolved_records_are_excluded(self):
        result = synthetic_result(1.0)
        for r in result.records:
            r.solved = False
        with pytest.raises(ValueError, match="usable"):
            fit_exponent(result)

    def test_column_default_follows_observable(self):
        result = synthetic_result(0.5)
        result.observable = "multiplier-drift"
        for r in result.records:
            r.dist_y = r.eps  # different law on the dual column
        slope, _ = fit_exponent(result)
        assert np.isclose(slope, 1.0, atol=1e-12)


class TestRunSweep:
    def test_grid_validation(self):
        prog = model.builtin("example4")
        d = model.fixture("example4").direction
        ref = KKTPoint(*model.fixture("example4").reference, 0.0)
        with pytest.raises(ValueError, match="decreasing"):
            run_sweep(prog, d, grid=[1e-3, 1e-2], reference=ref)
        with pytest.raises(ValueError, match="grid"):
            run_sweep(prog, d, grid=[2.0, 1e-2], reference=ref)

    @pytest.mark.parametrize("name, observable, message", [
        ("example4", "dual", "unknown observable 'dual'"),
        ("remark2", "x2", "'x2' needs two variables; 'remark2' has 1")])
    def test_observable_is_refused_before_any_solve(self, name, observable,
                                                    message, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("a point was solved")

        monkeypatch.setattr(sweep, "solve_kkt", solve)
        fx = model.fixture(name)
        with pytest.raises(ValueError, match=message):
            run_sweep(fx.prog, fx.direction,
                      reference=KKTPoint(*fx.reference, 0.0),
                      observable=observable)

    def test_nan_grid_value_is_refused_before_any_solve(self, monkeypatch):
        prog = model.builtin("example4")
        d = model.fixture("example4").direction
        ref = KKTPoint(*model.fixture("example4").reference, 0.0)

        def refused(*args, **kwargs):
            raise AssertionError("a grid point was solved")

        monkeypatch.setattr(sweep, "solve_kkt", refused)
        monkeypatch.setattr(sweep, "solve_kkt_multistart", refused)
        for grid in ([float("nan")], [1e-1, float("nan")]):
            with pytest.raises(ValueError, match=r"lie in \(0, 1\]"):
                run_sweep(prog, d, grid=grid, reference=ref)

    def test_reference_required(self):
        prog = model.builtin("example4")
        d = model.fixture("example4").direction
        with pytest.raises(ValueError, match="reference"):
            run_sweep(prog, d, grid=[1e-1, 1e-2])

    def test_csv_format(self):
        result = builtin_sweep("example4", grid=[1e-1, 1e-2, 1e-3, 1e-4])
        lines = result.to_csv().strip().split("\n")
        assert lines[0] == "eps,solved,dist_x,dist_y,residual,iterations"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert len(first) == 6
        assert float(first[0]) == 0.1
        assert first[1] in ("0", "1")

    def test_single_point_sweep_has_no_fit(self):
        result = builtin_sweep("example4", grid=[1e-2])
        assert len(result.records) == 1
        with pytest.raises(ValueError):
            fit_exponent(result)

    def test_distances_shrink_with_eps(self):
        result = builtin_sweep("example4")
        usable = result.usable()
        assert len(usable) == len(result.grid)
        assert usable[-1].dist_x < usable[0].dist_x


class TestOracleCubeRootRate:
    def test_known_asymptotic_constant(self):
        x1, x2 = oracle_example1(1e-3)
        assert np.isclose(x2, 2.0 ** (-1.0 / 3.0) * (1e-3) ** (2.0 / 3.0),
                          rtol=0.05)

    def test_limit_ratio(self):
        ratios = [oracle_example1(e)[1] / e ** (2.0 / 3.0)
                  for e in (1e-4, 1e-5, 1e-6)]
        assert abs(ratios[-1] - 2.0 ** (-1.0 / 3.0)) < \
            abs(ratios[0] - 2.0 ** (-1.0 / 3.0))

    def test_kkt_residual_of_oracle_point(self):
        prog = model.builtin("example1")
        direction = model.fixture("example1").direction
        for eps in (1e-2, 1e-4):
            pt = model.example1_oracle_point(eps)
            pert = direction.scaled(eps)
            assert natural_residual(prog, pt.x, pt.y, pert) <= 1e-10

    @pytest.mark.parametrize("eps", [1e-1, 1e-3, 3.2e-5, 1e-6, 1e-8])
    def test_bisection_stops_with_the_bits_of_200_halvings(self, eps):
        def phi(x1):
            return 1.0 + 2.0 * x1 - 2.0 * eps ** 4 / x1 ** 3

        lo, hi = eps ** 2, 1.0
        while phi(lo) > 0:
            lo *= 0.5
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if phi(mid) > 0:
                hi = mid
            else:
                lo = mid
        x1 = 0.5 * (lo + hi)
        assert oracle_example1(eps) == (x1, eps ** 2 / x1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            oracle_example1(0.5)
        with pytest.raises(ValueError):
            oracle_example1(0.0)


class TestOracleSquareRootFamily:
    def test_unperturbed_member_is_reference(self):
        pt = oracle_example3(0.0, 0.0)
        x, y = model.fixture("example3").reference
        assert np.allclose(pt.x, x, atol=1e-12)
        assert np.allclose(pt.y, y, atol=1e-12)

    def test_family_members_solve_perturbed_system(self):
        prog = model.builtin("example3")
        direction = model.fixture("example3").direction
        for eps in (1e-2, 1e-4, 1e-6):
            pert = direction.scaled(eps)
            pt = model.example3_max_drift_member(eps)
            assert natural_residual(prog, pt.x, pt.y, pert) <= 1e-9

    def test_multiplier_drift_scales_as_square_root(self):
        _, y_ref = model.fixture("example3").reference
        drifts = []
        for eps in (1e-2, 1e-4):
            pt = model.example3_max_drift_member(eps)
            drifts.append(np.linalg.norm(pt.y - y_ref))
        assert np.isclose(drifts[0] / drifts[1], 10.0, rtol=0.3)

    def test_rejects_xi_outside_band(self):
        with pytest.raises(ValueError):
            oracle_example3(1e-4, 2.0 * np.sqrt(1e-4))


class TestBuiltinSweeps:
    def test_cube_root_exponent(self):
        result = builtin_sweep("example1")
        slope, _ = fit_exponent(result)
        assert 0.64 <= slope <= 0.70

    def test_square_root_exponent(self):
        result = builtin_sweep("example3")
        slope, _ = fit_exponent(result)
        assert 0.47 <= slope <= 0.53

    def test_lipschitz_fixture_exponent(self):
        result = builtin_sweep("example4")
        slope, _ = fit_exponent(result)
        assert slope >= 0.95

    def test_warm_start_fallback_keeps_all_points_solved(self):
        result = builtin_sweep("example2")
        assert all(r.solved for r in result.records)
        assert result.records[-1].dist_x < 1e-5


def _solver_sweep(name):
    """The fixture's sweep from its reference along its direction, solved
    by `solve_kkt` at every grid point (no oracle)."""
    fx = model.fixture(name)
    return run_sweep(fx.prog, fx.direction,
                     reference=KKTPoint(*fx.reference, 0.0),
                     observable=fx.observable)


class TestSolverSweeps:
    """A warm start that picks a calm-looking point would make a non-calm
    problem read as calm: the solver-driven exponents stay where the
    closed forms put them."""

    def test_multiplier_drift_is_not_read_as_calm(self):
        slope, _ = fit_exponent(_solver_sweep("example3"))
        assert slope < SLOPE_CUTOFF

    def test_cube_root_coordinate_reads_two_thirds(self):
        slope, _ = fit_exponent(_solver_sweep("example1"))
        assert abs(slope - 2.0 / 3.0) <= 0.01


# (blocks, rank, border) of generated programs with G = I and Q positive
# definite, instance seed 0: a PSD beta, an SOC apex and a mixed product
_UNIQUE_SPECS = [
    ([("psd", 6)], [2], [1]),
    ([("soc", 8)], [0], [1]),
    ([("orthant", 6), ("soc", 5), ("psd", 4)], [2, 0, 1], [1, 1, 1]),
]


class TestPredict:
    """`_predict` is the Lagrange polynomial through the reference at
    eps = 0 and the given solved points."""

    @pytest.mark.parametrize("nodes", [
        [1e-1, 10 ** -1.5, 1e-2],
        [10 ** -1.9, 10 ** -1.95, 10 ** -2.0],
        [10 ** -3.5, 10 ** -4.0, 10 ** -4.5]])
    def test_exact_on_cubic_paths(self, nodes):
        rng = np.random.default_rng(len(nodes))
        sb, a, b, c = rng.standard_normal((4, 6))

        def path(e):
            return sb + e * a + e ** 2 * b + e ** 3 * c

        eps = nodes[-1] / 10 ** 0.05
        got = sweep._predict(eps, sb, [(e, path(e)) for e in nodes])
        assert np.allclose(got, path(eps), rtol=0, atol=1e-14)

    def test_one_node_is_the_secant_bit_for_bit(self):
        rng = np.random.default_rng(1)
        xb, p = rng.standard_normal((2, 5))
        for eps, ep in [(10 ** -1.5, 1e-1), (1e-6, 10 ** -5.5), (0.3, 0.9)]:
            got = sweep._predict(eps, xb, [(ep, p)])
            assert got.tobytes() == (xb + (eps / ep) * (p - xb)).tobytes()

    def test_no_node_is_the_reference(self):
        xb = np.arange(4.0)
        got = sweep._predict(1e-2, xb, [])
        assert got.tobytes() == xb.tobytes() and got is not xb


def _unique_instance(bench_gen, k):
    inst = bench_gen.make_instance(*_UNIQUE_SPECS[k], seed=0)
    return (inst, model.default_direction(inst.prog),
            KKTPoint(inst.x, inst.y, 0.0))


# 81 points from 1e-1 to 1e-5, 20 to a decade
_FINE_GRID = [10.0 ** -(1 + 0.05 * k) for k in range(81)]


@pytest.fixture
def cold_retries(monkeypatch):
    """The arguments of each cold `solve_kkt_multistart` retry a sweep
    runs."""
    multistart, calls = sweep.solve_kkt_multistart, []

    def counted(*args):
        calls.append(args)
        return multistart(*args)

    monkeypatch.setattr(sweep, "solve_kkt_multistart", counted)
    return calls


class TestUniquePairStart:
    """Where the perturbed KKT pair is unique, the sweep starts each point
    on the polynomial through the reference and the last solved points."""

    @pytest.mark.parametrize("kind", ["orthant", "psd"])
    def test_unique_where_g_is_the_identity_and_q_definite(
            self, kind, well_conditioned_instance):
        prog, _, _ = well_conditioned_instance(kind, 3)
        assert sweep._kkt_pair_is_unique(prog)

    @pytest.mark.parametrize("spec", [
        ([("psd", 4)], [2], [0], "identity", "face-null"),
        ([("orthant", 10)], [4], [1], "identity", "face-null"),
        ([("psd", 4)], [1], [0], "nonunique", "pd"),
        ([("orthant", 8)], [2], [0], "nonunique", "pd"),
    ], ids=["psd4-face-null", "orthant10-face-null", "psd4-nonunique",
            "orthant8-nonunique"])
    def test_not_unique_on_a_singular_q_or_g(self, spec, bench_gen):
        assert not sweep._kkt_pair_is_unique(
            bench_gen.make_instance(*spec, seed=0).prog)

    @pytest.mark.parametrize("name", ["example1", "example2", "example3",
                                      "example4", "remark2"])
    def test_not_unique_on_any_builtin(self, name):
        # n < m on the examples; remark2's constraint map is a callback
        assert not sweep._kkt_pair_is_unique(model.builtin(name))

    @pytest.mark.parametrize("k", range(len(_UNIQUE_SPECS)))
    def test_matches_the_last_point_start_in_fewer_iterations(
            self, k, bench_gen, monkeypatch):
        inst, direction, ref = _unique_instance(bench_gen, k)
        assert sweep._kkt_pair_is_unique(inst.prog)
        runs = []
        for unique in (True, False):
            monkeypatch.setattr(sweep, "_kkt_pair_is_unique",
                                lambda prog: unique)
            result = run_sweep(inst.prog, direction, reference=ref,
                               observable="full")
            runs.append((result, fit_exponent(result)[0],
                         sum(r.iterations for r in result.records)))
        (warm, s1, i1), (chain, s2, i2) = runs
        assert [r.solved for r in warm.records] == \
            [r.solved for r in chain.records]
        assert all(r.solved for r in warm.records)
        assert abs(s1 - s2) <= 1e-6
        assert i1 <= 0.6 * i2

    def test_an_unsolved_point_is_never_a_node(self, bench_gen,
                                               monkeypatch):
        inst, direction, ref = _unique_instance(bench_gen, 0)
        grid = default_grid()
        failed = {grid[1], grid[4], grid[5]}
        solve, predict = sweep.solve_kkt, sweep._predict
        calls = []

        def solve_or_fail(prog, pert, start):
            pt = solve(prog, pert, start)
            if len(calls) and calls[-1][0] in failed:
                return KKTPoint(pt.x, pt.y, 1.0, converged=False)
            return pt

        def spied(eps, reference, nodes):
            calls.append((eps, [e for e, _ in nodes]))
            return predict(eps, reference, nodes)

        monkeypatch.setattr(sweep, "solve_kkt", solve_or_fail)
        monkeypatch.setattr(sweep, "solve_kkt_multistart",
                            lambda prog, pert: KKTPoint(
                                np.zeros(prog.n), np.zeros(prog.cone.dim),
                                2.0, converged=False))
        monkeypatch.setattr(sweep, "_predict", spied)
        result = run_sweep(inst.prog, direction, grid=grid, reference=ref)
        assert [r.eps for r in result.records if not r.solved] == \
            sorted(failed, reverse=True)
        solved = []
        for eps, nodes in calls:
            assert nodes == solved[-sweep._PREDICTOR_DEGREE:]
            if eps not in failed:
                solved.append(eps)
        assert [eps for eps, _ in calls] == grid

    @pytest.mark.parametrize("k", range(len(_UNIQUE_SPECS)))
    def test_fine_grid_solves_every_point_warm(self, k, bench_gen,
                                               cold_retries):
        inst, direction, ref = _unique_instance(bench_gen, k)
        result = run_sweep(inst.prog, direction, grid=_FINE_GRID,
                           reference=ref, observable="full")
        assert all(r.solved for r in result.records)
        assert cold_retries == []


@pytest.fixture(scope="module")
def unique_random_programs():
    """(prog, reference) of the programs among `random_problem(0..399)`
    that pass `_kkt_pair_is_unique`, the reference solved as the CLI's
    sweep solves it."""
    import random_problems

    progs = [random_problems.random_problem(seed) for seed in range(400)]
    return [(prog, solve_kkt_multistart(prog)) for prog in progs
            if sweep._kkt_pair_is_unique(prog)]


class TestUniquePairRatchet:
    """On the random programs with a unique KKT pair the polynomial start
    keeps the last-solved-point start's solved flags, needs no cold retry
    and stays within the Newton iterations measured when it was set: 144
    on the default grid and 383 on the fine one (162 and 753 on the
    secant, 544 and 3,550 from the last solved point)."""

    CEILINGS = {"default": 144, "fine": 383}

    @pytest.mark.parametrize("grid", ["default", "fine"])
    def test_flags_cold_retries_and_iterations(self, grid,
                                               unique_random_programs,
                                               cold_retries, monkeypatch):
        points = None if grid == "default" else _FINE_GRID
        assert len(unique_random_programs) == 40
        runs = {}
        for unique in (True, False):
            monkeypatch.setattr(sweep, "_kkt_pair_is_unique",
                                lambda prog: unique)
            runs[unique] = [run_sweep(prog, model.default_direction(prog),
                                      grid=points, reference=ref)
                            for prog, ref in unique_random_programs]
        assert cold_retries == []
        for warm, chain in zip(runs[True], runs[False]):
            assert [r.solved for r in warm.records] == \
                [r.solved for r in chain.records]
        total = sum(r.iterations for result in runs[True]
                    for r in result.records)
        assert total <= self.CEILINGS[grid]
