"""Tests for perturbation sweeps, rate fitting, and the analytic oracles."""

import numpy as np
import pytest

from conestab import model
from conestab.kkt import KKTPoint, natural_residual
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
