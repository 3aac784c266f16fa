"""Tests for the command-line surface: output formats and exit codes."""

import json

import numpy as np
import pytest

from conestab import cli, conditions, kkt, model
from conestab.cli import (EXIT_CONFLICT, EXIT_INCONCLUSIVE, EXIT_INPUT,
                          EXIT_OK, EXIT_SOLVER, build_parser, main)
from conestab.cones import Cone


class TestSolve:
    def test_builtin_converges(self, capsys):
        assert main(["solve", "--builtin", "example4"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "residual" in out
        assert "converged = True" in out

    def test_unique_multiplier_fixture(self, capsys):
        assert main(["solve", "--builtin", "example1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "example1" in out

    def test_missing_file_is_input_error(self, capsys):
        assert main(["solve", "--problem", "missing.json"]) == EXIT_INPUT
        assert "not found" in capsys.readouterr().err

    def test_unknown_builtin_is_input_error(self):
        assert main(["solve", "--builtin", "nope"]) == EXIT_INPUT

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "sol.json"
        assert main(["solve", "--builtin", "example4",
                     "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["converged"] is True
        assert np.allclose(data["x"], [1.0, 0.0, 0.0], atol=1e-8)


class TestAnalyze:
    def test_robustly_isolated_calm_fixture(self, capsys):
        assert main(["analyze", "--builtin", "example4"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ROBUST ISOLATED CALMNESS: HOLDS" in out
        assert "nondegeneracy: holds" in out
        assert "affine-hull probe: FAILS" in out

    def test_degenerate_fixture(self, capsys):
        assert main(["analyze", "--builtin", "example3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ROBUST ISOLATED CALMNESS: FAILS" in out
        assert "SRCQ FAILS" in out
        assert "SOSC holds" in out

    def test_nonunique_multiplier_fixture(self, capsys):
        assert main(["analyze", "--builtin", "example2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "rcq: holds" in out
        assert "multiplier set: affine dim 2" in out

    def test_report_file_contains_all_verdicts(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["analyze", "--builtin", "example4",
                     "--report", str(report)]) == EXIT_OK
        capsys.readouterr()
        data = json.loads(report.read_text())
        for key in ("rcq", "srcq", "nondegeneracy", "sosc",
                    "affine_hull_probe", "kernel_probe", "theorem_verdict"):
            assert key in data
        # the probe says how it was decided: example4's 9 sign faces
        assert set(data["kernel_probe"]) == {"min_residual", "witness",
                                             "status", "method"}
        assert data["kernel_probe"]["method"] == "exact"
        assert data["theorem_verdict"] == "holds"
        assert data["srcq"]["margin"] is not None
        # the multiplier the verdicts were decided at
        assert data["multiplier"] == \
            model.fixture("example4").reference[1].tolist()

    def test_report_is_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["analyze", "--builtin", "example3", "--report", str(a)])
        main(["analyze", "--builtin", "example3", "--report", str(b)])
        capsys.readouterr()
        assert a.read_text() == b.read_text()

    def test_nonaffine_fixture_rejected(self, capsys):
        assert main(["analyze", "--builtin", "remark2"]) == EXIT_INPUT


class TestSweep:
    def test_csv_to_stdout_with_exponent(self, capsys):
        code = main(["sweep", "--builtin", "example1", "--observable", "x2"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("eps,solved,dist_x,dist_y,residual,iterations")
        assert "fitted exponent 0.66" in out

    def test_csv_file_output(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--builtin", "example4", "--out", str(out)])
        assert code == EXIT_OK
        capsys.readouterr()
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "eps,solved,dist_x,dist_y,residual,iterations"
        assert len(lines) == 12

    def test_custom_grid(self, capsys):
        code = main(["sweep", "--builtin", "example4", "--grid", "1:5:1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("\n") >= 6  # header + 5 records + summary

    def test_bad_grid_is_input_error(self, capsys):
        assert main(["sweep", "--builtin", "example4",
                     "--grid", "oops"]) == EXIT_INPUT

    def test_too_few_points_is_solver_failure(self, capsys):
        code = main(["sweep", "--builtin", "example4", "--grid", "1:2:1"])
        assert code == EXIT_SOLVER


class TestCertify:
    def test_lipschitz_fixture_agrees(self, capsys):
        assert main(["certify", "--builtin", "example4"]) == EXIT_OK
        assert "agree" in capsys.readouterr().out

    def test_cube_root_fixture_agrees(self, capsys):
        assert main(["certify", "--builtin", "example1",
                     "--observable", "x2"]) == EXIT_OK
        assert "agree" in capsys.readouterr().out

    def test_square_root_fixture_agrees(self, capsys):
        assert main(["certify", "--builtin", "example3"]) == EXIT_OK
        assert "agree" in capsys.readouterr().out

    def test_nonunique_multiplier_fixture_agrees_by_default(self, capsys):
        # the default observable is the full (x, y) drift the verdict is
        # about; on x alone example2's fails verdict would conflict
        assert main(["certify", "--builtin", "example2"]) == EXIT_OK
        assert "agree" in capsys.readouterr().out

    def test_short_grid_is_solver_failure(self, capsys):
        assert main(["certify", "--builtin", "example4",
                     "--grid", "1:4:1"]) == EXIT_SOLVER
        assert "no exponent fit" in capsys.readouterr().err


class TestOptions:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--builtin", "example1", "--report", "x"],
        ["analyze", "--builtin", "example1", "--out", "x"],
        ["list-builtins", "--seed", "1"],
        ["solve", "--builtin", "example1", "--seed", "1"],
    ])
    def test_option_only_where_read(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


def _bench_gen():
    """The benchmark's instance generator, bench/gen.py."""
    import importlib.util
    import pathlib
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


class TestKernelProbeLine:
    def test_polyhedral_instance_prints_the_exact_minimum(self, tmp_path,
                                                          capsys):
        # the benchmark's `degenerate` orthant3+psd3 pd instance: an
        # orthant corner and a PSD beta of size 1, 9 sign faces; the
        # multi-start search read 8.177e-02
        inst = _bench_gen().make_instance([("orthant", 3), ("psd", 3)],
                                          [1, 1], [1, 1], "identity", "pd",
                                          seed=4)
        problem = tmp_path / "problem.json"
        problem.write_text(inst.to_json())
        report = tmp_path / "report.json"
        assert main(["analyze", "--problem", str(problem), "--report",
                     str(report), "--seed", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "kernel probe: holds (min residual 6.321e-02)" in out
        assert json.loads(report.read_text())["kernel_probe"]["method"] \
            == "exact"


class TestQuadrantSoc:
    def test_soc2_apex_is_decided_exactly(self, tmp_path, capsys):
        # SOC(2) is a quadrant: at its apex the critical cone has the two
        # borderline rows rhat and vhat and no curved block, so SOSC and
        # the kernel probe enumerate faces instead of searching
        prog = model.ConicProgram(
            2, np.diag([1.0, -0.5]), np.zeros(2), 0.0, np.zeros(2),
            np.eye(2), Cone([("soc", 2)]), name="soc2-apex")
        problem = tmp_path / "problem.json"
        problem.write_text(model.save_problem(prog))
        report = tmp_path / "report.json"
        assert main(["analyze", "--problem", str(problem), "--report",
                     str(report)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "kernel probe: holds (min residual 1.564e-02)" in out
        data = json.loads(report.read_text())
        assert data["sosc"]["status"] == "holds"
        assert data["sosc"]["note"] == "exact face minimum"
        assert abs(data["sosc"]["margin"] - 0.25) <= 1e-12
        assert data["kernel_probe"]["method"] == "exact"


class TestSearchWorkCount:
    """The alternating-projection search runs only where no closed form
    decides: example2's two-column multiplier plane."""

    @pytest.mark.parametrize("name, calls", [
        ("example1", 0), ("example2", 1), ("example3", 0), ("example4", 0)])
    def test_analyze_searches_only_on_a_plane(self, name, calls,
                                              monkeypatch, capsys):
        count = [0]
        search = kkt._projection_search

        def counted(*args):
            count[0] += 1
            return search(*args)

        monkeypatch.setattr(kkt, "_projection_search", counted)
        main(["analyze", "--builtin", name])
        capsys.readouterr()
        assert count[0] == calls

    def test_srcq_does_not_read_the_seed_on_example3(self):
        prog = model.builtin("example3")
        x, y = model.fixture("example3").reference
        first = conditions.check_srcq(prog, x, y, seed=0)
        assert first.fails
        for seed in range(1, 6):
            v = conditions.check_srcq(prog, x, y, seed=seed)
            assert v.status == first.status and v.margin == first.margin
            assert np.array_equal(v.witness, first.witness)


class TestListBuiltins:
    def test_lists_all_fixtures(self, capsys):
        assert main(["list-builtins"]) == EXIT_OK
        out = capsys.readouterr().out.split()
        for name in ("example1", "example2", "example3", "example4"):
            assert name in out


class TestGridParsing:
    def test_decade_grid(self):
        grid = cli._parse_grid("1:3:1")
        assert np.allclose(grid, [1e-1, 1e-2, 1e-3])

    def test_half_decade_grid(self):
        grid = cli._parse_grid("1:2:0.5")
        assert len(grid) == 3

    def test_rejects_reversed_range(self):
        with pytest.raises(cli.InputError):
            cli._parse_grid("3:1:1")


class TestProblemFileFlow:
    def test_analyze_problem_file(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(model.save_problem(model.builtin("example4")))
        assert main(["analyze", "--problem", str(path)]) == EXIT_OK
        assert "HOLDS" in capsys.readouterr().out

    def test_malformed_problem_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main(["analyze", "--problem", str(path)]) == EXIT_INPUT

    def test_nonfinite_problem_file_is_input_error(self, tmp_path, capsys):
        for bad in (float("nan"), float("inf")):
            data = model.builtin("example4").to_dict()
            data["objective"]["c"][0] = bad
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(data))
            for command in ("analyze", "solve", "sweep", "certify"):
                assert main([command, "--problem", str(path)]) == EXIT_INPUT
                captured = capsys.readouterr()
                assert "non-finite" in captured.err
                assert "HOLDS" not in captured.out

    @pytest.mark.parametrize("key, corrupt", [
        ("c0", lambda d: d["objective"].update(c0="abc")),
        ("c ", lambda d: d["objective"].update(c=[1.0, [2.0, 3.0], 0.0])),
        ("cube", lambda d: d["cone"][0].update(type="cube")),
        ("size", lambda d: d["cone"][1].pop("size")),
        ("cone", lambda d: d.update(cone=5)),
    ], ids=["c0-string", "ragged-c", "unknown-cone-type", "block-no-size",
            "cone-not-list"])
    def test_wrong_typed_problem_file_is_input_error(self, key, corrupt,
                                                      tmp_path, capsys):
        data = model.builtin("example4").to_dict()
        corrupt(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["analyze", "--problem", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: bad problem file:")
        assert key in err

    @pytest.mark.parametrize("name", ["mine", "example1"])
    def test_sweep_and_certify_problem_file(self, name, tmp_path, capsys):
        # a file's name never selects a builtin's reference or direction
        data = model.builtin("example4").to_dict()
        data["name"] = name
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        assert main(["sweep", "--problem", str(path)]) == EXIT_OK
        assert "fitted exponent 0.99" in capsys.readouterr().out
        assert main(["certify", "--problem", str(path)]) == EXIT_OK
        assert "agree" in capsys.readouterr().out
