"""Tests for the command-line surface: output formats and exit codes."""

import json
import os

import numpy as np
import pytest

from conestab import cli, conditions, kkt, model, sweep
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

    def test_nonaffine_fixture_is_analysed_at_its_reference(self, tmp_path,
                                                            capsys):
        # remark2's G'(0) = 0 and y = 0: every check reads only G'(0) and
        # Q, and RCQ fails with it
        report = tmp_path / "r.json"
        assert main(["analyze", "--builtin", "remark2",
                     "--report", str(report)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "multiplier set: affine dim 1\n" in out
        data = json.loads(report.read_text())
        for key in ("rcq", "srcq", "nondegeneracy"):
            assert data[key]["status"] == conditions.FAILS, key
        assert data["sosc"]["status"] == conditions.HOLDS
        assert data["affine_hull_probe"]["status"] == conditions.HOLDS
        assert data["kernel_probe"]["status"] == conditions.FAILS
        assert data["multiplier_affine_dim"] == 1
        assert data["theorem_verdict"] == conditions.FAILS
        assert data["consistency_flag"] is True
        assert data["inconsistencies"] == []


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

    @pytest.mark.parametrize("command", ["sweep", "certify"])
    def test_second_coordinate_of_one_variable_is_input_error(
            self, command, capsys, monkeypatch):
        # refused before any solve or analysis starts
        def work(*args, **kwargs):
            raise AssertionError("work started before the observable check")

        for owner, name in ((kkt, "solve_kkt_multistart"),
                            (cli.sweep, "run_sweep"),
                            (conditions, "assemble_report")):
            monkeypatch.setattr(owner, name, work)
        assert main([command, "--builtin", "remark2",
                     "--observable", "x2"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: observable 'x2' needs two variables; "
                                "'remark2' has 1\n")

    def test_observable_choices_are_the_sweeps(self):
        parser = build_parser()
        for name in sweep.OBSERVABLES:
            for command in ("sweep", "certify"):
                args = parser.parse_args([command, "--builtin", "example1",
                                          "--observable", name])
                assert args.observable == name

    @pytest.mark.parametrize("spec, why", [
        ("320:330:1", "underflow to 0"),  # 10^-324 is 0.0
        ("1:330:1", "more than 100 points"),
        ("1:1:1e-300", "more than 100 points"),  # d + step == d
        ("nan:2:0.5", "finite 0 <= a <= b"),
        ("1:2:inf", "finite 0 <= a <= b"),
        ("-1:2:1", "finite 0 <= a <= b"),
    ])
    def test_bad_grid_values_are_input_errors(self, spec, why, capsys):
        assert main(["sweep", "--builtin", "example4",
                     "--grid=" + spec]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: grid spec")
        assert why in captured.err


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


class TestFailureExits:
    """Exit 2 when no KKT point is found, 3 on an inconclusive verdict and
    4 when theory and measurement conflict.  Exits 3 and 4 patch a
    checker's outcome, so that the tests do not pin the searches' limits."""

    @pytest.mark.parametrize("command", ["analyze", "certify", "sweep"])
    def test_no_kkt_point_is_solver_failure(self, command, tmp_path,
                                            capsys):
        # min -x over x >= 0 is unbounded below: there is no KKT point
        data = {"name": "no-kkt", "n": 1,
                "objective": {"Q": [[0.0]], "c": [-1.0], "c0": 0.0},
                "constraint": {"A0": [0.0], "Ai": [[1.0]]},
                "cone": [{"type": "orthant", "size": 1}]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        assert main([command, "--problem", str(path)]) == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "solver failed to locate a KKT point\n"

    @pytest.mark.parametrize("command", ["solve", "analyze", "certify",
                                         "sweep"])
    def test_overflowing_step_is_solver_failure(self, command, tmp_path,
                                                capsys):
        # 1e160 entries overflow the damped Newton system to inf
        data = {"name": "overflow", "n": 1,
                "objective": {"Q": [[1.0]], "c": [1.0], "c0": 0.0},
                "constraint": {"A0": [0.0, 0.0, 0.0],
                               "Ai": [[1e160, 0.0, 1e160]]},
                "cone": [{"type": "psd", "size": 2}]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        assert main([command, "--problem", str(path)]) == EXIT_SOLVER
        captured = capsys.readouterr()
        if command == "solve":
            assert "converged = False" in captured.out
            assert captured.err == ""
        else:
            assert captured.err == "solver failed to locate a KKT point\n"

    def test_search_probe_is_inconclusive(self, tmp_path, monkeypatch,
                                          capsys):
        monkeypatch.setattr(conditions, "_kernel_probe",
                            conditions._kernel_search)
        report = tmp_path / "report.json"
        assert main(["analyze", "--builtin", "example4", "--report",
                     str(report)]) == EXIT_INCONCLUSIVE
        assert "ROBUST ISOLATED CALMNESS: HOLDS" in capsys.readouterr().out
        data = json.loads(report.read_text())
        assert data["kernel_probe"]["method"] == "search"
        assert data["kernel_probe"]["status"] == "inconclusive"
        assert data["consistency_flag"] is None

    @pytest.mark.parametrize("name, status, verdict", [
        ("example4", conditions.FAILS, "holds"),
        ("example3", conditions.HOLDS, "fails")])
    def test_probe_against_the_verdict_is_inconsistent(
            self, name, status, verdict, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(conditions, "kernel_probe_verdict",
                            lambda probe: conditions.Verdict(status))
        report = tmp_path / "report.json"
        assert main(["analyze", "--builtin", name, "--report",
                     str(report)]) == EXIT_OK
        assert "INCONSISTENT: kernel probe %s, robust isolated calmness " \
            "%s\n" % (status, verdict) in capsys.readouterr().out
        assert json.loads(report.read_text())["consistency_flag"] is False

    def test_inconclusive_sosc_has_nothing_to_certify(self, monkeypatch,
                                                      capsys):
        def unsolved(*args, **kwargs):
            raise AssertionError("an inconclusive verdict was swept")

        monkeypatch.setattr(conditions, "_sosc_verdict",
                            lambda M, cc: conditions.Verdict(
                                conditions.INCONCLUSIVE))
        monkeypatch.setattr(sweep, "run_sweep", unsolved)
        assert main(["certify", "--builtin", "example4"]) == \
            EXIT_INCONCLUSIVE
        assert capsys.readouterr().out == \
            "verdict inconclusive; nothing to certify\n"

    def test_square_root_rate_conflicts_with_holds(self, monkeypatch,
                                                   capsys):
        fit = sweep.fit_exponent

        def square_root(result):
            fit(result)
            result.fitted_exponent = 0.5
            return result.fitted_exponent, result.fit_stderr

        monkeypatch.setattr(sweep, "fit_exponent", square_root)
        assert main(["certify", "--builtin", "example4"]) == EXIT_CONFLICT
        captured = capsys.readouterr()
        assert "verdict: holds; measured exponent 0.5000" in captured.out
        assert captured.err == "theory and measurement CONFLICT\n"


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

    # only the kernel probe's search reads the seed, and no built-in
    # fixture reaches it: a negative seed is refused on every input
    @pytest.mark.parametrize("command", ["analyze", "sweep", "certify"])
    @pytest.mark.parametrize("name", ["example2", "example4"])
    def test_negative_seed_is_input_error(self, command, name, capsys):
        assert main([command, "--builtin", name, "--seed", "-1"]) == \
            EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be non-negative, got -1\n"


class TestNoRandomGenerator:
    """Where no search runs, analyze and solve on a problem file build
    no random generator: the file's fixture draws its default direction
    only when a sweep reads it, and the solver's multi-start only for a
    random start."""

    @pytest.mark.parametrize("rung", [0, 5, 9])
    def test_analyze_and_solve_on_a_ladder_file(self, rung, tmp_path,
                                                capsys, bench_gen,
                                                bench_workloads,
                                                monkeypatch):
        blocks, rank = bench_workloads.LADDER[rung]
        inst = bench_gen.make_instance(blocks, rank, None, "identity", "pd",
                                       seed=1000 + rung)
        problem = tmp_path / "problem.json"
        problem.write_text(inst.to_json())

        def refused(*args):
            raise AssertionError("a random generator was built")

        monkeypatch.setattr(np.random, "default_rng", refused)
        for argv in (["analyze", "--problem", str(problem)],
                     ["solve", "--problem", str(problem)]):
            assert main(argv) == EXIT_OK
        assert "ROBUST ISOLATED CALMNESS: HOLDS" in capsys.readouterr().out

class TestKernelProbeLine:
    def test_polyhedral_instance_prints_the_least_piece_margin(
            self, tmp_path, capsys, bench_gen):
        # the benchmark's `degenerate` orthant3+psd3 pd instance: an
        # orthant corner and a PSD beta of size 1, whose 4 distinct T are
        # nonsingular; the face minimum read 6.321e-02, the multi-start
        # search 8.177e-02
        inst = bench_gen.make_instance([("orthant", 3), ("psd", 3)],
                                       [1, 1], [1, 1], "identity", "pd",
                                       seed=4)
        problem = tmp_path / "problem.json"
        problem.write_text(inst.to_json())
        report = tmp_path / "report.json"
        assert main(["analyze", "--problem", str(problem), "--report",
                     str(report), "--seed", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        kp = json.loads(report.read_text())["kernel_probe"]
        assert kp["method"] == "exact" and kp["witness"] is None
        assert "kernel probe: holds (piece margin 5.597e-02)" in out
        assert "%.3e" % kp["min_residual"] == "5.597e-02"

    def test_singular_piece_prints_the_least_piece_margin(self, capsys):
        # example4 has a singular piece, whose null space misses its sign
        # region; a hold always prints its piece margin
        assert main(["analyze", "--builtin", "example4"]) == EXIT_OK
        assert "kernel probe: holds (piece margin 9.258e-02)" in \
            capsys.readouterr().out

    def test_soc_apex_prints_the_least_piece_margin(self, tmp_path, capsys,
                                                     bench_gen):
        # the benchmark's `degenerate` soc6 pd instance (list position 1):
        # the kernel probe decides its apex by pieces, not by a search
        inst = bench_gen.make_instance([("soc", 6)], [0], [1], "identity",
                                       "pd", seed=1)
        problem = tmp_path / "problem.json"
        problem.write_text(inst.to_json())
        report = tmp_path / "report.json"
        assert main(["analyze", "--problem", str(problem), "--report",
                     str(report), "--seed", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        kp = json.loads(report.read_text())["kernel_probe"]
        assert kp["method"] == "pieces" and kp["witness"] is None
        assert "kernel probe: holds (piece margin %.3e)" % kp["min_residual"] \
            in out
        assert "min residual" not in out

    def test_apex_beside_eight_corners_exits_0(self, tmp_path, capsys):
        # an SOC(3) apex beside 8 orthant corners, G = Q = I: the probe's
        # pieces hold, where a search could only read inconclusive (exit 3)
        prog = model.ConicProgram(11, np.eye(11), np.zeros(11), 0.0,
                                  np.zeros(11), np.eye(11),
                                  Cone([("soc", 3), ("orthant", 8)]),
                                  name="soc3+corners8")
        problem = tmp_path / "problem.json"
        problem.write_text(model.save_problem(prog))
        report = tmp_path / "report.json"
        assert main(["analyze", "--problem", str(problem), "--report",
                     str(report)]) == EXIT_OK
        kp = json.loads(report.read_text())["kernel_probe"]
        assert kp["method"] == "pieces" and kp["status"] == "holds"
        assert "kernel probe: holds (piece margin" in capsys.readouterr().out

    def test_inconsistency_is_printed(self, monkeypatch, capsys):
        # a probe that contradicts the theorem verdict is named on its own
        # line; the exit code stays that of the verdicts
        original = conditions.assemble_report

        def contradicted(*args, **kwargs):
            fields = dict(original(*args, **kwargs)._fields)
            fields["kernel_probe"] = dict(fields["kernel_probe"],
                                          status=conditions.FAILS)
            fields["consistency_flag"] = False
            return conditions.ConditionReport(fields)

        assert main(["analyze", "--builtin", "example4"]) == EXIT_OK
        assert "INCONSISTENT" not in capsys.readouterr().out
        monkeypatch.setattr(conditions, "assemble_report", contradicted)
        assert main(["analyze", "--builtin", "example4"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "INCONSISTENT: kernel probe fails, robust isolated calmness " \
            "holds\n" in out


class TestQuadrantSoc:
    def test_soc2_apex_is_decided_exactly(self, tmp_path, capsys):
        # SOC(2) is a quadrant: at its apex the critical cone has the two
        # borderline rows rhat and vhat and no curved block, so SOSC
        # enumerates faces instead of searching, and the kernel probe
        # certifies its 4 distinct pieces of T nonsingular
        prog = model.ConicProgram(
            2, np.diag([1.0, -0.5]), np.zeros(2), 0.0, np.zeros(2),
            np.eye(2), Cone([("soc", 2)]), name="soc2-apex")
        problem = tmp_path / "problem.json"
        problem.write_text(model.save_problem(prog))
        report = tmp_path / "report.json"
        assert main(["analyze", "--problem", str(problem), "--report",
                     str(report)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "kernel probe: holds (piece margin 1.564e-02)" in out
        data = json.loads(report.read_text())
        assert data["sosc"]["status"] == "holds"
        assert data["sosc"]["note"] == "exact face minimum"
        assert abs(data["sosc"]["margin"] - 0.25) <= 1e-12
        assert data["kernel_probe"]["method"] == "exact"
        assert data["kernel_probe"]["witness"] is None


class TestSearchWorkCount:
    """The alternating-projection search runs only where no closed form
    decides: example2's two-column multiplier plane meets the interior of
    its normal cone, which the interior candidate decides."""

    @pytest.mark.parametrize("name, calls", [
        ("example1", 0), ("example2", 0), ("example3", 0), ("example4", 0)])
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

    def test_multiplier_dim_does_not_read_the_seed(self, tmp_path, capsys,
                                                   planted):
        # a planted orthant(8) instance whose multiplier set is a plane:
        # the eight seeded starts read affine dimension 1 at --seed 0 and
        # 2 at --seed 2
        prog, _, _ = planted([("orthant", 8)], [2], 2, 5)
        problem = tmp_path / "problem.json"
        problem.write_text(model.save_problem(prog))
        reports = []
        for seed in ("0", "2"):
            report = tmp_path / ("report-%s.json" % seed)
            main(["analyze", "--problem", str(problem), "--report",
                  str(report), "--seed", seed])
            reports.append(report.read_bytes())
        capsys.readouterr()
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["multiplier_affine_dim"] == 2


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

    def test_rejects_an_infinite_range(self):
        # the point loop would never end
        with pytest.raises(cli.InputError, match="finite"):
            cli._parse_grid("1:inf:1")

    def test_keeps_the_last_eps_above_zero(self):
        grid = cli._parse_grid("313:323:1")
        assert len(grid) == 11 and grid[-1] > 0.0


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

    @pytest.mark.parametrize("key", ["n", "size"])
    def test_boolean_integer_is_input_error(self, key, tmp_path, capsys):
        # a one-variable problem, so that true read as 1 would load
        data = {"name": "tiny", "n": True,
                "objective": {"Q": [[1.0]], "c": [0.0], "c0": 0.0},
                "constraint": {"A0": [0.0], "Ai": [[1.0]]},
                "cone": [{"type": "orthant", "size": 1}]}
        if key == "size":
            data["n"], data["cone"][0]["size"] = 1, True
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        for command in ("analyze", "solve", "sweep", "certify"):
            assert main([command, "--problem", str(path)]) == EXIT_INPUT
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


def _unreadable(tmp_path, case):
    """A problem path that exists but cannot be read as a problem."""
    path = tmp_path / "p.json"
    if case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(b'\xff\xfe{"name": "p"}')
    else:
        path.write_text("[" * 100000 + "]" * 100000)
    return path


class TestUnusablePaths:
    @pytest.mark.parametrize("command", ["solve", "analyze", "sweep",
                                         "certify"])
    @pytest.mark.parametrize("case, message", [
        ("directory", "cannot read problem file"),
        ("not-utf8", "bad problem file: not UTF-8 text"),
        ("deep", "bad problem file: JSON nested too deeply")])
    def test_unreadable_problem_file_is_input_error(self, command, case,
                                                    message, tmp_path,
                                                    capsys):
        path = _unreadable(tmp_path, case)
        assert main([command, "--problem", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: " + message)
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["solve", "--out", "{dir}"],
        ["sweep", "--grid", "1:2:1", "--out", "{dir}"],
        ["analyze", "--report", "{dir}/missing/r.json"]],
        ids=["solve-out-dir", "sweep-out-dir", "analyze-report-no-parent"])
    def test_unwritable_output_is_input_error(self, argv, tmp_path, capsys,
                                              monkeypatch):
        # the path is refused before any solve, sweep or analysis starts
        def work(*args, **kwargs):
            raise AssertionError("work started before the path was checked")

        for owner, name in ((kkt, "solve_kkt_multistart"),
                            (kkt, "recover_multipliers"),
                            (cli.sweep, "run_sweep"),
                            (conditions, "assemble_report")):
            monkeypatch.setattr(owner, name, work)
        argv = [a.format(dir=tmp_path) for a in argv]
        assert main(argv + ["--builtin", "example4"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write %s" % argv[-1])
        assert "Traceback" not in err

    @pytest.mark.parametrize("existing", [False, True])
    def test_checked_path_is_left_as_it_was(self, existing, tmp_path,
                                            capsys):
        # random file 39 has no KKT point the solver finds, a failure after
        # the check: a file the check created is gone, and an existing one
        # keeps its bytes
        import random_problems
        problem = tmp_path / "p39.json"
        problem.write_text(model.save_problem(
            random_problems.random_problem(39)))
        path = tmp_path / "r.json"
        if existing:
            path.write_text("old")
        argv = ["analyze", "--problem", str(problem), "--report", str(path)]
        assert main(argv) == EXIT_SOLVER
        assert "solver failed to locate a KKT point" in \
            capsys.readouterr().err
        assert path.exists() == existing
        assert not existing or path.read_text() == "old"


class TestOutputWriter:
    """`--out` and `--report` rewrite an existing file in place: the bytes
    are those of a fresh write, and the file keeps its inode and mode."""

    ARGV = {"analyze": ["analyze", "--builtin", "example4", "--report"],
            "solve": ["solve", "--builtin", "example4", "--out"],
            "sweep": ["sweep", "--builtin", "example4", "--grid", "1:5:1",
                      "--out"]}

    def _run(self, command, path, capsys):
        assert main(self.ARGV[command] + [str(path)]) == EXIT_OK
        capsys.readouterr()
        return path.read_bytes()

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_existing_file_gets_the_bytes_of_a_fresh_write(self, command,
                                                           tmp_path,
                                                           capsys):
        fresh = self._run(command, tmp_path / "fresh", capsys)
        assert len(fresh) < 20000
        assert self._run(command, tmp_path / "fresh", capsys) == fresh
        for name, old in (("longer", b"#" * 20000), ("shorter", b"#")):
            path = tmp_path / name
            path.write_bytes(old)
            assert self._run(command, path, capsys) == fresh

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_existing_file_keeps_its_inode_and_mode(self, command, tmp_path,
                                                    capsys):
        path = tmp_path / "out"
        path.write_bytes(b"#" * 20000)
        path.chmod(0o640)
        before = path.stat()
        self._run(command, path, capsys)
        after = path.stat()
        assert after.st_ino == before.st_ino
        assert after.st_mode == before.st_mode

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_output_is_never_opened_with_truncate(self, command, tmp_path,
                                                  monkeypatch, capsys):
        # O_TRUNC frees an existing file's blocks, which some file systems
        # make slow; the writer cuts the file at the end instead
        calls = []
        real_open = os.open

        def recording_open(path, flags, *args, **kwargs):
            calls.append((str(path), flags))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        path = tmp_path / "out"
        path.write_bytes(b"#" * 20000)
        self._run(command, path, capsys)
        assert str(path) in [p for p, _ in calls]
        assert not any(flags & os.O_TRUNC for _, flags in calls)

    @pytest.mark.skipif(not os.path.exists("/dev/null"),
                        reason="no /dev/null")
    @pytest.mark.parametrize("command", ["analyze", "sweep"])
    def test_dev_null_is_written(self, command, capsys):
        # a character device cannot be truncated, and is only written
        assert main(self.ARGV[command] + ["/dev/null"]) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
