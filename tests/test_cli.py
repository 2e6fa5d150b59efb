import json

import numpy as np
import pytest

from zemgame import cli
from zemgame.cli import (
    EXIT_OK,
    EXIT_REPRO_FAIL,
    EXIT_SOLVABILITY,
    EXIT_USAGE,
    main,
)
from zemgame.reduction import Kernels

STUDY_DOC = {
    "players": {
        "pursuer": {"first_order_tau": 0.2},
        "evader": {"first_order_tau": 0.1},
    },
    "horizon": {"t_f": 1.0, "nu": 0.9},
    "weights": {"alpha": 0.05, "beta": 0.3},
    "evader_bound": {"ae_max": 100.0},
    "initial": {"z0": 100.0, "w0": -100.0},
}


@pytest.fixture
def study_file(tmp_path):
    path = tmp_path / "study.json"
    path.write_text(json.dumps(STUDY_DOC))
    return str(path)


def write_doc(tmp_path, mutate):
    doc = json.loads(json.dumps(STUDY_DOC))
    mutate(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestClassify:
    def test_study_position(self, study_file, capsys):
        assert main(["classify", study_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "region: OmegaMinus" in out
        assert "a = G2/G1" in out

    def test_interior_position(self, tmp_path, capsys):
        path = write_doc(tmp_path, lambda d: d["initial"].update(z0=0.0, w0=0.0))
        assert main(["classify", path]) == EXIT_OK
        assert "region: Omega\n" in capsys.readouterr().out

    def test_plus_position(self, tmp_path, capsys):
        path = write_doc(tmp_path, lambda d: d["initial"].update(z0=100.0, w0=50.0))
        assert main(["classify", path]) == EXIT_OK
        assert "region: OmegaPlus" in capsys.readouterr().out

    def test_missing_key_named(self, tmp_path, capsys):
        path = write_doc(tmp_path, lambda d: d["weights"].pop("beta"))
        assert main(["classify", path]) == EXIT_USAGE
        assert "weights.beta" in capsys.readouterr().err

    def test_unsolvable_exit_code(self, tmp_path, capsys):
        path = write_doc(tmp_path, lambda d: d["weights"].update(beta=0.1))
        assert main(["classify", path]) == EXIT_SOLVABILITY
        assert "solvability" in capsys.readouterr().err

    def test_geometry_initial_form(self, tmp_path, capsys):
        def mutate(doc):
            doc["initial"] = {"Vp": 300.0, "Ve": 150.0, "phi_p0": 0.01, "phi_e0": 0.02}
        assert main(["classify", write_doc(tmp_path, mutate)]) == EXIT_OK

    @pytest.mark.parametrize("section, key, value", [
        ("weights", "alpha", float("nan")),
        ("weights", "beta", float("nan")),
        ("horizon", "t_f", float("nan")),
        ("evader_bound", "ae_max", float("inf")),
    ])
    def test_non_finite_value_named(self, tmp_path, capsys, section, key, value):
        path = write_doc(tmp_path, lambda d: d[section].update({key: value}))
        assert main(["classify", path]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "scenario error" in err
        assert "%s.%s" % (section, key) in err

    def test_bad_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        assert main(["classify", str(path)]) == EXIT_USAGE
        assert "line" in capsys.readouterr().err


class TestSolve:
    def test_forced_plus_branch_value(self, study_file, capsys):
        assert main(["solve", study_file, "--sign", "+"]) == EXIT_OK
        out = capsys.readouterr().out
        value = float(next(line.split()[1] for line in out.splitlines()
                           if line.startswith("value")))
        assert value == pytest.approx(1821.6, rel=0.01)

    def test_dispatched_value_at_plus_position(self, tmp_path, capsys):
        path = write_doc(tmp_path, lambda d: d["initial"].update(z0=100.0, w0=50.0))
        assert main(["solve", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "region: OmegaPlus" in out
        value = float(next(line.split()[1] for line in out.splitlines()
                           if line.startswith("value")))
        assert value == pytest.approx(1939.2, rel=0.01)

    def test_csv_row_count_and_header(self, study_file, tmp_path, capsys):
        csv_path = tmp_path / "traj.csv"
        assert main(["solve", study_file, "--grid", "501", "--csv", str(csv_path)]) == EXIT_OK
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,u_p,u_e,z,w"
        assert len(lines) == 502

    def test_csv_deterministic(self, study_file, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve", study_file, "--grid", "301", "--csv", str(p1)]) == EXIT_OK
        assert main(["solve", study_file, "--grid", "301", "--csv", str(p2)]) == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()

    def test_probe_flag(self, study_file, capsys):
        assert main(["solve", study_file, "--probe", "5", "--seed", "11"]) == EXIT_OK
        assert "saddle probe: 5 trials OK" in capsys.readouterr().out

    def test_bad_grid_rejected(self, study_file, capsys):
        assert main(["solve", study_file, "--grid", "1"]) == EXIT_USAGE
        assert "two nodes" in capsys.readouterr().err

    def test_strip_value_independent_of_grid(self, tmp_path, capsys):
        """The strip value comes from the exact integrals, so --grid, which
        sets only the grid of --csv and --probe, does not move it."""
        path = write_doc(tmp_path, lambda d: d["initial"].update(z0=100.0, w0=-50.0))
        values = []
        for grid in ([], ["--grid", "3"], ["--grid", "5"]):
            assert main(["solve", path] + grid) == EXIT_OK
            out = capsys.readouterr().out
            assert "region: Omega\n" in out
            values.append(next(line for line in out.splitlines() if line.startswith("value")))
        assert values[1] == values[0] and values[2] == values[0]

    def test_both_horizon_forms_rejected(self, tmp_path, capsys):
        path = write_doc(tmp_path, lambda d: d["horizon"].update(t_c=0.9))
        assert main(["classify", path]) == EXIT_USAGE
        assert "exactly one" in capsys.readouterr().err


@pytest.fixture
def kernel_builds(monkeypatch):
    """Number of Kernels constructions so far."""
    calls = []
    init = Kernels.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Kernels, "__init__", counting)
    return calls


class TestKernelBuilds:
    """Only the verbs that sample the kernels build them: coefficients and
    solutions come from the exact integrals."""

    @pytest.mark.parametrize("position", [(100.0, -50.0), (100.0, 50.0)], ids=["strip", "branch"])
    @pytest.mark.parametrize("verb, options, builds", [
        ("classify", [], 0),
        ("solve", [], 0),
        ("solve", ["--sign", "+"], 0),
        ("solve", ["--sign", "-", "--probe", "5"], 0),
        ("sweep", [], 0),
        ("solve", ["--csv", "{csv}"], 1),
        ("solve", ["--probe", "5"], 1),
        ("solve", ["--csv", "{csv}", "--probe", "5", "--grid", "301"], 1),
    ])
    def test_count(self, tmp_path, capsys, kernel_builds, position, verb, options, builds):
        path = write_doc(tmp_path, lambda d: d["initial"].update(z0=position[0], w0=position[1]))
        options = [o.format(csv=tmp_path / "out.csv") for o in options]
        assert main([verb, path] + options) == EXIT_OK
        assert len(kernel_builds) == builds


class TestSweep:
    def test_default_sweep_columns(self, study_file, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        assert main(["sweep", study_file, "--sign", "+", "--csv", str(csv_path)]) == EXIT_OK
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "eps,z_f_eps,v_f_eps,value,omega_gap"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert rows.shape == (7, 5)
        np.testing.assert_allclose(rows[:, 0], [10.0 ** (-k) for k in range(7)])
        gaps = rows[:, 4]
        assert (np.diff(gaps) < 0).all()

    def test_last_row_converged(self, study_file, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        assert main(["sweep", study_file, "--sign", "-", "--csv", str(csv_path)]) == EXIT_OK
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        last = [float(v) for v in rows[-1]]
        omega_norm = np.hypot(last[1], last[2])
        assert last[4] < 1e-5 * omega_norm
        # value within 0.1% of the limiting branch value
        first_value, last_value = float(rows[0][3]), last[3]
        assert abs(last_value / 2663.067 - 1.0) < 1e-3

    def test_bad_step_count(self, study_file, capsys):
        assert main(["sweep", study_file, "--eps-steps", "1"]) == EXIT_USAGE


class TestTable1:
    def test_builtin_study(self, capsys):
        assert main(["table1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "saddle ordering: OK / OK" in out
        values = [float(tok) for line in out.splitlines()
                  for tok in line.replace(")", " ").split()
                  if tok.replace(".", "").replace("-", "").isdigit() and "." in tok]
        assert any(abs(v - 1939.2) / 1939.2 < 0.01 for v in values)
        assert any(abs(v - 418.8) / 418.8 < 0.01 for v in values)
        assert any(abs(v - 2347.7) / 2347.7 < 0.01 for v in values)

    def test_file_with_custom_positions(self, tmp_path, capsys):
        def mutate(doc):
            doc["table1"] = {"plus": [100.0, 50.0], "minus": [-100.0, -20.0]}
        path = write_doc(tmp_path, mutate)
        assert main(["table1", path]) == EXIT_OK
        assert "saddle ordering: OK / OK" in capsys.readouterr().out


class TestRepro:
    def test_known_state(self, capsys):
        assert main(["repro"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "39/39 checks passed" in out
        t1_minus = next(line for line in out.splitlines() if "T1- (-,-)" in line)
        assert "erratum, printed 2488.2" in t1_minus

    def test_tolerance_scale_clears_known_rows(self, capsys):
        assert main(["repro", "--tol-scale", "2.5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_tolerance_scale_narrows_bands(self, capsys):
        assert main(["repro", "--tol-scale", "0.01"]) == EXIT_REPRO_FAIL
        out = capsys.readouterr().out
        assert any(line.startswith("FAIL ") for line in out.splitlines())


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["bogus"]) == EXIT_USAGE

    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_missing_file(self, capsys):
        assert main(["classify", "/nonexistent/path.json"]) == EXIT_USAGE


class TestParserReuse:
    """`main` keeps one parser for the process; no call leaves state in it
    that a later call can see."""

    def run_sequence(self, study_file, csv_path, capsys):
        calls = [["solve", study_file, "--csv", str(csv_path), "--probe", "5", "--seed", "3"],
                 ["solve", study_file],
                 ["solve", study_file, "--sign", "-"],
                 ["classify", study_file],
                 ["solve", study_file, "--grid", "1"],
                 ["sweep", study_file, "--eps-steps", "1"],
                 ["repro"]]
        results = []
        for argv in calls:
            code = main(argv)
            results.append((code, capsys.readouterr().out))
            if argv[-1] == "3":
                assert csv_path.exists()
                csv_path.unlink()
        assert not csv_path.exists()
        return results

    def test_calls_match_fresh_parsers(self, study_file, tmp_path, capsys, monkeypatch):
        csv_path = tmp_path / "trajectory.csv"
        reused = self.run_sequence(study_file, csv_path, capsys)
        monkeypatch.setattr(cli, "_main_parser", cli.build_parser)
        fresh = self.run_sequence(study_file, csv_path, capsys)
        assert [code for code, _ in reused] == [EXIT_OK] * 4 + [EXIT_USAGE] * 2 + [EXIT_OK]
        assert reused == fresh

    def test_parser_built_once(self):
        assert cli._main_parser() is cli._main_parser()
        assert cli.build_parser() is not cli.build_parser()
