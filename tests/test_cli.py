import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import test_acceptance
from zemgame import cli, coefficients, first_order_coefficients, reference
from zemgame.cli import (
    EXIT_OK,
    EXIT_REPRO_FAIL,
    EXIT_SOLVABILITY,
    EXIT_USAGE,
    load_scenario,
    main,
)
from zemgame.numerics import TimeGrid
from zemgame.reduction import Kernels, SampleBundle
from zemgame.reference import CHECKS

from helpers import MIXED_ORDERS

STUDY_FILE = Path(__file__).resolve().parents[1] / "scenarios" / "study.json"
STUDY_DOC = json.loads(STUDY_FILE.read_text())


@pytest.fixture
def study_file():
    return str(STUDY_FILE)


def printed_value(out):
    return float(next(line.split()[1] for line in out.splitlines()
                      if line.startswith("value")))


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
        pytest.param("weights", "alpha", 10 ** 400, id="weights-alpha-int-beyond-float"),
    ])
    def test_non_finite_value_named(self, tmp_path, capsys, section, key, value):
        path = write_doc(tmp_path, lambda d: d[section].update({key: value}))
        assert main(["classify", path]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "scenario error" in err
        assert "%s.%s" % (section, key) in err

    @pytest.mark.parametrize("tau", [True, float("nan"), "0.2"])
    def test_first_order_tau_checked_as_a_number(self, tmp_path, capsys, tau):
        path = write_doc(tmp_path, lambda d: d["players"]["evader"].update(first_order_tau=tau))
        assert main(["classify", path]) == EXIT_USAGE
        assert "players.evader.first_order_tau" in capsys.readouterr().err

    @pytest.mark.parametrize("side, key, value", [
        ("pursuer", "d", True), ("pursuer", "d", "0.5"), ("pursuer", "b", [False, True]),
        ("pursuer", "A", None), ("evader", "A", 5), ("pursuer", "A", {"x": 1}),
        ("pursuer", "A", "abc"), ("pursuer", "A", [[-4.0, 1.0], [0.0]]),
    ], ids=["d-bool", "d-string", "b-bools", "A-null", "A-number", "A-object", "A-string",
            "A-ragged"])
    def test_controller_entries_checked_as_numbers(self, tmp_path, capsys, side, key, value):
        doc = json.loads(MIXED_ORDERS.read_text())
        doc["players"][side][key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["classify", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("scenario error")
        assert "players.%s.%s" % (side, key) in captured.err

    @pytest.mark.parametrize("key", ["A", "b", "c"])
    @pytest.mark.parametrize("value, problem", [
        (True, "a number"), (False, "a number"), ("1.0", "a number"), (None, "a number"),
        (float("nan"), "finite"), (float("inf"), "finite"), (float("-inf"), "finite"),
        (10 ** 400, "finite"), (-10 ** 400, "finite"),
    ], ids=["true", "false", "string", "null", "nan", "inf", "-inf", "int-beyond-float",
            "-int-beyond-float"])
    @pytest.mark.parametrize("entry", [0, -1])
    def test_matrix_entries_named(self, tmp_path, capsys, key, value, problem, entry):
        """One bad entry in the controller's A, b or c, first or last: the
        scenario error names the key and what is wrong, and exits 1."""
        doc = json.loads(MIXED_ORDERS.read_text())
        node = doc["players"]["pursuer"]
        if key == "A":
            node["A"][entry][entry] = value
        else:
            node[key][entry] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("scenario error: key 'players.pursuer.%s' must be %s\n"
                                % (key, problem))

    @pytest.mark.parametrize("first, second, problem", [
        (float("nan"), "x", "finite"), ("x", float("nan"), "a number"),
        (10 ** 400, True, "finite"), (True, 10 ** 400, "a number"),
    ])
    def test_first_bad_entry_named(self, tmp_path, capsys, first, second, problem):
        doc = json.loads(MIXED_ORDERS.read_text())
        doc["players"]["pursuer"]["b"] = [first, second]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["classify", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "scenario error: key 'players.pursuer.b' must be %s\n" % problem)

    def test_bad_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        assert main(["classify", str(path)]) == EXIT_USAGE
        assert "line" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["solve", "classify", "sweep", "table1"])
@pytest.mark.parametrize("evader", [{"A": [], "b": [], "c": [], "d": 0.0},
                                    {"A": [[-10.0]], "b": [0.0], "c": [1.0], "d": 0.0}],
                         ids=["order-0-no-feed", "no-input"])
def test_evader_without_control_authority(tmp_path, capsys, verb, evader):
    """g_e = 0 makes det F zero: one scenario error line, exit 1, no
    warning and no traceback."""
    path = write_doc(tmp_path, lambda d: d["players"].update(evader=evader))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([verb, path]) == EXIT_USAGE
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("scenario error: the evader has no control authority")


def test_fast_unstable_pursuer(tmp_path, capsys):
    """A fast unstable pursuer lag (A = [[40]] on the study) gives
    G1 = s ~ 8.7e30 beside G2 and G3 of order 1: G is badly scaled, not
    near singular. Every verb that solves with it exits 0 without a
    warning, and the printed value is that of the branch solve G omega = b
    in 40-digit arithmetic, to its 12 printed digits."""
    mpmath = pytest.importorskip("mpmath")
    path = write_doc(tmp_path, lambda d: d["players"].update(
        pursuer={"A": [[40.0]], "b": [40.0], "c": [1.0], "d": 0.0}))
    outs = []
    for argv in (["solve", path], ["solve", path, "--probe", "20"],
                 ["solve", path, "--csv", str(tmp_path / "t.csv")], ["sweep", path, "--sign", "+"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == EXIT_OK
        assert caught == []
        captured = capsys.readouterr()
        assert captured.err == ""
        outs.append(captured.out)
    assert outs[0].startswith("region: OmegaMinus\n")

    scenario, _ = load_scenario(path)
    c = coefficients(scenario)
    assert c.G1 > 1e30
    with mpmath.workdps(40):
        G = mpmath.matrix(c.G.tolist())
        omega = mpmath.lu_solve(G, mpmath.matrix([scenario.z0, scenario.w0 + c.bound]))
        value = float((omega.T * mpmath.matrix(c.G_tilde.tolist()) * omega)[0])
    for out in outs[:3]:
        assert printed_value(out) == pytest.approx(value, rel=1e-11)


class TestSolve:
    def test_forced_plus_branch_value(self, study_file, capsys):
        assert main(["solve", study_file, "--sign", "+"]) == EXIT_OK
        assert CHECKS["J+*"].passed(printed_value(capsys.readouterr().out))

    def test_dispatched_value_at_plus_position(self, tmp_path, capsys):
        z0, w0 = reference.PLUS_POSITION
        path = write_doc(tmp_path, lambda d: d["initial"].update(z0=z0, w0=w0))
        assert main(["solve", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "region: OmegaPlus" in out
        assert CHECKS["T1+ (+,+)"].passed(printed_value(out))

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

    def test_negative_probe_rejected_before_solving(self, study_file, capsys):
        assert main(["solve", study_file, "--probe", "-5"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--probe" in captured.err

    def test_negative_seed_rejected_before_solving(self, study_file, capsys):
        assert main(["solve", study_file, "--probe", "5", "--seed", "-1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed" in captured.err

    def test_bad_grid_rejected(self, study_file, capsys):
        assert main(["solve", study_file, "--grid", "1"]) == EXIT_USAGE
        assert "two nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("t_f, alpha", [(100.0, 0.01), (50.0, 1e-3)])
    def test_long_horizon_large_nu_p(self, tmp_path, capsys, t_f, alpha):
        """nu_p of 1e6 to 3e7: the rounding of s = 1 + nu_p - nu_e grows with
        nu_p, and the coefficient consistency check allows for it."""
        def mutate(doc):
            doc["horizon"] = dict(t_f=t_f, t_c=50.0)
            doc["weights"] = dict(alpha=alpha, beta=1e9)
            doc["evader_bound"]["ae_max"] = 50.0
            doc["initial"].update(z0=100.0, w0=-20.0)

        path = write_doc(tmp_path, mutate)
        assert main(["solve", path, "--probe", "20"]) == EXIT_OK
        assert "saddle probe: 20 trials OK" in capsys.readouterr().out
        got = coefficients(load_scenario(path)[0])
        want = first_order_coefficients(0.2, 0.1, t_f, 50.0, alpha, 1e9, 50.0)
        assert got.nu_p > 1e6
        assert got.G2 == pytest.approx(want.G2, rel=1e-12, abs=0.0)

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


class TestBundleSamples:
    """A solve samples only the grid it reads: `--csv` and `--probe` at
    `--grid N` sample that grid alone, and a plain solve samples none."""

    @pytest.mark.parametrize("options, grids", [
        ([], []),
        (["--probe", "5", "--grid", "301"], [301]),
        (["--csv", "{csv}", "--probe", "5", "--grid", "301"], [301]),
        (["--probe", "5"], [2001]),
    ])
    def test_grids_sampled(self, tmp_path, capsys, monkeypatch, study_file, options, grids):
        sampled = []
        sample = SampleBundle.__dict__["sample"].__func__

        def counting(cls, kernels, grid):
            sampled.append(grid.nodes.size)
            return sample(cls, kernels, grid)

        monkeypatch.setattr(SampleBundle, "sample", classmethod(counting))
        options = [o.format(csv=tmp_path / "out.csv") for o in options]
        assert main(["solve", study_file] + options) == EXIT_OK
        assert sampled == grids


    @pytest.mark.parametrize("argv", [["table1"], ["table1", str(STUDY_FILE)]],
                             ids=["builtin", "file"])
    def test_table1_samples_nothing(self, capsys, monkeypatch, argv):
        """Every cross-play entry pairs two kernel combinations, so its cost
        is exact from the kernel Gram matrix: `table1` samples no grid."""
        sampled = []
        sample = SampleBundle.__dict__["sample"].__func__
        monkeypatch.setattr(SampleBundle, "sample", classmethod(
            lambda cls, kernels, grid: sampled.append(grid) or sample(cls, kernels, grid)))
        assert main(argv) == EXIT_OK
        assert "saddle ordering: OK / OK" in capsys.readouterr().out
        assert sampled == []


def test_plain_solve_builds_no_grid(study_file, capsys, monkeypatch):
    """The grid of --csv and --probe is built only when one of them reads
    it; --grid is still checked."""
    builds = []
    post_init = TimeGrid.__post_init__

    def counting(grid):
        post_init(grid)
        builds.append((grid.t_start, grid.t_end, grid.n))

    monkeypatch.setattr(TimeGrid, "__post_init__", counting)
    assert main(["solve", study_file]) == EXIT_OK
    assert main(["solve", study_file, "--sign", "+", "--probe", "5"]) == EXIT_OK
    assert builds == []
    capsys.readouterr()
    assert main(["solve", study_file, "--grid", "1"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: a time grid needs at least two nodes\n"
    assert main(["solve", study_file, "--probe", "5", "--grid", "301"]) == EXIT_OK
    assert builds == [(0.0, 1.0, 2001), (0.0, 1.0, 301)]  # the kernels' build grid first


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

    @pytest.mark.parametrize("bound", ["--eps-from", "--eps-to"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_eps_rejected(self, study_file, capsys, bound, value):
        assert main(["sweep", study_file, bound, value, "--eps-steps", "3"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    @pytest.mark.parametrize("flags, message", [
        (["--eps-steps", "1"], "error: --eps-steps must be at least 2\n"),
        (["--eps-to", "nan"], "error: --eps-from and --eps-to must be finite\n"),
        (["--eps-from", "0"], "error: --eps-from and --eps-to must be positive\n"),
        (["--eps-to=-1e-6"],"error: --eps-from and --eps-to must be positive\n"),
        (["--eps-from", "1e-6", "--eps-to", "1"],
         "error: --eps-from must be larger than --eps-to: the sweep descends\n"),
        (["--eps-from", "0.1", "--eps-to", "0.1"],
         "error: --eps-from must be larger than --eps-to: the sweep descends\n"),
    ])
    def test_flags_checked_before_the_scenario(self, tmp_path, capsys, flags, message):
        """A bad flag is a usage error (exit 1) even on an unsolvable
        scenario, which would exit 2 once read, as `solve --grid 1` does."""
        path = write_doc(tmp_path, lambda d: d["weights"].update(beta=0.1))
        assert main(["solve", path, "--grid", "1"]) == EXIT_USAGE
        capsys.readouterr()
        assert main(["sweep", path] + flags) == EXIT_USAGE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message)
        assert main(["sweep", path]) == EXIT_SOLVABILITY


class TestTable1:
    def test_builtin_study(self, capsys):
        assert main(["table1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "saddle ordering: OK / OK" in out
        values = [float(tok) for line in out.splitlines()
                  for tok in line.replace(")", " ").split()
                  if tok.replace(".", "").replace("-", "").isdigit() and "." in tok]
        for pair in ("(+,+)", "(+,-)", "(-,+)"):
            assert any(CHECKS["T1+ " + pair].passed(v) for v in values)

    def test_study_file_matches_builtin(self, study_file, capsys):
        assert main(["table1"]) == EXIT_OK
        builtin = capsys.readouterr().out
        assert main(["table1", study_file]) == EXIT_OK
        assert capsys.readouterr().out == builtin

    def test_file_with_custom_positions(self, tmp_path, capsys):
        def mutate(doc):
            doc["table1"] = {"plus": [120.0, 60.0], "minus": [-80.0, -30.0]}
        path = write_doc(tmp_path, mutate)
        assert main(["table1", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("position (120, 60) in OmegaPlus   position (-80, -30) in OmegaMinus")
        assert "saddle ordering: OK / OK" in out

    @pytest.mark.parametrize("side, entry", [("plus", True), ("minus", float("nan")),
                                             ("plus", "100")])
    def test_position_entries_checked(self, tmp_path, capsys, side, entry):
        path = write_doc(tmp_path, lambda d: d["table1"][side].__setitem__(0, entry))
        assert main(["table1", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "scenario error" in captured.err and "table1.%s" % side in captured.err

    @pytest.mark.parametrize("side, position", [("plus", [100.0, -50.0]),
                                                ("minus", [100.0, 50.0])])
    def test_position_in_wrong_region_is_a_scenario_error(self, tmp_path, capsys, side,
                                                          position):
        path = write_doc(tmp_path, lambda d: d["table1"].update({side: position}))
        assert main(["table1", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "scenario error" in captured.err and "table1.%s" % side in captured.err

    def test_position_must_be_a_pair(self, tmp_path, capsys):
        path = write_doc(tmp_path, lambda d: d["table1"]["minus"].append(1.0))
        assert main(["table1", path]) == EXIT_USAGE
        assert "table1.minus" in capsys.readouterr().err


class TestRepro:
    def test_known_state(self, capsys):
        assert main(["repro"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "39/39 checks passed" in out
        t1_minus = next(line for line in out.splitlines() if "T1- (-,-)" in line)
        assert t1_minus.endswith("[cross-play cost; erratum, printed %g]"
                                 % CHECKS["T1- (-,-)"].printed)

    def test_rows_follow_reference(self, capsys):
        """One line per reference row, in table order, then the count line
        that the benchmark harness parses to gate its runs."""
        assert main(["repro"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        rows = list(CHECKS.values())
        assert len(rows) >= 39 and len(lines) == len(rows) + 1
        width = max(len(c.name) for c in rows)
        for line, row in zip(lines, rows):
            assert line.startswith("PASS %-*s value=" % (width, row.name))
            assert line.endswith("  [%s]" % row.label)
        assert lines[-1] == "%d/%d checks passed" % (len(rows), len(rows))

    def test_changed_target_fails_its_row(self, capsys, monkeypatch, study_values):
        row = CHECKS["J+*"]
        monkeypatch.setitem(CHECKS, "J+*", dataclasses.replace(row, target=2.0 * row.target))
        assert main(["repro"]) == EXIT_REPRO_FAIL
        out = capsys.readouterr().out
        assert [line.split()[1] for line in out.splitlines()
                if line.startswith("FAIL")] == ["J+*"]
        assert "%d/%d checks passed" % (len(CHECKS) - 1, len(CHECKS)) in out
        with pytest.raises(AssertionError):
            test_acceptance.test_criterion_05_game_values(study_values)
        assert all(test_acceptance.check_rows(study_values, c) for c in (1, 4, 6, 10))

    def test_tolerance_scale_clears_known_rows(self, capsys):
        assert main(["repro", "--tol-scale", "2.5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_tolerance_scale_narrows_bands(self, capsys):
        assert main(["repro", "--tol-scale", "0.01"]) == EXIT_REPRO_FAIL
        out = capsys.readouterr().out
        assert any(line.startswith("FAIL ") for line in out.splitlines())

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
    def test_tolerance_scale_must_be_positive_and_finite(self, capsys, scale):
        assert main(["repro", "--tol-scale", scale]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol-scale" in captured.err


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
