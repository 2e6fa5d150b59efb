import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import test_acceptance
from zemgame import cli, coefficients, numerics, reduction, reference
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

from helpers import MIXED_ORDERS, first_order_coefficients, game_matrices

SRC = Path(__file__).resolve().parents[1] / "src"
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

    @pytest.mark.parametrize("section, key", [
        ("horizon", "t_f"), ("weights", "alpha"), ("weights", "beta"),
        ("evader_bound", "ae_max"), ("initial", "z0"), ("initial", "w0"),
        ("players.pursuer", "first_order_tau"), ("players.evader", "first_order_tau"),
    ])
    def test_required_null_is_not_a_number(self, tmp_path, capsys, section, key):
        """A required number given as JSON null is refused by name; it used
        to pass as None and fail later with a TypeError traceback."""
        def mutate(doc):
            node = doc
            for part in section.split("."):
                node = node[part]
            node[key] = None
        assert main(["solve", write_doc(tmp_path, mutate)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "scenario error: key '%s.%s' must be a number\n" % (section, key))

    def test_optional_null_counts_as_missing(self, tmp_path, capsys):
        """An optional key given as null is absent: t_c null beside nu."""
        path = write_doc(tmp_path, lambda doc: doc["horizon"].update(t_c=None))
        assert main(["classify", path]) == EXIT_OK

    @pytest.mark.parametrize("doc, message", [
        ([], "missing key 'players'"), ({"players": []}, "missing key 'players.pursuer'"),
        ({"players": {"pursuer": {"first_order_tau": 0.1}, "evader": {"first_order_tau": 0.1}},
          "horizon": 5}, "missing key 'horizon.t_f'"),
    ])
    def test_missing_key_named_by_its_path(self, tmp_path, capsys, doc, message):
        """A member looked up in a parent that is missing or not an object
        is named by its whole dotted path."""
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["classify", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == "scenario error: %s\n" % message

    def test_bad_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        assert main(["classify", str(path)]) == EXIT_USAGE
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("raw, reason", [
        (('{"note": "\u00e9", ' + json.dumps(STUDY_DOC)[1:]).encode("latin-1"),
         "byte 0xe9 in position 10: invalid continuation byte"),
        (json.dumps(STUDY_DOC).encode("utf-16"), "byte 0xff in position 0: invalid start byte"),
    ], ids=["latin-1", "utf-16"])
    def test_non_utf8_file_is_a_scenario_error(self, tmp_path, capsys, raw, reason):
        """A file that does not decode as UTF-8 is refused by its path."""
        path = tmp_path / "scenario.json"
        path.write_bytes(raw)
        assert main(["solve", str(path)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "scenario error: %s is not UTF-8: 'utf-8' codec "
                                           "can't decode %s\n" % (path, reason))


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


@pytest.mark.parametrize("gain, alpha", [(3e-7, 5e-5), (1e-7, 5e-6)])
def test_weak_evader_gain_solves(tmp_path, capsys, gain, alpha):
    """An evader lag of gain c = 3e-7 (1e-7) with alpha = 5e-5 (5e-6) gives
    det G = 1.9e-9 (2.1e-9), a well-posed branch system, beside
    det F = 5.3e-13 (5.9e-14). The fixed-pursuer cross check needs no
    solve on F, so `solve` answers instead of refusing F as near singular.
    The printed value, z_f and w_f are those of the same game written as a
    unit-gain lag with beta/c^2 and ae_max*c, from the closed-form
    first-order coefficients and LAPACK's solve of G omega = b, to their
    12 printed digits."""
    path = write_doc(tmp_path, lambda d: (
        d["players"].update(evader={"A": [[-10.0]], "b": [10.0], "c": [gain], "d": 0.0}),
        d["weights"].update(alpha=alpha)))
    assert main(["solve", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("region: OmegaMinus\n")
    printed = {line.split()[0]: float(line.split()[1]) for line in out.splitlines()[1:4]}

    c = first_order_coefficients(tau_p=0.2, tau_e=0.1, t_f=1.0, t_c=0.9, alpha=alpha,
                                 beta=0.3 / gain ** 2, ae_max=100.0 * gain)
    assert c.det_F < 1e-12 < c.det_G
    m = game_matrices(c)
    omega = np.linalg.solve(m.G, np.array([100.0, -100.0 + c.bound]))
    want = dict(value=float(omega @ m.G_tilde @ omega), z_f=omega[0], w_f=-c.bound)
    for name, value in want.items():
        assert printed[name] == pytest.approx(value, rel=1e-11), name


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
    assert c.s > 1e30
    m = game_matrices(c)
    with mpmath.workdps(40):
        G = mpmath.matrix(m.G.tolist())
        omega = mpmath.lu_solve(G, mpmath.matrix([scenario.z0, scenario.w0 + c.bound]))
        value = float((omega.T * mpmath.matrix(m.G_tilde.tolist()) * omega)[0])
    for out in outs[:3]:
        assert printed_value(out) == pytest.approx(value, rel=1e-11)


# Finite documents whose results overflow the float range, and the verbs
# that must refuse them: z0 = 1e200 outside the strip (the branch value,
# 1e400, printed as inf with exit 0 before), the same z0 inside a strip
# widened by ae_max = 1e300 (an uncaught OverflowError), ae_max = 1e300
# alone (its forced branches and sweeps printed inf and nan),
# alpha = 1e-320, whose nu_p overflows (an internal-check failure, exit 4),
# and a fast unstable evader lag (A = [[40]]) over the tail t_c = 60, whose
# sign scan overflows (numpy warnings, then "non-finite time scale" from a
# Newton step's `mat_exp`).
OVERFLOWING = {
    "z0_1e200": (lambda d: d["initial"].update(z0=1e200),
                 ("solve", "solve --probe 5", "solve --sign +", "sweep --sign +", "sweep --sign -")),
    "strip_z0_1e200": (lambda d: (d["initial"].update(z0=1e200, w0=0.0),
                                  d["evader_bound"].update(ae_max=1e300)),
                       ("solve", "solve --probe 5", "solve --csv t.csv")),
    "ae_max_1e300": (lambda d: d["evader_bound"].update(ae_max=1e300),
                     ("solve --sign +", "solve --sign -", "sweep --sign +", "sweep --sign -")),
    "alpha_1e-320": (lambda d: d["weights"].update(alpha=1e-320),
                     ("classify", "solve", "sweep --sign +", "table1")),
    "evader_tail_60": (lambda d: (
        d["players"].update(evader={"A": [[40.0]], "b": [40.0], "c": [1.0], "d": 0.0}),
        d["horizon"].update(nu=60.0)), ("classify", "solve")),
}


@pytest.mark.parametrize("case", list(OVERFLOWING))
def test_overflowing_results_are_scenario_errors(tmp_path, capsys, case):
    """Each verb that reaches a non-finite result exits 1 with one
    "scenario error:" line, prints nothing and warns nothing."""
    mutate, verbs = OVERFLOWING[case]
    path = write_doc(tmp_path, mutate)
    for verb in verbs:
        argv = verb.replace("t.csv", str(tmp_path / "t.csv")).split()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv[:1] + [path] + argv[1:]) == EXIT_USAGE, verb
        assert caught == [], verb
        captured = capsys.readouterr()
        assert captured.out == "", verb
        assert captured.err.count("\n") == 1 and captured.err.startswith("scenario error: "), verb
        assert "float range" in captured.err, verb


@pytest.mark.parametrize("alpha, t_c", [(1e-307, 60.0), (1e-305, 1e4)])
@pytest.mark.parametrize("verb", ["classify", "solve"])
def test_tiny_alpha_is_not_an_internal_error(tmp_path, capsys, verb, alpha, t_c):
    """Lags 0.2/0.1, t_f 2, beta 4, ae_max 50, z0 100 and w0 1e6: nu_p G2^2
    overflows although d < 1, which failed the coefficient consistency check
    (exit 4). d is formed from two factors in [0, 1] instead, so each verb
    solves or refuses the document as a scenario error. At alpha = 1e-307
    `solve` refuses it: G1 = s, about int h_p^2 / alpha, makes the products
    of the branch's 2x2 entries overflow, and the message names the weights."""
    def mutate(doc):
        doc["horizon"] = dict(t_f=2.0, t_c=t_c)
        doc["weights"] = dict(alpha=alpha, beta=4.0)
        doc["evader_bound"]["ae_max"] = 50.0
        doc["initial"].update(z0=100.0, w0=1e6)

    path = write_doc(tmp_path, mutate)
    refused = verb == "solve" and alpha == 1e-307  # the branch's 2x2 system overflows
    assert main([verb, path]) == (EXIT_USAGE if refused else EXIT_OK)
    assert capsys.readouterr().err == (
        "scenario error: the products of 2x2 entries overflow the float range: the kernel "
        "integrals over the weights alpha or beta are too large\n" if refused else "")
    assert 0.0 <= coefficients(load_scenario(path)[0]).d < 1.0


def test_large_finite_results_still_solve(tmp_path, capsys):
    """ae_max = 1e300 leaves the dispatched strip solve finite: it prints
    and exits 0."""
    path = write_doc(tmp_path, lambda d: d["evader_bound"].update(ae_max=1e300))
    assert main(["solve", path, "--probe", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("region: Omega\n") and "inf" not in out and "nan" not in out


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

    PROBED = {
        "study": ("region: OmegaMinus\n"
                  "value             2663.06709229    [J(u_p*, u_e*)]\n"
                  "z_f               27.8479023436    [z_f = z0/s in Omega, else (G^-1 b)_1]\n"
                  "w_f              -32.4998765902    "
                  "[w_f = w0 + a*z0 in Omega, else sign*mu_e*ae_max]\n"
                  "u_p coef on h_p  -556.958046873    [u_p = -(z_f/alpha) h_p]\n"
                  "u_e coef on h_e   92.8263411454    [u_e = (z_f h_e - v_f g_e)/beta]\n"
                  "u_e coef on g_e   6.01100837191    [u_e = (z_f h_e - v_f g_e)/beta]\n"
                  "saddle probe: 20 trials OK, worst margins evader -5 pursuer 11.7\n"),
        "mixed": ("region: OmegaPlus\n"
                  "value            -239.713274382    [J(u_p*, u_e*)]\n"
                  "z_f               0.434992559959    [z_f = z0/s in Omega, else (G^-1 b)_1]\n"
                  "w_f               19.2    [w_f = w0 + a*z0 in Omega, else sign*mu_e*ae_max]\n"
                  "u_p coef on h_p  -5.43740699949    [u_p = -(z_f/alpha) h_p]\n"
                  "u_e coef on h_e   0.483325066621    [u_e = (z_f h_e - v_f g_e)/beta]\n"
                  "u_e coef on g_e  -10.5596115692    [u_e = (z_f h_e - v_f g_e)/beta]\n"
                  "saddle probe: 20 trials OK, worst margins evader -0.823 pursuer 0.00051\n"),
    }

    @pytest.mark.parametrize("name", list(PROBED))
    def test_probe_output_pinned(self, capsys, name):
        """`solve --probe 20 --seed 3` on both repository files, byte for byte."""
        path = str(STUDY_FILE if name == "study" else MIXED_ORDERS)
        assert main(["solve", path, "--probe", "20", "--seed", "3"]) == EXIT_OK
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (self.PROBED[name], "")

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


@pytest.mark.parametrize("case, exponentials", [
    ("study", 2), ("mixed", 2), ("t_c=0", 1), ("study --csv", 5), ("study --probe 20", 5),
    ("table1", 2), ("table1 study", 2), ("repro", 7)])
def test_solve_exponential_budget(tmp_path, capsys, monkeypatch, case, exponentials):
    """A plain `solve` runs exactly two Pade-13 evaluations: the Van Loan
    block of the kernel Gram matrix, and the step of the tail scan, which
    gives mu_e and x_e = exp(A_e t_c) B_e; at t_c = 0 only the first.
    Counted on `numerics._pade13`, which every finisher calls (`scaled_exp`
    and `mat_exp`, `exp_minus_identity`). Every verb forms the kernel Gram
    matrix once: a verb that builds the kernels hands them to
    `coefficients`, which reads K and mu_e from them, so the tail scan also
    runs once."""
    calls, grams, tails = [], [], []
    pade13, kernel_gram, tail = numerics._pade13, reduction.kernel_gram, reduction._tail_weight

    def counting(M):
        calls.append(M.shape)
        return pade13(M)

    monkeypatch.setattr(numerics, "_pade13", counting)
    monkeypatch.setattr(reduction, "kernel_gram", lambda *args: grams.append(args) or
                        kernel_gram(*args))
    monkeypatch.setattr(reduction, "_tail_weight", lambda *args: tails.append(args) or
                        tail(*args))
    words = {"study": str(STUDY_FILE), "mixed": str(MIXED_ORDERS),
             "t_c=0": write_doc(tmp_path, lambda d: d["horizon"].update(nu=0.0)),
             "--csv": "--csv=%s" % (tmp_path / "t.csv")}
    argv = [words.get(word, word) for word in case.split()]
    assert main(argv if argv[0] in ("table1", "repro") else ["solve"] + argv) == EXIT_OK
    assert (len(grams), len(tails), len(calls)) == (1, 1, exponentials)


@pytest.mark.parametrize("argv", [[verb, str(path)] for verb in ("solve", "classify", "sweep",
                                                                  "table1")
                                  for path in (STUDY_FILE, MIXED_ORDERS)] + [["repro"]],
                         ids=lambda argv: " ".join(Path(a).name for a in argv))
def test_fresh_process_smoke(tmp_path, argv):
    """Each verb in a fresh interpreter in development mode with every
    warning an error: exit 0 and nothing on stderr. A ResourceWarning (an
    unclosed file, say) is raised where no in-process test looks: at
    garbage collection or at exit, where it is printed, not raised."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "zemgame"] + argv,
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert done.stdout


class TestKernelBuilds:
    """Every verb builds the kernels once: the coefficients read their Gram
    matrix (`Kernels.gram`), and the verbs that sample them, and only
    those, sample one bundle of them."""

    @pytest.mark.parametrize("position", [(100.0, -50.0), (100.0, 50.0)], ids=["strip", "branch"])
    @pytest.mark.parametrize("verb, options, bundles", [
        ("classify", [], 0),
        ("solve", [], 0),
        ("solve", ["--sign", "+"], 0),
        ("solve", ["--sign", "-", "--probe", "5"], 0),
        ("sweep", [], 0),
        ("solve", ["--csv", "{csv}"], 1),
        ("solve", ["--probe", "5"], 1),
        ("solve", ["--csv", "{csv}", "--probe", "5", "--grid", "301"], 1),
    ])
    def test_count(self, tmp_path, capsys, monkeypatch, kernel_builds, position, verb, options,
                   bundles):
        path = write_doc(tmp_path, lambda d: d["initial"].update(z0=position[0], w0=position[1]))
        options = [o.format(csv=tmp_path / "out.csv") for o in options]
        sampled = []
        sample = SampleBundle.sample.__func__
        monkeypatch.setattr(SampleBundle, "sample", classmethod(
            lambda cls, *a: sampled.append(a) or sample(cls, *a)))
        assert main([verb, path] + options) == EXIT_OK
        assert len(kernel_builds) == 1 and len(sampled) == bundles


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
    it, and the kernels' build grid only when it is read; --grid is still
    checked."""
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
    assert builds == [(0.0, 1.0, 301)]  # the kernels' own build grid is never read


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


# The whole stdout of a forced branch and of a penalty sweep on both
# repository files, byte for byte.
FORCED = {
    ("study", "solve --sign +"): (
        "region: forced branch +\n"
        "value             1827.65684544    [J = omega_f' diag(1,-1) G omega_f]\n"
        "z_f               32.9167602262    [omega_f = G^-1 b]\n"
        "v_f              -11.0492116284    [omega_f = G^-1 b]\n"
        "w_f               32.4998765902    [w_f = sign*mu_e*ae_max]\n"
        "u_p coef on h_p  -658.335204524    [u_p = -(z_f/alpha) h_p]\n"
        "u_e coef on h_e   109.722534087    [u_e = (z_f h_e - v_f g_e)/beta]\n"
        "u_e coef on g_e   36.830705428    [u_e = (z_f h_e - v_f g_e)/beta]\n"),
    ("study", "solve --sign -"): (
        "region: forced branch -\n"
        "value             2663.06709229    [J = omega_f' diag(1,-1) G omega_f]\n"
        "z_f               27.8479023436    [omega_f = G^-1 b]\n"
        "v_f              -1.80330251157    [omega_f = G^-1 b]\n"
        "w_f              -32.4998765902    [w_f = sign*mu_e*ae_max]\n"
        "u_p coef on h_p  -556.958046873    [u_p = -(z_f/alpha) h_p]\n"
        "u_e coef on h_e   92.8263411454    [u_e = (z_f h_e - v_f g_e)/beta]\n"
        "u_e coef on g_e   6.01100837191    [u_e = (z_f h_e - v_f g_e)/beta]\n"),
    ("study", "sweep --sign +"): (
        "eps,z_f_eps,v_f_eps,value,omega_gap\n"
        "1,32.1624146964,-9.67323889992,1934.53850918,1.56918390503\n"
        "0.1,32.8318039263,-10.8942461025,1839.69412851,0.176725456885\n"
        "0.01,32.908155989,-11.0335169695,1828.87596208,0.0178984696063\n"
        "0.001,32.9158987011,-11.0476401536,1827.77891316,0.00179213801054\n"
        "0.0001,32.9166740627,-11.0490544608,1827.66905378,0.000179236743818\n"
        "1e-05,32.9167516098,-11.0491959114,1827.65806629,1.79239038464e-05\n"
        "1e-06,32.9167593646,-11.0492100567,1827.65696753,1.79239268408e-06\n"),
    ("study", "sweep --sign -"): (
        "eps,z_f_eps,v_f_eps,value,omega_gap\n"
        "1,27.724788294,-1.57873489892,2665.91402889,0.256100921245\n"
        "0.1,27.8340369282,-1.77801113953,2663.38772148,0.0288427329458\n"
        "0.01,27.8464980767,-1.80074104215,2663.09956509,0.00292114553326\n"
        "0.001,27.8477617372,-1.80304603676,2663.07034372,0.000292488467433\n"
        "0.0001,27.8478882812,-1.80327686081,2663.06741747,2.9252591151e-05\n"
        "1e-05,27.8479009374,-1.80329994646,2663.06712481,2.92529656717e-06\n"
        "1e-06,27.847902203,-1.80330225506,2663.06709554,2.92530034035e-07\n"),
    ("mixed", "solve --sign +"): (
        "region: forced branch +\n"
        "value            -239.713274382    [J = omega_f' diag(1,-1) G omega_f]\n"
        "z_f               0.434992559959    [omega_f = G^-1 b]\n"
        "v_f               9.50365041229    [omega_f = G^-1 b]\n"
        "w_f               19.2    [w_f = sign*mu_e*ae_max]\n"
        "u_p coef on h_p  -5.43740699949    [u_p = -(z_f/alpha) h_p]\n"
        "u_e coef on h_e   0.483325066621    [u_e = (z_f h_e - v_f g_e)/beta]\n"
        "u_e coef on g_e  -10.5596115692    [u_e = (z_f h_e - v_f g_e)/beta]\n"),
    ("mixed", "solve --sign -"): (
        "region: forced branch -\n"
        "value            -1303.92512475    [J = omega_f' diag(1,-1) G omega_f]\n"
        "z_f              -10.700816975    [omega_f = G^-1 b]\n"
        "v_f               18.2101998577    [omega_f = G^-1 b]\n"
        "w_f              -19.2    [w_f = sign*mu_e*ae_max]\n"
        "u_p coef on h_p   133.760212187    [u_p = -(z_f/alpha) h_p]\n"
        "u_e coef on h_e  -11.8897966389    [u_e = (z_f h_e - v_f g_e)/beta]\n"
        "u_e coef on g_e  -20.2335553974    [u_e = (z_f h_e - v_f g_e)/beta]\n"),
    ("mixed", "sweep --sign +"): (
        "eps,z_f_eps,v_f_eps,value,omega_gap\n"
        "1,2.68161945418,7.74712179364,-166.087337153,2.85179332876\n"
        "0.1,0.704483458513,9.29294854764,-230.881580952,0.342082768008\n"
        "0.01,0.46249032824,9.48215124077,-238.812123876,0.0349047509139\n"
        "0.001,0.437747946703,9.50149610902,-239.622975484,0.00349759613166\n"
        "0.0001,0.435268154858,9.503434938,-239.704242649,0.000349830983408\n"
        "1e-05,0.435020120011,9.50362886442,-239.71237119,3.4983812204e-05\n"
        "1e-06,0.43499531597,9.5036482575,-239.713184062,3.49838835878e-06\n"),
    ("mixed", "sweep --sign -"): (
        "eps,z_f_eps,v_f_eps,value,omega_gap\n"
        "1,-6.39599483038,14.8444681847,-1033.60439232,5.4643978068\n"
        "0.1,-10.1844382248,17.8064683546,-1271.49919,0.655473981371\n"
        "0.01,-10.6481277625,18.1690047176,-1300.61651268,0.0668819308951\n"
        "0.001,-10.6955373044,18.2060719393,-1303.59358854,0.00670183790606\n"
        "0.0001,-10.7002889002,18.2097869816,-1303.89196436,0.000670320545046\n"
        "1e-05,-10.7007641664,18.2101585692,-1303.92180864,6.70334223599e-05\n"
        "1e-06,-10.7008116941,18.2101957288,-1303.92479314,6.70335591372e-06\n"),
}


@pytest.mark.parametrize("name, argv", list(FORCED), ids=[" ".join(k) for k in FORCED])
def test_forced_branch_and_sweep_output_pinned(capsys, name, argv):
    path = str(STUDY_FILE if name == "study" else MIXED_ORDERS)
    verb, *options = argv.split()
    assert main([verb, path] + options) == EXIT_OK
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (FORCED[name, argv], "")


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

    def test_zero_tail_is_a_scenario_error(self, tmp_path, capsys):
        """At t_c = 0 the bound is 0 and both branches pin w_f = 0, so every
        entry of a cross-play table is the same number: the table is refused
        before it is built, as a scenario error, not as a failed check."""
        path = write_doc(tmp_path, lambda d: d["horizon"].update(nu=0.0))
        assert main(["table1", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("scenario error: t_c = 0 collapses the terminal constraint to "
                                "w(t_f) = 0: both branches pin w_f = 0, so the cross-play table "
                                "ties and has no saddle ordering to show\n")

    @pytest.mark.parametrize("ae_max, status", [(3e-5, EXIT_OK), (1e-6, EXIT_USAGE),
                                                (1e-12, EXIT_USAGE)])
    def test_entries_tied_within_rounding_are_a_scenario_error(self, tmp_path, capsys, ae_max,
                                                               status):
        """As ae_max shrinks the two branches meet, and the pursuer-side gap
        J(-,+) - J(+,+) at (100, 50) shrinks as ae_max^2: +3.7e-11 at 3e-5,
        and -2.3e-13 at 1e-6, below the rounding of entries whose terms sum
        to 4.1e3. Such a table shows no ordering, and is refused as a
        scenario error (`reference.TIE_EPS`), not as a violated ordering."""
        path = write_doc(tmp_path, lambda d: d["evader_bound"].update(ae_max=ae_max))
        assert main(["table1", path]) == status
        captured = capsys.readouterr()
        if status == EXIT_OK:
            assert captured.out.endswith("saddle ordering: OK / OK\n") and captured.err == ""
        else:
            assert "saddle ordering" not in captured.out
            assert captured.err.startswith("scenario error: cross-play entries (u_p+, u_e+) and "
                                           "(u_p-, u_e+) tie within rounding: J differ by ")

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


class TestDispatch:
    """`main` hands a known verb's arguments straight to that verb's own
    parser; every call ends as it did through the top-level parser."""

    @staticmethod
    def top_level_parser():
        parser = cli.build_parser()
        parser.verbs = {}  # no direct route: every call goes through parse_args
        return parser

    @staticmethod
    def outcome(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:  # help
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--help"], ["solve", "-h"], ["solve", "--he"], ["table1", "-h"],
        ["solve", "--", "FILE"], ["--", "solve", "FILE"], ["--"], ["bogus"], ["bogus", "FILE"],
        ["Solve", "FILE"], ["solve"], ["solve", "a", "b"], ["solve", "FILE", "--grid", "1"],
        ["solve", "--grid", "1", "FILE"], ["solve", "--sign", "+", "FILE", "--probe", "5"],
        ["solve", "FILE", "--grid", "x"], ["solve", "FILE", "--grid"],
        ["solve", "FILE", "--sign", "0"], ["solve", "FILE", "--bogus"],
        ["solve", "/nonexistent/path.json"], ["classify", "FILE"], ["classify"],
        ["sweep", "FILE", "--eps-steps", "1"], ["sweep", "--sign", "-", "FILE"],
        ["table1"], ["table1", "FILE"], ["table1", "FILE", "extra"], ["repro", "--tol-scale", "0"],
        ["repro", "FILE"], ["-h", "solve"],
    ], ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_same_outcome_as_the_top_level_parser(self, study_file, capsys, monkeypatch, argv):
        argv = [study_file if a == "FILE" else a for a in argv]
        direct = self.outcome(argv, capsys)
        monkeypatch.setattr(cli, "_main_parser", self.top_level_parser)
        assert self.outcome(argv, capsys) == direct

    def test_verbs_are_the_subparsers(self):
        parser = cli.build_parser()
        assert sorted(parser.verbs) == ["classify", "repro", "solve", "sweep", "table1"]
        assert parser.verbs["solve"].prog == "zemgame solve"
