"""Acceptance suite: every reproduction criterion at its stated tolerance.

Criteria 01-10 check the rows of `zemgame.reference.CHECKS`, the values
`zemgame repro` prints, from one evaluation of the study per session; each
row prints one PASS/FAIL line. Two criteria carry an erratum against the
printed study, each backed by the study's own printed data and asserted
alongside it:

* criterion 08: the printed (-,-) cross-play cost at the Table 1 minus
  position contradicts the printed G_bar and J+-*; the row checks the value
  consistent with them, which is the one the model's integrals give;
* criterion 09: the printed unconstrained terminals from (100, -50) and
  (100, -100) both encode one displacement a*z0, so the 1% band applies to
  that displacement, not to its cancelled difference with w0 = -50.

`zemgame.reference` keeps each printed value beside its correction.
"""

import dataclasses

import numpy as np
import pytest

from zemgame import (
    RegionLabel,
    classify,
    coefficients,
    playout_reduced,
    reference,
    saddle_probe,
    solve_erg_branch,
    solve_rg,
)
from zemgame.reduction import sample_control
from zemgame.reference import CHECKS, MINUS_POSITION, PLUS_POSITION, POSITION, STRIP_POSITION

from helpers import ORACLE, check_case_iii_infeasible, first_order_coefficients, random_scenario


def _report(criterion: str, ok: bool, detail: str):
    print("%s criterion %s: %s" % ("PASS" if ok else "FAIL", criterion, detail))
    return ok


def _at(scenario, z0, w0):
    return dataclasses.replace(scenario, z0=z0, w0=w0, geometry=None)


def check_rows(values, criterion: int) -> bool:
    """Check every reference row of one criterion against its computed
    value, one PASS/FAIL line per row."""
    rows = [c for c in CHECKS.values() if c.criterion == criterion]
    results = [_report("%02d" % criterion, c.passed(values[c.name]),
                       "%s %.8g vs %.8g +-%.3g  [%s]"
                       % (c.name, values[c.name], c.target, c.width(), c.label))
               for c in rows]
    return bool(rows) and all(results)


def _printed(prefix: str) -> np.ndarray:
    """A 2x2 matrix as the study prints it, from its reference rows."""
    return np.array([[CHECKS["%s[%d,%d]" % (prefix, i, j)].target for j in range(2)]
                     for i in range(2)])


def test_criterion_01_solvability_threshold(study_values):
    assert check_rows(study_values, 1)


def test_criterion_02_constraint_bound(study_values):
    assert check_rows(study_values, 2)


def test_criterion_03_coefficient_matrices(study_values):
    assert check_rows(study_values, 3)


def test_criterion_04_branch_vectors(study_values):
    assert check_rows(study_values, 4)


def test_criterion_05_game_values(study_values):
    assert check_rows(study_values, 5)


def test_criterion_06_playout_terminals(study_values):
    assert check_rows(study_values, 6)


def test_criterion_07_cross_checks(study_values):
    assert check_rows(study_values, 7)


def _gbar_from_printed(minus_minus: float) -> np.ndarray:
    """Symmetric G_bar solved from three printed branch values, J+* and J-*
    at the branch position and the given (-,-) entry at the Table 1 minus
    position, each with the printed bound.

    The (-,-) entry is the minus-branch value (chi0 + gamma)' G_bar
    (chi0 + gamma) with gamma = (0, bound), so together with the printed
    J+-* it fixes G_bar."""
    bound = CHECKS["bound"].target
    rows, rhs = [], []
    for (z0, w0), sign, value in ((POSITION, 1, CHECKS["J+*"].target),
                                  (POSITION, -1, CHECKS["J-*"].target),
                                  (MINUS_POSITION, -1, minus_minus)):
        x, y = z0, w0 - sign * bound
        rows.append((x * x, 2.0 * x * y, y * y))
        rhs.append(value)
    g11, g12, g22 = np.linalg.solve(np.array(rows), np.array(rhs))
    return np.array([[g11, g12], [g12, g22]])


def test_criterion_08_cross_play_table(study_values, study_coeffs):
    assert check_rows(study_values, 8)
    minus_minus = study_values["T1- (-,-)"]
    branch_value = solve_erg_branch(study_coeffs, *MINUS_POSITION, -1).value
    assert minus_minus == pytest.approx(branch_value, rel=1e-7)
    assert minus_minus == pytest.approx(ORACLE.table_minus[("-", "-")], rel=1e-7)

    # Erratum: the printed entry implies a G_bar off the printed one by more
    # than its rounding; the corrected one implies a G_bar that rounds to it.
    row = CHECKS["T1- (-,-)"]
    misprint_gap = np.abs(_gbar_from_printed(row.printed) - _printed("G_bar")).max()
    erratum_gap = np.abs(_gbar_from_printed(row.target) - _printed("G_bar")).max()
    assert misprint_gap > 0.005, "printed %.1f should contradict the printed G_bar" \
        % row.printed
    assert erratum_gap <= 0.005, "corrected %.1f should agree with the printed G_bar" \
        % row.target


def test_criterion_09_urg_playout(study_values, study_coeffs):
    assert check_rows(study_values, 9)
    c = study_coeffs
    z0, w0 = STRIP_POSITION
    shift = study_values["w_f-w0 URG (100,-50)"]
    assert abs(shift - c.a * z0) <= 1e-9 * c.bound
    assert abs(study_values["w_f URG (100,-100)"] - (POSITION[1] + c.a * z0)) <= 1e-9 * c.bound
    assert w0 + shift == pytest.approx(ORACLE.urg_w_f_a, rel=1e-8)

    # The study's own printed G gives a = G[0,1]/G[0,0], which misses the
    # printed w_f by more than 1%: the band cannot sit on the cancelled
    # difference.
    printed_g = _printed("G")
    printed_w_f = CHECKS["w_f-w0 URG (100,-50)"].printed
    assert abs(w0 + printed_g[0, 1] / printed_g[0, 0] * z0 - printed_w_f) > 0.01 * printed_w_f


def test_criterion_10_penalty_convergence(study_values):
    assert check_rows(study_values, 10)


# Every row of `reference.evaluate()` as float.hex, in `CHECKS` order: the
# bands above pass a value within its tolerance, and these catch a changed bit.
PINNED_VALUES = {
    "beta_star": "0x1.f35e6a2419e07p-3",
    "mu_e": "0x1.4ccc79fb28377p-2",
    "bound": "0x1.03ffbf4c376b5p+5",
    "G[0,0]": "0x1.dc8ec9eecd162p+1",
    "G_bar[0,0]": "0x1.ce85829498465p-3",
    "G[0,1]": "0x1.05430a9970b69p+1",
    "G_bar[0,1]": "-0x1.3f6ad05e02417p-4",
    "G[1,0]": "-0x1.05430a9970b69p+1",
    "G_bar[1,0]": "-0x1.3f6ad05e02417p-4",
    "G[1,1]": "0x1.7a4fc4083142dp+2",
    "G_bar[1,1]": "-0x1.2351806b1b04dp-3",
    "z_f+": "0x1.07558662af302p+5",
    "v_f+": "-0x1.61932443d1009p+3",
    "z_f-": "0x1.bd91020c4150bp+4",
    "v_f-": "-0x1.cda53bbfff417p+0",
    "J+*": "0x1.c8ea09c1761bap+10",
    "J-*": "0x1.4ce2259eb900ap+11",
    "w_f+ playout": "0x1.03ffbf4c376b4p+5",
    "z_f+ playout": "0x1.07558662af2ecp+5",
    "w_f- playout": "-0x1.03ffbf4c376bcp+5",
    "z_f- playout": "0x1.bd91020c414e4p+4",
    "ue_bar+": "0x1.97b108d41d3b5p+6",
    "J(u_p+, ue_bar+)": "0x1.53f1d4cefab72p+10",
    "J(ramp, u_e+)": "0x1.294a36c22fd5fp+11",
    "T1+ (+,+)": "0x1.e579acea3b5f8p+10",
    "T1+ (+,-)": "0x1.9f9df72f0afa4p+8",
    "T1+ (-,+)": "0x1.263f5866bc752p+11",
    "T1- (-,+)": "0x1.6ce6c56569e0cp+10",
    "T1- (+,-)": "0x1.6366d6f3cb048p+11",
    "T1- (-,-)": "0x1.2fe455022c3f3p+11",
    "T1 orderings": "0x1.0000000000000p+0",
    "w_f-w0 URG (100,-50)": "0x1.b694e8a4cc8fbp+5",
    "w_f URG (100,-100)": "-0x1.696b175b33705p+5",
    "sweep+ order": "0x1.fc9893a77d594p-1",
    "sweep+ monotone": "0x1.0000000000000p+0",
    "sweep+ value gap": "0x1.1ee5ec5000000p-24",
    "sweep- order": "0x1.fc9893a43ae52p-1",
    "sweep- monotone": "0x1.0000000000000p+0",
    "sweep- value gap": "0x1.4fa7fc0000000p-30",
}


def test_reference_values_bit_for_bit(study_values):
    """All 39 rows `zemgame repro` prints, bit for bit."""
    assert list(study_values) == list(PINNED_VALUES)
    assert {name: value.hex() for name, value in study_values.items()} == PINNED_VALUES


def test_criterion_11a_region_partition(study_coeffs):
    rng = np.random.default_rng(101)
    c = study_coeffs
    count = {label: 0 for label in RegionLabel}
    for _ in range(10_000):
        z0, w0 = rng.uniform(-500.0, 500.0, 2)
        m = w0 + c.a * z0
        predicates = [m >= c.bound, m <= -c.bound, abs(m) < c.bound]
        assert sum(predicates) == 1
        label = classify(c, z0, w0).label
        expected = (RegionLabel.OMEGA_PLUS, RegionLabel.OMEGA_MINUS,
                    RegionLabel.OMEGA)[predicates.index(True)]
        assert label is expected
        count[label] += 1
    assert _report("11a", all(v > 0 for v in count.values()),
                   "10^4 positions, one label each (%s)"
                   % ", ".join("%s %d" % (k.value, v) for k, v in count.items()))


def test_criterion_11bg_random_scenarios():
    rng = np.random.default_rng(103)
    worst_terminal = 0.0
    for _ in range(50):
        sc, kern = random_scenario(rng)
        c = coefficients(sc, kern)
        # (g) coefficient identities
        assert abs((c.s - c.nu_p) - (1.0 - c.nu_e)) <= 1e-10 * max(1.0, abs(1.0 - c.nu_e))
        assert 0.0 < c.d < 1.0
        # (b) terminal equality on a branch playout
        sign = 1 if rng.uniform() < 0.5 else -1
        branch = solve_erg_branch(c, sc.z0, sc.w0, sign)
        play = playout_reduced(sc, kern, branch.u_p, branch.u_e)
        rel = abs(abs(play.w_f) - c.bound) / c.bound
        worst_terminal = max(worst_terminal, rel)
        assert rel <= 1e-6
    assert _report("11b/g", True,
                   "50 random scenarios: identities hold, 0<d<1, worst terminal "
                   "mismatch %.2e" % worst_terminal)


def test_criterion_11c_homogeneity(study_scenario, study_kernels):
    base = coefficients(study_scenario, study_kernels)
    worst = 0.0
    for z0, w0 in ((100.0, -100.0), (100.0, 50.0), (40.0, -10.0)):
        ref = solve_rg(_at(study_scenario, z0, w0), coeffs=base)
        for k in (0.5, 2.0, 10.0):
            scaled_sc = dataclasses.replace(_at(study_scenario, k * z0, k * w0),
                                            ae_max=k * study_scenario.ae_max)
            ck = coefficients(scaled_sc, study_kernels)
            sol = solve_rg(scaled_sc, coeffs=ck)
            worst = max(worst, abs(sol.value / (k * k * ref.value) - 1.0))
            assert sol.value == pytest.approx(k * k * ref.value, rel=1e-9)
    assert _report("11c", True, "value scales as k^2, worst deviation %.2e" % worst)


def test_criterion_11d_boundary_continuity(study_scenario, study_kernels, study_coeffs):
    c = study_coeffs
    ts = np.linspace(0.0, study_scenario.t_f, 201)
    worst = 0.0
    for z0 in (60.0, -45.0):
        for side in (1, -1):
            w_boundary = side * c.bound - c.a * z0
            eps = 1e-9 * c.bound
            controls = []
            for w0 in (w_boundary - eps, w_boundary + eps):
                sol = solve_rg(_at(study_scenario, z0, w0), coeffs=c)
                controls.append((sample_control(sol.u_p, study_kernels, ts),
                                 sample_control(sol.u_e, study_kernels, ts)))
            (up_a, ue_a), (up_b, ue_b) = controls
            scale = max(1.0, np.abs(up_a).max(), np.abs(ue_a).max())
            gap = max(np.abs(up_a - up_b).max(), np.abs(ue_a - ue_b).max()) / scale
            worst = max(worst, gap)
            assert gap <= 1e-6
    assert _report("11d", True, "controls continuous across the strip edge, "
                   "worst relative gap %.2e" % worst)


def test_criterion_11e_saddle_probes(study_scenario, study_kernels, study_coeffs):
    positions = {"Omega": STRIP_POSITION, "OmegaPlus": PLUS_POSITION,
                 "OmegaMinus": MINUS_POSITION}
    margins = []
    for name, (z0, w0) in positions.items():
        sc = _at(study_scenario, z0, w0)
        sol = solve_rg(sc, coeffs=study_coeffs)
        assert sol.region.label.value == name
        report = saddle_probe(sc, sol, n_trials=100, seed=707, kernels=study_kernels)
        assert report.passed
        margins.append("%s (%.3g, %.3g)" % (name, report.evader_worst,
                                            report.pursuer_worst))
    assert _report("11e", True, "100 trials per region; worst (evader, pursuer) "
                   "margins: %s" % "; ".join(margins))


def test_criterion_11f_closed_form_vs_generic(study_coeffs):
    closed = first_order_coefficients(**reference.STUDY)
    fields = ("s", "nu_p", "nu_e", "G2", "G3", "a", "d", "mu_e", "beta_star")
    worst = max(abs(getattr(closed, f) / getattr(study_coeffs, f) - 1.0) for f in fields)
    assert worst <= 1e-8
    assert _report("11f", True, "closed forms match the matrix-exponential path, "
                   "worst relative gap %.2e" % worst)


def test_criterion_11h_case_iii_infeasible(study_coeffs):
    rng = np.random.default_rng(107)
    c = study_coeffs
    for _ in range(1000):
        z0 = rng.uniform(-300.0, 300.0)
        sign = 1 if rng.uniform() < 0.5 else -1
        w0 = sign * c.bound * rng.uniform(1.0 + 1e-9, 5.0) - c.a * z0
        diag = check_case_iii_infeasible(c, z0, w0)
        assert not diag.inside_1 and not diag.inside_2
        # interval-position equivalence with the strip test
        m = w0 + c.a * z0
        assert diag.inside_1 == ((-1 + 2 * c.d) * c.bound < m < c.bound)
        assert diag.inside_2 == (-c.bound < m < (1 - 2 * c.d) * c.bound)
    assert _report("11h", True, "interior case infeasible at 10^3 positions "
                   "outside the strip")
