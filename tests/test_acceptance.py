"""Acceptance suite: every reproduction criterion at its stated tolerance.

Each test prints one PASS/FAIL line. Two criteria carry an erratum against
the printed study, each backed by the study's own printed data and asserted
alongside it:

* criterion 08: the printed (-,-) cross-play cost 2488.2 at (-100, -20)
  contradicts the printed G_bar and J+-*; 2431.1 is the value consistent
  with them, and the one the model's integrals give;
* criterion 09: the printed terminals 4.895 and -45.105 both encode
  a*z0 = 54.895, so the 1% band applies to that displacement, not to the
  cancelled difference 54.895 - 50.
"""

import dataclasses

import numpy as np
import pytest

from zemgame import (
    AffineInTime,
    Constant,
    RegionLabel,
    check_case_iii_infeasible,
    classify,
    coefficients,
    cross_play,
    evaluate_cost,
    first_order_coefficients,
    penalty_sweep,
    playout_reduced,
    quad_adaptive,
    saddle_probe,
    sample_control,
    solve_erg_branch,
    solve_rg,
    solve_urg,
)

from helpers import ORACLE, STUDY_POSITION_MINUS, STUDY_POSITION_PLUS, random_scenario

# Coefficient matrices as printed by the study, to two decimals.
PRINTED_G = np.array([[3.72, 2.04], [-2.04, 5.91]])
PRINTED_G_BAR = np.array([[0.23, -0.08], [-0.08, -0.14]])


def _report(criterion: str, ok: bool, detail: str):
    print("%s criterion %s: %s" % ("PASS" if ok else "FAIL", criterion, detail))
    return ok


def _at(scenario, z0, w0):
    return dataclasses.replace(scenario, z0=z0, w0=w0, geometry=None)


def test_criterion_01_solvability_threshold(study_coeffs):
    value = study_coeffs.beta_star
    ok = _report("1", abs(value - 0.2438) <= 1e-4,
                 "solvability threshold %.6f vs 0.2438 +-1e-4" % value)
    assert ok


def test_criterion_02_constraint_bound(study_coeffs):
    mu = study_coeffs.mu_e
    bound = study_coeffs.bound
    ok = abs(mu - 0.325) <= 5e-4 and abs(bound - 32.5) <= 0.05
    assert _report("2", ok, "mu_e %.6f vs 0.325 +-5e-4, bound %.4f vs 32.5 +-0.05"
                   % (mu, bound))


def test_criterion_03_coefficient_matrices(study_coeffs):
    g_ok = np.abs(study_coeffs.G - PRINTED_G).max() <= 0.01
    gbar_ok = np.abs(study_coeffs.G_bar - PRINTED_G_BAR).max() <= 0.005
    assert _report("3", g_ok and gbar_ok,
                   "G within +-0.01: %s, G_bar within +-0.005: %s" % (g_ok, gbar_ok))


def test_criterion_04_branch_vectors(study_coeffs):
    plus = solve_erg_branch(study_coeffs, 100.0, -100.0, 1)
    minus = solve_erg_branch(study_coeffs, 100.0, -100.0, -1)
    ok = (np.abs(plus.omega_f - np.array([32.92, -11.05])).max() <= 0.05
          and np.abs(minus.omega_f - np.array([27.85, -1.80])).max() <= 0.05)
    assert _report("4", ok, "omega_f+ %s, omega_f- %s"
                   % (np.round(plus.omega_f, 4), np.round(minus.omega_f, 4)))


def test_criterion_05_game_values(study_coeffs):
    plus = solve_erg_branch(study_coeffs, 100.0, -100.0, 1)
    minus = solve_erg_branch(study_coeffs, 100.0, -100.0, -1)
    ok = (abs(plus.value - 1821.6) <= 0.01 * 1821.6
          and abs(minus.value - 2659.1) <= 0.01 * 2659.1)
    assert _report("5", ok, "J+* %.1f vs 1821.6 +-1%%, J-* %.1f vs 2659.1 +-1%%"
                   % (plus.value, minus.value))


def test_criterion_06_playout_terminals(study_scenario, study_kernels, study_coeffs):
    plus = solve_erg_branch(study_coeffs, 100.0, -100.0, 1)
    minus = solve_erg_branch(study_coeffs, 100.0, -100.0, -1)
    pp = playout_reduced(study_scenario, study_kernels, plus.u_p, plus.u_e)
    pm = playout_reduced(study_scenario, study_kernels, minus.u_p, minus.u_e)
    ok = (abs(pp.w_f - 32.5) <= 0.01 and abs(pp.z_f - 32.92) <= 0.05
          and abs(pm.w_f + 32.5) <= 0.01 and abs(pm.z_f - 27.85) <= 0.05)
    assert _report("6", ok, "plus (z_f, w_f)=(%.4f, %.4f), minus (%.4f, %.4f)"
                   % (pp.z_f, pp.w_f, pm.z_f, pm.w_f))


def test_criterion_07_cross_checks(study_scenario, study_kernels, study_coeffs):
    plus = solve_erg_branch(study_coeffs, 100.0, -100.0, 1)
    int_ge = quad_adaptive(study_kernels.g_e, 0.0, study_scenario.t_f)
    ue_bar = (study_coeffs.bound - study_scenario.w0) / int_ge
    j_const = evaluate_cost(study_scenario, study_kernels, plus.u_p, Constant(ue_bar)).total
    ramp = AffineInTime(slope=-400.0, intercept=400.0 * study_scenario.t_f)
    j_ramp = evaluate_cost(study_scenario, study_kernels, ramp, plus.u_e).total
    ok = (abs(ue_bar - 101.92) <= 0.05
          and abs(j_const - 1358.4) <= 0.01 * 1358.4
          and abs(j_ramp - 2369.3) <= 0.01 * 2369.3)
    assert _report("7", ok, "ue_bar %.4f, J(u_p+, ue_bar) %.1f, J(ramp, u_e+) %.1f"
                   % (ue_bar, j_const, j_ramp))


# Erratum for the (-,-) cross-play cost at (-100, -20): the study prints
# 2488.2. That entry is the minus-branch value (chi0 + gamma)' G_bar
# (chi0 + gamma) with gamma = (0, bound), so together with the printed
# J+-* at (100, -100) it fixes G_bar; 2488.2 implies a G_bar off the printed
# one by more than its rounding, 2431.1 implies one that rounds to it.
T1_MINUS_MINUS_PRINTED = 2488.2
T1_MINUS_MINUS = 2431.1


def _gbar_from_printed(minus_minus: float) -> np.ndarray:
    """Symmetric G_bar solved from three printed branch values: J+* = 1821.6
    and J-* = 2659.1 at (100, -100), and the given (-,-) entry at (-100, -20),
    each with the printed bound 32.5."""
    rows, rhs = [], []
    for (z0, w0), sign, value in (((100.0, -100.0), 1, 1821.6),
                                  ((100.0, -100.0), -1, 2659.1),
                                  (STUDY_POSITION_MINUS, -1, minus_minus)):
        x, y = z0, w0 - sign * 32.5
        rows.append((x * x, 2.0 * x * y, y * y))
        rhs.append(value)
    g11, g12, g22 = np.linalg.solve(np.array(rows), np.array(rhs))
    return np.array([[g11, g12], [g12, g22]])


def test_criterion_08_cross_play_table(study_scenario, study_kernels, study_coeffs):
    tables = {}
    for tag, (z0, w0) in (("plus", STUDY_POSITION_PLUS), ("minus", STUDY_POSITION_MINUS)):
        sc = _at(study_scenario, z0, w0)
        bp = solve_erg_branch(study_coeffs, z0, w0, 1)
        bm = solve_erg_branch(study_coeffs, z0, w0, -1)
        tables[tag] = {
            ("+", "+"): cross_play(sc, bp.u_p, bp.u_e, study_kernels).total,
            ("-", "-"): cross_play(sc, bm.u_p, bm.u_e, study_kernels).total,
            ("+", "-"): cross_play(sc, bp.u_p, bm.u_e, study_kernels).total,
            ("-", "+"): cross_play(sc, bm.u_p, bp.u_e, study_kernels).total,
        }
    tp, tm = tables["plus"], tables["minus"]
    ordering_ok = (tp[("+", "-")] < tp[("+", "+")] < tp[("-", "+")]
                   and tm[("-", "+")] < tm[("-", "-")] < tm[("+", "-")])
    targets = [
        ("plus (+,+)", tp[("+", "+")], 1939.2), ("plus (+,-)", tp[("+", "-")], 418.8),
        ("plus (-,+)", tp[("-", "+")], 2347.7), ("minus (-,-)", tm[("-", "-")], T1_MINUS_MINUS),
        ("minus (-,+)", tm[("-", "+")], 1463.1), ("minus (+,-)", tm[("+", "-")], 2836.7),
    ]
    misses = ["%s=%.1f vs %.1f" % (name, got, want)
              for name, got, want in targets if abs(got - want) > 0.01 * abs(want)]
    ok = ordering_ok and not misses
    _report("8", ok, "orderings %s, off-target: %s (minus (-,-) against %.1f, "
            "erratum for the printed %.1f)"
            % ("hold" if ordering_ok else "broken", misses or "none",
               T1_MINUS_MINUS, T1_MINUS_MINUS_PRINTED))
    assert ordering_ok
    assert not misses, (
        "cross-play values outside the 1%% band: %s (minus (-,-) is checked "
        "against %.1f, the erratum for the printed %.1f)"
        % ("; ".join(misses), T1_MINUS_MINUS, T1_MINUS_MINUS_PRINTED))

    branch_value = solve_erg_branch(study_coeffs, *STUDY_POSITION_MINUS, -1).value
    assert tm[("-", "-")] == pytest.approx(branch_value, rel=1e-7)
    assert tm[("-", "-")] == pytest.approx(ORACLE.table_minus[("-", "-")], rel=1e-7)

    misprint_gap = np.abs(_gbar_from_printed(T1_MINUS_MINUS_PRINTED) - PRINTED_G_BAR).max()
    erratum_gap = np.abs(_gbar_from_printed(T1_MINUS_MINUS) - PRINTED_G_BAR).max()
    assert misprint_gap > 0.005, "printed %.1f should contradict the printed G_bar" \
        % T1_MINUS_MINUS_PRINTED
    assert erratum_gap <= 0.005, "corrected %.1f should agree with the printed G_bar" \
        % T1_MINUS_MINUS


def test_criterion_09_urg_playout(study_scenario, study_kernels, study_coeffs):
    # The printed rows w_f = 4.895 from (100, -50) and w_f = -45.105 from
    # (100, -100) both encode one number, a*z0 = 54.895. The 1% band goes on
    # that displacement: on w_f = 54.895 - 50 it would be 11 times tighter.
    c = study_coeffs
    z0, a_z0 = 100.0, 54.895
    urg = solve_urg(c, z0)
    results = {}
    for w0 in (-50.0, -100.0):
        play = playout_reduced(_at(study_scenario, z0, w0), study_kernels, urg.u_p, urg.u_e)
        results[w0] = play.w_f
        assert abs(play.w_f - (w0 + c.a * z0)) <= 1e-9 * c.bound
    shifts = {w0: w_f - w0 for w0, w_f in results.items()}
    ok_a = all(abs(shift - a_z0) <= 0.01 * a_z0 for shift in shifts.values())
    ok_b = abs(results[-100.0] + 45.105) <= 0.01 * 45.105
    _report("9", ok_a and ok_b, "w_f - w0 = %.4f / %.4f vs a*z0 = 54.895 +-1%%, "
            "w_f(100,-100)=%.4f vs -45.105 +-1%%"
            % (shifts[-50.0], shifts[-100.0], results[-100.0]))
    assert ok_b
    assert ok_a, (
        "terminal displacement w_f - w0 is %s; the study's a*z0 is 54.895 +-1%%"
        % ", ".join("%.4f" % v for v in shifts.values()))
    assert results[-50.0] == pytest.approx(ORACLE.urg_w_f_a, rel=1e-8)

    # The study's own printed G gives a = 2.04/3.72, which misses the printed
    # 4.895 by more than 1%: the band cannot sit on the cancelled difference.
    printed_a = PRINTED_G[0, 1] / PRINTED_G[0, 0]
    assert abs(-50.0 + printed_a * z0 - 4.895) > 0.01 * 4.895


def test_criterion_10_penalty_convergence(study_coeffs):
    details = []
    ok = True
    for sign in (1, -1):
        branch = solve_erg_branch(study_coeffs, 100.0, -100.0, sign)
        records = penalty_sweep(study_coeffs, 100.0, -100.0, sign)
        gaps = np.array([np.linalg.norm(r.omega_eps - branch.omega_f) for r in records])
        monotone = bool((np.diff(gaps) < 0).all())
        slope = float(np.polyfit(np.log([r.eps for r in records]), np.log(gaps), 1)[0])
        value_gap = abs(records[-1].value / branch.value - 1.0)
        ok = ok and monotone and abs(slope - 1.0) <= 0.1 and value_gap <= 1e-3
        details.append("sign %+d: slope %.3f, value gap %.2e" % (sign, slope, value_gap))
    assert _report("10", ok, "; ".join(details))


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
        assert abs((c.G1 - c.nu_p) - (1.0 - c.nu_e)) <= 1e-10 * max(1.0, abs(1.0 - c.nu_e))
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
    positions = {"Omega": (100.0, -50.0), "OmegaPlus": STUDY_POSITION_PLUS,
                 "OmegaMinus": STUDY_POSITION_MINUS}
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
    closed = first_order_coefficients(0.2, 0.1, 1.0, 0.9, 0.05, 0.3, 100.0)
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
