import dataclasses

import numpy as np
import pytest

import zemgame as z
from zemgame import (
    KernelCombo,
    Region,
    RegionLabel,
    aux_cross,
    classify,
    coefficients,
    evaluate_cost,
    penalty_sweep,
    sample_control,
    solve2,
    solve_erg,
    solve_erg_branch,
    solve_rg,
    solve_urg,
)
from zemgame import reference, solver
from zemgame.cli import load_scenario
from zemgame.errors import NearSingularError, NonFiniteResult, NotInConstrainedRegion
from zemgame.solver import DEFAULT_EPS_SWEEP

from helpers import (MIXED_ORDERS, ORACLE, case_iii_positions, check_case_iii_infeasible,
                     oscillator, penalty_sweep_reference, random_controller, random_draws,
                     random_scenario, solve2_entries_reference)


class TestClassify:
    def test_origin_in_strip(self, study_coeffs):
        region = classify(study_coeffs, 0.0, 0.0)
        assert region.label is RegionLabel.OMEGA
        assert region.margin == pytest.approx(-study_coeffs.bound)

    def test_study_positions(self, study_coeffs):
        assert classify(study_coeffs, 100.0, 50.0).label is RegionLabel.OMEGA_PLUS
        assert classify(study_coeffs, -100.0, -20.0).label is RegionLabel.OMEGA_MINUS

    def test_boundary_goes_to_closed_half_plane(self, study_coeffs):
        c = study_coeffs
        w0 = c.bound - c.a * 40.0
        region = classify(c, 40.0, w0)
        assert region.label is RegionLabel.OMEGA_PLUS
        assert region.margin == pytest.approx(0.0, abs=1e-12)

    def test_partition_is_exhaustive_and_exclusive(self, study_coeffs):
        rng = np.random.default_rng(31)
        c = study_coeffs
        for _ in range(500):
            z0, w0 = rng.uniform(-400.0, 400.0, 2)
            m = w0 + c.a * z0
            labels = [m >= c.bound, m <= -c.bound, abs(m) < c.bound]
            assert sum(labels) == 1
            got = classify(c, z0, w0).label
            expected = (RegionLabel.OMEGA_PLUS, RegionLabel.OMEGA_MINUS,
                        RegionLabel.OMEGA)[labels.index(True)]
            assert got is expected


class TestSolveUrg:
    def test_zero_start(self, study_coeffs):
        u_p, u_e, value, _ = solve_urg(study_coeffs, 0.0)
        assert u_p == KernelCombo()
        assert u_e == KernelCombo()
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_terminal_miss(self, study_coeffs):
        _, _, _, z_f = solve_urg(study_coeffs, 100.0)
        assert z_f == pytest.approx(ORACLE.urg_z_f, rel=1e-10)
        assert z_f == pytest.approx(100.0 / study_coeffs.s, rel=1e-14)

    def test_value_equals_closed_form(self, study_coeffs):
        _, _, value, _ = solve_urg(study_coeffs, 100.0)
        assert value == pytest.approx(ORACLE.urg_value, rel=1e-12)
        assert value == pytest.approx(100.0 ** 2 / study_coeffs.s, rel=1e-12)

    def test_control_coefficients(self, study_coeffs):
        u_p, u_e, _, _ = solve_urg(study_coeffs, 100.0)
        c = study_coeffs
        assert u_p.hp_coef == pytest.approx(-100.0 / (c.alpha * c.s), rel=1e-14)
        assert u_e.he_coef == pytest.approx(100.0 / (c.beta * c.s), rel=1e-14)
        assert u_e.ge_coef == 0.0


def _solvable(scenario, factor=2.0):
    """The scenario with beta at `factor` times its solvability threshold."""
    beta_star = coefficients(dataclasses.replace(scenario, beta=1e12)).beta_star
    return dataclasses.replace(scenario, beta=factor * beta_star)


def _first_order(tau_p, tau_e, t_f=1.0, alpha=0.05):
    return z.first_order_scenario(tau_p, tau_e, t_f, 0.9, alpha, 1.0, 100.0)


def _random_order_10():
    rng = np.random.default_rng(10)
    return dataclasses.replace(_first_order(0.2, 0.1), pursuer=random_controller(rng, 10),
                               evader=random_controller(rng, 10))


STRIP_CASES = {
    "study": lambda: z.first_order_scenario(**reference.STUDY),
    "mixed_orders": lambda: load_scenario(str(MIXED_ORDERS))[0],
    "stiff_pursuer": lambda: _solvable(_first_order(1e-5, 0.1)),
    "stiff_evader": lambda: _solvable(_first_order(0.2, 1e-5)),
    "t_f_50": lambda: _solvable(_first_order(0.2, 0.1, t_f=50.0)),
    "order_10": lambda: _solvable(_random_order_10()),
    "oscillator_160": lambda: _solvable(dataclasses.replace(
        _first_order(0.2, 0.1), evader=oscillator(160.0, 0.05))),
}


class TestStripValue:
    """The strip value comes from the exact integrals alone; the Simpson
    cost of the same pair on the kernels' build grid checks it."""

    @pytest.mark.parametrize("name", sorted(STRIP_CASES))
    def test_matches_sampled_cost(self, name):
        scenario = STRIP_CASES[name]()
        c = coefficients(scenario)
        kernels = z.Kernels(scenario)
        for z0, m in ((100.0, 0.0), (-37.0, 0.3), (1e-3, -0.9)):
            sc = dataclasses.replace(scenario, z0=z0, w0=m * c.bound - c.a * z0, geometry=None)
            sol = solve_rg(sc, coeffs=c)
            assert sol.region.label is RegionLabel.OMEGA
            cost = evaluate_cost(sc, kernels, sol.u_p, sol.u_e).total
            assert cost == pytest.approx(sol.value, rel=1e-10)

    @pytest.mark.parametrize("alpha", [1e3, 1e4])
    def test_near_solvability_threshold(self, alpha):
        """beta = beta* (1 + 1e-6) and a heavy pursuer weight make s small,
        so the three cost terms cancel to 1e-5 of their size: rounding
        alone then exceeds 1e-12 of z0^2/s, and the self-check must not
        fire on it."""
        c = coefficients(_solvable(_first_order(0.2, 0.1, alpha=alpha), 1.0 + 1e-6))
        assert c.s < 2e-4
        for z0 in np.linspace(-100.0, 100.0, 41):
            _, _, value, _ = solve_urg(c, z0)
            assert value == pytest.approx(z0 * z0 / c.s, rel=1e-9)


class TestSolveUpg:
    """The penalized game at one eps: the one-record `penalty_sweep`."""

    def test_eps_to_zero_limit(self, study_coeffs):
        branch = solve_erg_branch(study_coeffs, 100.0, -100.0, 1)
        (sol,) = penalty_sweep(study_coeffs, 100.0, -100.0, 1, [1e-12])
        np.testing.assert_allclose(sol.omega_eps, [branch.z_f, branch.v_f], rtol=1e-10)

    def test_eps_one_matches_direct_solve(self, study_coeffs):
        (sol,) = penalty_sweep(study_coeffs, 100.0, -100.0, 1, [1.0])
        direct = solve2(study_coeffs.G + np.diag([0.0, 1.0]),
                        np.array([100.0, -100.0 - study_coeffs.bound]))
        np.testing.assert_allclose(sol.omega_eps, direct, rtol=1e-13)
        np.testing.assert_allclose(sol.omega_eps, ORACLE.upg_eps1_omega, atol=1e-6)
        assert sol.value == pytest.approx(ORACLE.upg_eps1_value, rel=1e-8)

    def test_large_eps_recovers_unconstrained_play(self, study_coeffs):
        (sol,) = penalty_sweep(study_coeffs, 100.0, -100.0, 1, [1e9])
        assert sol.omega_eps[0] == pytest.approx(100.0 / study_coeffs.s, rel=1e-6)
        assert sol.omega_eps[1] == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("eps", [1.0, 1e-3])
    def test_is_the_sweep_record(self, study_coeffs, sign, eps):
        (rec,) = penalty_sweep(study_coeffs, 100.0, -100.0, sign, [eps])
        swept = penalty_sweep(study_coeffs, 100.0, -100.0, sign, [10.0, eps, 1e-9])[1]
        assert np.array_equal(rec.omega_eps, swept.omega_eps)
        for name in ("eps", "u_p", "u_e", "value", "z_f", "w_f"):
            assert getattr(rec, name) == getattr(swept, name), name
        assert rec.z_f == rec.omega_eps[0]
        assert rec.w_f == sign * study_coeffs.bound + eps * rec.omega_eps[1]

    def test_eps_must_be_positive(self, study_coeffs):
        with pytest.raises(ValueError):
            penalty_sweep(study_coeffs, 1.0, 1.0, 1, [0.0])

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_eps_must_be_finite(self, study_coeffs, eps):
        with pytest.raises(ValueError, match="finite"):
            penalty_sweep(study_coeffs, 1.0, 1.0, 1, [eps])


class TestSolveErgBranch:
    def test_study_plus(self, study_coeffs):
        """Forced against the dispatch: the study position lies in
        OmegaMinus, so the plus branch's margin is negative."""
        c = study_coeffs
        branch = solve_erg_branch(c, 100.0, -100.0, 1)
        np.testing.assert_allclose([branch.z_f, branch.v_f], ORACLE.omega_plus, atol=1e-6)
        assert branch.value == pytest.approx(ORACLE.value_plus, rel=1e-8)
        assert branch.w_f == c.bound
        assert branch.region == Region(RegionLabel.OMEGA_PLUS, -100.0 + c.a * 100.0 - c.bound)
        assert branch.region.margin < 0.0

    def test_study_minus(self, study_coeffs):
        branch = solve_erg_branch(study_coeffs, 100.0, -100.0, -1)
        np.testing.assert_allclose([branch.z_f, branch.v_f], ORACLE.omega_minus, atol=1e-6)
        assert branch.value == pytest.approx(ORACLE.value_minus, rel=1e-8)
        assert branch.w_f == -study_coeffs.bound
        assert branch.region == classify(study_coeffs, 100.0, -100.0)

    def test_boundary_position_degenerates_to_unconstrained(self, study_coeffs):
        c = study_coeffs
        z0 = 80.0
        w0 = c.bound - c.a * z0
        branch = solve_erg_branch(c, z0, w0, 1)
        assert branch.v_f == pytest.approx(0.0, abs=1e-12)
        assert branch.z_f == pytest.approx(z0 / c.s, rel=1e-12)
        u_p, u_e, _, _ = solve_urg(c, z0)
        assert branch.u_p.hp_coef == pytest.approx(u_p.hp_coef, rel=1e-12)
        assert branch.u_e.he_coef == pytest.approx(u_e.he_coef, rel=1e-12)
        assert branch.u_e.ge_coef == pytest.approx(0.0, abs=1e-14)

    def test_control_coefficients(self, study_coeffs):
        branch = solve_erg_branch(study_coeffs, 100.0, -100.0, 1)
        z_f, v_f = branch.z_f, branch.v_f
        assert branch.u_p.hp_coef == pytest.approx(-z_f / study_coeffs.alpha, rel=1e-14)
        assert branch.u_e.he_coef == pytest.approx(z_f / study_coeffs.beta, rel=1e-14)
        assert branch.u_e.ge_coef == pytest.approx(-v_f / study_coeffs.beta, rel=1e-14)


def _erg(coeffs, z0, w0):
    return solve_erg(coeffs, z0, w0, classify(coeffs, z0, w0))


class TestSolveErg:
    def test_sign_selection(self, study_coeffs):
        assert _erg(study_coeffs, 100.0, 50.0).region.label is RegionLabel.OMEGA_PLUS
        assert _erg(study_coeffs, -100.0, -20.0).region.label is RegionLabel.OMEGA_MINUS
        assert _erg(study_coeffs, 100.0, 50.0) == solve_erg_branch(study_coeffs, 100.0, 50.0, 1)

    def test_interior_rejected(self, study_coeffs):
        with pytest.raises(NotInConstrainedRegion):
            _erg(study_coeffs, 0.0, 0.0)

    def test_antisymmetry(self, study_coeffs):
        sol = _erg(study_coeffs, 100.0, 50.0)
        mirrored = _erg(study_coeffs, -100.0, -50.0)
        assert mirrored.w_f == -sol.w_f
        np.testing.assert_allclose([mirrored.z_f, mirrored.v_f], [-sol.z_f, -sol.v_f],
                                   rtol=1e-12)
        assert mirrored.u_p.hp_coef == pytest.approx(-sol.u_p.hp_coef, rel=1e-12)
        assert mirrored.u_e.he_coef == pytest.approx(-sol.u_e.he_coef, rel=1e-12)
        assert mirrored.u_e.ge_coef == pytest.approx(-sol.u_e.ge_coef, rel=1e-12)
        assert mirrored.value == pytest.approx(sol.value, rel=1e-12)


EPS = np.finfo(float).eps


def _rho(c):
    """The position-free part of the cross-play value."""
    return (c.bound ** 2 * (3.0 * c.nu_p * c.G2 ** 2 - (c.G1 - c.nu_p) * c.det_G)
            / (c.det_G * c.det_F))


def _xi(c, z0, w0, sign):
    """xi = (-nu_p z_fix, sign*bound): the pursuer's fixed branch as a
    shift of the evader's initial position."""
    z_fix = np.linalg.solve(c.G, np.array([z0, w0 - sign * c.bound]))[0]
    return np.array([-c.nu_p * z_fix, sign * c.bound])


class TestFloatForms:
    """The branch solve and the fixed-pursuer cross check run their 2x2
    algebra on Python floats. Against the numpy matrix forms they replace,
    on random positions of random coefficient sets: the terminal pairs
    are bitwise equal (the same explicit inverse) and the values agree
    within 4 eps of the summed magnitudes of their terms."""

    @staticmethod
    def coefficient_sets():
        return [coefficients(sc, k) for sc, k in random_draws()]

    def test_branch_against_matrix_form(self, study_coeffs):
        rng = np.random.default_rng(1801)
        for c in [study_coeffs] + self.coefficient_sets():
            for z0, w0 in rng.uniform(-300.0, 300.0, (25, 2)) * 10.0 ** rng.uniform(-3, 3, (25, 1)):
                for sign in (1, -1):
                    branch = solve_erg_branch(c, z0, w0, sign)
                    gamma = np.array([0.0, -sign * c.bound])
                    omega = solve2(c.G, np.array([z0, w0]) + gamma)
                    np.testing.assert_array_equal([branch.z_f, branch.v_f], omega)
                    assert branch.w_f == -gamma[1]
                    # the margin is classify's on the branch's half-plane, and
                    # negative exactly where the dispatch picks another region
                    region = classify(c, z0, w0)
                    if region.label is branch.region.label:
                        assert branch.region == region
                    assert (sign * branch.region.margin < 0.0) == (region != branch.region)
                    want = float(omega @ c.G_tilde @ omega)
                    scale = float(np.abs(omega) @ np.abs(c.G_tilde) @ np.abs(omega))
                    assert abs(branch.value - want) <= 4.0 * EPS * scale

    def test_aux_cross_against_matrix_form(self, study_coeffs):
        rng = np.random.default_rng(1802)
        for c in [study_coeffs] + self.coefficient_sets():
            for z0, w0 in rng.uniform(-300.0, 300.0, (25, 2)) * 10.0 ** rng.uniform(-3, 3, (25, 1)):
                for sign in (1, -1):
                    u_e_star, J_cross = aux_cross(c, z0, w0, sign)
                    chi0 = np.array([z0, w0])
                    other = np.array([0.0, sign * c.bound])
                    omega_fix = solve2(c.G, chi0 - other)
                    mu = chi0 + other - np.array([c.nu_p * omega_fix[0], 0.0])
                    omega1 = solve2(c.F, mu)
                    assert (u_e_star.he_coef, u_e_star.ge_coef) == (omega1[0] / c.beta,
                                                                    -omega1[1] / c.beta)
                    rho = _rho(c)
                    Gb = c.G_bar
                    want = float(chi0 @ Gb @ chi0 + 2.0 * chi0 @ Gb @ other + rho)
                    scale = float(np.abs(chi0) @ np.abs(Gb) @ (np.abs(chi0) + 2.0 * np.abs(other))
                                  + abs(rho))
                    assert abs(J_cross - want) <= 4.0 * EPS * scale


class TestNonFinite:
    """Finite input whose results leave the float range is refused with
    NonFiniteResult, a scenario error, by every solve that reaches it."""

    def test_branch_and_cross(self, study_coeffs):
        for sign in (1, -1):
            with pytest.raises(NonFiniteResult, match="branch value"):
                solve_erg_branch(study_coeffs, 1e200, -100.0, sign)
            with pytest.raises(NonFiniteResult, match="float range"):
                aux_cross(study_coeffs, 1e160, -100.0, sign)
            with pytest.raises(NonFiniteResult, match="penalized value at eps = 1 "):
                penalty_sweep(study_coeffs, 1e200, -100.0, sign)

    def test_unconstrained(self, study_coeffs):
        """Past the range either way up (z0 = +-1e160 and 1e200), where
        a float square raises OverflowError; z0 = 1e150 still solves."""
        for z0 in (1e200, 1e160, -1e160):
            with pytest.raises(NonFiniteResult, match="unconstrained value"):
                solve_urg(study_coeffs, z0)
        assert np.isfinite(solve_urg(study_coeffs, 1e150)[2])

    def test_is_a_value_error(self):
        assert issubclass(NonFiniteResult, ValueError)


class TestAuxCross:
    def test_study_values(self, study_coeffs):
        """omega1 = beta (he_coef, -ge_coef) of the reply, and rho is what
        the value holds beyond its quadratic form in the position."""
        c = study_coeffs
        chi0 = np.array([100.0, -100.0])
        for sign, omega1, J in ((1, ORACLE.aux_plus_omega1, ORACLE.aux_plus_J),
                                (-1, ORACLE.aux_minus_omega1, ORACLE.aux_minus_J)):
            u_e_star, J_cross = aux_cross(c, *chi0, sign)
            np.testing.assert_allclose([c.beta * u_e_star.he_coef, -c.beta * u_e_star.ge_coef],
                                       omega1, atol=1e-6)
            assert J_cross == pytest.approx(J, rel=1e-8)
            other = np.array([0.0, sign * c.bound])
            rho = J_cross - (chi0 @ c.G_bar @ chi0 + 2.0 * chi0 @ c.G_bar @ other)
            assert rho == pytest.approx(ORACLE.rho, rel=1e-8)
        assert _rho(c) == pytest.approx(ORACLE.rho, rel=1e-8)

    def test_quadratic_form_matches_composed_cost(self, study_coeffs):
        # same value through the solved-system route:
        # J = chi0' F_bar chi0 + 2 chi0' F_bar xi + xi' F_bar xi + alpha int u_p^2
        c = study_coeffs
        chi0 = np.array([100.0, -100.0])
        for sign in (1, -1):
            _, J_cross = aux_cross(c, *chi0, sign)
            gamma_fix = np.array([0.0, -sign * c.bound])
            xi = _xi(c, *chi0, sign)
            Fb = c.F_bar
            je = chi0 @ Fb @ chi0 + 2.0 * chi0 @ Fb @ xi + xi @ Fb @ xi
            ginv_b = np.linalg.solve(c.G, chi0 + gamma_fix)
            effort = ginv_b @ np.diag([c.nu_p, 0.0]) @ ginv_b
            assert J_cross == pytest.approx(je + effort, rel=1e-10)

    def test_quadratic_form_matches_simulation(self, study_scenario, study_kernels, study_coeffs):
        for sign in (1, -1):
            branch = solve_erg_branch(study_coeffs, 100.0, -100.0, sign)
            u_e_star, J_cross = aux_cross(study_coeffs, 100.0, -100.0, sign)
            cost = evaluate_cost(study_scenario, study_kernels, branch.u_p, u_e_star)
            assert J_cross == pytest.approx(cost.total, rel=1e-6)
            # the reply reaches the opposite terminal sign
            play = z.playout_reduced(study_scenario, study_kernels, branch.u_p, u_e_star)
            assert play.w_f == pytest.approx(-sign * study_coeffs.bound, rel=1e-6)

    def test_inequality_matches_half_plane_test(self, study_coeffs):
        c = study_coeffs
        rng = np.random.default_rng(41)
        for _ in range(200):
            z0, w0 = rng.uniform(-300.0, 300.0, 2)
            for sign in (1, -1):
                branch = solve_erg_branch(c, z0, w0, sign)
                _, J_cross = aux_cross(c, z0, w0, sign)
                inequality = J_cross <= branch.value + 1e-9 * max(1.0, abs(branch.value))
                margin = sign * ((w0 + c.a * z0) - sign * c.d * c.bound) >= -1e-9
                assert inequality == margin

    def test_equivalences_on_random_models(self):
        # the value gap between a branch and its fixed-pursuer reply is a
        # positive multiple of the half-plane margin; check both quadratic
        # routes and the sign equivalence away from the first-order case
        rng = np.random.default_rng(43)
        for _ in range(3):
            sc, k = random_scenario(rng)
            c = coefficients(sc, k)
            for _ in range(20):
                z0, w0 = rng.uniform(-200.0, 200.0, 2)
                for sign in (1, -1):
                    branch = solve_erg_branch(c, z0, w0, sign)
                    _, J_cross = aux_cross(c, z0, w0, sign)
                    gamma_fix = np.array([0.0, -sign * c.bound])
                    xi = _xi(c, z0, w0, sign)
                    je = (np.array([z0, w0]) @ c.F_bar @ np.array([z0, w0])
                          + 2.0 * np.array([z0, w0]) @ c.F_bar @ xi + xi @ c.F_bar @ xi)
                    ginv_b = np.linalg.solve(c.G, np.array([z0, w0]) + gamma_fix)
                    effort = ginv_b @ np.diag([c.nu_p, 0.0]) @ ginv_b
                    assert J_cross == pytest.approx(je + effort, rel=1e-9, abs=1e-9)
                    inequality = J_cross <= branch.value + 1e-9 * max(1.0, abs(branch.value))
                    margin = sign * ((w0 + c.a * z0) - sign * c.d * c.bound) >= -1e-9 * max(1.0, c.bound)
                    assert inequality == margin


class TestSolveRg:
    def test_interior_dispatch(self, study_scenario, study_kernels, study_coeffs):
        sc = dataclasses.replace(study_scenario, z0=100.0, w0=-50.0, geometry=None)
        sol = solve_rg(sc, coeffs=study_coeffs)
        assert sol.region.label is RegionLabel.OMEGA
        assert sol.v_f == 0.0
        assert sol.w_f == pytest.approx(ORACLE.urg_w_f_a, abs=1e-5)
        assert sol.z_f == pytest.approx(100.0 / study_coeffs.s, rel=1e-12)

    def test_constrained_dispatch(self, study_scenario, study_kernels, study_coeffs):
        plus = dataclasses.replace(study_scenario, z0=100.0, w0=50.0, geometry=None)
        sol = solve_rg(plus, coeffs=study_coeffs)
        assert sol.region.label is RegionLabel.OMEGA_PLUS
        assert sol == solve_erg_branch(study_coeffs, 100.0, 50.0, 1)
        assert sol.value == pytest.approx(ORACLE.table_plus[("+", "+")], rel=1e-7)
        assert sol.w_f == pytest.approx(study_coeffs.bound, rel=1e-12)

        minus = dataclasses.replace(study_scenario, z0=-100.0, w0=-20.0, geometry=None)
        sol = solve_rg(minus, coeffs=study_coeffs)
        assert sol.region.label is RegionLabel.OMEGA_MINUS
        assert sol.value == pytest.approx(ORACLE.table_minus[("-", "-")], rel=1e-7)

    @pytest.mark.parametrize("position", [(100.0, -50.0), (100.0, 50.0), (-100.0, -20.0)],
                             ids=["strip", "plus", "minus"])
    def test_classifies_once(self, study_scenario, study_coeffs, monkeypatch, position):
        """A dispatched solve classifies its position once, and the branch
        solve takes that region."""
        calls = []
        monkeypatch.setattr(solver, "classify", lambda *args: calls.append(args) or classify(*args))
        sc = dataclasses.replace(study_scenario, z0=position[0], w0=position[1], geometry=None)
        sol = solve_rg(sc, coeffs=study_coeffs)
        assert calls == [(study_coeffs, *position)]
        assert sol.region == classify(study_coeffs, *position)

    def test_terminals_consistent_with_playout(self, study_scenario, study_kernels, study_coeffs):
        for z0, w0 in ((100.0, -50.0), (100.0, 50.0), (-100.0, -20.0)):
            sc = dataclasses.replace(study_scenario, z0=z0, w0=w0, geometry=None)
            sol = solve_rg(sc, coeffs=study_coeffs)
            play = z.playout_reduced(sc, study_kernels, sol.u_p, sol.u_e)
            assert play.z_f == pytest.approx(sol.z_f, rel=1e-8, abs=1e-8)
            assert play.w_f == pytest.approx(sol.w_f, rel=1e-8, abs=1e-8)

    def test_homogeneity(self, study_scenario, study_kernels):
        base = coefficients(study_scenario, study_kernels)
        sol0 = solve_rg(study_scenario, coeffs=base)
        for k in (0.5, 3.0):
            scaled = dataclasses.replace(study_scenario, z0=k * 100.0, w0=k * -100.0,
                                         ae_max=k * 100.0, geometry=None)
            ck = coefficients(scaled, study_kernels)
            sol = solve_rg(scaled, coeffs=ck)
            assert sol.value == pytest.approx(k * k * sol0.value, rel=1e-9)
            assert sol.u_p.hp_coef == pytest.approx(k * sol0.u_p.hp_coef, rel=1e-9)
            assert sol.u_e.he_coef == pytest.approx(k * sol0.u_e.he_coef, rel=1e-9)
            assert sol.u_e.ge_coef == pytest.approx(k * sol0.u_e.ge_coef, rel=1e-9)

    def test_boundary_continuity(self, study_scenario, study_kernels, study_coeffs):
        c = study_coeffs
        z0 = 75.0
        w_boundary = c.bound - c.a * z0
        ts = np.linspace(0.0, 1.0, 101)
        eps = 1e-9 * c.bound
        laws = []
        for w0 in (w_boundary - eps, w_boundary + eps):
            sc = dataclasses.replace(study_scenario, z0=z0, w0=w0, geometry=None)
            sol = solve_rg(sc, coeffs=c)
            laws.append((sample_control(sol.u_p, study_kernels, ts),
                         sample_control(sol.u_e, study_kernels, ts)))
        (up_in, ue_in), (up_out, ue_out) = laws
        scale = max(1.0, np.abs(up_in).max(), np.abs(ue_in).max())
        assert np.abs(up_in - up_out).max() <= 1e-6 * scale
        assert np.abs(ue_in - ue_out).max() <= 1e-6 * scale


class TestPenaltySweep:
    def test_default_sweep_converges_linearly(self, study_coeffs):
        branch = solve_erg_branch(study_coeffs, 100.0, -100.0, 1)
        records = penalty_sweep(study_coeffs, 100.0, -100.0, 1)
        assert [r.eps for r in records] == [10.0 ** (-k) for k in range(7)]
        gaps = np.array([np.linalg.norm(r.omega_eps - (branch.z_f, branch.v_f)) for r in records])
        assert (np.diff(gaps) < 0).all()
        ratios = gaps[1:] / gaps[:-1]
        np.testing.assert_allclose(ratios[-3:], 0.1, rtol=0.01)
        assert records[-1].value == pytest.approx(branch.value, rel=1e-3)

    def test_w_f_tracks_the_bound(self, study_coeffs):
        records = penalty_sweep(study_coeffs, 100.0, -100.0, -1)
        for r in records:
            assert r.w_f == pytest.approx(-study_coeffs.bound + r.eps * r.omega_eps[1],
                                          rel=1e-12)
        assert records[-1].w_f == pytest.approx(-study_coeffs.bound, abs=1e-4)

    def test_validation(self, study_coeffs):
        with pytest.raises(ValueError):
            penalty_sweep(study_coeffs, 1.0, 1.0, 1, [1.0, 2.0])
        with pytest.raises(ValueError):
            penalty_sweep(study_coeffs, 1.0, 1.0, 1, [1.0, -0.1])

    @staticmethod
    def assert_ulps(got, want, scale=None, ulps=4):
        assert abs(got - want) <= ulps * np.spacing(abs(want if scale is None else scale)), \
            (got, want)

    @staticmethod
    def position_sets(study_coeffs, case):
        """(coefficients, z0, w0) of the study, of the mixed-orders file, or
        of four random documents of orders 0-10."""
        if case == "study":
            return [(study_coeffs, 100.0, -100.0)]
        if case == "mixed":
            scenario, _ = load_scenario(str(MIXED_ORDERS))
            return [(coefficients(scenario), scenario.z0, scenario.w0)]
        rng = np.random.default_rng(1403)
        return [(coefficients(random_scenario(rng, max_order=10)[0]),
                 *rng.uniform(-150.0, 150.0, 2)) for _ in range(4)]

    @pytest.mark.parametrize("case", ["study", "mixed", "random"])
    def test_records_match_per_eps_solves(self, study_coeffs, case):
        """Every record of the sweep against solve2 of its own system and
        the matrix value form omega' diag(1,-1) M omega, on the default eps
        and on 25 from 10 down to 1e-9: omega and w_f to 4 ulp, the value
        to 4 ulp of |omega|' |M| |omega|, the size of its terms (the two
        forms sum them in different orders, and they cancel)."""
        for c, z0, w0 in self.position_sets(study_coeffs, case):
            for sign in (1, -1):
                for eps_list in (None, np.geomspace(10.0, 1e-9, 25)):
                    records = penalty_sweep(c, z0, w0, sign, eps_list)
                    for r in records:
                        M = c.G + np.diag([0.0, r.eps])
                        omega = solve2(M, np.array([z0, w0 - sign * c.bound]))
                        value = float(omega @ (np.diag([1.0, -1.0]) @ M) @ omega)
                        for got, want in zip(r.omega_eps, omega):
                            self.assert_ulps(got, want)
                        self.assert_ulps(r.value, value, np.abs(omega) @ np.abs(M) @ np.abs(omega))
                        self.assert_ulps(r.w_f, sign * c.bound + r.eps * omega[1])
                        assert (r.z_f, r.u_p.hp_coef) == (r.omega_eps[0], -r.z_f / c.alpha)

    @pytest.mark.parametrize("case", ["study", "mixed", "random"])
    def test_bitwise_equal_to_elementwise_reference(self, study_coeffs, case):
        """The 2x2 layer on Python floats equals the elementwise numpy
        arithmetic it replaced (`helpers.penalty_sweep_reference` and
        `solve2_entries_reference`) to the last bit: every sweep record on
        the default eps and on 25 from 10 down to 1e-9, both branch solves
        and both fixed-pursuer cross checks."""
        for c, z0, w0 in self.position_sets(study_coeffs, case):
            for sign in (1, -1):
                for eps_list in (DEFAULT_EPS_SWEEP, np.geomspace(10.0, 1e-9, 25)):
                    records = penalty_sweep(c, z0, w0, sign, eps_list)
                    want = penalty_sweep_reference(c, z0, w0, sign, eps_list)
                    got = [[r.omega_eps[0] for r in records], [r.omega_eps[1] for r in records],
                           [r.value for r in records], [r.w_f for r in records]]
                    assert got == [column.tolist() for column in want]
                    assert [r.z_f for r in records] == got[0]
                z_f, v_f = solve2_entries_reference(c.G1, c.G2, -c.G2, c.G3, np.array([z0]),
                                                    np.array([w0 - sign * c.bound]))
                branch = solve_erg_branch(c, z0, w0, sign)
                assert [branch.z_f, branch.v_f] == [*z_f, *v_f]
                u_e_star, _ = aux_cross(c, z0, w0, sign)
                mu = (z0 - c.nu_p * z_f, w0 + sign * c.bound)
                omega1 = solve2_entries_reference(1.0 - c.nu_e, c.G2, -c.G2, c.G3, *mu)
                assert [u_e_star.he_coef, u_e_star.ge_coef] == [*omega1[0] / c.beta,
                                                                *-omega1[1] / c.beta]

    def test_first_singular_eps_raises(self, study_coeffs):
        """G + diag(0, eps) is singular at eps = 0.01 exactly (determinant
        0) and near-singular just below it (about -1e-14): the error names
        the first."""
        c = dataclasses.replace(study_coeffs, G=np.array([[1.0, 0.0], [0.0, -0.01]]))
        with pytest.raises(NearSingularError, match=r"determinant 0 .* \(system 1\)"):
            penalty_sweep(c, 1.0, 1.0, 1, [1.0, 0.01, 0.01 - 1e-14, 1e-3])
        assert len(penalty_sweep(c, 1.0, 1.0, 1, [1.0, 1e-3])) == 2
        with pytest.raises(NearSingularError, match=r"determinant 0 is below"):
            penalty_sweep(c, 1.0, 1.0, 1, [0.01])

    @pytest.mark.parametrize("eps_list", [[float("nan")] * 3, [float("inf"), 1.0, 1e-6],
                                          [1.0, 1e-3, float("nan")]])
    def test_non_finite_eps_rejected(self, study_coeffs, eps_list):
        """NaN passes both the sign and the order test, so finiteness is
        checked on its own."""
        with pytest.raises(ValueError, match="finite"):
            penalty_sweep(study_coeffs, 100.0, -100.0, 1, eps_list)


class TestCaseIii:
    def test_study_point_infeasible(self, study_coeffs):
        diag = check_case_iii_infeasible(study_coeffs, 100.0, -100.0)
        assert not diag.inside_1 and not diag.inside_2
        assert diag.z_bar_f1 == pytest.approx(ORACLE.zbar_f1, abs=1e-5)
        assert diag.w_interior_1 == pytest.approx(ORACLE.w_interior_1, abs=1e-5)
        assert diag.z_bar_f2 == pytest.approx(ORACLE.zbar_f2, abs=1e-5)
        assert diag.w_interior_2 == pytest.approx(ORACLE.w_interior_2, abs=1e-5)

    def test_interior_position_rejected(self, study_coeffs):
        with pytest.raises(NotInConstrainedRegion):
            check_case_iii_infeasible(study_coeffs, 0.0, 0.0)

    def test_bound_equivalence(self, study_coeffs):
        c = study_coeffs
        rng = np.random.default_rng(53)
        for _ in range(300):
            z0, w0 = rng.uniform(-200.0, 200.0, 2)
            diag = case_iii_positions(c, z0, w0)
            m = w0 + c.a * z0
            expected_1 = (-1.0 + 2.0 * c.d) * c.bound < m < c.bound
            expected_2 = -c.bound < m < (1.0 - 2.0 * c.d) * c.bound
            assert diag.inside_1 == expected_1
            assert diag.inside_2 == expected_2

    def test_just_outside_the_boundary(self, study_coeffs):
        c = study_coeffs
        m = c.bound * (1.0 + 1e-6)
        diag = check_case_iii_infeasible(c, 0.0, m)
        assert not diag.inside_1 and not diag.inside_2


class TestRandomizedScenarios:
    def test_branch_solutions_on_random_models(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            sc, k = random_scenario(rng)
            c = coefficients(sc, k)
            for sign in (1, -1):
                branch = solve_erg_branch(c, sc.z0, sc.w0, sign)
                b = np.array([sc.z0, sc.w0 - sign * c.bound])
                resid = c.G @ [branch.z_f, branch.v_f] - b
                assert np.abs(resid).max() <= 1e-9 * max(1.0, np.abs(b).max())

    def test_dispatch_and_playout_on_random_models(self):
        rng = np.random.default_rng(67)
        seen = set()
        for _ in range(10):
            sc, k = random_scenario(rng)
            c = coefficients(sc, k)
            sol = solve_rg(sc, coeffs=c)
            seen.add(sol.region.label)
            play = z.playout_reduced(sc, k, sol.u_p, sol.u_e)
            scale = max(1.0, abs(sol.z_f), abs(sol.w_f))
            assert abs(play.z_f - sol.z_f) <= 1e-7 * scale
            assert abs(play.w_f - sol.w_f) <= 1e-7 * scale
            report = z.saddle_probe(sc, sol, n_trials=10, seed=19, kernels=k)
            assert report.passed
        assert len(seen) >= 2  # the draws cover more than one region


class TestDegenerateTail:
    def test_zero_tail_pins_terminal_to_zero(self):
        sc = z.first_order_scenario(0.2, 0.1, 1.0, 0.0, 0.05, 0.3, 100.0,
                                    z0=40.0, w0=-15.0)
        k = z.Kernels(sc)
        c = coefficients(sc, k)
        assert c.mu_e == 0.0
        assert c.bound == 0.0
        assert c.constraint_degenerate
        region = classify(c, sc.z0, sc.w0)
        assert region.label is not RegionLabel.OMEGA
        sol = solve_rg(sc, coeffs=c)
        play = z.playout_reduced(sc, k, sol.u_p, sol.u_e)
        assert play.w_f == pytest.approx(0.0, abs=1e-8)


class TestBareEntryPoint:
    def test_solve_rg_builds_everything_itself(self, study_scenario):
        sol = solve_rg(study_scenario)
        assert sol.region.label is RegionLabel.OMEGA_MINUS
        assert sol.value == pytest.approx(ORACLE.value_minus, rel=1e-8)
        assert reference.CHECKS["w_f- playout"].passed(sol.w_f)
