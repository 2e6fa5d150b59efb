import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zemgame as z
from zemgame import (
    AffineInTime,
    Constant,
    KernelCombo,
    RegionLabel,
    Sampled,
    TimeGrid,
    build_game_ss,
    check_terminal,
    coefficients,
    cross_play,
    evaluate_cost,
    ode_playout,
    playout_full,
    playout_reduced,
    quad_adaptive,
    sample_control,
    saddle_probe,
    solve_erg_branch,
    solve_rg,
)
from zemgame import reduction, simulate
from zemgame.cli import load_scenario
from zemgame.errors import ProbeFailure
from zemgame.reduction import SampleBundle
from zemgame.simulate import admissible_evader_perturbation, _initial_full_state, _simpson_panels

from helpers import MIXED_ORDERS, ORACLE, random_controller, random_scenario

# Deterministic draws: the same examples on every run, no example database.
DRAWS = dict(deadline=None, derandomize=True, database=None)

ZERO = KernelCombo()


class TestPlayoutReduced:
    def test_zero_controls_hold_state(self, study_scenario, study_kernels):
        play = playout_reduced(study_scenario, study_kernels, ZERO, ZERO)
        np.testing.assert_allclose(play.z_traj, study_scenario.z0)
        np.testing.assert_allclose(play.w_traj, study_scenario.w0)

    def test_branch_terminals(self, study_scenario, study_kernels, study_coeffs):
        plus = solve_erg_branch(study_coeffs, 100.0, -100.0, 1)
        play = playout_reduced(study_scenario, study_kernels, plus.u_p, plus.u_e)
        assert play.w_f == pytest.approx(32.5, abs=0.01)
        assert play.z_f == pytest.approx(32.92, abs=0.05)
        minus = solve_erg_branch(study_coeffs, 100.0, -100.0, -1)
        play = playout_reduced(study_scenario, study_kernels, minus.u_p, minus.u_e)
        assert play.w_f == pytest.approx(-32.5, abs=0.01)
        assert play.z_f == pytest.approx(27.85, abs=0.05)

    def test_terminals_match_linear_prediction(self, study_scenario, study_kernels, study_coeffs):
        branch = solve_erg_branch(study_coeffs, 100.0, -100.0, 1)
        play = playout_reduced(study_scenario, study_kernels, branch.u_p, branch.u_e)
        assert play.z_f == pytest.approx(branch.omega_f[0], rel=1e-9)
        assert play.w_f == pytest.approx(study_coeffs.bound, rel=1e-9)

    def test_grid_refinement_stable(self, study_scenario, study_kernels, study_coeffs):
        branch = solve_erg_branch(study_coeffs, 100.0, -100.0, 1)
        coarse = playout_reduced(study_scenario, study_kernels, branch.u_p, branch.u_e,
                                 TimeGrid.uniform(0.0, 1.0, 2001))
        fine = playout_reduced(study_scenario, study_kernels, branch.u_p, branch.u_e,
                               TimeGrid.uniform(0.0, 1.0, 4001))
        assert fine.z_f == pytest.approx(coarse.z_f, rel=1e-8)
        assert fine.w_f == pytest.approx(coarse.w_f, rel=1e-8)


class TestEvaluateCost:
    def test_zero_controls(self, study_scenario, study_kernels):
        cost = evaluate_cost(study_scenario, study_kernels, ZERO, ZERO)
        assert cost.total == pytest.approx(study_scenario.z0 ** 2)
        assert cost.pursuer_effort == 0.0 and cost.evader_effort == 0.0

    def test_breakdown_identity(self, study_scenario, study_kernels, study_coeffs):
        branch = solve_erg_branch(study_coeffs, 100.0, -100.0, 1)
        cost = evaluate_cost(study_scenario, study_kernels, branch.u_p, branch.u_e)
        assert cost.total == cost.terminal + cost.pursuer_effort - cost.evader_effort

    def test_constant_evader_cross_check(self, study_scenario, study_kernels, study_coeffs):
        branch = solve_erg_branch(study_coeffs, 100.0, -100.0, 1)
        cost = evaluate_cost(study_scenario, study_kernels, branch.u_p, Constant(101.92))
        assert cost.total == pytest.approx(1358.4, rel=0.01)
        assert cost.total < branch.value

    def test_ramp_pursuer_cross_check(self, study_scenario, study_kernels, study_coeffs):
        branch = solve_erg_branch(study_coeffs, 100.0, -100.0, 1)
        ramp = AffineInTime(slope=-400.0, intercept=400.0)
        cost = evaluate_cost(study_scenario, study_kernels, ramp, branch.u_e)
        assert cost.total == pytest.approx(ORACLE.j_ramp, rel=1e-7)
        assert cost.total > branch.value

    def test_branch_value_reproduced(self, study_scenario, study_kernels, study_coeffs):
        for sign, expected in ((1, ORACLE.value_plus), (-1, ORACLE.value_minus)):
            branch = solve_erg_branch(study_coeffs, 100.0, -100.0, sign)
            cost = evaluate_cost(study_scenario, study_kernels, branch.u_p, branch.u_e)
            assert cost.total == pytest.approx(expected, rel=1e-6)
            assert cost.total == pytest.approx(branch.value, rel=1e-6)


class TestCheckTerminal:
    def test_satisfied(self, study_coeffs):
        result = check_terminal(4.895, study_coeffs)
        assert result.satisfied
        assert result.margin == pytest.approx(study_coeffs.bound - 4.895)

    def test_violated(self, study_coeffs):
        result = check_terminal(-45.105, study_coeffs)
        assert not result.satisfied
        assert result.excess == pytest.approx(45.105 - study_coeffs.bound)

    def test_exact_bound_satisfied(self, study_coeffs):
        result = check_terminal(study_coeffs.bound, study_coeffs)
        assert result.satisfied
        assert result.margin == 0.0


class TestPlayoutFull:
    def test_zero_controls_keep_z_constant(self, study_scenario, study_kernels):
        play = playout_full(study_scenario, ZERO, ZERO, kernels=study_kernels)
        np.testing.assert_allclose(play.z_traj, play.z_traj[0], rtol=0, atol=1e-8)

    def test_miss_equals_terminal_z(self, study_scenario, study_kernels, study_coeffs):
        branch = solve_erg_branch(study_coeffs, 100.0, -100.0, 1)
        play = playout_full(study_scenario, branch.u_p, branch.u_e, kernels=study_kernels)
        assert play.miss == pytest.approx(play.z_f, rel=1e-12)

    def test_agrees_with_reduced_path(self, study_scenario, study_kernels, study_coeffs):
        branch = solve_erg_branch(study_coeffs, 100.0, -100.0, 1)
        grid = TimeGrid.uniform(0.0, 1.0, 801)
        full = playout_full(study_scenario, branch.u_p, branch.u_e, grid, study_kernels)
        reduced = playout_reduced(study_scenario, study_kernels, branch.u_p, branch.u_e, grid)
        np.testing.assert_allclose(full.z_traj, reduced.z_traj, rtol=0, atol=1e-6)
        np.testing.assert_allclose(full.w_traj, reduced.w_traj, rtol=0, atol=1e-6)

    def test_geometry_initial_state_consistent(self, study_kernels):
        geo = z.EngagementGeometry(Vp=300.0, Ve=1.0, phi_p0=0.0, phi_e0=100.0 / 1.9)
        sc = z.EngagementScenario.from_geometry(
            z.ControllerModel.first_order(0.2), z.ControllerModel.first_order(0.1),
            t_f=1.0, t_c=0.9, alpha=0.05, beta=0.3, ae_max=100.0, geometry=geo)
        play = playout_full(sc, ZERO, ZERO, TimeGrid.uniform(0.0, 1.0, 201))
        assert play.z_traj[0] == pytest.approx(sc.z0, rel=1e-10)
        assert play.w_traj[0] == pytest.approx(sc.w0, rel=1e-10)

    def test_random_scenarios_full_vs_reduced(self):
        rng = np.random.default_rng(71)
        grid = None
        for _ in range(20):
            sc, k = random_scenario(rng)
            grid = TimeGrid.uniform(0.0, sc.t_f, 501)
            u_p = KernelCombo(hp_coef=float(rng.uniform(-3, 3)))
            u_e = KernelCombo(he_coef=float(rng.uniform(-3, 3)),
                              ge_coef=float(rng.uniform(-3, 3)))
            full = playout_full(sc, u_p, u_e, grid, k)
            reduced = playout_reduced(sc, k, u_p, u_e, grid)
            scale = max(1.0, np.abs(reduced.z_traj).max(), np.abs(reduced.w_traj).max())
            np.testing.assert_allclose(full.z_traj, reduced.z_traj, rtol=0, atol=1e-6 * scale)
            np.testing.assert_allclose(full.w_traj, reduced.w_traj, rtol=0, atol=1e-6 * scale)


class TestBundleMemo:
    def test_equal_nodes_share_a_bundle(self, study_scenario):
        k = z.Kernels(study_scenario)
        first = k.bundle(TimeGrid.uniform(0.0, 1.0, 2500))
        assert k.bundle(TimeGrid.uniform(0.0, 1.0, 2500)) is first
        assert k.bundle(TimeGrid.uniform(0.0, 1.0, 2001)) is k.bundle()

    def test_memo_keeps_one_off_grid_bundle(self, study_scenario):
        k = z.Kernels(study_scenario)
        for n in range(300, 320):
            last = k.bundle(TimeGrid.uniform(0.0, 1.0, n))
        kept = [id(v) for v in vars(k).values() if isinstance(v, SampleBundle)]
        assert sorted(kept) == sorted([id(last), id(k.bundle())])

    def test_warm_kernels_take_no_rows(self, study_scenario, study_coeffs, monkeypatch):
        """Once the off-grid bundle is kept, the full playout and a repeated
        off-grid cost sample nothing: no transition rows, no exponentials."""
        k = z.Kernels(study_scenario)
        sol = solve_rg(study_scenario, coeffs=study_coeffs)
        evaluate_cost(study_scenario, k, sol.u_p, sol.u_e, TimeGrid.uniform(0.0, 1.0, 2500))
        calls = []
        for name in ("_transition_rows", "mat_exp"):
            original = getattr(reduction, name)
            monkeypatch.setattr(reduction, name,
                                lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
        playout_full(study_scenario, sol.u_p, sol.u_e, kernels=k)
        evaluate_cost(study_scenario, k, sol.u_p, sol.u_e, TimeGrid.uniform(0.0, 1.0, 2500))
        assert calls == []
        k.bundle(TimeGrid.uniform(0.0, 1.0, 2400))
        assert calls.count("_transition_rows") == 2  # the counter sees a new grid

    def test_legendre_gram_follows_its_arguments(self, study_scenario):
        bundle = z.Kernels(study_scenario).bundle()
        basis, products = bundle.legendre_gram(8, 1.0)
        assert bundle.legendre_gram(8, 1.0)[0] is basis
        other, other_products = bundle.legendre_gram(4, 2.0)
        assert other.shape == (4, bundle.ts.size) and other_products.shape == (5, 7)
        np.testing.assert_allclose(other[1], bundle.ts - 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("nodes", [np.linspace(0.0, 1.0, 2001),
                                       np.linspace(0.0, 1.0, 301) ** 1.5])
    def test_node_rows_match_kernel_rows(self, study_kernels, nodes):
        bundle = study_kernels.bundle(TimeGrid(nodes))
        for kept, direct in ((bundle.node_rows_engagement, study_kernels.rows_engagement(nodes)),
                             (bundle.node_rows_target, study_kernels.rows_target(nodes))):
            np.testing.assert_allclose(kept, direct, rtol=0, atol=1e-12 * np.abs(direct).max())


class TestCrossPlay:
    def test_table_values(self, study_scenario, study_kernels, study_coeffs):
        cases = [
            ((100.0, 50.0), ("+", "-"), ORACLE.table_plus[("+", "-")]),
            ((100.0, 50.0), ("-", "+"), ORACLE.table_plus[("-", "+")]),
            ((-100.0, -20.0), ("+", "-"), ORACLE.table_minus[("+", "-")]),
        ]
        for (z0, w0), (sp, se), expected in cases:
            sc = dataclasses.replace(study_scenario, z0=z0, w0=w0, geometry=None)
            up = solve_erg_branch(study_coeffs, z0, w0, 1 if sp == "+" else -1).u_p
            ue = solve_erg_branch(study_coeffs, z0, w0, 1 if se == "+" else -1).u_e
            cost = cross_play(sc, up, ue, study_kernels)
            assert cost.total == pytest.approx(expected, rel=1e-7)


class TestSaddleProbe:
    def test_zero_amplitude_is_equality(self, study_scenario, study_kernels, study_coeffs):
        sol = solve_rg(study_scenario, coeffs=study_coeffs)
        report = saddle_probe(study_scenario, sol, n_trials=3, seed=5,
                              kernels=study_kernels, rel_amplitude=0.0)
        assert report.passed
        assert abs(report.evader_worst) <= report.slack
        assert abs(report.pursuer_worst) <= report.slack

    def test_seeded_trials_pass(self, study_scenario, study_kernels, study_coeffs):
        sol = solve_rg(study_scenario, coeffs=study_coeffs)
        report = saddle_probe(study_scenario, sol, n_trials=25, seed=2,
                              kernels=study_kernels)
        assert report.passed
        assert report.evader_worst <= 0.0 + report.slack
        assert report.pursuer_worst >= 0.0 - report.slack

    def test_projection_enforces_admissibility(self, study_scenario, study_kernels):
        grid = TimeGrid.uniform(0.0, 1.0, 501)
        steps = np.diff(grid.nodes)
        ge_n = study_kernels.sample_target(grid.nodes)
        ge_m = study_kernels.sample_target(grid.midpoints)
        rng = np.random.default_rng(9)
        delta = rng.standard_normal(grid.refined().size)
        raw_shift = np.sum(_simpson_panels(ge_n * delta[0::2], ge_m * delta[1::2], steps))
        assert abs(raw_shift) > 1e-6
        projected = admissible_evader_perturbation(delta, ge_n, ge_m, steps)
        shift = np.sum(_simpson_panels(ge_n * projected[0::2], ge_m * projected[1::2], steps))
        assert abs(shift) <= 1e-12 * abs(raw_shift)

    def test_projected_perturbation_preserves_terminal(self, study_scenario, study_kernels,
                                                       study_coeffs):
        branch = solve_erg_branch(study_coeffs, 100.0, -100.0, 1)
        grid = TimeGrid.uniform(0.0, 1.0, 1001)
        ts_ref = grid.refined()
        steps = np.diff(grid.nodes)
        ge_n = study_kernels.sample_target(grid.nodes)
        ge_m = study_kernels.sample_target(grid.midpoints)
        rng = np.random.default_rng(13)
        delta = admissible_evader_perturbation(
            20.0 * rng.standard_normal(ts_ref.size), ge_n, ge_m, steps)
        ue_ref = z.sample_control(branch.u_e, study_kernels, ts_ref)
        perturbed = Sampled(ts_ref, ue_ref + delta)
        play = playout_reduced(study_scenario, study_kernels, branch.u_p, perturbed, grid)
        assert play.w_f == pytest.approx(study_coeffs.bound, rel=1e-10)

    def test_detects_a_bad_saddle(self, study_scenario, study_kernels, study_coeffs):
        sol = solve_rg(study_scenario, coeffs=study_coeffs)
        # hand the probe a corrupted pursuer control: trials must fail
        corrupted = dataclasses.replace(sol, u_p=KernelCombo(hp_coef=0.5 * sol.u_p.hp_coef),
                                        value=sol.value)
        with pytest.raises(ProbeFailure):
            saddle_probe(study_scenario, corrupted, n_trials=10, seed=3,
                         kernels=study_kernels)


# -- reference loops: the per-trial probe and the closure-driven RK4 ----------


def probe_loop(scenario, solution, kernels, n_trials, seed, rel_amplitude=0.2):
    """The saddle probe one trial at a time: sampled perturbations, one
    `evaluate_cost` per side. Returns (evader_worst, pursuer_worst), or for
    the first failing trial the failing sides (evader first), the trial and
    the coefficients drawn for the first failing side."""
    grid = kernels.grid
    ts_ref = grid.refined()
    steps = np.diff(grid.nodes)
    ge_n = kernels.sample_target(grid.nodes)
    ge_m = kernels.sample_target(grid.midpoints)
    up_ref = sample_control(solution.u_p, kernels, ts_ref)
    ue_ref = sample_control(solution.u_e, kernels, ts_ref)
    x = 2.0 * ts_ref / scenario.t_f - 1.0
    basis = np.vstack([np.polynomial.legendre.Legendre.basis(j)(x) for j in range(8)])
    j_star = solution.value
    slack = 1e-9 * max(1.0, abs(j_star))
    amp_p = rel_amplitude * max(1.0, float(np.abs(up_ref).max()))
    amp_e = rel_amplitude * max(1.0, float(np.abs(ue_ref).max()))
    evader_worst, pursuer_worst = -np.inf, np.inf
    for trial, seq in enumerate(np.random.SeedSequence(seed).spawn(n_trials)):
        rng = np.random.default_rng(seq)
        c_e = rng.standard_normal(8)
        raw = c_e @ basis
        delta_e = raw * (amp_e / np.abs(raw).max())
        if solution.region.label is RegionLabel.OMEGA:
            dw = float(np.sum(_simpson_panels(ge_n * delta_e[0::2], ge_m * delta_e[1::2], steps)))
            room = -solution.region.margin
            if abs(dw) > 0.9 * room:
                delta_e = delta_e * (0.9 * room / abs(dw))
        else:
            delta_e = admissible_evader_perturbation(delta_e, ge_n, ge_m, steps)
        u_e_pert = Sampled(ts_ref, ue_ref + delta_e)
        j_e = evaluate_cost(scenario, kernels, solution.u_p, u_e_pert).total
        c_p = rng.standard_normal(8)
        raw_p = c_p @ basis
        delta_p = raw_p * (amp_p / np.abs(raw_p).max())
        u_p_pert = Sampled(ts_ref, up_ref + delta_p)
        j_p = evaluate_cost(scenario, kernels, u_p_pert, solution.u_e).total
        evader_worst = max(evader_worst, j_e - j_star)
        pursuer_worst = min(pursuer_worst, j_p - j_star)
        failed = [side for side, bad in (("evader", j_e > j_star + slack),
                                         ("pursuer", j_p < j_star - slack)) if bad]
        if failed:
            return failed, trial, c_e if failed[0] == "evader" else c_p
    return evader_worst, pursuer_worst


def full_loop(scenario, u_p, u_e, grid, kernels):
    """Full-state RK4 through `ode_playout` with a closure right-hand side
    reading the controls at the nearest refined node. Returns the trajectory
    and the terminal z (the miss) and w."""
    ss = build_game_ss(scenario.pursuer, scenario.evader)
    ts_ref = grid.refined()
    up_ref = sample_control(u_p, kernels, ts_ref)
    ue_ref = sample_control(u_e, kernels, ts_ref)

    def rhs(t, x):
        i = int(np.argmin(np.abs(ts_ref - t)))
        return ss.A @ x + ss.B * up_ref[i] + ss.C * ue_ref[i]

    x_traj = ode_playout(rhs, _initial_full_state(scenario), grid)
    n_p = scenario.pursuer.order + 2
    z_f = x_traj[-1, n_p] - x_traj[-1, 0]
    w_f = float(kernels.rows_target(grid.nodes[-1:])[0] @ x_traj[-1, n_p:])
    return x_traj, z_f, w_f


def assert_full_matches_loop(scenario, u_p, u_e, grid, kernels):
    play = playout_full(scenario, u_p, u_e, grid, kernels)
    x_traj, z_f, w_f = full_loop(scenario, u_p, u_e, grid, kernels)
    scale = np.abs(x_traj).max()
    np.testing.assert_allclose(play.x_traj, x_traj, rtol=0, atol=1e-12 * scale)
    ends = max(1.0, np.abs(play.z_traj).max(), np.abs(play.w_traj).max())
    assert abs(play.z_f - z_f) <= 1e-12 * ends
    assert abs(play.w_f - w_f) <= 1e-12 * ends


@pytest.fixture(scope="module")
def mixed():
    scenario, _ = load_scenario(str(MIXED_ORDERS))
    kernels = z.Kernels(scenario)
    return scenario, kernels, coefficients(scenario, kernels)


def region_positions(coeffs, z0):
    """Positions in each region: the strip centre, a point in the strip near
    its upper wall (where the probe caps the terminal shift), and 20 beyond
    either wall."""
    offset = coeffs.bound + 20.0
    return [(z0, m - coeffs.a * z0) for m in (0.0, 0.95 * coeffs.bound, offset, -offset)]


class TestProbeEquivalence:
    def check(self, scenario, kernels, coeffs, positions, seed):
        labels = set()
        for z0, w0 in positions:
            sc = dataclasses.replace(scenario, z0=z0, w0=w0, geometry=None)
            sol = solve_rg(sc, coeffs=coeffs)
            labels.add(sol.region.label)
            report = saddle_probe(sc, sol, n_trials=25, seed=seed, kernels=kernels)
            evader_worst, pursuer_worst = probe_loop(sc, sol, kernels, 25, seed)
            tol = 1e-12 * max(1.0, abs(sol.value))
            assert abs(report.evader_worst - evader_worst) <= tol
            assert abs(report.pursuer_worst - pursuer_worst) <= tol
        return labels

    def test_study_regions(self, study_scenario, study_kernels, study_coeffs):
        positions = [(100.0, -50.0), (100.0, 50.0), (100.0, -100.0), (-100.0, -20.0)]
        positions += region_positions(study_coeffs, -60.0)
        labels = self.check(study_scenario, study_kernels, study_coeffs, positions, seed=11)
        assert labels == set(RegionLabel)

    def test_mixed_orders_regions(self, mixed):
        scenario, kernels, coeffs = mixed
        positions = [(scenario.z0, scenario.w0)] + region_positions(coeffs, 40.0)
        labels = self.check(scenario, kernels, coeffs, positions, seed=12)
        assert labels == set(RegionLabel)

    def test_cached_gram_matches_per_call_gram(self, study_scenario, study_kernels, study_coeffs,
                                               mixed, monkeypatch):
        """The probe reads its Legendre basis and Gram block from the bundle;
        against a basis and Simpson-panel Gram formed afresh on every call,
        the worst margins move by at most 1e-12 relative."""
        def per_call(bundle, size, span):
            grid = bundle.grid
            x = 2.0 * bundle.ts / span - 1.0
            basis = np.vstack([np.polynomial.legendre.Legendre.basis(j)(x) for j in range(size)])
            rows = np.vstack([basis, bundle.g_e, bundle.h_p, bundle.h_e])
            steps = np.diff(grid.nodes)
            products = np.array([[np.sum(_simpson_panels((a * b)[0::2], (a * b)[1::2], steps))
                                  for b in rows] for a in rows[:size + 1]])
            return basis, products

        cases = [(study_scenario, study_kernels, study_coeffs, (100.0, -100.0)),
                 (study_scenario, study_kernels, study_coeffs, (100.0, 50.0)),
                 (mixed[0], mixed[1], mixed[2], (mixed[0].z0, mixed[0].w0))]
        for scenario, kernels, coeffs, (z0, w0) in cases:
            sc = dataclasses.replace(scenario, z0=z0, w0=w0, geometry=None)
            sol = solve_rg(sc, coeffs=coeffs)
            cached = saddle_probe(sc, sol, n_trials=50, seed=21, kernels=kernels)
            with monkeypatch.context() as m:
                m.setattr(SampleBundle, "legendre_gram", per_call)
                fresh = saddle_probe(sc, sol, n_trials=50, seed=21, kernels=kernels)
            tol = 1e-12 * max(1.0, abs(sol.value))
            assert abs(cached.evader_worst - fresh.evader_worst) <= tol
            assert abs(cached.pursuer_worst - fresh.pursuer_worst) <= tol

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2 ** 31 - 1])
    def test_draws_match_two_calls_per_stream(self, study_scenario, study_kernels, study_coeffs,
                                              seed, monkeypatch):
        """Each trial's 16 coefficients come from one draw of its stream,
        bitwise equal to 8 evader and then 8 pursuer draws."""
        seen = []
        peaks = simulate._peaks
        monkeypatch.setattr(simulate, "_peaks", lambda c, basis: seen.append(c.copy()) or peaks(c, basis))
        sol = solve_rg(study_scenario, coeffs=study_coeffs)
        saddle_probe(study_scenario, sol, n_trials=30, seed=seed, kernels=study_kernels)
        want = np.empty((2, 30, 8))
        for trial, seq in enumerate(np.random.SeedSequence(seed).spawn(30)):
            rng = np.random.default_rng(seq)
            want[0, trial] = rng.standard_normal(8)
            want[1, trial] = rng.standard_normal(8)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], want.reshape(-1, 8))

    @pytest.mark.parametrize("halve_evader, seed", [(False, 3), (True, 4), (True, 8)])
    def test_failing_trial_matches_loop(self, study_scenario, study_kernels, study_coeffs,
                                        halve_evader, seed):
        """The corrupted pursuer of `test_detects_a_bad_saddle`, and both
        controls halved (valued at their own cost): seed 4 fails first on
        the pursuer side at trial 2, seed 8 on both sides at trial 1, where
        the evader side is reported."""
        sol = solve_rg(study_scenario, coeffs=study_coeffs)
        corrupted = dataclasses.replace(sol, u_p=KernelCombo(hp_coef=0.5 * sol.u_p.hp_coef))
        if halve_evader:
            u_e = KernelCombo(he_coef=0.5 * sol.u_e.he_coef, ge_coef=0.5 * sol.u_e.ge_coef)
            value = evaluate_cost(study_scenario, study_kernels, corrupted.u_p, u_e).total
            corrupted = dataclasses.replace(corrupted, u_e=u_e, value=value)
        sides, trial, drawn = probe_loop(study_scenario, corrupted, study_kernels, 10, seed)
        if seed == 8:
            assert sides == ["evader", "pursuer"] and trial == 1
        with pytest.raises(ProbeFailure, match=sides[0]) as failure:
            saddle_probe(study_scenario, corrupted, n_trials=10, seed=seed, kernels=study_kernels)
        assert failure.value.trial == trial
        np.testing.assert_array_equal(failure.value.coefficients, drawn)

    def test_failure_reports_drawn_coefficients(self, study_scenario, study_kernels, study_coeffs):
        """The coefficients of a failure are the 8 numbers the trial's stream
        drew for the failing side (evader first, then pursuer)."""
        sol = solve_rg(study_scenario, coeffs=study_coeffs)
        corrupted = dataclasses.replace(sol, value=sol.value - 1e3)  # every evader trial fails
        with pytest.raises(ProbeFailure, match="evader") as failure:
            saddle_probe(study_scenario, corrupted, n_trials=4, seed=8, kernels=study_kernels)
        assert failure.value.trial == 0
        rng = np.random.default_rng(np.random.SeedSequence(8).spawn(4)[0])
        np.testing.assert_array_equal(failure.value.coefficients, rng.standard_normal(8))
        corrupted = dataclasses.replace(sol, value=sol.value + 1e3)  # every pursuer trial fails
        with pytest.raises(ProbeFailure, match="pursuer") as failure:
            saddle_probe(study_scenario, corrupted, n_trials=4, seed=8, kernels=study_kernels)
        rng = np.random.default_rng(np.random.SeedSequence(8).spawn(4)[0])
        rng.standard_normal(8)
        np.testing.assert_array_equal(failure.value.coefficients, rng.standard_normal(8))


class TestFullEquivalence:
    def test_study(self, study_scenario, study_kernels, study_coeffs):
        for sign in (1, -1):
            branch = solve_erg_branch(study_coeffs, 100.0, -100.0, sign)
            assert_full_matches_loop(study_scenario, branch.u_p, branch.u_e,
                                     study_kernels.grid, study_kernels)

    def test_mixed_orders(self, mixed):
        scenario, kernels, coeffs = mixed
        sol = solve_rg(scenario, coeffs=coeffs)
        assert_full_matches_loop(scenario, sol.u_p, sol.u_e, kernels.grid, kernels)

    def test_non_uniform_grid(self, study_scenario, study_kernels, study_coeffs):
        branch = solve_erg_branch(study_coeffs, 100.0, -100.0, 1)
        grid = TimeGrid(np.linspace(0.0, 1.0, 301) ** 1.5)
        assert_full_matches_loop(study_scenario, branch.u_p, AffineInTime(-30.0, 40.0),
                                 grid, study_kernels)

    @settings(max_examples=20, **DRAWS)
    @given(seed=st.integers(0, 2 ** 32 - 1), order_p=st.integers(0, 10),
           order_e=st.integers(0, 10))
    def test_random_controllers(self, seed, order_p, order_e):
        rng = np.random.default_rng(seed)
        sc = z.EngagementScenario(
            pursuer=random_controller(rng, order_p), evader=random_controller(rng, order_e),
            t_f=float(rng.uniform(0.6, 1.8)), t_c=float(rng.uniform(0.3, 1.2)),
            alpha=0.1, beta=1.0, ae_max=50.0,
            z0=float(rng.uniform(-150.0, 150.0)), w0=float(rng.uniform(-150.0, 150.0)))
        grid = TimeGrid.uniform(0.0, sc.t_f, 401)
        k = z.Kernels(sc, grid)
        u_p = KernelCombo(hp_coef=float(rng.uniform(-30, 30)))
        u_e = KernelCombo(he_coef=float(rng.uniform(-30, 30)), ge_coef=float(rng.uniform(-30, 30)))
        assert_full_matches_loop(sc, u_p, u_e, grid, k)


class TestMemory:
    """Neither the probe nor the full playout forms a (trials x nodes) or
    (steps x state x state) array on the default grid."""

    @staticmethod
    def traced(call):
        """(peak, still held) bytes allocated by call."""
        tracemalloc.start()
        try:
            call()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, current

    def test_peak_order_ten(self):
        """d = 24: the (steps x 24 x 24) step matrices alone would be 9.2 MB;
        the forcing and the step offsets peak at about 3.6 MB."""
        rng = np.random.default_rng(10)
        sc = z.EngagementScenario(
            pursuer=random_controller(rng, 10), evader=random_controller(rng, 10),
            t_f=1.2, t_c=0.7, alpha=0.1, beta=1.0, ae_max=50.0, z0=80.0, w0=-30.0)
        k = z.Kernels(sc)
        peak, _ = self.traced(lambda: playout_full(sc, KernelCombo(hp_coef=3.0),
                                                   KernelCombo(he_coef=-2.0, ge_coef=1.5),
                                                   kernels=k))
        assert peak <= 4.5e6

    def test_off_grid_memo(self, study_scenario, study_coeffs):
        """Costs on 12 distinct 2500-node grids: each builds one bundle
        (about 0.66 MB at its peak) and keeps it in place of the last
        (about 0.36 MB held), so neither the peak nor what stays grows."""
        k = z.Kernels(study_scenario)
        sol = solve_rg(study_scenario, coeffs=study_coeffs)

        def costs():
            for end in np.linspace(0.9, 1.0, 12):
                evaluate_cost(study_scenario, k, sol.u_p, sol.u_e,
                              TimeGrid.uniform(0.0, end, 2500))

        peak, held = self.traced(costs)
        assert peak <= 1.5e6
        assert held <= 0.5e6

    @pytest.mark.parametrize("run", ["probe", "full"])
    def test_peak(self, study_scenario, study_kernels, study_coeffs, run):
        sc = dataclasses.replace(study_scenario, z0=100.0, w0=50.0, geometry=None)
        sol = solve_rg(sc, coeffs=study_coeffs)
        calls = {
            "probe": lambda: saddle_probe(sc, sol, n_trials=100, seed=1, kernels=study_kernels),
            "full": lambda: playout_full(sc, sol.u_p, sol.u_e, kernels=study_kernels),
        }
        tracemalloc.start()
        try:
            calls[run]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6
