import dataclasses
import gc
import tracemalloc
import weakref

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
    coefficients,
    cross_play,
    evaluate_cost,
    playout_full,
    playout_reduced,
    saddle_probe,
    solve_erg_branch,
    solve_rg,
)
from zemgame import reduction, simulate
from zemgame.cli import load_scenario
from zemgame.engagement import build_game_ss, initial_zem
from zemgame.numerics import mat_exp, ode_playout
from zemgame.reference import CHECKS
from zemgame.errors import AssertionFailure, ProbeFailure
from zemgame.reduction import LegendreProducts, PeakScan, SampleBundle, simpson_panels
from zemgame.simulate import _initial_full_state

from helpers import (MIXED_ORDERS, ORACLE, admissible_evader_perturbation, check_failure,
                     check_terminal, coarse_candidates, combo_integrals_matrix_form, dense_peaks,
                     random_controller, random_draws, random_scenario)

ZERO = KernelCombo()


class TestPlayoutReduced:
    def test_zero_controls_hold_state(self, study_scenario, study_kernels):
        play = playout_reduced(study_scenario, study_kernels, ZERO, ZERO)
        np.testing.assert_allclose(play.z_traj, study_scenario.z0)
        np.testing.assert_allclose(play.w_traj, study_scenario.w0)

    def test_branch_terminals(self, study_scenario, study_kernels, study_coeffs):
        for sign, tag in ((1, "+"), (-1, "-")):
            branch = solve_erg_branch(study_coeffs, 100.0, -100.0, sign)
            play = playout_reduced(study_scenario, study_kernels, branch.u_p, branch.u_e)
            assert CHECKS["w_f%s playout" % tag].passed(play.w_f)
            assert CHECKS["z_f%s playout" % tag].passed(play.z_f)

    def test_terminals_match_linear_prediction(self, study_scenario, study_kernels, study_coeffs):
        branch = solve_erg_branch(study_coeffs, 100.0, -100.0, 1)
        play = playout_reduced(study_scenario, study_kernels, branch.u_p, branch.u_e)
        assert play.z_f == pytest.approx(branch.z_f, rel=1e-9)
        assert play.w_f == pytest.approx(study_coeffs.bound, rel=1e-9)

    def test_grid_refinement_stable(self, study_scenario, study_kernels, study_coeffs):
        branch = solve_erg_branch(study_coeffs, 100.0, -100.0, 1)
        coarse = playout_reduced(study_scenario, study_kernels, branch.u_p, branch.u_e,
                                 TimeGrid(0.0, 1.0, 2001))
        fine = playout_reduced(study_scenario, study_kernels, branch.u_p, branch.u_e,
                               TimeGrid(0.0, 1.0, 4001))
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
        ue_bar = CHECKS["ue_bar+"].target
        cost = evaluate_cost(study_scenario, study_kernels, branch.u_p, Constant(ue_bar))
        assert CHECKS["J(u_p+, ue_bar+)"].passed(cost.total)
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


def simpson_cost(scenario, kernels, u_p, u_e):
    """(z_f, int u_p^2, int u_e^2) by Simpson's rule on the 4001 refined
    nodes of the build grid: the reference of the exact kernel-combo path."""
    bundle = kernels.bundle()
    up, ue, w = bundle.control(u_p), bundle.control(u_e), bundle.weights
    return (float(scenario.z0 + w @ (bundle.h_p * up + bundle.h_e * ue)), float(w @ (up * up)),
            float(w @ (ue * ue)))


def combo_pairs(coeffs, z0, w0, rng):
    """The dispatched saddle pair, the four branch pairings, and two pairs
    of random combinations of all three kernels on each side."""
    branches = [solve_erg_branch(coeffs, z0, w0, sign) for sign in (1, -1)]
    pairs = [(p.u_p, e.u_e) for p in branches for e in branches]
    pairs += [tuple(KernelCombo(*rng.uniform(-50.0, 50.0, 3)) for _ in "pe") for _ in range(2)]
    return pairs


class TestExactCost:
    def test_float_form_against_matrix_form(self):
        """`_combo_integrals` on Python floats against the numpy matrix
        form it replaced, on the Gram matrices of 8 random controller
        pairs and laws with coefficients from 1e-3 to 1e3: within 4 eps
        of the summed magnitudes of each result's terms."""
        rng = np.random.default_rng(1803)
        eps = np.finfo(float).eps
        for _, kernels in random_draws():
            gram = kernels.gram()
            for _ in range(40):
                u_p, u_e = (KernelCombo(*(rng.standard_normal(3) * 10.0 ** rng.uniform(-3, 3, 3)))
                            for _ in "pe")
                z0 = float(rng.uniform(-300.0, 300.0))
                got = simulate._combo_integrals(gram, u_p, u_e, z0)
                want, scales = combo_integrals_matrix_form(gram, u_p, u_e, z0)
                for g, w, scale in zip(got, want, scales):
                    assert abs(g - w) <= 4.0 * eps * scale

    """Costs of two `KernelCombo` laws are quadratic forms in the kernel
    Gram matrix (`Kernels.gram`), read without a grid.

    Against Simpson's rule on the 4001 refined nodes of the build grid the
    band is 2e-12 of the cost scale z^2 + alpha int u_p^2 + beta int u_e^2,
    with z the sum of the magnitudes of z0, int h_p u_p and int h_e u_e
    rather than z_f itself: the sampled kernels carry the rounding of their
    doubled transition rows, ~6e-13 relative, and where those terms cancel
    in z_f that error is not scaled down with them. Measured: at most
    8.2e-13 of the plain cost scale on the study and 5.9e-13 on mixed
    orders, but 2.7e-12 on one random draw, whose z_f is off by 3.0e-10
    of itself and 3.9e-13 of its term sum; against the term sum, 4.6e-13
    at most. Each Gram entry agrees with adaptive quadrature to 1e-13
    (`test_reduction.TestKernelGram`), so the gap is the reference's."""

    def assert_matches_simpson(self, scenario, kernels, coeffs, rng):
        magnitudes = np.abs(kernels.gram())
        for u_p, u_e in combo_pairs(coeffs, scenario.z0, scenario.w0, rng):
            cost = evaluate_cost(scenario, kernels, u_p, u_e)
            z_f, up2, ue2 = simpson_cost(scenario, kernels, u_p, u_e)
            pursuer, evader = scenario.alpha * up2, scenario.beta * ue2
            terms = [magnitudes @ np.abs([u.hp_coef, u.he_coef, u.ge_coef]) for u in (u_p, u_e)]
            z_scale = abs(scenario.z0) + terms[0][0] + terms[1][1]
            scale = z_scale ** 2 + pursuer + evader
            assert abs(cost.total - (z_f ** 2 + pursuer - evader)) <= 2e-12 * scale
            assert abs(cost.pursuer_effort - pursuer) <= 2e-12 * scale
            assert abs(cost.evader_effort - evader) <= 2e-12 * scale

    def test_study_against_simpson(self, study_scenario, study_kernels, study_coeffs):
        rng = np.random.default_rng(14)
        for z0, w0 in ((100.0, -100.0), (100.0, -50.0), (100.0, 50.0), (-100.0, -20.0)):
            sc = dataclasses.replace(study_scenario, z0=z0, w0=w0, geometry=None)
            self.assert_matches_simpson(sc, study_kernels, study_coeffs, rng)

    def test_mixed_orders_against_simpson(self, mixed):
        self.assert_matches_simpson(*mixed, np.random.default_rng(15))

    @pytest.mark.parametrize("draw", range(8))
    def test_random_orders_against_simpson(self, draw):
        scenario, kernels = random_draws()[draw]
        self.assert_matches_simpson(scenario, kernels, coefficients(scenario),
                                    np.random.default_rng(draw))

    def test_saddle_value(self, study_scenario, study_kernels, study_coeffs, mixed):
        """The dispatched pair's exact cost is the solver's value."""
        cases = [(dataclasses.replace(study_scenario, z0=z0, w0=w0, geometry=None),
                  study_kernels, study_coeffs)
                 for z0, w0 in ((100.0, -100.0), (100.0, -50.0), (100.0, 50.0), (-100.0, -20.0))]
        for scenario, kernels, coeffs in cases + [mixed]:
            sol = solve_rg(scenario, coeffs=coeffs)
            cost = evaluate_cost(scenario, kernels, sol.u_p, sol.u_e)
            assert cost.total == pytest.approx(sol.value, rel=1e-14, abs=0.0)

    def test_reads_no_grid(self, study_scenario, study_coeffs):
        """A 7-node grid over [0, t_f] is not sampled and no bundle is
        built; a grid reaching past t_f is refused for both pairs."""
        k = z.Kernels(study_scenario)
        sol = solve_rg(study_scenario, coeffs=study_coeffs)
        coarse = TimeGrid(0.0, study_scenario.t_f, 7)
        cost = evaluate_cost(study_scenario, k, sol.u_p, sol.u_e, coarse)
        assert cost == evaluate_cost(study_scenario, k, sol.u_p, sol.u_e)
        assert [v for v in vars(k).values() if isinstance(v, SampleBundle)] == []
        for u_e in (sol.u_e, Constant(1.0)):
            with pytest.raises(ValueError, match="not the horizon"):
                evaluate_cost(study_scenario, k, sol.u_p, u_e, TimeGrid(0.0, 2.0, 7))

    @pytest.mark.parametrize("start, end", [(0.0, 0.9), (0.1, 1.0), (-0.1, 1.0), (0.0, 1.1)])
    def test_partial_grid_refused(self, study_scenario, study_kernels, study_coeffs, start, end):
        """A grid that does not span [0, t_f] is refused for every pair of
        laws, through `cross_play` too, where a kernel-combination pair used
        to return its full-horizon cost; ends within the horizon tolerance
        pass."""
        sol = solve_rg(study_scenario, coeffs=study_coeffs)
        grid = TimeGrid(start, end, 2500)
        pairs = [(sol.u_p, sol.u_e), (sol.u_p, Constant(100.0)), (Constant(1.0), sol.u_e),
                 (AffineInTime(-400.0, 400.0), Constant(1.0))]
        for u_p, u_e in pairs:
            with pytest.raises(ValueError, match="not the horizon"):
                evaluate_cost(study_scenario, study_kernels, u_p, u_e, grid)
            with pytest.raises(ValueError, match="not the horizon"):
                cross_play(study_scenario, u_p, u_e, study_kernels, grid)
        t_f = study_scenario.t_f
        nearly = TimeGrid(-0.5e-9, t_f + 0.5e-9, 2500)
        for u_p, u_e in pairs:
            evaluate_cost(study_scenario, study_kernels, u_p, u_e, nearly)

    def test_readers_of_the_bundle_refuse_a_partial_grid(self, study_scenario, study_coeffs):
        """Both playouts and the saddle probe refuse a grid that does not
        span [0, t_f], as the cost does. On [0.5, 1] the study's dispatched
        branch laws used to play out to z_f = 95.76 (reduced) and 45.76
        (full), against 27.85 on the horizon, and the probe passed."""
        k = z.Kernels(study_scenario)
        sol = solve_rg(study_scenario, coeffs=study_coeffs)
        grid = TimeGrid(0.5, 1.0, 501)
        for read in (lambda: playout_reduced(study_scenario, k, sol.u_p, sol.u_e, grid),
                     lambda: playout_full(study_scenario, sol.u_p, sol.u_e, grid, kernels=k),
                     lambda: saddle_probe(study_scenario, sol, n_trials=5, kernels=k, grid=grid)):
            with pytest.raises(ValueError) as refused:
                read()
            assert str(refused.value) == "grid spans [0.5, 1], not the horizon [0, 1]"
        assert [v for v in vars(k).values() if isinstance(v, SampleBundle)] == []

    def test_gram_formed_once(self, study_scenario):
        k = z.Kernels(study_scenario)
        gram = k.gram()
        assert k.gram() is gram and not gram.flags.writeable
        np.testing.assert_array_equal(gram, gram.T)


class TestCheckTerminal:
    """On the study's printed unconstrained terminals, one inside the bound
    and one outside it."""

    def test_satisfied(self, study_coeffs):
        w_f = CHECKS["w_f-w0 URG (100,-50)"].printed
        result = check_terminal(w_f, study_coeffs)
        assert result.satisfied
        assert result.margin == pytest.approx(study_coeffs.bound - w_f)

    def test_violated(self, study_coeffs):
        w_f = CHECKS["w_f URG (100,-100)"].target
        result = check_terminal(w_f, study_coeffs)
        assert not result.satisfied
        assert result.excess == pytest.approx(abs(w_f) - study_coeffs.bound)

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
        grid = TimeGrid(0.0, 1.0, 801)
        full = playout_full(study_scenario, branch.u_p, branch.u_e, grid, kernels=study_kernels)
        reduced = playout_reduced(study_scenario, study_kernels, branch.u_p, branch.u_e, grid)
        np.testing.assert_allclose(full.z_traj, reduced.z_traj, rtol=0, atol=1e-6)
        np.testing.assert_allclose(full.w_traj, reduced.w_traj, rtol=0, atol=1e-6)

    def test_geometry_initial_state_consistent(self):
        geo = z.EngagementGeometry(Vp=300.0, Ve=1.0, phi_p0=0.0, phi_e0=100.0 / 1.9)
        z0, w0 = initial_zem(geo, 1.0, 0.9)
        sc = z.EngagementScenario(
            z.ControllerModel.first_order(0.2), z.ControllerModel.first_order(0.1),
            t_f=1.0, t_c=0.9, alpha=0.05, beta=0.3, ae_max=100.0, z0=z0, w0=w0, geometry=geo)
        play = playout_full(sc, ZERO, ZERO, TimeGrid(0.0, 1.0, 201), kernels=z.Kernels(sc))
        assert play.z_traj[0] == pytest.approx(sc.z0, rel=1e-10)
        assert play.w_traj[0] == pytest.approx(sc.w0, rel=1e-10)

    def test_random_scenarios_full_vs_reduced(self):
        rng = np.random.default_rng(71)
        grid = None
        for _ in range(20):
            sc, k = random_scenario(rng)
            grid = TimeGrid(0.0, sc.t_f, 501)
            u_p = KernelCombo(hp_coef=float(rng.uniform(-3, 3)))
            u_e = KernelCombo(he_coef=float(rng.uniform(-3, 3)),
                              ge_coef=float(rng.uniform(-3, 3)))
            full = playout_full(sc, u_p, u_e, grid, kernels=k)
            reduced = playout_reduced(sc, k, u_p, u_e, grid)
            scale = max(1.0, np.abs(reduced.z_traj).max(), np.abs(reduced.w_traj).max())
            np.testing.assert_allclose(full.z_traj, reduced.z_traj, rtol=0, atol=1e-6 * scale)
            np.testing.assert_allclose(full.w_traj, reduced.w_traj, rtol=0, atol=1e-6 * scale)

    def test_terminal_miss_check(self, study_scenario, study_coeffs):
        """Both players' node rows at the horizon (e_0, so z(t_f) is the
        miss) altered before the bundle's responses are built: the z they
        rebuild no longer ends on the state's miss, and the reconstruction
        check names both."""
        kernels = z.Kernels(study_scenario)
        bundle = kernels.bundle()
        bundle.node_rows_pursuer[-1] *= 1.0 + 1e-6
        bundle.node_rows_evader[0, -1] *= 1.0 + 1e-6
        branch = solve_erg_branch(study_coeffs, 100.0, -100.0, -1)
        with pytest.raises(AssertionFailure) as info:
            playout_full(study_scenario, branch.u_p, branch.u_e, kernels=kernels)
        residual, bound = check_failure(info.value, "terminal miss == z(t_f)")
        clean = playout_full(study_scenario, branch.u_p, branch.u_e,
                             kernels=z.Kernels(study_scenario))
        y_p, y_e = clean.x_traj[-1, 0], clean.x_traj[-1, study_scenario.pursuer.order + 2]
        assert residual == pytest.approx(1e-6 * clean.miss, rel=1e-3)
        assert bound == pytest.approx(1e-9 * max(abs(y_e), abs(y_p)), rel=1e-12)


class TestBundleMemo:
    def test_equal_nodes_share_a_bundle(self, study_scenario):
        k = z.Kernels(study_scenario)
        first = k.bundle(TimeGrid(0.0, 1.0, 2500))
        assert k.bundle(TimeGrid(0.0, 1.0, 2500)) is first
        assert k.bundle(TimeGrid(0.0, 1.0, 2001)) is k.bundle()

    def test_memo_keeps_one_bundle(self, study_scenario):
        """One bundle is kept: that of the last grid asked for, the build
        grid's by default, which replaces any other."""
        k = z.Kernels(study_scenario)

        def kept():
            return [id(v) for v in vars(k).values() if isinstance(v, SampleBundle)]

        assert kept() == []
        for n in range(300, 320):
            last = k.bundle(TimeGrid(0.0, 1.0, n))
        assert kept() == [id(last)]
        build = k.bundle()
        assert kept() == [id(build)] and build.grid == k.grid
        assert k.bundle(TimeGrid(0.0, 1.0, 319)) is not last

    def test_warm_kernels_take_no_rows(self, study_scenario, study_coeffs, monkeypatch):
        """Once the build-grid bundle is kept, the full playout and a
        repeated cost on another grid (two kernel laws, exact from the Gram
        matrix) sample nothing: no transition rows, no exponentials."""
        k = z.Kernels(study_scenario)
        sol = solve_rg(study_scenario, coeffs=study_coeffs)
        k.bundle()
        evaluate_cost(study_scenario, k, sol.u_p, sol.u_e, TimeGrid(0.0, 1.0, 2500))
        calls = []
        for name in ("_progression_rows", "mat_exp"):
            original = getattr(reduction, name)
            monkeypatch.setattr(reduction, name,
                                lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
        playout_full(study_scenario, sol.u_p, sol.u_e, kernels=k)
        evaluate_cost(study_scenario, k, sol.u_p, sol.u_e, TimeGrid(0.0, 1.0, 2500))
        assert calls == []
        k.bundle(TimeGrid(0.0, 1.0, 2400))
        assert calls.count("_progression_rows") == 2  # the counter sees a new grid

    def test_legendre_follows_its_arguments(self, study_scenario):
        """The kept Legendre data are rebuilt for another (size, span): P_1
        on [0, 2] is t - 1 at the nodes, and the kernel peaks are the
        maxima of the bundle's kernels."""
        bundle = z.Kernels(study_scenario).bundle()
        kept = bundle.legendre(8, 1.0)
        assert bundle.legendre(8, 1.0) is kept
        other = bundle.legendre(4, 2.0)
        assert other is not kept and other.gram.shape == (5, 5)
        windows = other.scan.windows
        assert windows.shape[1] == 4 and windows.flags.c_contiguous
        np.testing.assert_allclose(windows[0, 1], bundle.ts[:windows.shape[2]] - 1.0,
                                   rtol=0, atol=1e-15)
        assert other.kernel_peaks == tuple(float(np.abs(k).max())
                                           for k in (bundle.h_p, bundle.h_e, bundle.g_e))
        np.testing.assert_array_equal(other.kernel_dots[:4, 2], other.gram[:4, 4])

    @pytest.mark.parametrize("nodes", [np.linspace(0.0, 1.0, 2001), np.linspace(0.0, 1.0, 301)])
    def test_node_rows_match_kernel_rows(self, study_kernels, nodes):
        """The bundle's node rows, from the doubling scan, against one
        exponential a node: e_0 exp(A_p s), e_0 exp(A_e s) and
        e_0 exp(A_e (s + t_c)), s = t_f - t."""
        bundle = study_kernels.bundle(TimeGrid(0.0, 1.0, nodes.size))
        (pursuer, evader), t_c = study_kernels._players, study_kernels.t_c
        for kept, player, lead in ((bundle.node_rows_pursuer, pursuer, 0.0),
                                   (bundle.node_rows_evader[0], evader, 0.0),
                                   (bundle.node_rows_evader[1], evader, t_c)):
            direct = np.array([mat_exp(player.A, 1.0 - t + lead)[0] for t in nodes])
            np.testing.assert_allclose(kept, direct, rtol=0, atol=1e-14 * np.abs(direct).max())


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
    def test_seeded_trials_pass(self, study_scenario, study_kernels, study_coeffs):
        sol = solve_rg(study_scenario, coeffs=study_coeffs)
        report = saddle_probe(study_scenario, sol, n_trials=25, seed=2,
                              kernels=study_kernels)
        assert report.passed
        assert report.evader_worst <= 0.0 + report.slack
        assert report.pursuer_worst >= 0.0 - report.slack

    def test_projection_enforces_admissibility(self, study_scenario, study_kernels):
        grid = TimeGrid(0.0, 1.0, 501)
        steps = np.diff(grid.nodes)
        g_e = SampleBundle.sample(study_kernels, grid).g_e
        ge_n, ge_m = g_e[0::2], g_e[1::2]
        rng = np.random.default_rng(9)
        delta = rng.standard_normal(grid.refined().size)
        raw_shift = np.sum(simpson_panels(ge_n * delta[0::2], ge_m * delta[1::2], steps))
        assert abs(raw_shift) > 1e-6
        projected = admissible_evader_perturbation(delta, ge_n, ge_m, steps)
        shift = np.sum(simpson_panels(ge_n * projected[0::2], ge_m * projected[1::2], steps))
        assert abs(shift) <= 1e-12 * abs(raw_shift)

    def test_projected_perturbation_preserves_terminal(self, study_scenario, study_kernels,
                                                       study_coeffs):
        branch = solve_erg_branch(study_coeffs, 100.0, -100.0, 1)
        grid = TimeGrid(0.0, 1.0, 1001)
        ts_ref = grid.refined()
        steps = np.diff(grid.nodes)
        bundle = SampleBundle.sample(study_kernels, grid)
        ge_n, ge_m = bundle.g_e[0::2], bundle.g_e[1::2]
        rng = np.random.default_rng(13)
        delta = admissible_evader_perturbation(
            20.0 * rng.standard_normal(ts_ref.size), ge_n, ge_m, steps)
        ue_ref = bundle.control(branch.u_e)
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

    def test_negative_trial_count_rejected(self, study_scenario, study_kernels, study_coeffs):
        sol = solve_rg(study_scenario, coeffs=study_coeffs)
        with pytest.raises(ValueError, match="n_trials"):
            saddle_probe(study_scenario, sol, n_trials=-1, kernels=study_kernels)

    def test_law_peak_matches_samples(self, study_kernels):
        """max |law| over the nodes from the kept kernel peaks equals the
        maximum of the law's samples, bit for bit, for laws on one kernel
        with coefficients of 0 and of magnitudes 1e-300 to 1e300; laws on
        two kernels read their samples."""
        bundle = study_kernels.bundle()
        peaks = bundle.legendre(8, 1.0).kernel_peaks
        rng = np.random.default_rng(4)
        coefs = [0.0, -0.0] + list(rng.standard_normal(60) * 10.0 ** rng.uniform(-300, 300, 60))
        laws = [KernelCombo(**{field: float(c)}) for c in coefs
                for field in ("hp_coef", "he_coef", "ge_coef")]
        laws += [KernelCombo(he_coef=float(a), ge_coef=float(b))
                 for a, b in rng.standard_normal((20, 2))]
        for law in laws:
            assert (simulate._law_peak(law, bundle, peaks)
                    == float(np.abs(bundle.control(law)).max())), law

    def test_no_trials_empty_report(self, study_scenario, study_kernels, study_coeffs):
        """Zero trials draw nothing and report the empty extremes."""
        sol = solve_rg(study_scenario, coeffs=study_coeffs)
        report = saddle_probe(study_scenario, sol, n_trials=0, kernels=study_kernels)
        assert report == simulate.ProbeReport(n_trials=0, evader_worst=-np.inf,
                                              pursuer_worst=np.inf,
                                              slack=1e-9 * max(1.0, abs(sol.value)), passed=True)

    # (evader_worst, pursuer_worst, slack) of 100 trials as float.hex, at the
    # four study positions of the benchmark's verify workload and at the
    # mixed-orders file's own position, for seeds 0 and 12345
    PINNED = {
        ("study", 100.0, -100.0, 0): ("-0x1.eb7a98de9e000p+0", "0x1.a1fb416ba5600p+3",
                                      "0x1.656e49de3decbp-19"),
        ("study", 100.0, -100.0, 12345): ("-0x1.7b392af88b800p+0", "0x1.8ad53f936d600p+3",
                                          "0x1.656e49de3decbp-19"),
        ("study", 100.0, -50.0, 0): ("-0x1.7dfa1aeb26000p+0", "0x1.84d4bc7760f00p+3",
                                     "0x1.687fcb3884162p-19"),
        ("study", 100.0, -50.0, 12345): ("-0x1.eb142ae51c800p+0", "0x1.6f4c03d3fe600p+3",
                                         "0x1.687fcb3884162p-19"),
        ("study", 100.0, 50.0, 0): ("-0x1.654c3777c0000p-3", "0x1.e55ccfc498600p+2",
                                    "0x1.04a33768d30e3p-19"),
        ("study", 100.0, 50.0, 12345): ("-0x1.13b08a5330000p-3", "0x1.ca7b7f3fc7200p+2",
                                        "0x1.04a33768d30e3p-19"),
        ("study", -100.0, -20.0, 0): ("-0x1.07a01faf36000p-2", "0x1.2b24be092ad00p+3",
                                      "0x1.464d2ced002e6p-19"),
        ("study", -100.0, -20.0, 12345): ("-0x1.96d32d62d4000p-3", "0x1.1a9394d3ff900p+3",
                                          "0x1.464d2ced002e6p-19"),
        ("mixed", 12.6, 45.0, 0): ("-0x1.5820fce580a00p-2", "0x1.3dd4607c40000p-11",
                                   "0x1.0163e214b8ebep-22"),
        ("mixed", 12.6, 45.0, 12345): ("-0x1.124fcaff41000p-2", "0x1.d142a21180000p-12",
                                       "0x1.0163e214b8ebep-22"),
    }

    @pytest.mark.parametrize("case", list(PINNED), ids=lambda c: "%s(%g,%g)-%d" % c)
    def test_pinned_reports(self, study_scenario, study_kernels, study_coeffs, mixed, case):
        """The reports of 100 trials, bit for bit."""
        name, z0, w0, seed = case
        scenario, kernels, coeffs = ((study_scenario, study_kernels, study_coeffs)
                                     if name == "study" else mixed)
        assert name == "study" or (scenario.z0, scenario.w0) == (z0, w0)
        sc = dataclasses.replace(scenario, z0=z0, w0=w0, geometry=None)
        report = saddle_probe(sc, solve_rg(sc, coeffs=coeffs), n_trials=100, seed=seed,
                              kernels=kernels)
        assert report.n_trials == 100 and report.passed
        assert (report.evader_worst.hex(), report.pursuer_worst.hex(),
                report.slack.hex()) == self.PINNED[case]


# -- reference loops: the per-trial probe and the closure-driven RK4 ----------


def probe_loop(scenario, solution, kernels, n_trials, seed, grid=None):
    """The saddle probe one trial at a time on the grid (by default the
    kernels' build grid): sampled perturbations, one Simpson-rule
    `evaluate_cost` per side. Returns (evader_worst, pursuer_worst), or for
    the first failing trial the failing sides (evader first), the trial and
    the coefficients drawn for the first failing side."""
    grid = grid if grid is not None else kernels.grid
    ts_ref = grid.refined()
    steps = np.diff(grid.nodes)
    bundle = SampleBundle.sample(kernels, grid)
    ge_n, ge_m = bundle.g_e[0::2], bundle.g_e[1::2]
    up_ref, ue_ref = bundle.control(solution.u_p), bundle.control(solution.u_e)
    x = 2.0 * ts_ref / scenario.t_f - 1.0
    basis = np.vstack([np.polynomial.legendre.Legendre.basis(j)(x) for j in range(8)])
    j_star = solution.value
    slack = 1e-9 * max(1.0, abs(j_star))
    amp_p = 0.2 * max(1.0, float(np.abs(up_ref).max()))
    amp_e = 0.2 * max(1.0, float(np.abs(ue_ref).max()))
    evader_worst, pursuer_worst = -np.inf, np.inf
    rng = np.random.default_rng(seed)
    for trial in range(n_trials):
        c_e = rng.standard_normal(8)
        raw = c_e @ basis
        delta_e = raw * (amp_e / np.abs(raw).max())
        if solution.region.label is RegionLabel.OMEGA:
            dw = float(np.sum(simpson_panels(ge_n * delta_e[0::2], ge_m * delta_e[1::2], steps)))
            room = -solution.region.margin
            if abs(dw) > 0.9 * room:
                delta_e = delta_e * (0.9 * room / abs(dw))
        else:
            delta_e = admissible_evader_perturbation(delta_e, ge_n, ge_m, steps)
        u_e_pert = Sampled(ts_ref, ue_ref + delta_e)
        j_e = evaluate_cost(scenario, kernels, solution.u_p, u_e_pert, grid).total
        c_p = rng.standard_normal(8)
        raw_p = c_p @ basis
        delta_p = raw_p * (amp_p / np.abs(raw_p).max())
        u_p_pert = Sampled(ts_ref, up_ref + delta_p)
        j_p = evaluate_cost(scenario, kernels, u_p_pert, solution.u_e, grid).total
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
    bundle = SampleBundle.sample(kernels, grid)
    up_ref, ue_ref = bundle.control(u_p), bundle.control(u_e)

    def rhs(t, x):
        i = int(np.argmin(np.abs(ts_ref - t)))
        return ss.A @ x + ss.B * up_ref[i] + ss.C * ue_ref[i]

    x_traj = ode_playout(rhs, _initial_full_state(scenario), grid)
    n_p = scenario.pursuer.order + 2
    z_f = x_traj[-1, n_p] - x_traj[-1, 0]
    w_f = float(bundle.node_rows_evader[1, -1] @ x_traj[-1, n_p:])
    return x_traj, z_f, w_f


def assert_full_matches_loop(scenario, u_p, u_e, grid, kernels):
    play = playout_full(scenario, u_p, u_e, grid, kernels=kernels)
    x_traj, z_f, w_f = full_loop(scenario, u_p, u_e, grid, kernels)
    scale = np.abs(x_traj).max()
    np.testing.assert_allclose(play.x_traj, x_traj, rtol=0, atol=1e-12 * scale)
    ends = max(1.0, np.abs(play.z_traj).max(), np.abs(play.w_traj).max())
    assert abs(play.z_f - z_f) <= 1e-12 * ends
    assert abs(play.w_f - w_f) <= 1e-12 * ends


def halved(scenario, kernels, coeffs, halve_evader):
    """The dispatched solution with its pursuer control halved, and with
    halve_evader its evader control too, valued then at its own cost."""
    sol = solve_rg(scenario, coeffs=coeffs)
    corrupted = dataclasses.replace(sol, u_p=KernelCombo(hp_coef=0.5 * sol.u_p.hp_coef))
    if halve_evader:
        u_e = KernelCombo(he_coef=0.5 * sol.u_e.he_coef, ge_coef=0.5 * sol.u_e.ge_coef)
        value = evaluate_cost(scenario, kernels, corrupted.u_p, u_e).total
        corrupted = dataclasses.replace(corrupted, u_e=u_e, value=value)
    return corrupted


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
    """The probe in kernel coordinates against `probe_loop`, within
    1e-12 max(1, |J*|) on the study and the mixed-orders file. The loop
    integrates the unperturbed pair by Simpson's rule, whose sums err by
    a few n eps of the cost terms (n refined nodes: the rounding of the
    grid steps), while the probe takes that cost exactly from the kernel
    Gram matrix (J* to 2e-14). Where J* cancels far below its terms, as
    on random controllers, the loop's error exceeds that band (1.8e-11 of
    |J*|, 3.9e-12 of the terms, over 40 draws), so there the band is 1e-11
    of the summed terms z_f^2 + alpha int u_p^2 + beta int u_e^2."""

    def check(self, scenario, kernels, coeffs, positions, seed, of_terms=False):
        labels = set()
        for z0, w0 in positions:
            sc = dataclasses.replace(scenario, z0=z0, w0=w0, geometry=None)
            sol = solve_rg(sc, coeffs=coeffs)
            labels.add(sol.region.label)
            report = saddle_probe(sc, sol, n_trials=25, seed=seed, kernels=kernels)
            evader_worst, pursuer_worst = probe_loop(sc, sol, kernels, 25, seed)
            tol = 1e-12 * max(1.0, abs(sol.value))
            if of_terms:
                cost = evaluate_cost(sc, kernels, sol.u_p, sol.u_e)
                tol = 1e-11 * max(1.0, cost.terminal + cost.pursuer_effort + cost.evader_effort)
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

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_random_controllers(self, seed):
        """Random controllers of orders 0-10 (`random_scenario`), in the
        strip, near its wall and beyond either wall, at the band of the
        summed cost terms."""
        rng = np.random.default_rng(seed)
        scenario, kernels = random_scenario(rng, max_order=10)
        coeffs = coefficients(scenario, kernels)
        positions = region_positions(coeffs, float(rng.uniform(-60.0, 60.0)))
        labels = self.check(scenario, kernels, coeffs, positions, seed % 1000, of_terms=True)
        assert labels == set(RegionLabel)

    def test_refuses_other_laws(self, study_scenario, study_kernels, study_coeffs):
        """The probe reads J* from the kernel Gram matrix, so it takes
        kernel laws only: the same evader law as samples is refused."""
        sol = solve_rg(study_scenario, coeffs=study_coeffs)
        bundle = study_kernels.bundle()
        sampled = dataclasses.replace(sol, u_e=Sampled(bundle.ts, bundle.control(sol.u_e)))
        with pytest.raises(TypeError, match="kernel laws"):
            saddle_probe(study_scenario, sampled, n_trials=5, kernels=study_kernels)

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
            products = np.array([[np.sum(simpson_panels((a * b)[0::2], (a * b)[1::2], steps))
                                  for b in rows] for a in rows[:size + 1]])
            return LegendreProducts.of(basis, products, bundle)

        cases = [(study_scenario, study_kernels, study_coeffs, (100.0, -100.0)),
                 (study_scenario, study_kernels, study_coeffs, (100.0, 50.0)),
                 (mixed[0], mixed[1], mixed[2], (mixed[0].z0, mixed[0].w0))]
        for scenario, kernels, coeffs, (z0, w0) in cases:
            sc = dataclasses.replace(scenario, z0=z0, w0=w0, geometry=None)
            sol = solve_rg(sc, coeffs=coeffs)
            cached = saddle_probe(sc, sol, n_trials=50, seed=21, kernels=kernels)
            with monkeypatch.context() as m:
                m.setattr(SampleBundle, "legendre", per_call)
                fresh = saddle_probe(sc, sol, n_trials=50, seed=21, kernels=kernels)
            tol = 1e-12 * max(1.0, abs(sol.value))
            assert abs(cached.evader_worst - fresh.evader_worst) <= tol
            assert abs(cached.pursuer_worst - fresh.pursuer_worst) <= tol

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2 ** 31 - 1])
    def test_draws_match_two_calls_per_stream(self, study_scenario, study_kernels, study_coeffs,
                                              seed, monkeypatch):
        """The 16 coefficients of every trial come from one batched draw of
        the run's one stream, bitwise equal to sequential calls on one
        Generator: per trial, 8 evader and then 8 pursuer normals."""
        seen = []
        peaks = simulate._peaks
        monkeypatch.setattr(simulate, "_peaks", lambda c, basis: seen.append(c.copy()) or peaks(c, basis))
        sol = solve_rg(study_scenario, coeffs=study_coeffs)
        saddle_probe(study_scenario, sol, n_trials=30, seed=seed, kernels=study_kernels)
        rng = np.random.default_rng(seed)
        want = np.empty((30, 2, 8))
        for trial in range(30):
            want[trial, 0] = rng.standard_normal(8)
            want[trial, 1] = rng.standard_normal(8)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], want.reshape(-1, 8))

    # (sides, trial) of the first failure. Seeds 0-39 were searched with
    # `probe_loop` over 10 trials of the halved pair: seed 9 is the first to
    # fail on the pursuer side alone after a passing trial, and seed 7 the
    # first to fail on both sides at one trial after a passing trial.
    FIRST_FAILURES = {(False, 3): (["evader"], 0), (True, 4): (["evader"], 0),
                      (True, 7): (["evader", "pursuer"], 1), (True, 8): (["evader", "pursuer"], 0),
                      (True, 9): (["pursuer"], 1)}

    @pytest.mark.parametrize("halve_evader, seed", list(FIRST_FAILURES))
    def test_failing_trial_matches_loop(self, study_scenario, study_kernels, study_coeffs,
                                        halve_evader, seed):
        """The corrupted pursuer of `test_detects_a_bad_saddle`, and both
        controls halved (valued at their own cost): seed 9 fails first on
        the pursuer side at trial 1, seeds 7 and 8 on both sides at trials
        1 and 0, where the evader side is reported."""
        corrupted = halved(study_scenario, study_kernels, study_coeffs, halve_evader)
        sides, trial, drawn = probe_loop(study_scenario, corrupted, study_kernels, 10, seed)
        assert (sides, trial) == self.FIRST_FAILURES[(halve_evader, seed)]
        with pytest.raises(ProbeFailure, match=sides[0]) as failure:
            saddle_probe(study_scenario, corrupted, n_trials=10, seed=seed, kernels=study_kernels)
        assert failure.value.trial == trial
        np.testing.assert_array_equal(failure.value.coefficients, drawn)

    def test_failure_reports_drawn_coefficients(self, study_scenario, study_kernels, study_coeffs):
        """The coefficients of a failure are the 8 numbers the stream drew
        for the failing side of the trial (evader first, then pursuer)."""
        sol = solve_rg(study_scenario, coeffs=study_coeffs)
        corrupted = dataclasses.replace(sol, value=sol.value - 1e3)  # every evader trial fails
        with pytest.raises(ProbeFailure, match="evader") as failure:
            saddle_probe(study_scenario, corrupted, n_trials=4, seed=8, kernels=study_kernels)
        assert failure.value.trial == 0
        rng = np.random.default_rng(8)
        np.testing.assert_array_equal(failure.value.coefficients, rng.standard_normal(8))
        corrupted = dataclasses.replace(sol, value=sol.value + 1e3)  # every pursuer trial fails
        with pytest.raises(ProbeFailure, match="pursuer") as failure:
            saddle_probe(study_scenario, corrupted, n_trials=4, seed=8, kernels=study_kernels)
        assert failure.value.trial == 0
        rng = np.random.default_rng(8)
        rng.standard_normal(8)
        np.testing.assert_array_equal(failure.value.coefficients, rng.standard_normal(8))

    @pytest.mark.parametrize("seed", [7, 9, 12])
    def test_failure_independent_of_trial_count(self, study_scenario, study_kernels,
                                                study_coeffs, seed):
        """A run's trials are the first trials of any longer run with the
        same seed: 10 and 100 trials of the halved pair report the same
        failing trial, side and coefficients."""
        corrupted = halved(study_scenario, study_kernels, study_coeffs, True)
        failures = []
        for n_trials in (10, 100):
            with pytest.raises(ProbeFailure) as failure:
                saddle_probe(study_scenario, corrupted, n_trials=n_trials, seed=seed,
                             kernels=study_kernels)
            failures.append(failure.value)
        short, long = failures
        assert short.trial == long.trial > 0 and str(short) == str(long)
        np.testing.assert_array_equal(short.coefficients, long.coefficients)


class TestPeakScan:
    """The probe's certified coarse peak scan (`simulate._peaks`) against
    the dense maximum over every refined node (`helpers.dense_peaks`), on
    the probe's draws: equal to 2 ulp of each peak, and every dense argmax
    node lies in the window of a candidate cell of its row. The scan is
    built from the Legendre basis at any ascending sample times: the
    refined nodes of grids over [0, 1], and those of the 2001-node grid
    raised to the power 1.5."""

    GRIDS = {str(n): TimeGrid(0.0, 1.0, n).refined() for n in (2001, 301, 2500, 3, 2)}
    GRIDS["power"] = TimeGrid(0.0, 1.0, 2001).refined() ** 1.5

    @staticmethod
    def basis_and_scan(ts, size):
        """The Legendre basis of `SampleBundle.legendre` over [0, 1] at ts,
        and its `PeakScan`."""
        basis = np.polynomial.legendre.legvander(2.0 * ts - 1.0, size - 1).T
        return basis, PeakScan.of(basis, ts)

    @staticmethod
    def starts(scan, n):
        """The first node of each window of a scan over n nodes: cell j
        starts at coarse node 50 j, and the last window ends on the last
        node."""
        cells, _, width = scan.windows.shape
        return np.minimum(np.arange(cells) * 50, n - width)

    @pytest.mark.parametrize("n_trials", [0, 1, 100])
    @pytest.mark.parametrize("size", [1, 2, 8])
    @pytest.mark.parametrize("grid", list(GRIDS))
    def test_matches_dense(self, grid, size, n_trials):
        basis, scan = self.basis_and_scan(self.GRIDS[grid], size)
        draws = np.random.default_rng(size).standard_normal((n_trials, 2, size)).reshape(-1, size)
        got = simulate._peaks(draws, scan)
        want = dense_peaks(draws, basis)
        assert got.shape == want.shape == (2 * n_trials,)
        assert (np.abs(got - want) <= 2.0 * np.spacing(want)).all()
        _, rows, cells, _ = simulate._candidates(draws, scan, np.linalg.norm(draws, axis=1))
        first = self.starts(scan, basis.shape[1])[cells]
        for row, node in enumerate(np.abs(draws @ basis).argmax(axis=1)):
            hits = (rows == row) & (first <= node) & (node < first + scan.windows.shape[2])
            assert hits.any(), (row, node)

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 12), n_rows=st.integers(0, 300),
           n_nodes=st.integers(2, 5001), log_scale=st.floats(-3.0, 3.0),
           flat_share=st.floats(0.0, 1.0), power=st.sampled_from([1.0, 1.5]))
    def test_gated_matches_dense(self, seed, size, n_rows, n_nodes, log_scale, flat_share,
                                 power):
        """The bow-gated scan against the dense maximum, to 2 ulp of each
        peak: bases of 1-12 Legendre polynomials at 2-5001 ascending
        nodes (uniform, or uniform raised to the power 1.5), 0-300 rows
        scaled by 1e-3 to 1e3. A share of the rows have flat interior
        extrema: a zero slope at a random time, a parabola whose global
        peak sits a fraction 0.4-0.6 of a step past a coarse node (so an
        interior node beats the coarse one by a hair), or a constant.
        `_candidates` keeps the rows and cells of its kappa rule bitwise."""
        rng = np.random.default_rng(seed)
        ts = np.linspace(0.0, 1.0, n_nodes) ** power
        basis, scan = self.basis_and_scan(ts, size)
        rows = rng.standard_normal((n_rows, size))
        slope = np.polynomial.legendre.legder(np.eye(size)) if size > 1 else None
        for row in np.flatnonzero(rng.uniform(size=n_rows) < flat_share):
            kind = rng.integers(3) if size > 2 and n_nodes > 2 else (0 if size > 1 else 2)
            if kind == 0:  # zero slope at a random time
                d = np.polynomial.legendre.legval(rng.uniform(-1.0, 1.0), slope)
                rows[row] -= (rows[row] @ d) / (d @ d) * d
            elif kind == 1:  # 1 - b (x - x*)^2, its peak just past a coarse node
                a = min(50 * int(rng.integers(0, (n_nodes - 2) // 50 + 1)), n_nodes - 2)
                x = 2.0 * (ts[a] + rng.uniform(0.4, 0.6) * (ts[a + 1] - ts[a])) - 1.0
                b = rng.uniform(0.01, 0.5)
                rows[row] = 0.0
                rows[row, :3] = np.polynomial.legendre.poly2leg([1.0 - b * x * x, 2.0 * b * x, -b])
            else:  # constant
                rows[row, 1:] = 0.0
        rows *= 10.0 ** log_scale
        got = simulate._peaks(rows, scan)
        want = dense_peaks(rows, basis)
        assert (np.abs(got - want) <= 2.0 * np.spacing(want)).all()
        for got, want in zip(simulate._candidates(rows, scan, np.linalg.norm(rows, axis=1)),
                             coarse_candidates(rows, scan), strict=True):
            np.testing.assert_array_equal(got, want)

    def test_cells_cover_every_node(self, study_kernels):
        """Windows of the coarse scan are the basis over each cell, cover
        each refined node, and the last window ends on the last node; the
        coarse columns are the basis at every 50th node and the last."""
        for ts in self.GRIDS.values():
            basis, scan = self.basis_and_scan(ts, 8)
            width = scan.windows.shape[2]
            covered = np.zeros(ts.size, dtype=bool)
            starts = self.starts(scan, ts.size)
            for window, start in zip(scan.windows, starts, strict=True):
                np.testing.assert_array_equal(window, basis[:, start:start + width])
                covered[start:start + width] = True
            assert covered.all() and starts[-1] + width == ts.size
            index = np.unique(np.append(np.arange(0, ts.size, 50), ts.size - 1))
            np.testing.assert_array_equal(scan.coarse, basis[:, index])
            assert scan.kappa.shape == (index.size - 1,) and (scan.kappa > 0.0).all()

    def test_bundle_keeps_the_same_scan(self, study_kernels):
        """A bundle's peak scan over [0, 1] is the one built here from the
        basis at its refined nodes, bit for bit (its windows hold that
        basis)."""
        for n in (2001, 301, 3):
            bundle = study_kernels.bundle(TimeGrid(0.0, 1.0, n))
            basis, scan = self.basis_and_scan(self.GRIDS[str(n)], 8)
            np.testing.assert_array_equal(bundle.ts, self.GRIDS[str(n)])
            kept = bundle.legendre(8, 1.0).scan
            for field in ("coarse", "kappa", "bow", "inner", "windows"):
                np.testing.assert_array_equal(getattr(kept, field), getattr(scan, field))

    def test_scan_data_held(self, study_kernels):
        """The scan keeps its windows, the basis over the 80 cells of 51
        nodes (261 KB, in place of the 256 KB basis, which the bundle does
        not keep), and a few KB more: the basis at the 81 coarse nodes
        (5.2 KB) and the bounds and theta ranges of the 80 cells."""
        bundle = study_kernels.bundle()
        basis = np.polynomial.legendre.legvander(2.0 * bundle.ts - 1.0, 7).T
        tracemalloc.start()
        try:
            scan = PeakScan.of(basis, bundle.ts)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert scan.windows.shape == (80, 8, 51) and scan.windows.flags.owndata
        assert scan.windows.nbytes <= 1.02 * basis.nbytes
        assert (scan.coarse.nbytes + scan.kappa.nbytes + scan.bow.nbytes
                + scan.inner.nbytes) <= 8e3
        assert held <= scan.windows.nbytes + 12e3


def response_scenario(seed, order_p, order_e):
    """A random scenario of the full-playout properties, and the generator
    that drew it, which then draws the laws."""
    rng = np.random.default_rng(seed)
    return rng, z.EngagementScenario(
        pursuer=random_controller(rng, order_p), evader=random_controller(rng, order_e),
        t_f=float(rng.uniform(0.6, 1.8)), t_c=float(rng.uniform(0.3, 1.2)),
        alpha=0.1, beta=1.0, ae_max=50.0,
        z0=float(rng.uniform(-150.0, 150.0)), w0=float(rng.uniform(-150.0, 150.0)))


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

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2 ** 32 - 1), order_p=st.integers(0, 10),
           order_e=st.integers(0, 10))
    def test_random_controllers(self, seed, order_p, order_e):
        rng, sc = response_scenario(seed, order_p, order_e)
        grid = TimeGrid(0.0, sc.t_f, 401)
        k = z.Kernels(sc)
        u_p = KernelCombo(hp_coef=float(rng.uniform(-30, 30)))
        u_e = KernelCombo(he_coef=float(rng.uniform(-30, 30)), ge_coef=float(rng.uniform(-30, 30)))
        assert_full_matches_loop(sc, u_p, u_e, grid, k)


def direct_laws(bundle, *laws):
    """Each law as its samples on the bundle's refined nodes, which no
    kept response serves: the direct path on the same samples."""
    return [Sampled(bundle.ts, bundle.control(law)) for law in laws]


class TestKernelResponses:
    """Playouts of kernel laws u_p = c_p h_p and u_e = c_he h_e + c_ge g_e
    are weighted sums of the responses each bundle keeps
    (`SampleBundle.responses`, `running_products`). They agree with the
    direct path on the same samples within 1e-13 of the largest magnitude
    among the state, z, w, z0 and w0: the sums reorder the rounding only.
    Measured over 60 draws of orders 0-10: 4.3e-15 (full) and 6.7e-15
    (reduced) on 401-node grids; the control samples are bitwise equal."""

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2 ** 32 - 1), order_p=st.integers(0, 10),
           order_e=st.integers(0, 10))
    def test_matches_direct_path(self, seed, order_p, order_e):
        rng, sc = response_scenario(seed, order_p, order_e)
        k = z.Kernels(sc)
        grid = TimeGrid(0.0, sc.t_f, 401)
        u_p = KernelCombo(hp_coef=float(rng.uniform(-30, 30)))
        u_e = KernelCombo(he_coef=float(rng.uniform(-30, 30)), ge_coef=float(rng.uniform(-30, 30)))
        s_p, s_e = direct_laws(k.bundle(grid), u_p, u_e)

        full, direct = playout_full(sc, u_p, u_e, grid, kernels=k), playout_full(sc, s_p, s_e, grid, kernels=k)
        scale = max(1.0, abs(sc.z0), abs(sc.w0), *(np.abs(a).max() for a in
                                                 (direct.x_traj, direct.z_traj, direct.w_traj)))
        for got, want in ((full.x_traj, direct.x_traj), (full.z_traj, direct.z_traj),
                          (full.w_traj, direct.w_traj)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale)
        assert abs(full.miss - direct.miss) <= 1e-13 * scale

        reduced = playout_reduced(sc, k, u_p, u_e, grid)
        direct = playout_reduced(sc, k, s_p, s_e, grid)
        scale = max(1.0, abs(sc.z0), abs(sc.w0), np.abs(direct.z_traj).max(),
                    np.abs(direct.w_traj).max())
        np.testing.assert_allclose(reduced.z_traj, direct.z_traj, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(reduced.w_traj, direct.w_traj, rtol=0, atol=1e-13 * scale)
        bundle = k.bundle(grid)
        np.testing.assert_array_equal(bundle.control(u_p), bundle.control(s_p))
        np.testing.assert_array_equal(bundle.control(u_e), bundle.control(s_e))

    def test_warm_calls_run_no_rk4(self, study_scenario, study_coeffs, monkeypatch):
        """The first full playout on a bundle runs three `rk4_affine` scans
        (each player under each kernel that drives it; the responses to a
        unit lateral velocity are formed from the nodes); later kernel-law
        playouts on it run none, at any position, while other laws still
        take the direct path, one scan a player."""
        k = z.Kernels(study_scenario)
        calls = []
        for module in (reduction, simulate):
            monkeypatch.setattr(module, "rk4_affine", lambda *a, _f=module.rk4_affine:
                                calls.append(1) or _f(*a))
        sol = solve_rg(study_scenario, coeffs=study_coeffs)
        playout_full(study_scenario, sol.u_p, sol.u_e, kernels=k)
        assert len(calls) == 3
        for z0, w0 in ((100.0, 50.0), (-100.0, -20.0), (100.0, -50.0)):
            sc = dataclasses.replace(study_scenario, z0=z0, w0=w0, geometry=None)
            for sign in (1, -1):
                branch = solve_erg_branch(study_coeffs, z0, w0, sign)
                playout_full(sc, branch.u_p, branch.u_e, kernels=k)
                playout_reduced(sc, k, branch.u_p, branch.u_e)
        assert len(calls) == 3
        playout_full(study_scenario, sol.u_p, Constant(1.0), kernels=k)
        assert len(calls) == 5

    def test_kept_read_only(self, study_kernels):
        bundle = study_kernels.bundle()
        kept = bundle.responses()
        assert bundle.responses() is kept and bundle.running_products() is bundle.running_products()
        for array in (kept.pursuer, kept.evader, kept.z, kept.w, bundle.running_products()):
            assert not array.flags.writeable

    def test_replaced_bundle_drops_its_responses(self, study_scenario, study_coeffs):
        k = z.Kernels(study_scenario)
        sol = solve_rg(study_scenario, coeffs=study_coeffs)
        grid = TimeGrid(0.0, study_scenario.t_f, 301)
        playout_full(study_scenario, sol.u_p, sol.u_e, grid, kernels=k)
        playout_reduced(study_scenario, k, sol.u_p, sol.u_e, grid)
        kept = [weakref.ref(k.bundle(grid).responses()),
                weakref.ref(k.bundle(grid).running_products())]
        k.bundle(TimeGrid(0.0, study_scenario.t_f, 302))
        gc.collect()
        assert [ref() for ref in kept] == [None, None]

    @pytest.mark.parametrize("u_p, u_e", [
        (KernelCombo(hp_coef=1e306), KernelCombo(he_coef=1.0)),
        (KernelCombo(hp_coef=1.0), KernelCombo(he_coef=1e306, ge_coef=1e306)),
    ])
    def test_overflow_raises_as_direct_path(self, u_p, u_e):
        """A sum that overflows takes the direct path, so it raises that
        path's ValueError, message included (on t_f = 50 the kernels reach
        about 50, and the states far more)."""
        sc = z.first_order_scenario(0.2, 0.1, 50.0, 10.0, 0.05, 1e6, 100.0, z0=100.0, w0=-100.0)
        k = z.Kernels(sc)
        s_p, s_e = direct_laws(k.bundle(), u_p, u_e)
        for play in (lambda p, e: playout_full(sc, p, e, kernels=k),
                     lambda p, e: playout_reduced(sc, k, p, e)):
            messages = []
            for p, e in ((u_p, u_e), (s_p, s_e)):
                with np.errstate(over="ignore", invalid="ignore"):
                    with pytest.raises(ValueError) as raised:
                        play(p, e)
                messages.append(str(raised.value))
            assert messages[0] == messages[1]
            assert "non-finite" in messages[0]


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
        """A full playout of an order-10 pair (d = 24) on the 2001-node
        build grid, its bundle sampled beforehand. The (steps x 24 x 24)
        step matrices alone would be 9.2 MB; with the step offsets formed
        from the two control rows, and no tabulated (refined nodes x 24)
        forcing, the call peaks at about 2.0 MB (3.2 MB with the forcing)."""
        rng = np.random.default_rng(10)
        sc = z.EngagementScenario(
            pursuer=random_controller(rng, 10), evader=random_controller(rng, 10),
            t_f=1.2, t_c=0.7, alpha=0.1, beta=1.0, ae_max=50.0, z0=80.0, w0=-30.0)
        k = z.Kernels(sc)
        k.bundle()
        peak, _ = self.traced(lambda: playout_full(sc, KernelCombo(hp_coef=3.0),
                                                   KernelCombo(he_coef=-2.0, ge_coef=1.5),
                                                   kernels=k))
        assert peak <= 3.0e6

    def test_responses_held_order_ten(self):
        """The kernel responses an order-10 pair's bundle keeps after its
        first full and reduced playouts: five (2001 x 12) trajectories,
        their z and w, and four running Simpson sums, 1.15 MB measured."""
        rng = np.random.default_rng(10)
        sc = z.EngagementScenario(
            pursuer=random_controller(rng, 10), evader=random_controller(rng, 10),
            t_f=1.2, t_c=0.7, alpha=0.1, beta=1.0, ae_max=50.0, z0=80.0, w0=-30.0)
        k = z.Kernels(sc)
        k.bundle()
        u_p, u_e = KernelCombo(hp_coef=3.0), KernelCombo(he_coef=-2.0, ge_coef=1.5)
        _, held = self.traced(lambda: (playout_full(sc, u_p, u_e, kernels=k),
                                       playout_reduced(sc, k, u_p, u_e)))
        assert held <= 1.5e6

    def test_off_grid_memo(self, study_scenario, study_coeffs):
        """Costs on 12 distinct grids over [0, t_f] of 2490 to 2501 nodes:
        each builds one bundle (about 0.66 MB at its peak) and keeps it in
        place of the last (about 0.36 MB held), so neither the peak nor what
        stays grows. The evader law is a constant, so that the cost is
        sampled: a pair of kernel combinations reads no grid."""
        k = z.Kernels(study_scenario)
        sol = solve_rg(study_scenario, coeffs=study_coeffs)

        def costs():
            for n in range(2490, 2502):
                evaluate_cost(study_scenario, k, sol.u_p, Constant(100.0),
                              TimeGrid(0.0, study_scenario.t_f, n))

        peak, held = self.traced(costs)
        assert peak <= 1.5e6
        assert held <= 0.5e6

    # above the peaks measured with the certified peak scan and the factored
    # RK4 offsets: 0.80 MB (the probe's one batched product holds the windows
    # of its ~150 kept cells, 0.5 MB, at once) and 0.75 MB
    PEAK_BOUNDS = {"probe": 0.95e6, "full": 1.15e6}

    @pytest.mark.parametrize("run", ["probe", "full"])
    def test_peak(self, study_scenario, study_kernels, study_coeffs, run):
        """A probe of 100 trials and a full playout on the study's default
        grid, its bundle, Legendre data and peak scan built beforehand."""
        sc = dataclasses.replace(study_scenario, z0=100.0, w0=50.0, geometry=None)
        sol = solve_rg(sc, coeffs=study_coeffs)
        calls = {
            "probe": lambda: saddle_probe(sc, sol, n_trials=100, seed=1, kernels=study_kernels),
            "full": lambda: playout_full(sc, sol.u_p, sol.u_e, kernels=study_kernels),
        }
        study_kernels.bundle().legendre(8, sc.t_f)
        peak, _ = self.traced(calls[run])
        assert peak <= self.PEAK_BOUNDS[run]

    def test_peak_first_probe(self, study_scenario, study_coeffs):
        """The first probe on a bundle also builds the Legendre basis, its
        Gram block and its peak scan: about 1.6 MB at the peak."""
        k = z.Kernels(study_scenario)
        k.bundle()
        sc = dataclasses.replace(study_scenario, z0=100.0, w0=50.0, geometry=None)
        sol = solve_rg(sc, coeffs=study_coeffs)
        peak, _ = self.traced(lambda: saddle_probe(sc, sol, n_trials=100, seed=1, kernels=k))
        assert peak <= 2.4e6

    def test_peak_many_trials(self, study_scenario, study_kernels, study_coeffs):
        """A probe of 20,000 trials, its Legendre data built beforehand: the
        coarse values and bounds of 40,000 rows at 81 coarse nodes peak at
        about 80 MB, and the kept cells are evaluated a bounded number at a
        time (their windows at once would add about 100 MB)."""
        sc = dataclasses.replace(study_scenario, z0=100.0, w0=50.0, geometry=None)
        sol = solve_rg(sc, coeffs=study_coeffs)
        study_kernels.bundle().legendre(8, sc.t_f)
        peak, _ = self.traced(lambda: saddle_probe(sc, sol, n_trials=20_000, seed=1,
                                                   kernels=study_kernels))
        assert peak <= 100e6
