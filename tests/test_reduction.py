import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zemgame as z
from zemgame import (
    AffineInTime,
    Constant,
    KernelCombo,
    Kernels,
    Sampled,
    coefficients,
)
from zemgame import numerics, reduction, reference, solver
from zemgame.cli import load_scenario, scenario_from_document
from zemgame.engagement import build_evader_ss
from zemgame.numerics import mat_exp, quad_adaptive
from zemgame.reduction import sample_control
from zemgame.errors import AssertionFailure, NoControlAuthority, SolvabilityError

from helpers import (MIXED_ORDERS, ORACLE, check_failure, first_order_coefficients, game_matrices,
                     oscillator, psi_moments, psi_product_integral, psi_ref, random_controller, random_draws,
                     random_first_order, random_scenario, reference_gram, solvability_threshold)

# Lags log-uniform on [1e-5, 1]; horizons from t_f = 0.02 and tails from 0
# up, so t_f/tau and t_c/tau_e reach well below 1, where the closed forms
# switch to power series.
LAG = st.floats(-5.0, 0.0).map(lambda e: 10.0 ** e)
TAIL = st.one_of(st.just(0.0), st.floats(0.0, 0.2, exclude_min=True), st.floats(0.2, 2.0))

# The four product integrals and mu_e, read off coefficients computed with
# alpha = 1 (so nu_p = int h_p^2) and a large beta.
INTEGRALS = {
    "int h_p^2": lambda c: c.nu_p * c.alpha,
    "int h_e^2": lambda c: c.beta_star,
    "int h_e g_e": lambda c: c.G2 * c.beta,
    "int g_e^2": lambda c: c.G3 * c.beta,
    "mu_e": lambda c: c.mu_e,
}


def exact_and_closed(tau_p, tau_e, t_f, t_c):
    args = (tau_p, tau_e, t_f, t_c, 1.0, 1e9, 1.0)
    return coefficients(z.first_order_scenario(*args)), first_order_coefficients(*args)


def sign_cells_rule(A, span):
    """The scan's cell count from the spectrum of the whole player block:
    max(256, ceil(4 max |Im lambda(A)| span)), rounded up to a power of
    two."""
    omega = float(np.abs(np.linalg.eigvals(A).imag).max())
    return 2 ** int(np.ceil(np.log2(max(256, int(np.ceil(4.0 * omega * span))))))


def tail_weight_loop(A, B, D, t_c):
    """`reduction._tail_weight` with its sign changes paired by a Python loop
    over the scan cells, as before the pairing was vectorised, its cells
    from `sign_cells_rule`, its scan rows from the doubling scan
    (`_progression_rows`) and its scan times from `linspace`; the reference
    for bitwise-equal mu_e."""
    if t_c == 0.0:
        return 0.0
    n = A.shape[0]
    M, scale = reduction._augmented(A, B)
    AB = A @ B
    cells = sign_cells_rule(A, t_c)
    s = np.linspace(0.0, t_c, cells + 1)
    rows = reduction._progression_rows(np.append(D, 0.0), M, t_c / cells, cells + 1)[0]
    g = rows[:, :n] @ B
    signs = np.sign(g)
    nonzero = np.flatnonzero(signs)
    knots = [0.0]
    for i, j in zip(nonzero[:-1], nonzero[1:]):
        if signs[i] == signs[j]:
            continue
        lo, hi = s[i], s[j]
        x = lo - g[i] * (hi - lo) / (g[j] - g[i])
        for _ in range(reduction._MAX_ROOT_STEPS):
            r = rows[i] @ mat_exp(M, x - s[i])
            gx = r[:n] @ B
            if gx == 0.0:
                break
            if np.sign(gx) == signs[i]:
                lo = x
            else:
                hi = x
            slope = r[:n] @ AB
            nxt = x - gx / slope if slope != 0.0 else np.nan
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
            if abs(nxt - x) <= 1e-12 * t_c:
                break
            x = nxt
        knots.append(float(r[n]))
    knots.append(float(rows[-1, n]))
    return scale * float(np.abs(np.diff(knots)).sum())


def mu_e(scenario):
    """mu_e by its one path, the scenario's game coefficients."""
    return coefficients(scenario).mu_e


def assert_mu_e_matches_loop(evader, t_c):
    sc = z.EngagementScenario(pursuer=z.ControllerModel.first_order(0.2), evader=evader,
                              t_f=1.0, t_c=t_c, alpha=0.05, beta=1e9, ae_max=1.0,
                              z0=0.0, w0=0.0)
    ev = build_evader_ss(evader)
    assert mu_e(sc) == tail_weight_loop(ev.A, ev.B, ev.D_row, t_c)


def position_kernel(model):
    """s -> D exp(A s) B of one player, by scipy's matrix exponential."""
    expm = pytest.importorskip("scipy.linalg").expm
    ss = build_evader_ss(model)
    return lambda s: float(ss.D_row @ expm(ss.A * s) @ ss.B)


class TestKernels:
    def test_study_closed_forms(self, study_kernels):
        ts = np.linspace(0.0, 1.0, 157)
        hp, he = study_kernels.sample_engagement(ts)
        np.testing.assert_allclose(hp, -0.2 * psi_ref((1.0 - ts) / 0.2), atol=1e-12)
        np.testing.assert_allclose(he, 0.1 * psi_ref((1.0 - ts) / 0.1), atol=1e-12)
        ge = study_kernels.sample_target(ts)
        np.testing.assert_allclose(ge, 0.1 * psi_ref((1.9 - ts) / 0.1), atol=1e-12)

    def test_off_grid_matches_closed_form(self, study_kernels):
        # single points: one matrix exponential each, no doubling
        for t in np.random.default_rng(8).uniform(0.0, 1.0, 25):
            assert study_kernels.h_p(t) == pytest.approx(-0.2 * psi_ref((1.0 - t) / 0.2), abs=1e-12)
            assert study_kernels.h_e(t) == pytest.approx(0.1 * psi_ref((1.0 - t) / 0.1), abs=1e-12)
            assert study_kernels.g_e(t) == pytest.approx(0.1 * psi_ref((1.9 - t) / 0.1), abs=1e-12)

    def test_strictly_proper_kernels_vanish_at_horizon(self, study_kernels):
        assert study_kernels.h_p(1.0) == pytest.approx(0.0, abs=1e-14)
        assert study_kernels.h_e(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_zero_order_pursuer_kernel(self):
        sc = dataclasses.replace(z.first_order_scenario(**reference.STUDY),
                                 pursuer=z.ControllerModel.zero_order(feed=1.0))
        k = Kernels(sc)
        ts = np.linspace(0.0, 1.0, 31)
        hp, _ = k.sample_engagement(ts)
        np.testing.assert_allclose(hp, -(1.0 - ts), atol=1e-12)

    def test_tail_value(self, study_kernels):
        assert study_kernels.g_e(1.0) == pytest.approx(0.800012341, abs=1e-7)

    def test_rows_accuracy_does_not_grow_with_nodes(self, study_kernels):
        """The study's rows on the 200,001 refined nodes of a 100,001-node
        grid, each player's doubled from one step: the pursuer's
        e_0 exp(A_p s), the evader's e_0 exp(A_e s) and its target rows
        e_0 exp(A_e (s + t_c)), against 40-digit exponentials at 45 of the
        nodes (both ends, the first steps and every 5,000th), within 1e-14
        of each row's largest entry. Doubled as E <- E @ E the rows of the
        relative system were 2.2e-11 off."""
        mpmath = pytest.importorskip("mpmath")
        k = study_kernels
        grid = z.TimeGrid(0.0, 1.0, 100_001)
        nodes = grid.refined()
        rows_p, rows_e = k.rows(grid)
        (pursuer, evader), t_c = k._players, mpmath.mpf(k.t_c)
        with mpmath.workdps(40):
            for rows, player, lead in ((rows_p, pursuer, 0), (rows_e[:, 0], evader, 0),
                                       (rows_e[:, 1], evader, t_c)):
                A = mpmath.matrix(player.A.tolist())
                for i in sorted({0, 1, 2, 3, 199_999, *range(0, 200_001, 5_000)}):
                    s = mpmath.mpf(k.t_f) - mpmath.mpf(nodes[i]) + lead
                    E = mpmath.expm(A * s)
                    want = [E[0, j] for j in range(A.cols)]
                    scale = max(abs(x) for x in want)
                    assert max(abs(mpmath.mpf(r) - w)
                               for r, w in zip(rows[i], want)) <= 1e-14 * scale

    @staticmethod
    def stress_case(case):
        """The scenario of a named case: the study, the mixed-orders file, a
        50 s horizon, or a 1e-5 s lag of either player."""
        lags = dict(alpha=0.05, beta=1e9, ae_max=100.0, z0=100.0, w0=-100.0)
        return {"study": reference.study_scenario,
                "mixed": lambda: load_scenario(str(MIXED_ORDERS))[0],
                "long_50": lambda: z.first_order_scenario(0.2, 0.1, 50.0, 30.0, **lags),
                "stiff_pursuer": lambda: z.first_order_scenario(1e-5, 0.1, 1.0, 0.9, **lags),
                "stiff_evader": lambda: z.first_order_scenario(0.2, 1e-5, 1.0, 0.9, **lags)}[case]()

    @pytest.mark.parametrize("case, band", [("study", 5e-15), ("mixed", 2e-15), ("long_50", 5e-14),
                                            ("stiff_pursuer", 1e-11), ("stiff_evader", 1e-11)])
    def test_bundle_matches_per_point_kernels(self, case, band):
        """The build grid's bundle (one doubling scan a player, `Kernels.rows`)
        against the samplers (one exponential a point and kernel) at every
        8th refined node, within the band of each kernel's largest value.
        Measured: 2.5e-15 (study), 8.2e-16 (mixed), 2.2e-14 (long_50) and
        3.6e-12 on the stiff lags, where the per-point path is the one off
        (`test_stiff_rows_against_reference`)."""
        k = Kernels(self.stress_case(case))
        bundle = k.bundle()
        ts = bundle.ts[::8]
        (hp, he), ge = k.sample_engagement(ts), k.sample_target(ts)
        for kept, point in ((bundle.h_p, hp), (bundle.h_e, he), (bundle.g_e, ge)):
            assert np.abs(kept[::8] - point).max() <= band * np.abs(kept).max()

    @pytest.mark.parametrize("case", ["stiff_pursuer", "stiff_evader"])
    def test_stiff_rows_against_reference(self, case):
        """Both row paths on a 1e-5 s lag against 40-digit exponentials at
        47 refined nodes of the build grid, relative to each kernel's
        largest value. The doubling scan holds the lagged player's own
        kernel to 7.8e-16 where one exponential a point is 3.6e-12 off; the
        stiff evader's g_e starts both paths from the same exponential at
        t_c, and is 3.6e-12 (scan) and 7.3e-12 (per point) off."""
        mpmath = pytest.importorskip("mpmath")
        k = Kernels(self.stress_case(case))
        bundle = k.bundle()
        index = np.unique(np.r_[np.arange(0, bundle.ts.size, 97), bundle.ts.size - np.arange(1, 6)])
        ts = bundle.ts[index]
        (hp, he), ge = k.sample_engagement(ts), k.sample_target(ts)
        (pursuer, evader), t_c = k._players, mpmath.mpf(k.t_c)
        stiff = {"stiff_pursuer": 0, "stiff_evader": 1}[case]
        with mpmath.workdps(40):
            for kernel, (kept, point, player, lead, sign) in enumerate((
                    (bundle.h_p, hp, pursuer, 0, -1), (bundle.h_e, he, evader, 0, 1),
                    (bundle.g_e, ge, evader, t_c, 1))):
                A, B = mpmath.matrix(player.A.tolist()), mpmath.matrix(player.B.tolist())
                want = np.array([float(sign * (mpmath.expm(A * (1 - mpmath.mpf(t) + lead)) * B)[0])
                                 for t in ts])
                scale = np.abs(want).max()
                scan, each = (np.abs(got - want).max() / scale for got in (kept[index], point))
                if kernel == stiff:
                    assert scan <= 2e-15 and each <= 1e-11
                elif kernel == 2 and case == "stiff_evader":
                    assert scan <= 1e-11 and each <= 2e-11
                else:
                    assert scan <= 2e-15 and each <= 2e-15

    def test_bundle_tail_value_at_horizon(self, study_kernels):
        """The bundle's g_e(t_f) = e_0 exp(A_e t_c) B_e is within 4 ulps of
        its 40-digit value: the target rows start at t_c itself, not at
        (t_f + t_c) - t_f, which rounds to 0.8999999999999999 on the
        study (7.5 ulps off)."""
        mpmath = pytest.importorskip("mpmath")
        evader = study_kernels._players[1]
        with mpmath.workdps(40):
            E = mpmath.expm(mpmath.matrix(evader.A.tolist()) * mpmath.mpf(study_kernels.t_c))
            want = sum(E[0, j] * mpmath.mpf(b) for j, b in enumerate(evader.B.tolist()))
        got = study_kernels.bundle().g_e[-1]
        assert abs(mpmath.mpf(got) - want) <= 4 * math.ulp(float(want))


class TestMuE:
    def test_study_value(self, study_scenario):
        value = mu_e(study_scenario)
        assert value == pytest.approx(0.325, abs=5e-4)
        assert value == pytest.approx(ORACLE.mu_e, rel=1e-9)

    def test_zero_tail(self):
        sc = z.first_order_scenario(0.2, 0.1, 1.0, 0.0, 0.05, 0.3, 100.0)
        assert mu_e(sc) == 0.0

    def test_sign_change_on_tail(self):
        """Feedthrough -1 and static gain 2: the position response undershoots,
        so g_e changes sign once on the tail."""
        integrate = pytest.importorskip("scipy.integrate")
        brentq = pytest.importorskip("scipy.optimize").brentq
        tau, t_c = 0.1, 0.5
        evader = z.ControllerModel(order=1, sys=[[-1.0 / tau]], inp=[3.0 / tau],
                                   out=[1.0], feed=-1.0)
        sc = z.EngagementScenario(pursuer=z.ControllerModel.first_order(0.2), evader=evader,
                                  t_f=1.0, t_c=t_c, alpha=0.05, beta=1.0, ae_max=100.0,
                                  z0=0.0, w0=0.0)
        ke = position_kernel(evader)
        assert ke(0.5 * tau) < 0.0 < ke(t_c)
        root = brentq(ke, 0.5 * tau, t_c, xtol=1e-15)
        opts = dict(epsabs=0.0, epsrel=1e-13)
        reference = (-integrate.quad(ke, 0.0, root, **opts)[0]
                     + integrate.quad(ke, root, t_c, **opts)[0])
        assert mu_e(sc) == pytest.approx(reference, rel=1e-10)
        assert mu_e(sc) > abs(integrate.quad(ke, 0.0, t_c, **opts)[0])

    def test_sign_scan_work_is_bounded(self):
        sc = dataclasses.replace(
            z.first_order_scenario(0.2, 0.1, 1.0, 0.5, 0.05, 0.3, 100.0),
            evader=oscillator(1e7, 0.05))
        with pytest.raises(ValueError, match="sign-scan cells"):
            mu_e(sc)

    def test_against_closed_form(self, study_scenario):
        tau_e, sigma = 0.1, 9.0
        closed = tau_e ** 2 * (1.0 - sigma + sigma ** 2 / 2 - np.exp(-sigma))
        assert mu_e(study_scenario) == pytest.approx(closed, abs=1e-8)

    @pytest.mark.parametrize("case, band", [("study", 2e-15), ("t_f=50", 2e-15),
                                            ("oscillator", 2e-15), ("tau_e=1e-5", 2e-15)])
    def test_accuracy_against_mpmath(self, study_scenario, case, band):
        """mu_e against the exponential of the augmented evader block at t_c
        in 40-digit arithmetic. g_e keeps one sign on each tail, so mu_e is
        |P(t_c)|, the block's top-right position entry. The bands hold
        today's error (3.7e-16 at most): mu_e is read from the end row of
        the doubling scan (`_progression_rows`), which carries each level
        as I + F, so its error does not grow with the cell count. When each
        level was squared as E <- E @ E, the error was 2.9e-14 (5e-14 for
        the 160 rad/s oscillator, 3.6e-12 for the stiff lag). beta, which
        mu_e does not read, is raised so that every case is a solvable
        game."""
        mpmath = pytest.importorskip("mpmath")
        evader, t_f, t_c = {"study": (study_scenario.evader, 1.0, 0.9),
                            "t_f=50": (z.ControllerModel.first_order(0.1), 50.0, 30.0),
                            "oscillator": (oscillator(160.0, 0.05), 1.0, 0.7),
                            "tau_e=1e-5": (z.ControllerModel.first_order(1e-5), 1.0, 0.9)}[case]
        sc = dataclasses.replace(study_scenario, evader=evader, t_f=t_f, t_c=t_c, beta=1e9)
        ev = build_evader_ss(evader)
        g = [float(ev.D_row @ mat_exp(ev.A, s) @ ev.B) for s in np.linspace(0.0, t_c, 513)[1:]]
        assert min(g) > 0.0
        M, scale = reduction._augmented(ev.A, ev.B)
        assert scale == 1.0
        with mpmath.workdps(40):
            exact = abs(mpmath.expm(mpmath.matrix(M.tolist()) * mpmath.mpf(t_c))[0, M.shape[0] - 1])
            error = float(abs(mpmath.mpf(mu_e(sc)) - exact) / exact)
        assert error <= band

    @pytest.mark.parametrize("gain", [1.0, 1e4, 1e8, 1e12])
    def test_pure_gain_at_every_gain(self, study_scenario, gain):
        """An order-0 evader of feedthrough d has g_e = d s on the tail, so
        mu_e = d t_c^2 / 2 and int_0^t_f g_e = d (t_f t_c + t_f^2 / 2). The
        gain is balanced out of the augmented blocks (`reduction._augmented`):
        unbalanced, mu_e was 3e-5 off at d = 1e12. beta and ae_max scale
        with the gain, as the game's gain symmetry asks."""
        sc = dataclasses.replace(study_scenario, evader=z.ControllerModel.zero_order(feed=gain),
                                 beta=gain ** 2, ae_max=100.0 / gain)
        t_f, t_c = sc.t_f, sc.t_c
        assert mu_e(sc) == pytest.approx(gain * t_c ** 2 / 2.0, rel=1e-13, abs=0.0)
        assert reduction.integral_g_e(sc) == pytest.approx(gain * (t_f * t_c + t_f ** 2 / 2.0),
                                                           rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("omega", [10.0, 40.0, 160.0, 1e3])
    def test_oscillator_matches_cell_loop(self, omega):
        assert_mu_e_matches_loop(oscillator(omega, 0.05), 0.9)

    @pytest.mark.parametrize("feed, gain", [(-1.0, 3.0), (-0.5, 1.0), (-2.0, 2.5), (1.0, -2.0)])
    def test_sign_changing_feedthrough_matches_cell_loop(self, feed, gain):
        tau = 0.1
        evader = z.ControllerModel(order=1, sys=[[-1.0 / tau]], inp=[gain / tau],
                                   out=[1.0], feed=feed)
        ev = build_evader_ss(evader)
        g = [float(ev.D_row @ mat_exp(ev.A, s) @ ev.B) for s in (0.02, 0.7)]
        assert g[0] * g[1] < 0.0
        assert_mu_e_matches_loop(evader, 0.7)

    @pytest.mark.parametrize("omega", [10.0, 100.0, 1e3])
    def test_oscillating_feedthrough_matches_cell_loop(self, omega):
        """Feedthrough 1 beside an oscillator of static gain -1: g_e swings
        about 2 zeta / omega and changes sign up to 50 times on the tail."""
        evader = z.ControllerModel(order=2, sys=[[0.0, 1.0], [-omega ** 2, -0.04 * omega]],
                                   inp=[0.0, omega ** 2], out=[-1.0, 0.0], feed=1.0)
        assert_mu_e_matches_loop(evader, 0.9)

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(0, 10),
           t_c=st.floats(0.05, 2.0))
    def test_random_controller_matches_cell_loop(self, seed, order, t_c):
        assert_mu_e_matches_loop(random_controller(np.random.default_rng(seed), order), t_c)


class TestSignCells:
    """`_sign_cells` reads the controller block and skips the eigenvalues
    where they cannot lift the count above its floor; the count is the rule
    on the whole player block (`sign_cells_rule`) all the same, and the
    tail weight stays bit for bit the cell loop's. The weight is read from
    `_tail_weight` itself, as some of these controllers (a zero gain) give
    the evader no control authority, a scenario `coefficients` refuses."""

    @staticmethod
    def assert_rule_and_mu_e(model, t_c):
        ev = build_evader_ss(model)
        assert reduction._sign_cells(ev.A, t_c) == sign_cells_rule(ev.A, t_c)
        assert reduction._tail_weight(ev.A, ev.B, t_c)[0] == tail_weight_loop(ev.A, ev.B,
                                                                             ev.D_row, t_c)

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(0, 10),
           speed=st.floats(0.0, 2.5).map(lambda e: 10.0 ** e), feed=st.sampled_from([0.0, 0.6]),
           t_c=st.floats(0.05, 2.0))
    def test_random_controllers(self, seed, order, speed, feed, t_c):
        """Random controllers of orders 0-10, their dynamics sped up 1 to
        ~300 times, so that the eigenvalues decide the count in some draws
        and Bendixson's bound in others, with and without feedthrough."""
        model = random_controller(np.random.default_rng(seed), order)
        model = dataclasses.replace(model, sys=speed * model.sys, inp=speed * model.inp, feed=feed)
        self.assert_rule_and_mu_e(model, t_c)

    @settings(max_examples=50)
    @given(omega=st.floats(1.0, 3.0).map(lambda e: 10.0 ** e), zeta=st.floats(0.01, 0.9),
           t_c=st.floats(0.05, 2.0))
    def test_oscillators(self, omega, zeta, t_c):
        self.assert_rule_and_mu_e(oscillator(omega, zeta), t_c)

    @pytest.mark.parametrize("model, t_c, eigvals", [
        (z.ControllerModel.zero_order(), 0.9, 0),
        (z.ControllerModel.first_order(1e-5), 50.0, 0),
        (oscillator(10.0, 0.05), 1.0, 0),  # sqrt(|a_01 a_10|) = 10, 4 * 10 <= 255
        (oscillator(40.0, 0.05), 2.0, 1),  # 4 * 40 * 2 > 255
        (oscillator(1e3, 0.05), 0.9, 1),
        # settled by sqrt(|a_01 a_10|), not by Bendixson's 0.5 (1 + omega^2)
        (oscillator(10.0, 0.05), 2.0, 0),
        (oscillator(80.0, 0.05), 0.75, 0),
        # order 3: Bendixson's bound, 0 for a symmetric block
        (z.ControllerModel(order=3, sys=-np.eye(3), inp=[1.0, 1.0, 1.0], out=[1.0, 0.0, 0.0],
                           feed=0.0), 0.9, 0),
    ])
    def test_eigenvalues_only_when_they_can_count(self, monkeypatch, model, t_c, eigvals):
        calls = []
        original = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or original(a))
        A = build_evader_ss(model).A
        cells = reduction._sign_cells(A, t_c)
        monkeypatch.undo()
        assert cells == sign_cells_rule(A, t_c)
        assert len(calls) == eigvals
        assert all(shape == (model.order, model.order) for shape in calls)


class TestExactIntegrals:
    @settings(max_examples=200)
    @given(tau_p=LAG, tau_e=LAG, t_f=st.floats(0.02, 10.0), t_c=TAIL)
    def test_first_order_closed_form(self, tau_p, tau_e, t_f, t_c):
        exact, closed = exact_and_closed(tau_p, tau_e, t_f, t_c)
        for name, value in INTEGRALS.items():
            assert value(exact) == pytest.approx(value(closed), rel=1e-10, abs=0.0), name

    @settings(max_examples=200)
    @given(tau_p=LAG, tau_e=LAG, t_f=st.floats(10.0, 50.0), t_c=TAIL)
    def test_first_order_closed_form_long_horizon(self, tau_p, tau_e, t_f, t_c):
        exact, closed = exact_and_closed(tau_p, tau_e, t_f, t_c)
        for name, value in INTEGRALS.items():
            assert value(exact) == pytest.approx(value(closed), rel=5e-10, abs=0.0), name

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2 ** 32 - 1), order_p=st.integers(0, 10),
           order_e=st.integers(0, 10))
    def test_adaptive_quadrature(self, seed, order_p, order_e):
        rng = np.random.default_rng(seed)
        sc = z.EngagementScenario(
            pursuer=random_controller(rng, order_p), evader=random_controller(rng, order_e),
            t_f=float(rng.uniform(0.6, 1.8)), t_c=float(rng.uniform(0.3, 1.2)),
            alpha=1.0, beta=1e9, ae_max=1.0, z0=0.0, w0=0.0)
        k = Kernels(sc)
        memo = {}

        def kern(t):
            if t not in memo:
                (hp, he), ge = k.sample_engagement(t), k.sample_target(t)
                memo[t] = (hp[0], he[0], ge[0])
            return memo[t]

        quad = lambda f, a, b: quad_adaptive(f, a, b, tol=1e-13)
        t_f, t_c = sc.t_f, sc.t_c
        quadrature = {
            "int h_p^2": quad(lambda t: kern(t)[0] ** 2, 0.0, t_f),
            "int h_e^2": quad(lambda t: kern(t)[1] ** 2, 0.0, t_f),
            "int h_e g_e": quad(lambda t: kern(t)[1] * kern(t)[2], 0.0, t_f),
            "int g_e^2": quad(lambda t: kern(t)[2] ** 2, 0.0, t_f),
            "mu_e": quad(lambda t: abs(k.g_e(t)), t_f, t_f + t_c),
        }
        exact = coefficients(sc, k)
        for name, value in INTEGRALS.items():
            assert value(exact) == pytest.approx(quadrature[name], rel=1e-10, abs=0.0), name

    def test_integral_g_e_frozen_oracle(self, study_scenario):
        """The exact int g_e behind `repro`'s ue_bar+ row."""
        assert reduction.integral_g_e(study_scenario) == pytest.approx(ORACLE.int_ge, rel=1e-9)

    def test_integral_g_e_against_quadrature(self):
        """An order-2 oscillator evader and t_c = 0 on the mixed-orders file."""
        base, _ = load_scenario(str(MIXED_ORDERS))
        sc = dataclasses.replace(base, evader=oscillator(12.0, 0.3), t_c=0.0, geometry=None)
        want = quad_adaptive(Kernels(sc).g_e, 0.0, sc.t_f, tol=1e-13)
        assert reduction.integral_g_e(sc) == pytest.approx(want, rel=1e-9)

    def test_integral_g_e_at_t_c_zero_starts_from_d_e(self, study_scenario, monkeypatch):
        """At t_c = 0 the start row is D_e itself: the one exponential is
        the augmented one, none of A_e (whose exp(0) LAPACK returns one ulp
        off the identity)."""
        sc = dataclasses.replace(study_scenario, t_c=0.0)
        ev = build_evader_ss(sc.evader)
        shapes = []
        original = reduction.mat_exp
        monkeypatch.setattr(reduction, "mat_exp",
                            lambda A, *a: shapes.append(A.shape) or original(A, *a))
        got = reduction.integral_g_e(sc)
        assert shapes == [(ev.A.shape[0] + 1,) * 2]
        augmented, scale = reduction._augmented(ev.A, ev.B)
        assert scale == 1.0
        assert got == float(np.append(ev.D_row, 0.0) @ original(augmented, sc.t_f)[:, -1])

    def test_frozen_oracle(self, study_coeffs):
        c = study_coeffs
        for name in ("beta_star", "mu_e", "bound", "nu_p", "nu_e", "s", "G2", "G3",
                     "a", "d", "det_F", "det_G"):
            assert getattr(c, name) == pytest.approx(getattr(ORACLE, name), rel=1e-10), name
        np.testing.assert_allclose(game_matrices(c).G_bar, ORACLE.G_bar, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("omega", [250.0, 1000.0])
    def test_lightly_damped_oscillator(self, omega):
        quad = pytest.importorskip("scipy.integrate").quad
        sc = z.EngagementScenario(pursuer=z.ControllerModel.first_order(0.2),
                                  evader=oscillator(omega, 0.02), t_f=1.0, t_c=1.3,
                                  alpha=0.05, beta=1.0, ae_max=100.0, z0=100.0, w0=-100.0)
        kp, ke = position_kernel(sc.pursuer), position_kernel(sc.evader)
        t_f, t_c = sc.t_f, sc.t_c
        integral = lambda f, a, b: quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=5000)[0]
        G1 = 1.0 + integral(lambda s: kp(s) ** 2, 0.0, t_f) / sc.alpha \
            - integral(lambda s: ke(s) ** 2, 0.0, t_f) / sc.beta
        G2 = integral(lambda s: ke(s) * ke(s + t_c), 0.0, t_f) / sc.beta
        G3 = integral(lambda s: ke(s) ** 2, t_c, t_c + t_f) / sc.beta
        bound = integral(lambda s: abs(ke(s)), 0.0, t_c) * sc.ae_max
        c = coefficients(sc)
        assert c.a == pytest.approx(G2 / G1, rel=1e-10)
        assert c.bound == pytest.approx(bound, rel=1e-10)
        np.testing.assert_allclose(game_matrices(c).G, [[G1, G2], [-G2, G3]], rtol=1e-10, atol=0.0)


class TestKernelGram:
    """`Kernels.gram` against adaptive quadrature of the sampled kernel
    products, each entry K_ij to 1e-12 of sqrt(K_ii K_jj), which bounds it:
    the two entries that no coefficient reads, int h_p h_e and
    int h_p g_e, as well as the four that `coefficients` shares."""

    CASES = ["study", "mixed"] + ["random%d" % i for i in range(4)]

    @pytest.mark.parametrize("case", CASES)
    def test_against_quadrature(self, study_scenario, case):
        if case == "study":
            scenario = study_scenario
        elif case == "mixed":
            scenario, _ = load_scenario(str(MIXED_ORDERS))
        else:
            scenario, _ = random_draws()[int(case[6:])]
        k = Kernels(scenario)
        memo = {}

        def kern(t):
            if t not in memo:
                (hp, he), ge = k.sample_engagement(t), k.sample_target(t)
                memo[t] = (hp[0], he[0], ge[0])
            return memo[t]

        gram = k.gram()
        for i, j in ((0, 1), (0, 2), (0, 0), (1, 1), (1, 2), (2, 2)):
            quad = quad_adaptive(lambda t: kern(t)[i] * kern(t)[j], 0.0, scenario.t_f, tol=1e-14)
            scale = np.sqrt(gram[i, i] * gram[j, j])  # bounds |gram[i, j]|
            assert abs(gram[i, j] - quad) <= 1e-12 * scale, (i, j)

    def test_coefficients_read_the_gram_matrix(self, study_scenario, study_coeffs):
        """The four entries `coefficients` reads are the Gram matrix's,
        bit for bit."""
        gram, c = Kernels(study_scenario).gram(), study_coeffs
        assert gram[0, 0] / c.alpha == c.nu_p and gram[1, 1] == c.beta_star
        assert gram[1, 2] / c.beta == c.G2 and gram[2, 2] / c.beta == c.G3
        assert gram[0, 1] < 0.0 and gram[0, 2] < 0.0  # h_p opposes h_e and g_e

    @pytest.mark.parametrize("case", ["study", "mixed", "t_c=0"])
    def test_coefficients_keep_the_gram_matrix(self, study_scenario, case):
        """`coefficients` keeps the whole K it reads its integrals from,
        cross entries included, bit for bit as `Kernels.gram` forms it and
        read-only; it takes no part in comparisons."""
        scenario = {"study": study_scenario, "mixed": load_scenario(str(MIXED_ORDERS))[0],
                    "t_c=0": dataclasses.replace(study_scenario, t_c=0.0)}[case]
        c, gram = coefficients(scenario), Kernels(scenario).gram()
        assert c.K.shape == (3, 3) and np.array_equal(c.K, gram)
        assert c.K.tobytes() == gram.tobytes()
        assert not c.K.flags.writeable
        assert c == dataclasses.replace(c, K=None)


def _lag_doc(tau):
    return {"first_order_tau": tau}


def _controller_doc(model):
    return {"A": model.sys.tolist(), "b": model.inp.tolist(), "c": model.out.tolist(),
            "d": model.feed}


def _order10_pair():
    rng = np.random.default_rng(2210)
    return tuple(_controller_doc(random_controller(rng, 10)) for _ in range(2))


STUDY_FILE = MIXED_ORDERS.parent / "study.json"

# (pursuer, evader, t_f, t_c, beta) of the stress documents; the rest of each
# document is the study file's
PIN_DOCUMENTS = {
    "study": None,
    "mixed": None,
    "tau=1e-5": (_lag_doc(1e-5), _lag_doc(0.1), 1.0, 0.9, 0.3),
    "t_f=50": (_lag_doc(0.2), _lag_doc(0.1), 50.0, 20.0, 8e4),
    "oscillator_160": (_lag_doc(0.2), _controller_doc(oscillator(160.0, 0.05)), 1.0, 0.9, 0.6),
    "orders_10_10": _order10_pair() + (1.0, 0.9, None),
    "t_c=0": (_lag_doc(0.2), _lag_doc(0.1), 1.0, 0.0, 0.3),
}


def pin_scenario(case):
    """The scenario of a `PIN_DOCUMENTS` case, parsed by the CLI; the
    orders 10/10 pair takes beta twice its solvability threshold."""
    if PIN_DOCUMENTS[case] is None:
        return load_scenario(str(MIXED_ORDERS if case == "mixed" else STUDY_FILE))[0]
    pursuer, evader, t_f, t_c, beta = PIN_DOCUMENTS[case]
    doc = json.loads(STUDY_FILE.read_text(encoding="utf-8"))
    doc.update(players=dict(pursuer=pursuer, evader=evader), horizon=dict(t_f=t_f, t_c=t_c))
    doc["weights"]["beta"] = 1e300 if beta is None else beta
    scenario = scenario_from_document(doc)
    if beta is None:
        scenario = dataclasses.replace(scenario, beta=2.0 * coefficients(scenario).beta_star)
    return scenario


class TestPinnedCoefficients:
    """Every `GameCoefficients` scalar as float.hex, and K as bytes, on
    both repository files and the stress documents."""

    SCALARS = [f.name for f in dataclasses.fields(reduction.GameCoefficients)
               if f.type == "float"]
    PINNED = {
        "study": (
            ("0x1.dc8ec9eecd162p+1", "0x1.c497cab6527a4p+1", "0x1.a024031e15906p-1",
             "0x1.05430a9970b69p+1", "0x1.7a4fc4083142dp+2", "0x1.18b138bb64336p-1",
             "0x1.803194ce95572p-1", "0x1.4ccc79fb28377p-2", "0x1.a2c81ade9a49cp+4",
             "0x1.51761e037afd3p+2", "0x1.f35e6a2419e07p-3", "0x1.999999999999ap-5",
             "0x1.3333333333333p-2", "0x1.9000000000000p+6"),
            "50b91d8930a1c63f3708cddc178bcabf7ebb43accf68e0bf3708cddc178bcabf079e41a2"
            "e635cf3f4aa71b653a98e33f7ebb43accf68e0bf4aa71b653a98e33f03e5361a955ffc3f",
        ),
        "mixed": (
            ("0x1.0032753942140p+0", "0x1.4812feed656f8p-1", "0x1.47ae147ae1477p-1",
             "0x1.47ae147ae1477p+0", "0x1.62fc962fc962bp+1", "0x1.476d8b2767148p+0",
             "0x1.9763e451d0cbcp-2", "0x1.47ae147ae147ap-2", "0x1.1a7cd2b56ba9ap+2",
             "0x1.5182a9930be0ap+1", "0x1.26e978d4fdf38p-1", "0x1.47ae147ae147bp-4",
             "0x1.ccccccccccccdp-1", "0x1.e000000000000p+5"),
            "907997acf53eaa3f38184c2fdfc1c5bf966d1ee22df9d4bf38184c2fdfc1c5bf38df4f8d"
            "976ee23f38df4f8d976ef23f966d1ee22df9d4bf38df4f8d976ef23f278716d9cef70340",
        ),
        "tau=1e-5": (
            ("0x1.b6a2e36ca75ecp+2", "0x1.aaa763d06908fp+2", "0x1.a024031e0d518p-1",
             "0x1.05430a996b57ep+1", "0x1.7a4fc40829e82p+2", "0x1.30f5811f8fefcp-2",
             "0x1.897c612d6bd44p-1", "0x1.4ccc79fb28377p-2", "0x1.656ed0a0148acp+5",
             "0x1.51761e0374be8p+2", "0x1.f35e6a240ffb6p-3", "0x1.999999999999ap-5",
             "0x1.3333333333333p-2", "0x1.9000000000000p+6"),
            "734005642b55d53fb4b264257132d2bfb1b266765c77e7bfb4b264257132d2bfb6ff40a2"
            "e635cf3f31401b653a98e33fb1b266765c77e7bf31401b653a98e33fcf57361a955ffc3f",
        ),
        "t_f=50": (
            ("0x1.9209bca8e89a2p+19", "0x1.9209ad3a06ca0p+19", "0x1.0911e2fdd848fp-1",
             "0x1.a86e5fa0c1131p-1", "0x1.63e51a59d6bcbp+0", "0x1.0e4249f40014cp-20",
             "0x1.03266341bf2ddp-1", "0x1.8c051eb851eb8p+7", "0x1.1775b159bfe87p+20",
             "0x1.5b900a6917c95p+0", "0x1.43925596de850p+15", "0x1.999999999999ap-5",
             "0x1.3880000000000p+16", "0x1.9000000000000p+6"),
            "80f01976151ae44078fdd4789529e4c0eac4d987d722f0c078fdd4789529e4c050e86d59"
            "2539e4407eddddddd530f040eac4d987d722f0c07eddddddd530f04015aaaaaa1227fb40",
        ),
        "oscillator_160": (
            ("0x1.fd9d65b37c25ap+1", "0x1.c497cab652761p+1", "0x1.1be9940b59417p-1",
             "0x1.4db36b1b51c0ep+0", "0x1.b389b0c5fd2dbp+1", "0x1.4f433f4304f30p-2",
             "0x1.e0a465802bda4p-2", "0x1.9e1abb42e6222p-2", "0x1.e7e1cec5617c4p+3",
             "0x1.9b8484aa2b019p+1", "0x1.54b1e4da6b1b5p-2", "0x1.999999999999ap-5",
             "0x1.3333333333333p-1", "0x1.9000000000000p+6"),
            "1bb91d8930a1c63f91bfdc7e74d2cebfe64ff3f0607de1bf91bfdc7e74d2cebfb5b1a64d"
            "1e4bd53fdd54d96e0e07e93fe64ff3f0607de1bfdd54d96e0e07e93f837e39d429550040",
        ),
        "orders_10_10": (
            ("0x1.29067cddb739bp+5", "0x1.25067cddb739bp+5", "0x1.0000000000000p-1",
             "0x1.bd01fd5b252c9p+0", "0x1.c1a0d4aa90e67p+2", "0x1.7f8b01be24834p-5",
             "0x1.d326da16e0c03p-2", "0x1.f6e0db8d67530p+0", "0x1.07dd0dd1ea36dp+8",
             "0x1.a2346509fd9f6p+2", "0x1.66a28be795e3bp+3", "0x1.999999999999ap-5",
             "0x1.66a28be795e3bp+4", "0x1.9000000000000p+6"),
            "f8b8f8e2724dfd3fb658ea6c2f1d12c00216f50f28bc2fc0b658ea6c2f1d12c03b5e79be"
            "286a26409f7c13b65a7b43400216f50f28bc2fc09f7c13b65a7b4340686b313723af6340",
        ),
        "t_c=0": (
            ("0x1.dc8ec9eecd162p+1", "0x1.c497cab6527a4p+1", "0x1.a024031e15906p-1",
             "0x1.a024031e15906p-1", "0x1.a024031e15906p-1", "0x1.bf16f0522de80p-3",
             "0x1.8b36cc6faec0ap-1", "0x0.0p+0", "0x1.d7e42ae964de0p+1",
             "0x1.a024031e15906p-1", "0x1.f35e6a2419e07p-3", "0x1.999999999999ap-5",
             "0x1.3333333333333p-2", "0x1.9000000000000p+6"),
            "50b91d8930a1c63f3708cddc178bcabf3708cddc178bcabf3708cddc178bcabf079e41a2"
            "e635cf3f079e41a2e635cf3f3708cddc178bcabf079e41a2e635cf3f079e41a2e635cf3f",
        ),
    }

    @pytest.mark.parametrize("case", list(PIN_DOCUMENTS))
    def test_bit_for_bit(self, case):
        c = coefficients(pin_scenario(case))
        scalars, K = self.PINNED[case]
        assert [getattr(c, name).hex() for name in self.SCALARS] == list(scalars)
        assert c.K.tobytes().hex() == K

    # largest error of an entry K_ij relative to sqrt(K_ii K_jj), which
    # bounds it, and of mu_e relative to itself
    K_BANDS = {"tau=1e-5": 1e-11, "t_f=50": 5e-14, "oscillator_160": 5e-14}
    MU_BAND = 2e-15

    @pytest.mark.parametrize("case", list(PIN_DOCUMENTS))
    def test_against_reference(self, case):
        """K and mu_e of each pinned document against 50-digit arithmetic
        (`helpers.reference_gram`). The stiff lag keeps the error of the
        Pade Van Loan block at h amplified by its doublings (ROADMAP
        item 12); every other document's K is within 1e-14."""
        mpmath = pytest.importorskip("mpmath")
        scenario = pin_scenario(case)
        K, mu = reference_gram(scenario)
        c = coefficients(scenario)
        band = self.K_BANDS.get(case, 1e-14)
        for i in range(3):
            for j in range(3):
                error = abs(mpmath.mpf(c.K.item(i, j)) - K[i, j]) / mpmath.sqrt(K[i, i] * K[j, j])
                assert error <= band, (i, j, float(error))
        assert abs(mpmath.mpf(c.mu_e) - mu) <= self.MU_BAND * mu


class TestCoefficients:
    def test_one_van_loan_block(self, study_scenario, monkeypatch):
        """The four product integrals come from one Van Loan block over the
        players' own blocks, of size 2(n_p + n_e + 4), and `_powers` runs on
        it once: 12 on the study, 48 on an order-10/10 pair."""
        rng = np.random.default_rng(10)
        order_10 = dataclasses.replace(study_scenario, pursuer=random_controller(rng, 10),
                                       evader=random_controller(rng, 10), beta=1e6)
        sizes = []
        powers = numerics._powers

        def recording(M):
            sizes.append(M.shape[0])
            return powers(M)

        monkeypatch.setattr(numerics, "_powers", recording)
        for sc, size in ((study_scenario, 12), (order_10, 48)):
            sizes.clear()
            coefficients(sc)
            assert 2 * (sc.pursuer.order + sc.evader.order + 4) == size
            assert sizes.count(size) == 1
            assert max(sizes) == size
            # at t_c = 0, x_e = B_e and the tail weight is 0: the block alone
            sizes.clear()
            coefficients(dataclasses.replace(sc, t_c=0.0))
            assert sizes == [size]

    def test_zero_tail_gives_equal_kernels(self, study_scenario):
        """At t_c = 0, g_e is h_e: G2, G3 and nu_e come out equal bit for
        bit, on the study, on mixed orders and on random draws of orders
        0-10."""
        mixed, _ = load_scenario(str(MIXED_ORDERS))
        cases = [study_scenario, mixed] + [sc for sc, _ in random_draws()]
        for sc in cases:
            sc = dataclasses.replace(sc, t_c=0.0, geometry=None)
            c = coefficients(sc)
            assert c.G2 == c.G3 == c.nu_e
            assert c.mu_e == 0.0 and c.constraint_degenerate
            gram = Kernels(sc).gram()
            assert gram[1, 1] == gram[1, 2] == gram[2, 2] and gram[0, 1] == gram[0, 2]

    def test_study_matrix(self, study_coeffs):
        G = game_matrices(study_coeffs).G
        for i in range(2):
            for j in range(2):
                assert reference.CHECKS["G[%d,%d]" % (i, j)].passed(G[i, j])

    def test_solvability_threshold(self, study_coeffs, study_kernels):
        assert reference.CHECKS["beta_star"].passed(study_coeffs.beta_star)
        assert solvability_threshold(study_kernels) == pytest.approx(
            study_coeffs.beta_star, rel=1e-9)

    def test_frozen_oracle_values(self, study_coeffs):
        c = study_coeffs
        assert c.s == pytest.approx(ORACLE.s, rel=1e-9)
        assert c.nu_p == pytest.approx(ORACLE.nu_p, rel=1e-9)
        assert c.nu_e == pytest.approx(ORACLE.nu_e, rel=1e-9)
        assert c.G2 == pytest.approx(ORACLE.G2, rel=1e-9)
        assert c.G3 == pytest.approx(ORACLE.G3, rel=1e-9)
        assert c.a == pytest.approx(ORACLE.a, rel=1e-9)
        assert c.d == pytest.approx(ORACLE.d, rel=1e-9)
        assert c.det_F == pytest.approx(ORACLE.det_F, rel=1e-9)
        assert c.det_G == pytest.approx(ORACLE.det_G, rel=1e-9)

    def test_independent_quadrature_oracle(self, study_coeffs):
        quad = pytest.importorskip("scipy.integrate").quad
        hp = lambda t: -0.2 * psi_ref((1.0 - t) / 0.2)
        he = lambda t: 0.1 * psi_ref((1.0 - t) / 0.1)
        ge = lambda t: 0.1 * psi_ref((1.9 - t) / 0.1)
        opts = dict(epsabs=1e-12, epsrel=1e-12, limit=200)
        nu_p = quad(lambda t: hp(t) ** 2, 0, 1, **opts)[0] / 0.05
        g2 = quad(lambda t: he(t) * ge(t), 0, 1, **opts)[0] / 0.3
        g3 = quad(lambda t: ge(t) ** 2, 0, 1, **opts)[0] / 0.3
        assert study_coeffs.nu_p == pytest.approx(nu_p, rel=1e-9)
        assert study_coeffs.G2 == pytest.approx(g2, rel=1e-9)
        assert study_coeffs.G3 == pytest.approx(g3, rel=1e-9)

    def test_unsolvable_scenario_rejected(self):
        sc = z.first_order_scenario(**dict(reference.STUDY, beta=0.2))
        with pytest.raises(SolvabilityError):
            coefficients(sc)

    def test_matrix_identities(self, study_coeffs):
        """The closed-form G_bar entries the solver and `repro` read
        (`solver.g_bar`) match (G^-1)' diag(1,-1) from LAPACK to 1e-14
        relative, on the study and on random scenarios."""
        rng = np.random.default_rng(29)
        for c in [study_coeffs] + [coefficients(random_scenario(rng)[0]) for _ in range(8)]:
            b00, b01, b11 = solver.g_bar(c)
            want = game_matrices(c).G_bar
            got = np.array([[b00, b01], [b01, b11]])
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        b00, b01, b11 = solver.g_bar(study_coeffs)
        np.testing.assert_allclose([b00, b01, b11], [0.23, -0.08, -0.14], atol=0.005)

    def test_consistency_check_scales_with_nu_p(self):
        """At nu_p ~ 3e7 the rounding of s = 1 + nu_p - nu_e alone exceeds
        1e-10, and the check allows for it; at nu_p ~ 1 a 1e-8 relative
        error in nu_p is still caught."""
        args = dict(tau_p=0.2, tau_e=0.1, t_f=100.0, t_c=50.0, alpha=0.01, beta=1e9,
                    ae_max=50.0)
        c = first_order_coefficients(**args)
        assert c.nu_p > 1e7
        assert abs((c.s - c.nu_p) - (1.0 - c.nu_e)) > 1e-10
        alpha = c.nu_p * args["alpha"]  # nu_p = 1
        c = first_order_coefficients(**dict(args, alpha=alpha))
        assert c.nu_p == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(AssertionFailure, match="s - nu_p") as info:
            dataclasses.replace(c, nu_p=c.nu_p * (1.0 + 1e-8))
        _, bound = check_failure(info.value, "s - nu_p == 1 - nu_e")
        assert bound == 1e-10 * max(1.0, abs(1.0 - c.nu_e), c.nu_p * (1.0 + 1e-8))

    def test_scalar_identities(self, study_coeffs):
        c = study_coeffs
        assert c.a == pytest.approx(c.G2 / c.s, rel=1e-12)
        assert (c.s - c.nu_p) == pytest.approx(1.0 - c.nu_e, rel=1e-10)
        assert c.det_G == pytest.approx(c.s * c.G3 + c.G2 ** 2, rel=1e-12)

    def test_randomized_invariants(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            sc, k = random_scenario(rng)
            c = coefficients(sc, k)
            assert c.s > 0
            assert c.det_G > 0
            assert 0.0 <= c.d < 1.0
            assert (c.s - c.nu_p) == pytest.approx(1.0 - c.nu_e, rel=1e-10)
            assert c.a == pytest.approx(c.G2 / c.s, rel=1e-12)


@functools.cache
def first_order_integrals_mpmath(tau_p, tau_e, t_f, t_c):
    """int h_p^2, h_e^2, h_e g_e and g_e^2 of first-order lags as
    40-digit mpmath integrals of psi products."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        psi = lambda u: mp.exp(-u) + u - 1
        tau_p, tau_e, t_f, t_c = (mp.mpf(v) for v in (tau_p, tau_e, t_f, t_c))

        def product(tau, s, t):
            return tau ** 3 * mp.quad(lambda u: psi(u + s) * psi(u + t), [0, t_f / tau])

        sigma = t_c / tau_e
        return (product(tau_p, 0, 0), product(tau_e, 0, 0), product(tau_e, 0, sigma),
                product(tau_e, sigma, sigma))


class TestFOneWithoutCancellation:
    """F1 = G1 - nu_p is formed as 1 - nu_e. G1 - nu_p lost digits as nu_p
    grew (relative error of F1 1.8e-14 at alpha = 1e-4, 1.4e-9 at 1e-8,
    4.0e-6 at 1e-12, on lags 0.2/0.1 with t_f = 1, t_c = 0.5). Against
    40-digit mpmath the entries of F, det F and d now hold 1e-14 relative
    (to F's largest entry for the entries): measured at most 1.0e-15 from
    the matrix exponentials and 4.9e-16 from the closed forms, at every
    alpha."""

    @pytest.mark.parametrize("alpha", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14])
    def test_against_mpmath(self, alpha):
        mp = pytest.importorskip("mpmath")
        lags = dict(tau_p=0.2, tau_e=0.1, t_f=1.0, t_c=0.5)
        beta, ae_max = 1.0, 50.0
        with mp.workdps(40):
            hp2, he2, hege, ge2 = first_order_integrals_mpmath(*lags.values())
            nu_p, nu_e = hp2 / mp.mpf(alpha), he2 / beta
            G1, G2, G3 = 1 + nu_p - nu_e, hege / beta, ge2 / beta
            F1 = 1 - nu_e
            F = [[F1, G2], [-G2, G3]]
            det_F = F1 * G3 + G2 * G2
            d = nu_p * G2 * G2 / (G1 * det_F)
            largest = max(abs(F1), abs(G2), abs(G3))
            for c in (coefficients(z.first_order_scenario(alpha=alpha, beta=beta, ae_max=ae_max,
                                                          **lags)),
                      first_order_coefficients(alpha=alpha, beta=beta, ae_max=ae_max, **lags)):
                got = game_matrices(c).F
                for i in range(2):
                    for j in range(2):
                        assert abs(got[i, j] - F[i][j]) <= 1e-14 * largest, (i, j)
                assert abs(c.det_F - det_F) <= 1e-14 * det_F
                assert abs(c.d - d) <= 1e-14 * d
                assert abs((c.s - c.nu_p) - (1 - c.nu_e)) <= 1e-10 * max(1, c.nu_p)


class TestNoControlAuthority:
    """An evader whose command never reaches its position has g_e = 0, so
    F and G are singular: refused by name before d divides by det F."""

    @pytest.mark.parametrize("evader", [
        z.ControllerModel.zero_order(feed=0.0),
        z.ControllerModel(order=1, sys=[[-10.0]], inp=[0.0], out=[1.0], feed=0.0),
        z.ControllerModel(order=1, sys=[[-10.0]], inp=[1.0], out=[0.0], feed=0.0),
    ], ids=["order-0-no-feed", "no-input", "no-output"])
    def test_refused(self, study_scenario, evader):
        sc = dataclasses.replace(study_scenario, evader=evader)
        with pytest.raises(NoControlAuthority, match="no control authority") as raised:
            coefficients(sc)
        assert raised.value.int_ge2 == 0.0

    def test_underflowing_det_f_refused(self):
        with pytest.raises(NoControlAuthority):
            reduction._assemble((0.02, 0.01, 1e-200, 1e-200), 0.5, 0.05, 1e300, 100.0)


class TestFirstOrderCoefficients:
    @pytest.mark.parametrize("s", [0.0, 1e-4, 1e-2, 1.0, 10.0])
    def test_closed_forms_against_mpmath(self, s):
        """int psi, int psi^2, int psi(u) psi(u + s) and int psi(u + s)^2
        over [0, x] to 1e-12 relative, down to x = 1e-4 where the
        antiderivatives cancel."""
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        ref_psi = lambda u: mp.exp(-u) + u - 1

        def ref(x, a, b):
            return mp.quad(lambda u: ref_psi(u + a) * ref_psi(u + b), [0, x])

        for x in np.logspace(-4.0, 4.0, 9):
            x = float(x)
            if s == 0.0:
                want = mp.quad(ref_psi, [0, x])
                assert psi_moments(x)[1] == pytest.approx(float(want), rel=1e-12)
            for a, b in ((0.0, 0.0), (0.0, s), (s, s)):
                want = float(ref(x, mp.mpf(a), mp.mpf(b)))
                got = psi_product_integral(x, a, b)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (x, a, b)

    def test_study_values(self):
        c = first_order_coefficients(**reference.STUDY)
        assert reference.CHECKS["beta_star"].passed(c.beta_star)
        sigma = 9.0
        closed = 0.01 * (1.0 - sigma + sigma ** 2 / 2 - np.exp(-sigma))
        assert c.mu_e == pytest.approx(closed, rel=1e-12)

    def test_matches_generic_path_on_study(self, study_coeffs):
        c = first_order_coefficients(**reference.STUDY)
        for name in ("s", "nu_p", "nu_e", "G2", "G3", "a", "d", "mu_e",
                     "beta_star", "det_G", "det_F"):
            assert getattr(c, name) == pytest.approx(
                getattr(study_coeffs, name), rel=1e-8), name

    def test_matches_generic_path_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(4):
            params = random_first_order(rng)
            closed = first_order_coefficients(**params)
            sc = z.first_order_scenario(**params)
            generic = coefficients(sc)
            for name in ("s", "nu_p", "nu_e", "G2", "G3", "a", "d", "mu_e", "beta_star"):
                assert getattr(closed, name) == pytest.approx(
                    getattr(generic, name), rel=1e-8), name

    @pytest.mark.parametrize("index, value", [(0, -0.2), (1, 0.0), (2, float("nan")),
                                              (3, -0.5), (4, -0.05)])
    def test_invalid_arguments_rejected(self, index, value):
        args = list(reference.STUDY.values())
        args[index] = value
        with pytest.raises(ValueError):
            first_order_coefficients(*args)


class TestControlLaws:
    def test_constant(self, study_kernels):
        assert sample_control(Constant(7.25), study_kernels, [0.37])[0] == 7.25

    def test_zero_combo(self, study_kernels):
        assert sample_control(KernelCombo(), study_kernels, [0.5])[0] == 0.0

    def test_affine_vanishes_at_horizon(self, study_kernels):
        law = AffineInTime(slope=400.0, intercept=-400.0)
        assert sample_control(law, study_kernels, [1.0])[0] == pytest.approx(0.0, abs=1e-12)

    def test_combo_matches_kernels(self, study_kernels):
        law = KernelCombo(hp_coef=-3.0, he_coef=2.0, ge_coef=0.5)
        t = 0.41
        expected = (-3.0 * study_kernels.h_p(t) + 2.0 * study_kernels.h_e(t)
                    + 0.5 * study_kernels.g_e(t))
        assert sample_control(law, study_kernels, [t])[0] == pytest.approx(expected, rel=1e-12)

    def test_sampled_interpolates(self, study_kernels):
        law = Sampled(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert sample_control(law, study_kernels, [0.25])[0] == pytest.approx(0.5)

    def test_out_of_range_rejected(self, study_kernels):
        with pytest.raises(ValueError):
            sample_control(Constant(1.0), study_kernels, [1.5])[0]
        with pytest.raises(ValueError):
            sample_control(Constant(1.0), study_kernels, np.array([-0.2, 0.5]))
