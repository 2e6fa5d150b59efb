import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zemgame as z
from zemgame import (
    AffineInTime,
    Constant,
    FirstOrderKernels,
    KernelCombo,
    Kernels,
    Sampled,
    coefficients,
    first_order_coefficients,
    mu_e,
    sample_control,
    solvability_threshold,
)
from zemgame import numerics, reduction
from zemgame.errors import SolvabilityError

from helpers import (ORACLE, oscillator, psi_ref, random_controller, random_first_order,
                     random_scenario)

# Deterministic draws: the same examples on every run, no example database.
DRAWS = dict(deadline=None, derandomize=True, database=None)

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


def tail_weight_loop(A, B, D, t_c):
    """`reduction._tail_weight` with its sign changes paired by a Python loop
    over the scan cells, as before the pairing was vectorised; the
    reference for bitwise-equal mu_e."""
    if t_c == 0.0:
        return 0.0
    n = A.shape[0]
    M = reduction._augmented(A, B)
    AB = A @ B
    s = np.linspace(0.0, t_c, reduction._sign_cells(A, t_c) + 1)
    rows = reduction._transition_rows(np.append(D, 0.0), M, s)
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
            r = rows[i] @ z.mat_exp(M, x - s[i])
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
    return float(np.abs(np.diff(knots)).sum())


def assert_mu_e_matches_loop(evader, t_c):
    sc = z.EngagementScenario(pursuer=z.ControllerModel.first_order(0.2), evader=evader,
                              t_f=1.0, t_c=t_c, alpha=0.05, beta=1e9, ae_max=1.0,
                              z0=0.0, w0=0.0)
    ev = z.build_evader_ss(evader)
    assert mu_e(sc) == tail_weight_loop(ev.A, ev.B, ev.D_row, t_c)


def position_kernel(model):
    """s -> D exp(A s) B of one player, by scipy's matrix exponential."""
    expm = pytest.importorskip("scipy.linalg").expm
    ss = z.build_evader_ss(model)
    return lambda s: float(ss.D_row @ expm(ss.A * s) @ ss.B)


class TestKernels:
    def test_study_closed_forms(self, study_kernels):
        ts = np.linspace(0.0, 1.0, 157)
        hp, he = study_kernels.sample_engagement(ts)
        np.testing.assert_allclose(hp, -0.2 * psi_ref((1.0 - ts) / 0.2), atol=1e-12)
        np.testing.assert_allclose(he, 0.1 * psi_ref((1.0 - ts) / 0.1), atol=1e-12)
        ge = study_kernels.sample_target(ts)
        np.testing.assert_allclose(ge, 0.1 * psi_ref((1.9 - ts) / 0.1), atol=1e-12)

    def test_strictly_proper_kernels_vanish_at_horizon(self, study_kernels):
        assert study_kernels.h_p(1.0) == pytest.approx(0.0, abs=1e-14)
        assert study_kernels.h_e(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_zero_order_pursuer_kernel(self):
        sc = dataclasses.replace(
            z.first_order_scenario(0.2, 0.1, 1.0, 0.9, 0.05, 0.3, 100.0),
            pursuer=z.ControllerModel.zero_order(feed=1.0))
        k = Kernels(sc)
        ts = np.linspace(0.0, 1.0, 31)
        hp, _ = k.sample_engagement(ts)
        np.testing.assert_allclose(hp, -(1.0 - ts), atol=1e-12)

    def test_tail_value(self, study_kernels):
        assert study_kernels.g_e(1.0) == pytest.approx(0.800012341, abs=1e-7)

    def test_off_grid_matches_closed_form(self, study_kernels):
        fo = FirstOrderKernels(0.2, 0.1, 1.0, 0.9)
        rng = np.random.default_rng(8)
        for t in rng.uniform(0.0, 1.0, 25):
            assert study_kernels.h_p(t) == pytest.approx(fo.h_p(t), abs=1e-12)
            assert study_kernels.h_e(t) == pytest.approx(fo.h_e(t), abs=1e-12)
            assert study_kernels.g_e(t) == pytest.approx(fo.g_e(t), abs=1e-12)


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

    @pytest.mark.parametrize("omega", [10.0, 40.0, 160.0, 1e3])
    def test_oscillator_matches_cell_loop(self, omega):
        assert_mu_e_matches_loop(oscillator(omega, 0.05), 0.9)

    @pytest.mark.parametrize("feed, gain", [(-1.0, 3.0), (-0.5, 1.0), (-2.0, 2.5), (1.0, -2.0)])
    def test_sign_changing_feedthrough_matches_cell_loop(self, feed, gain):
        tau = 0.1
        evader = z.ControllerModel(order=1, sys=[[-1.0 / tau]], inp=[gain / tau],
                                   out=[1.0], feed=feed)
        ev = z.build_evader_ss(evader)
        g = [float(ev.D_row @ z.mat_exp(ev.A, s) @ ev.B) for s in (0.02, 0.7)]
        assert g[0] * g[1] < 0.0
        assert_mu_e_matches_loop(evader, 0.7)

    @pytest.mark.parametrize("omega", [10.0, 100.0, 1e3])
    def test_oscillating_feedthrough_matches_cell_loop(self, omega):
        """Feedthrough 1 beside an oscillator of static gain -1: g_e swings
        about 2 zeta / omega and changes sign up to 50 times on the tail."""
        evader = z.ControllerModel(order=2, sys=[[0.0, 1.0], [-omega ** 2, -0.04 * omega]],
                                   inp=[0.0, omega ** 2], out=[-1.0, 0.0], feed=1.0)
        assert_mu_e_matches_loop(evader, 0.9)

    @settings(max_examples=50, **DRAWS)
    @given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(0, 10),
           t_c=st.floats(0.05, 2.0))
    def test_random_controller_matches_cell_loop(self, seed, order, t_c):
        assert_mu_e_matches_loop(random_controller(np.random.default_rng(seed), order), t_c)


class TestExactIntegrals:
    @settings(max_examples=200, **DRAWS)
    @given(tau_p=LAG, tau_e=LAG, t_f=st.floats(0.02, 10.0), t_c=TAIL)
    def test_first_order_closed_form(self, tau_p, tau_e, t_f, t_c):
        exact, closed = exact_and_closed(tau_p, tau_e, t_f, t_c)
        for name, value in INTEGRALS.items():
            assert value(exact) == pytest.approx(value(closed), rel=1e-10, abs=0.0), name

    @settings(max_examples=200, **DRAWS)
    @given(tau_p=LAG, tau_e=LAG, t_f=st.floats(10.0, 50.0), t_c=TAIL)
    def test_first_order_closed_form_long_horizon(self, tau_p, tau_e, t_f, t_c):
        exact, closed = exact_and_closed(tau_p, tau_e, t_f, t_c)
        for name, value in INTEGRALS.items():
            assert value(exact) == pytest.approx(value(closed), rel=5e-10, abs=0.0), name

    @settings(max_examples=20, **DRAWS)
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

        quad = lambda f, a, b: z.quad_adaptive(f, a, b, tol=1e-13)
        t_f, t_c = sc.t_f, sc.t_c
        reference = {
            "int h_p^2": quad(lambda t: kern(t)[0] ** 2, 0.0, t_f),
            "int h_e^2": quad(lambda t: kern(t)[1] ** 2, 0.0, t_f),
            "int h_e g_e": quad(lambda t: kern(t)[1] * kern(t)[2], 0.0, t_f),
            "int g_e^2": quad(lambda t: kern(t)[2] ** 2, 0.0, t_f),
            "mu_e": quad(lambda t: abs(k.g_e(t)), t_f, t_f + t_c),
        }
        exact = coefficients(sc, k)
        for name, value in INTEGRALS.items():
            assert value(exact) == pytest.approx(reference[name], rel=1e-10, abs=0.0), name

    def test_frozen_oracle(self, study_coeffs):
        c = study_coeffs
        for name in ("beta_star", "mu_e", "bound", "nu_p", "nu_e", "s", "G2", "G3",
                     "a", "d", "det_F", "det_G"):
            assert getattr(c, name) == pytest.approx(getattr(ORACLE, name), rel=1e-10), name
        np.testing.assert_allclose(c.G_bar, ORACLE.G_bar, rtol=0, atol=1e-8)

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
        np.testing.assert_allclose(c.G, [[G1, G2], [-G2, G3]], rtol=1e-10, atol=0.0)


class TestCoefficients:
    def test_one_van_loan_block(self, study_scenario, monkeypatch):
        """The four product integrals come from one Van Loan block of size
        2(n + m), and `_powers` runs on it once."""
        sizes = []
        powers = numerics._powers

        def recording(M):
            sizes.append(M.shape[0])
            return powers(M)

        monkeypatch.setattr(numerics, "_powers", recording)
        coefficients(study_scenario)
        n = z.build_relative_ss(study_scenario.pursuer, study_scenario.evader).A.shape[0]
        m = z.build_evader_ss(study_scenario.evader).A.shape[0]
        assert sizes.count(2 * (n + m)) == 1
        assert max(sizes) == 2 * (n + m)

    def test_study_matrix(self, study_coeffs):
        np.testing.assert_allclose(study_coeffs.G,
                                   [[3.72, 2.04], [-2.04, 5.91]], atol=0.01)

    def test_solvability_threshold(self, study_coeffs, study_kernels):
        assert study_coeffs.beta_star == pytest.approx(0.2438, abs=1e-4)
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
        sc = z.first_order_scenario(0.2, 0.1, 1.0, 0.9, 0.05, 0.2, 100.0)
        with pytest.raises(SolvabilityError):
            coefficients(sc)

    def test_matrix_identities(self, study_coeffs):
        c = study_coeffs
        flip = np.diag([1.0, -1.0])
        np.testing.assert_allclose(c.G_tilde, flip @ c.G, atol=1e-14)
        np.testing.assert_allclose(c.G_bar, np.linalg.inv(c.G).T @ flip, atol=1e-14)
        np.testing.assert_allclose(c.F_bar, np.linalg.inv(c.F).T @ flip, atol=1e-14)
        np.testing.assert_allclose(c.G_bar, [[0.23, -0.08], [-0.08, -0.14]], atol=0.005)

    def test_scalar_identities(self, study_coeffs):
        c = study_coeffs
        assert c.G1 == c.s
        assert c.a == pytest.approx(c.G2 / c.G1, rel=1e-12)
        assert (c.G1 - c.nu_p) == pytest.approx(1.0 - c.nu_e, rel=1e-10)
        assert c.det_G == pytest.approx(c.G1 * c.G3 + c.G2 ** 2, rel=1e-12)

    def test_randomized_invariants(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            sc, k = random_scenario(rng)
            c = coefficients(sc, k)
            assert c.s > 0
            assert c.det_G > 0
            assert 0.0 <= c.d < 1.0
            assert (c.G1 - c.nu_p) == pytest.approx(1.0 - c.nu_e, rel=1e-10)
            assert c.a == pytest.approx(c.G2 / c.G1, rel=1e-12)


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
                assert reduction._psi_moments(x)[1] == pytest.approx(float(want), rel=1e-12)
            for a, b in ((0.0, 0.0), (0.0, s), (s, s)):
                want = float(ref(x, mp.mpf(a), mp.mpf(b)))
                got = reduction._psi_product_integral(x, a, b)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (x, a, b)

    def test_study_values(self):
        c = first_order_coefficients(0.2, 0.1, 1.0, 0.9, 0.05, 0.3, 100.0)
        assert c.beta_star == pytest.approx(0.2438, abs=1e-4)
        sigma = 9.0
        closed = 0.01 * (1.0 - sigma + sigma ** 2 / 2 - np.exp(-sigma))
        assert c.mu_e == pytest.approx(closed, rel=1e-12)

    def test_matches_generic_path_on_study(self, study_coeffs):
        c = first_order_coefficients(0.2, 0.1, 1.0, 0.9, 0.05, 0.3, 100.0)
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
        args = [0.2, 0.1, 1.0, 0.9, 0.05, 0.3, 100.0]
        args[index] = value
        with pytest.raises(ValueError):
            first_order_coefficients(*args)


class TestControlLaws:
    def test_constant(self, study_kernels):
        assert sample_control(Constant(101.92), study_kernels, [0.37])[0] == 101.92

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
