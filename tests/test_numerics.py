import math

import numpy as np
import pytest

from zemgame import TimeGrid, build_game_ss, mat_exp, ode_playout, psi, quad_adaptive, solve2
from zemgame.numerics import rk4_affine, scaled_exp
from zemgame.errors import NearSingularError

from helpers import psi_ref, random_controller


class TestPsi:
    def test_zero(self):
        assert psi(0.0) == 0.0

    def test_spot_value(self):
        assert psi(9.0) == pytest.approx(math.exp(-9.0) + 8.0, rel=1e-14)
        assert psi(9.0) == pytest.approx(8.000123410, abs=1e-9)

    def test_tiny_argument_no_cancellation(self):
        assert psi(1e-8) == pytest.approx(5e-17, rel=1e-2)
        assert psi(1e-8) == pytest.approx((1e-8) ** 2 / 2 - (1e-8) ** 3 / 6, rel=1e-10)

    def test_matches_direct_formula_above_switch(self):
        t = np.geomspace(1.0, 50.0, 200)
        direct = np.exp(-t) + t - 1.0
        np.testing.assert_allclose(psi(t), direct, rtol=1e-12)

    def test_matches_taylor_below_switch(self):
        t = np.geomspace(1e-12, 9.99e-4, 200)
        taylor = (t ** 2 / 2 - t ** 3 / 6 + t ** 4 / 24 - t ** 5 / 120 + t ** 6 / 720)
        np.testing.assert_allclose(psi(t), taylor, rtol=1e-10)

    def test_against_mpmath(self):
        """Within a few ulps of 40-digit mpmath, also just above 1e-3, where
        the direct formula alone is 2.6e-10 relative off."""
        mpmath = pytest.importorskip("mpmath")
        ts = np.append(np.logspace(-8, 2, 401), [1.006e-3, np.nextafter(1.0, 0.0), 1.0])
        got = psi(ts)
        with mpmath.workdps(40):
            for t, value in zip(ts, got):
                ref = mpmath.exp(-mpmath.mpf(t)) + mpmath.mpf(t) - 1
                assert abs(mpmath.mpf(value) - ref) <= 3 * np.spacing(float(ref)), t
                assert psi(t) == value

    def test_monotone_nonnegative(self):
        t = np.linspace(0.0, 20.0, 500)
        v = psi(t)
        assert (v >= 0).all()
        assert (np.diff(v) >= 0).all()


class TestMatExp:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((5, 5))
        np.testing.assert_allclose(mat_exp(A, 0.0), np.eye(5), atol=1e-15)

    def test_scalar_lag(self):
        tau = 0.2
        assert mat_exp(np.array([[-1.0 / tau]]), 0.7)[0, 0] == pytest.approx(
            math.exp(-0.7 / tau), rel=1e-13)

    def test_nilpotent_double_integrator(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(mat_exp(A, 3.5), [[1.0, 3.5], [0.0, 1.0]], atol=1e-14)

    def test_oscillator_needs_few_squarings(self):
        """A lightly damped omega = 1000 loop behind a double integrator: the
        1-norm is omega^2 but the powers grow like omega, so the squarings
        follow the powers and the result stays at round-off."""
        expm = pytest.importorskip("scipy.linalg").expm
        omega = 1000.0
        A = np.zeros((4, 4))
        A[0, 1] = A[1, 2] = A[2, 3] = 1.0
        A[3, 2:] = (-omega ** 2, -0.1 * omega)
        assert scaled_exp(A)[0] <= np.ceil(np.log2(np.linalg.norm(A, 1) / 5.37)) - 8
        reference = expm(A)
        np.testing.assert_allclose(mat_exp(A), reference, rtol=0,
                                   atol=1e-13 * np.abs(reference).max())

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            mat_exp(np.zeros((2, 3)), 1.0)

    def test_semigroup_on_random_stable_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            A = -np.diag(rng.uniform(0.2, 3.0, n)) + 0.5 * rng.standard_normal((n, n))
            s, t = rng.uniform(0.1, 2.0, 2)
            whole = mat_exp(A, s + t)
            split = mat_exp(A, s) @ mat_exp(A, t)
            np.testing.assert_allclose(whole, split, rtol=0, atol=1e-10 * np.abs(whole).max())


class TestQuadAdaptive:
    def test_zero_function(self):
        assert quad_adaptive(lambda t: 0.0, 0.0, 1.0) == 0.0

    def test_linear(self):
        assert quad_adaptive(lambda t: t, 0.0, 1.0) == pytest.approx(0.5, abs=1e-13)

    def test_squared_evader_kernel(self):
        # solvability threshold integrand of the first-order study
        f = lambda t: 0.01 * psi((1.0 - t) / 0.1) ** 2
        result = quad_adaptive(f, 0.0, 1.0)
        assert result == pytest.approx(0.2438, abs=1e-4)
        assert result == pytest.approx(0.243832425334, rel=1e-9)

    def test_polynomials_exact(self):
        rng = np.random.default_rng(5)
        for deg in range(7):
            coefs = rng.uniform(-2.0, 2.0, deg + 1)
            poly = np.polynomial.Polynomial(coefs)
            exact = poly.integ()(1.7) - poly.integ()(-0.3)
            got = quad_adaptive(poly, -0.3, 1.7, tol=1e-12)
            assert got == pytest.approx(exact, abs=1e-12 * max(1.0, abs(exact)))

    def test_non_finite_integrand_rejected(self):
        with pytest.raises(ValueError):
            quad_adaptive(lambda t: math.nan if t > 0.3 else 1.0, 0.0, 1.0)

    def test_limits_validated(self):
        with pytest.raises(ValueError):
            quad_adaptive(lambda t: t, 1.0, 0.0)
        assert quad_adaptive(lambda t: t, 1.0, 1.0) == 0.0

    def test_absolute_value_kink(self):
        got = quad_adaptive(lambda t: abs(t), -1.0, 2.0, tol=1e-10)
        assert got == pytest.approx(2.5, abs=1e-9)


class TestSolve2:
    def test_identity(self):
        b = np.array([3.0, -4.0])
        np.testing.assert_allclose(solve2(np.eye(2), b), b)

    def test_study_branch_systems(self):
        # rounded coefficient matrix from the first-order study
        M = np.array([[3.72, 2.04], [-2.04, 5.91]])
        np.testing.assert_allclose(solve2(M, np.array([100.0, -132.5])),
                                   [32.92, -11.05], atol=0.05)
        np.testing.assert_allclose(solve2(M, np.array([100.0, -67.5])),
                                   [27.85, -1.80], atol=0.05)

    def test_residual(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            M = rng.standard_normal((2, 2))
            if abs(np.linalg.det(M)) < 1e-3:
                continue
            b = rng.standard_normal(2)
            x = solve2(M, b)
            assert np.linalg.norm(M @ x - b) <= 1e-12 * max(1.0, np.linalg.norm(b))

    def test_near_singular_rejected(self):
        with pytest.raises(NearSingularError):
            solve2(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.uniform(0.0, 1.0, 5)
        np.testing.assert_allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert g.t_start == 0.0 and g.t_end == 1.0

    def test_refined_interleaves_midpoints(self):
        g = TimeGrid.uniform(0.0, 1.0, 3)
        np.testing.assert_allclose(g.refined(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.0, 1.0]))


class TestOdePlayout:
    def test_zero_rhs_constant(self):
        grid = TimeGrid.uniform(0.0, 1.0, 11)
        traj = ode_playout(lambda t, x: np.zeros_like(x), np.array([2.0, -1.0]), grid)
        np.testing.assert_allclose(traj, np.tile([2.0, -1.0], (11, 1)))

    def test_unit_rhs(self):
        grid = TimeGrid.uniform(0.0, 1.0, 11)
        traj = ode_playout(lambda t, x: np.array([1.0]), np.array([0.0]), grid)
        assert traj[-1, 0] == pytest.approx(1.0, abs=1e-13)

    def test_constant_evader_drives_w_to_the_bound(self):
        # dw = g_e(t) * 101.92 from w0 = -100 over the study horizon
        g_e = lambda t: 0.1 * psi_ref((1.9 - t) / 0.1)
        grid = TimeGrid.uniform(0.0, 1.0, 2001)
        traj = ode_playout(lambda t, x: np.array([g_e(t) * 101.92]), np.array([-100.0]), grid)
        assert traj[-1, 0] == pytest.approx(32.5, abs=0.01)

    def test_halving_step_cuts_error_by_eight(self):
        exact = math.exp(math.sin(1.0))
        rhs = lambda t, x: x * math.cos(t)

        def terminal_error(n):
            traj = ode_playout(rhs, np.array([1.0]), TimeGrid.uniform(0.0, 1.0, n))
            return abs(traj[-1, 0] - exact)

        coarse, fine = terminal_error(21), terminal_error(41)
        assert coarse / fine >= 8.0

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_state_rejected(self):
        grid = TimeGrid.uniform(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            ode_playout(lambda t, x: x * 1e308, np.array([1.0]), grid)


def refined(nodes):
    return TimeGrid(nodes).refined()


def rk4_loop(A, forcing, x0, nodes):
    """`ode_playout` with a closure right-hand side reading the forcing at
    the nearest refined node: the per-step reference of `rk4_affine`."""
    ts = refined(nodes)

    def rhs(t, x):
        return A @ x + forcing[int(np.argmin(np.abs(ts - t)))]

    return ode_playout(rhs, x0, TimeGrid(nodes))


def game_case(orders, nodes, seed=0):
    """Stacked player matrix of random controllers of the given orders, a
    smooth forcing through B and C, and a random start."""
    rng = np.random.default_rng(seed)
    ss = build_game_ss(random_controller(rng, orders[0]), random_controller(rng, orders[1]))
    ts = refined(nodes)
    forcing = np.outer(40.0 * np.cos(3.0 * ts), ss.B) + np.outer(25.0 * np.sin(7.0 * ts), ss.C)
    return ss.A, forcing, rng.uniform(-5.0, 5.0, ss.A.shape[0])


class TestRk4Affine:
    """The blocked scan against the per-step loop, at the 1e-12 * scale of
    `assert_full_matches_loop`; block sizes are ceil(sqrt(steps)), so 2024,
    2025 and 2026 steps are b^2 - 1, b^2 and b^2 + 1 for b = 45, and 1999
    is prime."""

    def assert_matches_loop(self, A, forcing, x0, nodes):
        got = rk4_affine(A, forcing, x0, nodes)
        want = rk4_loop(A, forcing, x0, nodes)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("steps", [1, 2, 3, 8, 9, 10, 1999, 2024, 2025, 2026])
    def test_step_counts(self, steps):
        nodes = np.linspace(0.0, 1.3, steps + 1)
        self.assert_matches_loop(*game_case((1, 2), nodes, seed=steps), nodes)

    def test_non_uniform_grid(self):
        nodes = np.linspace(0.0, 1.0, 2001) ** 1.5
        self.assert_matches_loop(*game_case((1, 1), nodes), nodes)

    @pytest.mark.parametrize("spacing", ["uniform", "power"])
    def test_order_ten_pair(self, spacing):
        nodes = np.linspace(0.0, 1.0, 2001)
        if spacing == "power":
            nodes = nodes ** 1.5
        A, forcing, x0 = game_case((10, 10), nodes, seed=7)
        assert A.shape == (24, 24)
        self.assert_matches_loop(A, forcing, x0, nodes)

    @pytest.mark.parametrize("x0", [[0.0], [0.0, 1.0]])
    def test_overflowing_block_product_keeps_a_zero_state(self, x0):
        """Each step multiplies the first component by P ~ 1.05e7, finite,
        but a block of 45 overflows: the zero component must stay zero as in
        the loop, not become inf * 0 = nan."""
        d = len(x0)
        A = np.diag([2.5e5, -1.0][:d])
        nodes = np.linspace(0.0, 1.0, 2001)
        H = 2.5e5 * (nodes[1] - nodes[0])
        step = 1.0 + H + H ** 2 / 2 + H ** 3 / 6 + H ** 4 / 24
        assert np.isfinite(step) and 45 * math.log(step) > math.log(np.finfo(float).max)
        forcing = np.zeros((refined(nodes).size, d))
        got = rk4_affine(A, forcing, np.array(x0), nodes)
        np.testing.assert_array_equal(got[:, 0], 0.0)
        self.assert_matches_loop(A, forcing, np.array(x0), nodes)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
    @pytest.mark.parametrize("x0", [[1.0], [1e-300, 1.0], [0.0, 1.0]])
    def test_growing_state_reports_first_non_finite_node(self, x0):
        """Growth by ~1.05e7 a step: from 1 the state overflows inside the
        first block, from 1e-300 in the second; the coupling feeds the zero
        start. The blocked scan names the same node time as the loop."""
        d = len(x0)
        A = np.array([[2.5e5, 1.0], [0.0, -1.0]])[:d, :d]
        nodes = np.linspace(0.0, 1.0, 2001)
        forcing = np.zeros((refined(nodes).size, d))
        with pytest.raises(ValueError, match="non-finite") as loop:
            rk4_loop(A, forcing, np.array(x0), nodes)
        with pytest.raises(ValueError) as blocked:
            rk4_affine(A, forcing, np.array(x0), nodes)
        assert str(blocked.value) == str(loop.value)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
    def test_non_finite_state_rejected(self):
        grid = TimeGrid.uniform(0.0, 1.0, 11)
        forcing = np.zeros((grid.refined().size, 1))
        with pytest.raises(ValueError, match="non-finite"):
            rk4_affine(np.array([[1e308]]), forcing, np.array([1.0]), grid.nodes)
