import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zemgame as z
from zemgame import Kernels, TimeGrid, reference
from zemgame.engagement import build_game_ss
from zemgame import numerics, reduction
from zemgame.numerics import (exp_minus_identity, mat_exp, ode_playout, quad_adaptive, rk4_affine,
                              scaled_exp, solve2)
from zemgame.errors import NearSingularError, NonFiniteResult
from zemgame.reference import CHECKS

from helpers import (ORACLE, oscillator, pade13_reference, psi, psi_ref, random_controller,
                     solve2_entries_reference)


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


class TestPade13Reference:
    """`scaled_exp` and `mat_exp` equal the Pade-13 exponential as it stood
    with `np.linalg.norm` and `np.eye` (`pade13_reference`) bit for bit:
    the same squarings and the same array."""

    @staticmethod
    def assert_matches(M):
        s, E = scaled_exp(M)
        want_s, want = pade13_reference(M)
        assert s == want_s
        assert np.array_equal(E, want)
        with np.errstate(over="ignore", invalid="ignore"):  # exp(M) of a large norm
            for _ in range(want_s):
                want = want @ want
            assert np.array_equal(mat_exp(M), want, equal_nan=True)

    @settings(max_examples=300)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 48),
           log_norm=st.floats(-3.0, 4.0))
    def test_random_matrices(self, seed, size, log_norm):
        """Sizes 1 to 48 at 1-norms from 1e-3 to 1e4."""
        M = np.random.default_rng(seed).standard_normal((size, size))
        M *= 10.0 ** log_norm / np.abs(M).sum(axis=0).max()
        self.assert_matches(M)

    @pytest.mark.parametrize("size", [1, 2, 12, 48])
    def test_zero_matrix(self, size):
        self.assert_matches(np.zeros((size, size)))

    @pytest.mark.parametrize("case", ["tau_e=1e-5", "omega=1e3"])
    def test_every_exponential_of_coefficients(self, monkeypatch, case):
        """Every argument `coefficients` hands the Pade core (`_pade13`,
        behind every finisher): the Van Loan block and the tail scan's step,
        for a stiff lag and a lightly damped oscillator."""
        evader = (z.ControllerModel.first_order(1e-5) if case == "tau_e=1e-5"
                  else oscillator(1e3, 0.02))
        scenario = z.EngagementScenario(
            pursuer=z.ControllerModel.first_order(0.2), evader=evader, t_f=1.0, t_c=0.9,
            alpha=0.05, beta=1.0, ae_max=100.0, z0=100.0, w0=-100.0)
        seen = []

        def recording(M):
            seen.append(M.copy())
            return pade13(M)

        pade13 = numerics._pade13
        monkeypatch.setattr(numerics, "_pade13", recording)
        z.coefficients(scenario)
        monkeypatch.undo()
        assert [M.shape[0] for M in seen] == [evader.order + 3, 2 * (1 + evader.order + 4)]
        for M in seen:
            self.assert_matches(M)


class TestExpMinusIdentity:
    """`exp_minus_identity(A, t)` is exp(A t) - I without the cancellation
    of subtracting I: to a few ulps of expm1 on scalars (times |a|, the
    condition of exp(a), once squarings amplify the Pade step's rounding),
    where `mat_exp(A, t) - 1` loses the digits that 1 absorbs."""

    @pytest.mark.parametrize("a", [1e-12, -3e-7, 0.01, -0.7, 2.5, -40.0, 300.0, -1e4])
    def test_scalar_against_expm1(self, a):
        want = math.expm1(a)
        got = float(exp_minus_identity(np.array([[a]]), 1.0)[0, 0])
        assert abs(got - want) <= 4.0 * max(1.0, abs(a)) * math.ulp(want)

    def test_keeps_digits_that_mat_exp_loses(self):
        want = math.expm1(1e-10)
        assert exp_minus_identity(np.array([[1.0]]), 1e-10)[0, 0] == pytest.approx(want, rel=1e-15)
        assert abs(mat_exp(np.array([[1.0]]), 1e-10)[0, 0] - 1.0 - want) > 1e-8 * want

    @pytest.mark.parametrize("seed", range(6))
    def test_is_mat_exp_less_identity(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 13))
        A = rng.standard_normal((size, size)) * 10.0 ** rng.uniform(-2.0, 1.5)
        E = mat_exp(A, 0.9)
        np.testing.assert_allclose(exp_minus_identity(A, 0.9) + np.eye(size), E, rtol=0,
                                   atol=1e-13 * np.abs(E).max())

    @pytest.mark.parametrize("A, t, message", [
        (np.zeros((2, 3)), 1.0, "square matrix"),
        (np.eye(2), math.inf, "non-finite time"),
        (np.array([[1.0, math.nan], [0.0, 1.0]]), 1.0, "non-finite entries"),
    ])
    def test_refuses_what_mat_exp_refuses(self, A, t, message):
        for function in (mat_exp, exp_minus_identity):
            with pytest.raises(ValueError, match=message):
                function(A, t)


class TestQuadAdaptive:
    def test_zero_function(self):
        assert quad_adaptive(lambda t: 0.0, 0.0, 1.0) == 0.0

    def test_linear(self):
        assert quad_adaptive(lambda t: t, 0.0, 1.0) == pytest.approx(0.5, abs=1e-13)

    def test_squared_evader_kernel(self):
        # solvability threshold integrand of the first-order study
        tau_e, t_f = reference.STUDY["tau_e"], reference.STUDY["t_f"]
        f = lambda t: tau_e ** 2 * psi((t_f - t) / tau_e) ** 2
        result = quad_adaptive(f, 0.0, t_f)
        assert CHECKS["beta_star"].passed(result)
        assert result == pytest.approx(ORACLE.beta_star, rel=1e-9)

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
        # the study's printed coefficient matrix and bound give its printed
        # branch vectors
        M = np.array([[CHECKS["G[%d,%d]" % (i, j)].target for j in range(2)]
                      for i in range(2)])
        z0, w0 = reference.POSITION
        for sign, tag in ((1, "+"), (-1, "-")):
            z_f, v_f = solve2(M, np.array([z0, w0 - sign * CHECKS["bound"].target]))
            assert CHECKS["z_f" + tag].passed(z_f) and CHECKS["v_f" + tag].passed(v_f)

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

    @pytest.mark.parametrize("scale", [1.0, 1e-20, 1e30, 1e150])
    def test_singularity_test_ignores_scaling(self, scale):
        """The determinant is measured against its own two terms: a system
        G-shaped as [[G1, G2], [-G2, G3]] with G1 = 8.7e30 (a fast unstable
        pursuer) is solved to round-off at every scaling of its first row,
        and two terms that cancel to 1e-13 of their size are refused at
        every scaling."""
        M = np.array([[8.7e30 * scale, 0.3 * scale], [-0.3, 2.0]])
        b = np.array([100.0 * scale, -50.0])
        x = solve2(M, b)
        np.testing.assert_allclose(M @ x, b, rtol=1e-15, atol=0.0)
        with pytest.raises(NearSingularError):
            solve2(np.array([[scale, scale], [1.0, 1.0 + 1e-13]]), np.array([1.0, 1.0]))

    def test_floats_in_floats_out(self):
        x = numerics.solve2_entries(2.0, 1.0, -1.0, 3.0, 1.0, 2.0)
        assert [type(v) for v in x] == [float, float]
        assert x == (0.14285714285714285, 0.7142857142857143)

    @pytest.mark.parametrize("entries", [
        pytest.param((1.0, 2.0, 2.0, 4.0, 1.0, 1.0), id="det-0"),
        pytest.param((0.0, 0.0, 0.0, 0.0, 1.0, 1.0), id="zero"),
        pytest.param((1e-300, 0.0, 0.0, 1e-300, 1.0, 1.0), id="det-underflows"),
        pytest.param((1.0, 1.0, 1.0, 1.0 + 1e-13, 1.0, 1.0), id="terms-cancel"),
        pytest.param((1e30, 1e30, 1.0, 1.0 + 1e-13, 1.0, 1.0), id="terms-cancel-scaled"),
        pytest.param((1.0, 1.0, 1.0, 1.0 + 1e-11, 1.0, 1.0), id="just-solvable"),
        pytest.param((1e200, 0.0, 0.0, 1e200, 1.0, 1.0), id="1e200-product-overflows"),
        pytest.param((1e200, 1e200, 1e200, 1e200, 1.0, 1.0), id="1e200-det-nan"),
        pytest.param((1e200, 1e200, -1e200, 1e200, 1e200, 1.0), id="1e200-det-inf"),
        pytest.param((math.nan, 1.0, 1.0, 1.0, 1.0, 1.0), id="nan-m00"),
        pytest.param((1.0, 1.0, 1.0, math.nan, 1.0, 1.0), id="nan-m11"),
        pytest.param((1.0, 0.0, 0.0, 1.0, math.nan, 1.0), id="nan-b0"),
        pytest.param((2.0, 1.0, -1.0, 3.0, math.inf, 1.0), id="inf-b0"),
    ])
    def test_refuses_what_the_elementwise_form_refused(self, entries):
        """The scalar solve refuses the systems the elementwise form it
        replaced (`helpers.solve2_entries_reference`) refused, with the same
        message, and otherwise returns the same values, NaN included, except
        where the summed products of entries overflow or are NaN (a NaN
        m00 or m11, which max(1, NaN) = 1 let through): those it refuses as
        NonFiniteResult, where the elementwise form let them through to an
        infinite or NaN determinant, or to a zero or NaN solution."""
        def outcome(solve):
            try:
                with np.errstate(all="ignore"):
                    return [repr(float(v)) for v in solve(*entries)]
            except (NearSingularError, NonFiniteResult) as err:
                return type(err).__name__ + ": " + str(err)

        m00, m01, m10, m11 = entries[:4]
        if not abs(m00 * m11) + abs(m01 * m10) < math.inf:
            want = ("NonFiniteResult: the products of 2x2 entries overflow the float range: "
                    "the kernel integrals over the weights alpha or beta are too large")
        else:
            want = outcome(solve2_entries_reference)
        assert outcome(numerics.solve2_entries) == want

    @pytest.mark.parametrize("entries", [(1e160, 1e160, -1e160, 1e160, 1.0, 1.0),
                                         (1e200, 1e100, -1e100, 1e200, 1e200, 1.0)])
    def test_overflowing_products_refused(self, entries):
        """Systems whose exact solutions are finite, (0, 1e-160) and about
        (1, 1e-100), but whose products of entries overflow: no silent zero
        or NaN comes back."""
        with pytest.raises(NonFiniteResult, match="products of 2x2 entries overflow"):
            numerics.solve2_entries(*entries)


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.uniform(0.0, 1.0, 5)
        np.testing.assert_allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert g.t_start == 0.0 and g.t_end == 1.0
        assert g == TimeGrid(0.0, 1.0, 5) and g.step == 0.25

    def test_refined_interleaves_midpoints(self):
        g = TimeGrid(0.0, 1.0, 3)
        np.testing.assert_allclose(g.refined(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_validation(self):
        """Fewer than two nodes, a node count that is not an integer,
        non-finite ends or span, and an end not after the start."""
        for args in [(0.0, 1.0, 1), (0.0, 1.0, 0), (0.0, 1.0, -3), (0.0, 1.0, 2.0),
                     (0.0, 1.0, 2.5), (0.0, 1.0, True), (0.0, 1.0, "5"), (np.nan, 1.0, 5),
                     (0.0, np.inf, 5), (-np.inf, 0.0, 5), (-1e308, 1e308, 5), (1.0, 1.0, 5),
                     (1.0, 0.0, 5), (0.0, -0.0, 5)]:
            with pytest.raises(ValueError):
                TimeGrid(*args)

    @pytest.mark.parametrize("a, b, n", [(0.0, 1.0, 2), (0.0, 1.3, 2001), (-10.0, -1.0, 1001),
                                         (0.1, 0.7, 4001), (0.0, 50.0, np.int64(301))])
    def test_nodes_are_linspace(self, a, b, n):
        grid = TimeGrid(a, b, n)
        np.testing.assert_array_equal(grid.nodes, np.linspace(a, b, n))
        assert grid.step == (grid.nodes[-1] - grid.nodes[0]) / (n - 1)
        assert grid.n == n and type(grid.n) is int and not grid.nodes.flags.writeable

    def test_nodes_formed_once_on_first_read(self):
        grid = TimeGrid(0.0, 1.0, 11)
        assert "nodes" not in vars(grid)
        nodes = grid.nodes
        assert grid.nodes is nodes and not nodes.flags.writeable
        with pytest.raises(AttributeError):
            grid.nodes = np.zeros(11)
        assert grid == TimeGrid(0.0, 1.0, 11) and repr(grid) == "TimeGrid(t_start=0.0, t_end=1.0, n=11)"

    def test_equal_by_fields(self):
        assert TimeGrid(0, 1, 11) == TimeGrid(0.0, 1.0, 11)
        assert hash(TimeGrid(0, 1, 11)) == hash(TimeGrid(0.0, 1.0, 11))
        assert TimeGrid(0.0, 1.0, 11) != TimeGrid(0.0, 1.0, 12)
        assert TimeGrid(0.0, 1.0) == TimeGrid(0.0, 1.0, numerics.DEFAULT_GRID_NODES)


class TestProgressionStep:
    """A grid's kernel rows (`Kernels.rows`) are one doubling scan a player
    (`reduction._progression_rows`) over its 2n - 1 refined nodes, from the
    row at its last node, by the grid's own half step; the grid decides, not
    its sample values. Any other times take one exponential a point and
    kernel (the samplers `sample_engagement`, `sample_target`, `h_p`,
    `h_e` and `g_e`)."""

    SIZES = list(range(2, 12)) + [100, 101, 1000, 2001, 4001, 10000, 20001]

    @staticmethod
    def counting(monkeypatch, name):
        calls = []
        original = getattr(reduction, name)
        monkeypatch.setattr(reduction, name, lambda *a: calls.append(
            [getattr(x, "shape", x) for x in a]) or original(*a))
        return calls

    @pytest.mark.parametrize("n", SIZES)
    def test_uniform_grids(self, monkeypatch, n):
        """The study's bundle on TimeGrid(0, 1, n): a scan of the pursuer's
        row and one of the evader's two rows, each of 2n - 1 rows by the step
        1 / (2n - 2), and one exponential, the evader's target row at t_c;
        the rows at t_f are e_0 itself."""
        kernels = Kernels(reference.study_scenario())
        scans = self.counting(monkeypatch, "_progression_rows")
        exponentials = self.counting(monkeypatch, "mat_exp")
        bundle = kernels.bundle(TimeGrid(0.0, 1.0, n))
        step = 1.0 / (2 * n - 2)
        assert scans == [[(1, 3), (3, 3), step, 2 * n - 1], [(2, 3), (3, 3), step, 2 * n - 1]]
        assert exponentials == [[(3, 3), 0.9]]
        assert bundle.ts.size == 2 * n - 1 and bundle.node_rows_pursuer.shape == (n, 3)
        np.testing.assert_array_equal(bundle.node_rows_pursuer[-1], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(bundle.node_rows_evader[0, -1], [1.0, 0.0, 0.0])

    def test_one_perturbed_node(self, monkeypatch):
        """A grid's nodes with one perturbed are no grid: the samplers take
        one exponential a point and kernel, none for a kernel at s = 0
        (h_p and h_e at t = t_f), and no doubling scan."""
        kernels = Kernels(reference.study_scenario())
        ts = TimeGrid(0.0, 1.0, 101).nodes.copy()
        ts[37] += 1e-6
        scans = self.counting(monkeypatch, "_progression_rows")
        exponentials = self.counting(monkeypatch, "mat_exp")
        kernels.sample_engagement(ts)
        assert len(exponentials) == 2 * (ts.size - 1)
        kernels.sample_target(ts)
        assert len(exponentials) == 3 * ts.size - 2 and scans == []

    @pytest.mark.parametrize("t, counts", [(0.3, (1, 1, 1, 2, 1)), (1.0, (0, 0, 1, 0, 1))],
                             ids=["inside", "horizon"])
    def test_exponentials_per_call(self, monkeypatch, t, counts):
        """h_p, h_e, g_e and `sample_target` take one exponential a point,
        only for the kernel they return, and `sample_engagement` two: none
        for rows at s = 0."""
        kernels = Kernels(reference.study_scenario())
        exponentials = self.counting(monkeypatch, "mat_exp")
        got = []
        for call in (kernels.h_p, kernels.h_e, kernels.g_e, kernels.sample_engagement,
                     kernels.sample_target):
            before = len(exponentials)
            call(t)
            got.append(len(exponentials) - before)
        assert tuple(got) == counts


class TestOdePlayout:
    def test_zero_rhs_constant(self):
        grid = TimeGrid(0.0, 1.0, 11)
        traj = ode_playout(lambda t, x: np.zeros_like(x), np.array([2.0, -1.0]), grid)
        np.testing.assert_allclose(traj, np.tile([2.0, -1.0], (11, 1)))

    def test_unit_rhs(self):
        grid = TimeGrid(0.0, 1.0, 11)
        traj = ode_playout(lambda t, x: np.array([1.0]), np.array([0.0]), grid)
        assert traj[-1, 0] == pytest.approx(1.0, abs=1e-13)

    def test_constant_evader_drives_w_to_the_bound(self):
        # dw = g_e(t) * ue_bar from the study's w0 over its horizon
        tau_e, t_f, t_c = (reference.STUDY[k] for k in ("tau_e", "t_f", "t_c"))
        g_e = lambda t: tau_e * psi_ref((t_f + t_c - t) / tau_e)
        ue_bar = CHECKS["ue_bar+"].target
        grid = TimeGrid(0.0, t_f, 2001)
        traj = ode_playout(lambda t, x: np.array([g_e(t) * ue_bar]),
                           np.array([reference.POSITION[1]]), grid)
        assert CHECKS["w_f+ playout"].passed(traj[-1, 0])

    def test_halving_step_cuts_error_by_eight(self):
        exact = math.exp(math.sin(1.0))
        rhs = lambda t, x: x * math.cos(t)

        def terminal_error(n):
            traj = ode_playout(rhs, np.array([1.0]), TimeGrid(0.0, 1.0, n))
            return abs(traj[-1, 0] - exact)

        coarse, fine = terminal_error(21), terminal_error(41)
        assert coarse / fine >= 8.0

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_state_rejected(self):
        grid = TimeGrid(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            ode_playout(lambda t, x: x * 1e308, np.array([1.0]), grid)


def rk4_loop(A, forcing, x0, grid):
    """`ode_playout` with a closure right-hand side reading the forcing at
    the nearest refined node: the per-step reference of `rk4_affine`."""
    ts = grid.refined()

    def rhs(t, x):
        i = int(np.searchsorted(ts, t))  # the nearest of ts[i - 1] and ts[i]
        i -= i == ts.size or (i > 0 and t - ts[i - 1] <= ts[i] - t)
        return A @ x + forcing[i]

    return ode_playout(rhs, x0, grid)


def game_inputs(orders, grid, seed=0):
    """Stacked player matrix of random controllers of the given orders, its
    input rows B and C, two smooth controls on the refined nodes, and a
    random start."""
    rng = np.random.default_rng(seed)
    ss = build_game_ss(random_controller(rng, orders[0]), random_controller(rng, orders[1]))
    ts = grid.refined()
    controls = np.vstack([40.0 * np.cos(3.0 * ts), 25.0 * np.sin(7.0 * ts)])
    return ss.A, np.vstack([ss.B, ss.C]), controls, rng.uniform(-5.0, 5.0, ss.A.shape[0])


def game_case(orders, grid, seed=0):
    """`game_inputs` with the forcing through B and C tabulated in full."""
    A, inputs, controls, x0 = game_inputs(orders, grid, seed)
    return A, np.outer(controls[0], inputs[0]) + np.outer(controls[1], inputs[1]), x0


@pytest.fixture
def stepwise_calls(monkeypatch):
    """Records each entry into the per-step fallback of `rk4_affine`."""
    calls = []
    monkeypatch.setattr(numerics, "_stepwise",
                        lambda *a, _f=numerics._stepwise: calls.append(1) or _f(*a))
    return calls


class TestRk4Affine:
    """The doubling scan, and its per-step fallback, against the per-step
    loop of `ode_playout` at the 1e-12 * scale of `assert_full_matches_loop`,
    on 1 to 2026 steps (1999 is prime)."""

    def assert_matches_loop(self, A, forcing, x0, grid):
        got = rk4_affine(A, np.eye(A.shape[0]), forcing.T, x0, grid)
        want = rk4_loop(A, forcing, x0, grid)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("steps", [1, 2, 3, 8, 9, 10, 1999, 2024, 2025, 2026])
    def test_step_counts(self, steps):
        grid = TimeGrid(0.0, 1.3, steps + 1)
        self.assert_matches_loop(*game_case((1, 2), grid, seed=steps), grid)

    @pytest.mark.parametrize("n_nodes", [2, 3, 100, 2001, 20001])
    def test_doubling_scan(self, stepwise_calls, n_nodes):
        """Finite rows run the log-depth doubling scan alone: the per-step
        fallback is not entered."""
        grid = TimeGrid(0.0, 1.3, n_nodes)
        self.assert_matches_loop(*game_case((2, 3), grid, seed=n_nodes), grid)
        assert stepwise_calls == []

    @pytest.mark.parametrize("grid", [TimeGrid(0.0, 1.0, 2001)], ids=["uniform"])
    def test_order_ten_pair(self, grid):
        A, forcing, x0 = game_case((10, 10), grid, seed=7)
        assert A.shape == (24, 24)
        self.assert_matches_loop(A, forcing, x0, grid)

    @pytest.mark.parametrize("grid", [TimeGrid(0.0, 1.3, 2001)], ids=["uniform"])
    def test_two_control_columns(self, grid):
        """The factored form of `playout_full`: the input rows B and C with
        the two control samples (m = 2), against the loop on the tabulated
        forcing."""
        A, inputs, controls, x0 = game_inputs((2, 3), grid, seed=5)
        got = rk4_affine(A, inputs, controls, x0, grid)
        want = rk4_loop(A, controls.T @ inputs, x0, grid)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("x0", [[0.0], [0.0, 1.0]])
    def test_overflowing_block_product_keeps_a_zero_state(self, stepwise_calls, x0):
        """Each step multiplies the first component by P ~ 1.05e7, finite,
        but a power of 45 steps overflows: the zero component must stay
        zero as in the loop, not become inf * 0 = nan. The doubled rows
        are not finite, so the per-step fallback runs, once."""
        d = len(x0)
        A = np.diag([2.5e5, -1.0][:d])
        grid = TimeGrid(0.0, 1.0, 2001)
        H = 2.5e5 * grid.step
        step = 1.0 + H + H ** 2 / 2 + H ** 3 / 6 + H ** 4 / 24
        assert np.isfinite(step) and 45 * math.log(step) > math.log(np.finfo(float).max)
        forcing = np.zeros((grid.refined().size, d))
        got = rk4_affine(A, np.eye(d), forcing.T, np.array(x0), grid)
        np.testing.assert_array_equal(got[:, 0], 0.0)
        assert stepwise_calls == [1]
        self.assert_matches_loop(A, forcing, np.array(x0), grid)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
    @pytest.mark.parametrize("x0", [[1.0], [1e-300, 1.0], [0.0, 1.0]])
    def test_growing_state_reports_first_non_finite_node(self, x0):
        """Growth by ~1.05e7 a step: from 1 the state overflows within 45
        steps, from 1e-300 within 90; the coupling feeds the zero start.
        The fallback names the same node time as the loop."""
        d = len(x0)
        A = np.array([[2.5e5, 1.0], [0.0, -1.0]])[:d, :d]
        grid = TimeGrid(0.0, 1.0, 2001)
        forcing = np.zeros((grid.refined().size, d))
        with pytest.raises(ValueError, match="non-finite") as loop:
            rk4_loop(A, forcing, np.array(x0), grid)
        with pytest.raises(ValueError) as stepped:
            rk4_affine(A, np.eye(d), forcing.T, np.array(x0), grid)
        assert str(stepped.value) == str(loop.value)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
    def test_non_finite_state_rejected(self):
        grid = TimeGrid(0.0, 1.0, 11)
        forcing = np.zeros((grid.refined().size, 1))
        with pytest.raises(ValueError, match="non-finite"):
            rk4_affine(np.array([[1e308]]), np.eye(1), forcing.T, np.array([1.0]), grid)
