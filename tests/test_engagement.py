import dataclasses

import numpy as np
import pytest

from zemgame import (
    ControllerModel,
    EngagementGeometry,
    EngagementScenario,
    TimeGrid,
    build_evader_ss,
    build_game_ss,
    build_relative_ss,
    initial_zem,
    mat_exp,
    ode_playout,
    resolve_horizons,
)
from zemgame.engagement import build_player_ss

from helpers import psi_ref, random_controller


class TestBuildPlayerSS:
    def test_first_order(self):
        ss = build_player_ss(ControllerModel.first_order(0.2))
        np.testing.assert_allclose(ss.A, [[0, 1, 0], [0, 0, 1], [0, 0, -5]])
        np.testing.assert_allclose(ss.B, [0, 0, 5])

    def test_zero_order(self):
        ss = build_player_ss(ControllerModel.zero_order(feed=1.0))
        np.testing.assert_allclose(ss.A, [[0, 1], [0, 0]])
        np.testing.assert_allclose(ss.B, [0, 1])

    def test_study_pair_game_matrices(self):
        ss = build_game_ss(ControllerModel.first_order(0.2), ControllerModel.first_order(0.1))
        A = np.zeros((6, 6))
        A[0, 1] = A[1, 2] = A[3, 4] = A[4, 5] = 1.0
        A[2, 2] = -5.0
        A[5, 5] = -10.0
        np.testing.assert_allclose(ss.A, A)
        np.testing.assert_allclose(ss.B, [0, 0, 5, 0, 0, 0])
        np.testing.assert_allclose(ss.C, [0, 0, 0, 0, 0, 10])

    def test_block_layout_random_orders(self):
        rng = np.random.default_rng(0)
        for n in range(5):
            m = random_controller(rng, n)
            ss = build_player_ss(m)
            assert ss.A.shape == (n + 2, n + 2)
            np.testing.assert_allclose(ss.A[0], np.eye(n + 2)[1])
            assert ss.A[1, 0] == 0.0 and ss.A[1, 1] == 0.0
            np.testing.assert_allclose(ss.A[1, 2:], m.out)
            np.testing.assert_allclose(ss.A[2:, :2], 0.0)
            np.testing.assert_allclose(ss.A[2:, 2:], m.sys)
            assert ss.B[0] == 0.0 and ss.B[1] == m.feed
            np.testing.assert_allclose(ss.B[2:], m.inp)


class TestBuildRelativeSS:
    def test_study_pair_transition_matrix(self):
        ss = build_relative_ss(ControllerModel.first_order(0.2), ControllerModel.first_order(0.1))
        np.testing.assert_allclose(ss.A, [[0, 1, 0, 0], [0, 0, -1, 1],
                                          [0, 0, -5, 0], [0, 0, 0, -10]])
        np.testing.assert_allclose(ss.B, [0, 0, 5, 0])
        np.testing.assert_allclose(ss.C, [0, 0, 0, 10])
        np.testing.assert_allclose(ss.D_row, [1, 0, 0, 0])
        for delta in (0.0, 0.3, 1.0):
            tp, te = 0.2, 0.1
            expected = np.array([
                [1, delta, -tp**2 * psi_ref(delta / tp), te**2 * psi_ref(delta / te)],
                [0, 1, tp * np.expm1(-delta / tp), -te * np.expm1(-delta / te)],
                [0, 0, np.exp(-delta / tp), 0],
                [0, 0, 0, np.exp(-delta / te)],
            ])
            np.testing.assert_allclose(mat_exp(ss.A, delta), expected, atol=1e-12)

    def test_zero_order_pair(self):
        ss = build_relative_ss(ControllerModel.zero_order(1.0), ControllerModel.zero_order(1.0))
        np.testing.assert_allclose(ss.A, [[0, 1], [0, 0]])
        np.testing.assert_allclose(ss.B, [0, -1])
        np.testing.assert_allclose(ss.C, [0, 1])

    def test_dimension_bookkeeping(self):
        rng = np.random.default_rng(1)
        ss = build_relative_ss(random_controller(rng, 2), random_controller(rng, 3))
        assert ss.A.shape == (7, 7)

    def test_block_layout_random_orders(self):
        rng = np.random.default_rng(2)
        for _ in range(6):
            p = random_controller(rng, int(rng.integers(0, 5)))
            e = random_controller(rng, int(rng.integers(0, 5)))
            ss = build_relative_ss(p, e)
            n_p, n_e = p.order, e.order
            np.testing.assert_allclose(ss.A[1, 2:2 + n_p], -p.out)
            np.testing.assert_allclose(ss.A[1, 2 + n_p:], e.out)
            np.testing.assert_allclose(ss.A[2:2 + n_p, 2 + n_p:], 0.0)
            np.testing.assert_allclose(ss.A[2 + n_p:, 2:2 + n_p], 0.0)
            assert ss.B[1] == -p.feed and ss.C[1] == e.feed
            np.testing.assert_allclose(ss.B[2 + n_p:], 0.0)
            np.testing.assert_allclose(ss.C[2:2 + n_p], 0.0)


class TestBuildEvaderSS:
    def test_study_evader_transition_matrix(self):
        ss = build_evader_ss(ControllerModel.first_order(0.1))
        assert ss.A.shape == (3, 3)
        te = 0.1
        for delta in (0.0, 0.45, 1.9):
            expected = np.array([
                [1, delta, te**2 * psi_ref(delta / te)],
                [0, 1, -te * np.expm1(-delta / te)],
                [0, 0, np.exp(-delta / te)],
            ])
            np.testing.assert_allclose(mat_exp(ss.A, delta), expected, atol=1e-12)

    def test_zero_order(self):
        ss = build_evader_ss(ControllerModel.zero_order(1.0))
        np.testing.assert_allclose(ss.A, [[0, 1], [0, 0]])

    def test_selector_row(self):
        rng = np.random.default_rng(3)
        for n in range(5):
            ss = build_evader_ss(random_controller(rng, n))
            np.testing.assert_allclose(ss.D_row, np.eye(n + 2)[0])


class TestInitialZem:
    def test_zero_angles(self):
        geo = EngagementGeometry(Vp=300.0, Ve=200.0, phi_p0=0.0, phi_e0=0.0)
        assert initial_zem(geo, 1.0, 0.9) == (0.0, 0.0)

    def test_matched_transversal_speeds(self):
        geo = EngagementGeometry(Vp=400.0, Ve=200.0, phi_p0=0.05, phi_e0=0.1)
        z0, w0 = initial_zem(geo, 1.2, 0.6)
        assert z0 == pytest.approx(0.0, abs=1e-12)
        assert w0 == pytest.approx(1.8 * 200.0 * 0.1)

    def test_study_like_values(self):
        geo = EngagementGeometry(Vp=300.0, Ve=1.0, phi_p0=0.0, phi_e0=100.0 / 1.9)
        z0, w0 = initial_zem(geo, 1.0, 0.9)
        assert z0 == pytest.approx(52.631578947, abs=1e-6)
        assert w0 == pytest.approx(100.0, abs=1e-9)


class TestZemInvariance:
    def test_coasting_keeps_z_constant(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            p = random_controller(rng, int(rng.integers(0, 4)))
            e = random_controller(rng, int(rng.integers(0, 4)))
            ss = build_relative_ss(p, e)
            t_f = 1.3
            grid = TimeGrid(0.0, t_f, 201)
            x0 = rng.standard_normal(ss.A.shape[0])
            traj = ode_playout(lambda t, x: ss.A @ x, x0, grid)
            zs = np.array([
                ss.D_row @ mat_exp(ss.A, t_f - t) @ traj[i]
                for i, t in enumerate(grid.nodes)
            ])
            np.testing.assert_allclose(zs, zs[0], rtol=0,
                                       atol=1e-9 * max(1.0, abs(zs[0])))


class TestScenario:
    def test_validation(self):
        p = ControllerModel.first_order(0.2)
        e = ControllerModel.first_order(0.1)
        with pytest.raises(ValueError):
            EngagementScenario(pursuer=p, evader=e, t_f=0.0, t_c=0.9,
                               alpha=0.05, beta=0.3, ae_max=100.0, z0=0.0, w0=0.0)
        with pytest.raises(ValueError):
            EngagementScenario(pursuer=p, evader=e, t_f=1.0, t_c=0.9,
                               alpha=0.05, beta=-0.3, ae_max=100.0, z0=0.0, w0=0.0)

    @pytest.mark.parametrize("name", ["t_f", "t_c", "alpha", "beta", "ae_max", "z0", "w0"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_fields_rejected(self, study_scenario, name, value):
        with pytest.raises(ValueError, match="%s must be finite" % name):
            dataclasses.replace(study_scenario, **{name: value})

    def test_non_finite_geometry_and_lag_rejected(self):
        for name in ("Vp", "Ve", "phi_p0", "phi_e0"):
            values = dict(Vp=300.0, Ve=150.0, phi_p0=0.01, phi_e0=0.02)
            values[name] = np.nan
            with pytest.raises(ValueError, match="%s must be finite" % name):
                EngagementGeometry(**values)
        for tau in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                ControllerModel.first_order(tau)

    def test_resolve_horizons(self):
        assert resolve_horizons(1.0, nu=0.9) == pytest.approx(0.9)
        assert resolve_horizons(1.0, t_c=0.7) == 0.7
        with pytest.raises(ValueError):
            resolve_horizons(1.0)
        with pytest.raises(ValueError):
            resolve_horizons(1.0, t_c=0.5, nu=0.5)

    def test_replaceable(self, study_scenario):
        moved = dataclasses.replace(study_scenario, z0=1.0, w0=2.0)
        assert (moved.z0, moved.w0) == (1.0, 2.0)
        assert moved.t_f == study_scenario.t_f
