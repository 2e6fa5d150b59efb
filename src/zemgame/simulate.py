"""Playout and verification machinery for the reduced and full dynamics.

The reduced quantities run on the sample bundle of a grid
(`Kernels.bundle`): the reduced right-hand sides do not depend on the
state, so the classical one-step method collapses to Simpson panels over the
control and kernel samples, and a cost is three dot products with the
Simpson weights. The full-state playout integrates the stacked player blocks
with the same classical RK4 in affine form (`rk4_affine`) and reconstructs
the miss variables through the transition rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .engagement import EngagementScenario, build_game_ss
from .errors import AssertionFailure, ProbeFailure
from .numerics import TimeGrid, rk4_affine
from .reduction import ControlLaw, GameCoefficients, Kernels, KernelSet, SampleBundle

if TYPE_CHECKING:  # pragma: no cover
    from .solver import SaddleSolution

_PROBE_BASIS_SIZE = 8
_PEAK_CHUNK = 8  # probe perturbations sampled at once to take their peaks


@dataclass(frozen=True)
class Playout:
    """Trajectories of the reduced state under a pair of control laws."""

    grid: TimeGrid
    z_traj: np.ndarray
    w_traj: np.ndarray
    z_f: float
    w_f: float
    up_samples: np.ndarray
    ue_samples: np.ndarray


@dataclass(frozen=True)
class CostBreakdown:
    terminal: float
    pursuer_effort: float
    evader_effort: float
    total: float


@dataclass(frozen=True)
class TerminalCheck:
    """Outcome of the terminal-constraint comparison; margin is
    bound - |w_f| (negative when violated)."""

    satisfied: bool
    margin: float

    @property
    def excess(self) -> float:
        return -self.margin


@dataclass(frozen=True)
class FullPlayout:
    grid: TimeGrid
    x_traj: np.ndarray
    z_traj: np.ndarray
    w_traj: np.ndarray
    z_f: float
    w_f: float
    miss: float


def _simpson_panels(node_vals: np.ndarray, mid_vals: np.ndarray, steps: np.ndarray) -> np.ndarray:
    return steps / 6.0 * (node_vals[:-1] + 4.0 * mid_vals + node_vals[1:])


def _cost_integrals(bundle: SampleBundle, up: np.ndarray, ue: np.ndarray,
                    z0: float) -> tuple[float, float, float]:
    """Terminal z, int u_p^2 and int u_e^2 of a control pair sampled on the
    refined nodes of the bundle, as dot products with its Simpson weights."""
    w = bundle.weights
    z_f = z0 + w @ (bundle.h_p * up + bundle.h_e * ue)
    pursuer = w @ (up * up)
    evader = w @ (ue * ue)
    if not np.isfinite((z_f, pursuer, evader)).all():
        raise ValueError("non-finite integrand in cost")
    return float(z_f), float(pursuer), float(evader)


def playout_reduced(scenario: EngagementScenario, kernels: Optional[KernelSet],
                    u_p: ControlLaw, u_e: ControlLaw,
                    grid: Optional[TimeGrid] = None) -> Playout:
    """Integrate dz = h_p u_p + h_e u_e, dw = g_e u_e from (z0, w0) over the
    grid (by default the kernels' build grid).

    The right-hand sides do not depend on the state, so the classical
    one-step update equals a Simpson panel per step; the cumulative sums
    below are exactly that method.
    """
    k = kernels if kernels is not None else Kernels(scenario)
    bundle = k.bundle(grid)
    up, ue = bundle.control(u_p), bundle.control(u_e)
    fz = bundle.h_p * up + bundle.h_e * ue
    fw = bundle.g_e * ue
    if not (np.isfinite(fz).all() and np.isfinite(fw).all()):
        raise ValueError("non-finite integrand in reduced playout")

    steps = np.diff(bundle.grid.nodes)
    z = np.empty(steps.size + 1)
    w = np.empty(steps.size + 1)
    z[0], w[0] = scenario.z0, scenario.w0
    z[1:] = scenario.z0 + np.cumsum(_simpson_panels(fz[0::2], fz[1::2], steps))
    w[1:] = scenario.w0 + np.cumsum(_simpson_panels(fw[0::2], fw[1::2], steps))
    return Playout(grid=bundle.grid, z_traj=z, w_traj=w, z_f=float(z[-1]), w_f=float(w[-1]),
                   up_samples=up[0::2], ue_samples=ue[0::2])


def evaluate_cost(scenario: EngagementScenario, kernels: Optional[KernelSet],
                  u_p: ControlLaw, u_e: ControlLaw,
                  grid: Optional[TimeGrid] = None) -> CostBreakdown:
    """Terminal miss squared plus weighted control efforts,
    J = z_f^2 + alpha int u_p^2 - beta int u_e^2, over the grid (by default
    the kernels' build grid)."""
    k = kernels if kernels is not None else Kernels(scenario)
    bundle = k.bundle(grid)
    z_f, up2, ue2 = _cost_integrals(bundle, bundle.control(u_p), bundle.control(u_e), scenario.z0)
    terminal = z_f ** 2
    pursuer = scenario.alpha * up2
    evader = scenario.beta * ue2
    return CostBreakdown(terminal=terminal, pursuer_effort=pursuer,
                         evader_effort=evader, total=terminal + pursuer - evader)


def check_terminal(w_f: float, coeffs: GameCoefficients) -> TerminalCheck:
    """Compare |w_f| against the reachable bound with a 1e-9 relative band."""
    bound = coeffs.bound
    tol = 1e-9 * max(1.0, bound)
    margin = bound - abs(w_f)
    return TerminalCheck(satisfied=margin >= -tol, margin=margin)


def _initial_full_state(scenario: EngagementScenario) -> np.ndarray:
    n_p = scenario.pursuer.order + 2
    n_e = scenario.evader.order + 2
    x0 = np.zeros(n_p + n_e)
    if scenario.geometry is not None:
        geo = scenario.geometry
        x0[1] = geo.Vp * geo.phi_p0
        x0[n_p + 1] = geo.Ve * geo.phi_e0
    else:
        # invert the zero-effort-miss map: only lateral velocities are free
        ve = scenario.w0 / (scenario.t_f + scenario.t_c)
        x0[n_p + 1] = ve
        x0[1] = ve - scenario.z0 / scenario.t_f
    return x0


def playout_full(scenario: EngagementScenario, u_p: ControlLaw, u_e: ControlLaw,
                 grid: Optional[TimeGrid] = None,
                 kernels: Optional[Kernels] = None) -> FullPlayout:
    """Integrate the stacked player blocks and reconstruct z(t), w(t).

    The state follows dx/dt = A x + B u_p + C u_e of `build_game_ss` by the
    classical RK4 over the grid (by default the kernels' build grid), with
    the controls taken on its refined nodes. The reconstruction applies the
    bundle's transition rows at the grid nodes to the relative and evader
    sub-states, so at the horizon z equals the achieved miss y_e - y_p
    exactly.
    """
    k = kernels if kernels is not None else Kernels(scenario)
    bundle = k.bundle(grid)
    grid = bundle.grid
    ss = build_game_ss(scenario.pursuer, scenario.evader)
    forcing = np.outer(bundle.control(u_p), ss.B) + np.outer(bundle.control(u_e), ss.C)
    x_traj = rk4_affine(ss.A, forcing, _initial_full_state(scenario), grid.nodes)

    n_p = scenario.pursuer.order + 2
    x_p = x_traj[:, :n_p]
    x_e = x_traj[:, n_p:]
    x_ep = np.hstack([
        (x_e[:, :2] - x_p[:, :2]),
        x_p[:, 2:],
        x_e[:, 2:],
    ])
    z = np.einsum("ij,ij->i", bundle.node_rows_engagement, x_ep)
    w = np.einsum("ij,ij->i", bundle.node_rows_target, x_e)

    miss = float(x_e[-1, 0] - x_p[-1, 0])
    if abs(z[-1] - miss) > 1e-9 * max(1.0, abs(miss)):
        raise AssertionFailure("terminal miss reconstruction mismatch")
    return FullPlayout(grid=grid, x_traj=x_traj, z_traj=z, w_traj=w,
                       z_f=float(z[-1]), w_f=float(w[-1]), miss=miss)


def cross_play(scenario: EngagementScenario, u_p_choice: ControlLaw, u_e_choice: ControlLaw,
               kernels: Optional[KernelSet] = None,
               grid: Optional[TimeGrid] = None) -> CostBreakdown:
    """Cost of an arbitrary pairing of control laws (typically one player's
    branch optimum against the other branch's)."""
    return evaluate_cost(scenario, kernels, u_p_choice, u_e_choice, grid)


@dataclass(frozen=True)
class ProbeReport:
    n_trials: int
    evader_worst: float
    pursuer_worst: float
    slack: float
    passed: bool


def _peaks(coefficients: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """max |c @ basis| over the refined nodes for each row c, taken a few
    rows at a time so that no (trials x nodes) array is formed."""
    out = np.empty(len(coefficients))
    for i in range(0, len(coefficients), _PEAK_CHUNK):
        out[i:i + _PEAK_CHUNK] = np.abs(coefficients[i:i + _PEAK_CHUNK] @ basis).max(axis=1)
    return out


def _quadratic(V: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """v' gram v for each row v of V."""
    return np.einsum("ti,ij,tj->t", V, gram, V)


def admissible_evader_perturbation(delta: np.ndarray, ge_n: np.ndarray, ge_m: np.ndarray,
                                   steps: np.ndarray) -> np.ndarray:
    """Project a perturbation onto the class that leaves the terminal w
    unchanged (discrete version of int g_e delta = 0, in the same panel
    quadrature the playout uses). `saddle_probe` applies the same projection
    to coefficient vectors; this is its sampled form."""
    d_n, d_m = delta[0::2], delta[1::2]
    num = float(np.sum(_simpson_panels(ge_n * d_n, ge_m * d_m, steps)))
    den = float(np.sum(_simpson_panels(ge_n ** 2, ge_m ** 2, steps)))
    out = delta.copy()
    out[0::2] -= (num / den) * ge_n
    out[1::2] -= (num / den) * ge_m
    return out


def saddle_probe(scenario: EngagementScenario, solution: "SaddleSolution",
                 n_trials: int = 100, seed: int = 0,
                 kernels: Optional[KernelSet] = None,
                 grid: Optional[TimeGrid] = None,
                 rel_amplitude: float = 0.2) -> ProbeReport:
    """Empirical saddle check around a solved pair.

    Random smooth perturbations (a low-order orthogonal-polynomial basis)
    are applied to each side separately; evader perturbations are projected
    into the admissible class of the active region first. Every trial must
    keep J(u_p*, u_e* + d) <= J* <= J(u_p* + d, u_e*) up to a 1e-9 slack;
    the first trial that does not raises ProbeFailure (its evader side
    before its pursuer side).

    Trial t draws 8 evader and then 8 pursuer Legendre coefficients from
    default_rng(SeedSequence(seed).spawn(n_trials)[t]); each perturbation is
    scaled to a peak of rel_amplitude * max(1, max |u*|) over the refined
    nodes. Every perturbation lies in span(basis, g_e), and J is quadratic
    in the controls, so each trial's terminal z, efforts and cost come from
    its 9 coefficients and one 9x9 Gram matrix of the basis and g_e under
    the Simpson weights; all trials are evaluated at once. The basis and
    its products with the kernels are the bundle's (`legendre_gram`), so a
    call forms only the products with u_p* and u_e*.
    """
    from .solver import RegionLabel

    k = kernels if kernels is not None else Kernels(scenario)
    bundle = k.bundle(grid)
    up, ue = bundle.control(solution.u_p), bundle.control(solution.u_e)
    z_f, up2, ue2 = _cost_integrals(bundle, up, ue, scenario.z0)
    alpha, beta = scenario.alpha, scenario.beta
    nb = _PROBE_BASIS_SIZE
    basis, products = bundle.legendre_gram(nb, scenario.t_f)
    gram = products[:, :nb + 1]
    hp_dot, he_dot = products[:, nb + 1:].T  # int aug_i * (h_p, h_e), aug = (basis, g_e)
    weighted_ue = bundle.weights * ue
    up_dot = basis @ (bundle.weights * up)  # int basis_i u_p*
    ue_dot = np.append(basis @ weighted_ue, bundle.g_e @ weighted_ue)  # int aug_i u_e*

    j_star = solution.value
    slack = 1e-9 * max(1.0, abs(j_star))
    amp_p = rel_amplitude * max(1.0, float(np.abs(up).max()))
    amp_e = rel_amplitude * max(1.0, float(np.abs(ue).max()))

    draws = np.empty((2, n_trials, nb))
    for trial, seq in enumerate(np.random.SeedSequence(seed).spawn(n_trials)):
        draws[:, trial] = np.random.default_rng(seq).standard_normal((2, nb))
    c_e, c_p = draws
    peaks = _peaks(draws.reshape(-1, nb), basis)

    scale_e = amp_e / peaks[:n_trials]
    dw = scale_e * (c_e @ gram[:nb, nb])  # int g_e delta: terminal w shift
    if solution.region.label is RegionLabel.OMEGA:
        # keep the perturbed terminal inside the strip: the room to the
        # nearest wall is -margin, so cap the terminal shift below it
        room = -solution.region.margin
        capped = np.abs(dw) > 0.9 * room
        scale_e[capped] *= 0.9 * room / np.abs(dw[capped])
        ge_part = np.zeros(n_trials)
    else:
        ge_part = -dw / gram[nb, nb]
    V_e = np.column_stack([scale_e[:, None] * c_e, ge_part])
    z_e = z_f + V_e @ he_dot
    j_e = z_e ** 2 + alpha * up2 - beta * (ue2 + 2.0 * (V_e @ ue_dot) + _quadratic(V_e, gram))

    V_p = (amp_p / peaks[n_trials:])[:, None] * c_p
    z_p = z_f + V_p @ hp_dot[:nb]
    j_p = z_p ** 2 + alpha * (up2 + 2.0 * (V_p @ up_dot)
                              + _quadratic(V_p, gram[:nb, :nb])) - beta * ue2

    raised = np.flatnonzero(j_e > j_star + slack)
    lowered = np.flatnonzero(j_p < j_star - slack)
    if raised.size and (not lowered.size or raised[0] <= lowered[0]):
        t = int(raised[0])
        raise ProbeFailure(
            "evader perturbation raised the cost: %g > %g" % (j_e[t], j_star),
            trial=t, coefficients=c_e[t].copy(),
        )
    if lowered.size:
        t = int(lowered[0])
        raise ProbeFailure(
            "pursuer perturbation lowered the cost: %g < %g" % (j_p[t], j_star),
            trial=t, coefficients=c_p[t].copy(),
        )
    return ProbeReport(n_trials=n_trials,
                       evader_worst=float(np.max(j_e - j_star, initial=-np.inf)),
                       pursuer_worst=float(np.min(j_p - j_star, initial=np.inf)),
                       slack=slack, passed=True)
