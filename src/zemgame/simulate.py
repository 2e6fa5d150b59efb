"""Playout and verification machinery for the reduced and full dynamics.

The reduced quantities run on the sample bundle of a grid
(`Kernels.bundle`): the reduced right-hand sides do not depend on the
state, so the classical one-step method collapses to Simpson panels over the
control and kernel samples. The cost of two kernel-combination laws is a
quadratic form in the kernels' Gram matrix (`Kernels.gram`), exact and
without samples; any other cost is three dot products with the Simpson
weights. The full-state playout integrates the stacked player blocks with
the same classical RK4 in affine form (`rk4_affine`) and reconstructs the
miss variables through the transition rows.

Both playouts of kernel laws (u_p = c_p h_p, u_e = c_he h_e + c_ge g_e:
every saddle, branch and penalty law) are weighted sums of what the bundle
keeps once per grid: the running Simpson integrals of h_p^2, h_e^2, h_e g_e
and g_e^2 (`SampleBundle.running_products`), and five responses of the
player blocks with their z and w (`SampleBundle.responses`). The direct
paths above run for every other pair, and for kernel laws whose sums are
not finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .engagement import EngagementScenario, build_game_ss
from .errors import AssertionFailure, ProbeFailure
from .numerics import TimeGrid, rk4_affine
from .reduction import (ControlLaw, KernelCombo, Kernels, PeakScan, SampleBundle,
                        check_spans_horizon, simpson_panels)

if TYPE_CHECKING:  # pragma: no cover
    from .solver import SaddleSolution

_PROBE_BASIS_SIZE = 8
_PROBE_AMPLITUDE = 0.2  # perturbation peak relative to max(1, max |u*|)
_CELL_CHUNK = 64  # candidate cells of the peak scan evaluated at once


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
class FullPlayout:
    grid: TimeGrid
    x_traj: np.ndarray
    z_traj: np.ndarray
    w_traj: np.ndarray
    z_f: float
    w_f: float
    miss: float


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


def _kernel_law_coefs(u_p: ControlLaw, u_e: ControlLaw) -> Optional[tuple[float, float, float]]:
    """(c_p, c_he, c_ge) when u_p = c_p h_p and u_e = c_he h_e + c_ge g_e,
    the form of every saddle, branch and penalty law; else None."""
    if (isinstance(u_p, KernelCombo) and isinstance(u_e, KernelCombo)
            and u_p.he_coef == u_p.ge_coef == u_e.hp_coef == 0.0):
        return u_p.hp_coef, u_e.he_coef, u_e.ge_coef
    return None


def playout_reduced(scenario: EngagementScenario, kernels: Optional[Kernels],
                    u_p: ControlLaw, u_e: ControlLaw,
                    grid: Optional[TimeGrid] = None) -> Playout:
    """Integrate dz = h_p u_p + h_e u_e, dw = g_e u_e from (z0, w0) over the
    grid (by default the kernels' build grid).

    The right-hand sides do not depend on the state, so the classical
    one-step update equals a Simpson panel per step; the cumulative sums
    below are exactly that method. For kernel laws u_p = c_p h_p and
    u_e = c_he h_e + c_ge g_e the integrands are combinations of h_p^2,
    h_e^2, h_e g_e and g_e^2, so z and w are the same combinations of the
    bundle's kept cumulative sums of those four (`running_products`), and
    no panel is formed per call. Any other pair, and kernel laws whose
    combination is not finite, take the panels of their own samples.
    """
    k = kernels if kernels is not None else Kernels(scenario)
    bundle = k.bundle(grid)
    up, ue = bundle.control(u_p), bundle.control(u_e)
    coefs = _kernel_law_coefs(u_p, u_e)
    zw = None
    if coefs is not None:
        c_p, c_he, c_ge = coefs
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum takes the panels
            zw = (np.array([[c_p, c_he, c_ge, 0.0], [0.0, 0.0, c_he, c_ge]])
                  @ bundle.running_products() + np.array([[scenario.z0], [scenario.w0]]))
    if zw is not None and np.isfinite(zw).all():
        z, w = zw
    else:
        fz = bundle.h_p * up + bundle.h_e * ue
        fw = bundle.g_e * ue
        if not (np.isfinite(fz).all() and np.isfinite(fw).all()):
            raise ValueError("non-finite integrand in reduced playout")
        steps = np.diff(bundle.grid.nodes)
        z = np.empty(steps.size + 1)
        w = np.empty(steps.size + 1)
        z[0], w[0] = scenario.z0, scenario.w0
        z[1:] = scenario.z0 + np.cumsum(simpson_panels(fz[0::2], fz[1::2], steps))
        w[1:] = scenario.w0 + np.cumsum(simpson_panels(fw[0::2], fw[1::2], steps))
    return Playout(grid=bundle.grid, z_traj=z, w_traj=w, z_f=float(z[-1]), w_f=float(w[-1]),
                   up_samples=up[0::2], ue_samples=ue[0::2])


def _combo_integrals(gram: np.ndarray, u_p: KernelCombo, u_e: KernelCombo,
                     z0: float) -> tuple[float, float, float]:
    """Terminal z, int u_p^2 and int u_e^2 of a pair of kernel combinations,
    exactly: with c_p and c_e their coefficient rows on k = (h_p, h_e, g_e)
    and K = int k k' (`Kernels.gram`), z_f = z0 + (K c_p)_0 + (K c_e)_1 and
    the efforts are c' K c."""
    coefs = np.array([[u_p.hp_coef, u_p.he_coef, u_p.ge_coef],
                      [u_e.hp_coef, u_e.he_coef, u_e.ge_coef]])
    kc = coefs @ gram
    z_f = z0 + kc[0, 0] + kc[1, 1]
    pursuer, evader = (kc * coefs).sum(axis=1).tolist()
    if not np.isfinite((z_f, pursuer, evader)).all():
        raise ValueError("non-finite cost")
    return float(z_f), pursuer, evader


def evaluate_cost(scenario: EngagementScenario, kernels: Optional[Kernels],
                  u_p: ControlLaw, u_e: ControlLaw,
                  grid: Optional[TimeGrid] = None) -> CostBreakdown:
    """Terminal miss squared plus weighted control efforts,
    J = z_f^2 + alpha int u_p^2 - beta int u_e^2.

    A grid, when given, must span [0, t_f] (`check_spans_horizon`); any
    other is refused with ValueError. When both laws are `KernelCombo`s the
    cost is exact over [0, t_f]: a quadratic form in their coefficients
    with the kernels' Gram matrix (`_combo_integrals`), and the grid is not
    sampled. Any other pair is integrated by Simpson's rule on the refined
    nodes of the grid (by default the kernels' build grid;
    `_cost_integrals`).
    """
    if grid is not None:
        check_spans_horizon(grid, scenario.t_f)
    k = kernels if kernels is not None else Kernels(scenario)
    if isinstance(u_p, KernelCombo) and isinstance(u_e, KernelCombo):
        z_f, up2, ue2 = _combo_integrals(k.gram(), u_p, u_e, scenario.z0)
    else:
        bundle = k.bundle(grid)
        z_f, up2, ue2 = _cost_integrals(bundle, bundle.control(u_p), bundle.control(u_e),
                                        scenario.z0)
    terminal = z_f ** 2
    pursuer = scenario.alpha * up2
    evader = scenario.beta * ue2
    return CostBreakdown(terminal=terminal, pursuer_effort=pursuer,
                         evader_effort=evader, total=terminal + pursuer - evader)


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

    For kernel laws u_p = c_p h_p and u_e = c_he h_e + c_ge g_e the
    trajectory, z and w are weighted sums of the five responses the
    bundle keeps (`SampleBundle.responses`, built on the first such call),
    by the two lateral velocities of the initial state and the three
    coefficients: the same RK4, with no scan per call. Any other pair, and
    kernel laws whose sums are not finite, run `rk4_affine` on their own
    controls, so their errors are those of that direct path.
    """
    k = kernels if kernels is not None else Kernels(scenario)
    bundle = k.bundle(grid)
    x0 = _initial_full_state(scenario)
    n_p = scenario.pursuer.order + 2
    coefs = _kernel_law_coefs(u_p, u_e)
    combined = None if coefs is None else _combined_full(bundle, x0[1], x0[n_p + 1], *coefs)
    if combined is not None:
        x_traj, z, w = combined
    else:
        ss = build_game_ss(scenario.pursuer, scenario.evader)
        controls = np.vstack([bundle.control(u_p), bundle.control(u_e)])
        x_traj = rk4_affine(ss.A, np.vstack([ss.B, ss.C]), controls, x0, bundle.grid)
        x_p = x_traj[:, :n_p]
        x_e = x_traj[:, n_p:]
        x_ep = np.hstack([
            (x_e[:, :2] - x_p[:, :2]),
            x_p[:, 2:],
            x_e[:, 2:],
        ])
        z = np.einsum("ij,ij->i", bundle.node_rows_engagement, x_ep)
        w = np.einsum("ij,ij->i", bundle.node_rows_target, x_e)

    miss = float(x_traj[-1, n_p] - x_traj[-1, 0])
    if abs(z[-1] - miss) > 1e-9 * max(1.0, abs(miss)):
        raise AssertionFailure("terminal miss reconstruction mismatch")
    return FullPlayout(grid=bundle.grid, x_traj=x_traj, z_traj=z, w_traj=w,
                       z_f=float(z[-1]), w_f=float(w[-1]), miss=miss)


def _combined_full(bundle: SampleBundle, v_p: float, v_e: float, c_p: float, c_he: float,
                   c_ge: float) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The state, z and w of kernel laws with coefficients c_p, c_he and
    c_ge from lateral velocities v_p and v_e, as weighted sums of the
    bundle's `KernelResponses`; None when they are not all finite."""
    r = bundle.responses()
    nodes = bundle.grid.nodes.size
    evader = np.array([v_e, c_he, c_ge])
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum takes the direct path
        x_traj = np.hstack([(np.array([v_p, c_p]) @ r.pursuer.reshape(2, -1)).reshape(nodes, -1),
                            (evader @ r.evader.reshape(3, -1)).reshape(nodes, -1)])
        z = np.array([v_p, c_p, v_e, c_he, c_ge]) @ r.z
        w = evader @ r.w
    if np.isfinite(x_traj).all() and np.isfinite(z).all() and np.isfinite(w).all():
        return x_traj, z, w
    return None


def cross_play(scenario: EngagementScenario, u_p_choice: ControlLaw, u_e_choice: ControlLaw,
               kernels: Optional[Kernels] = None,
               grid: Optional[TimeGrid] = None) -> CostBreakdown:
    """Cost of an arbitrary pairing of control laws (typically one player's
    branch optimum against the other branch's), by `evaluate_cost`: exact
    from the kernels' Gram matrix for two `KernelCombo` laws, which is
    every branch pairing, so a cross-play table samples no grid."""
    return evaluate_cost(scenario, kernels, u_p_choice, u_e_choice, grid)


@dataclass(frozen=True)
class ProbeReport:
    n_trials: int
    evader_worst: float
    pursuer_worst: float
    slack: float
    passed: bool


def _candidates(coefficients: np.ndarray,
                scan: PeakScan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The largest |c . basis| at the coarse nodes of `PeakScan` for each
    row c, and the rows and cells of every (row, cell) pair whose bound
    reaches it, ordered by cell."""
    values = np.abs(scan.coarse.T @ coefficients.T)  # (coarse nodes, rows)
    coarse_peaks = values.max(axis=0)
    reach = np.maximum(values[:-1], values[1:])
    reach += scan.kappa[:, None] * np.linalg.norm(coefficients, axis=1)
    cells, rows = np.divmod(np.flatnonzero(reach >= coarse_peaks), coarse_peaks.size)
    return coarse_peaks, rows, cells


def _peaks(coefficients: np.ndarray, scan: PeakScan) -> np.ndarray:
    """max |c . basis[:, i]| over the refined nodes i for each row c, by
    the certified coarse scan of `PeakScan`: the largest value at the
    coarse nodes, raised by the nodes of each cell whose bound reaches it
    (`_candidates`), a fixed number of cells at a time. No (rows x nodes)
    array is formed.

    Each cell is evaluated as a (2 x size) @ (size x width) product with
    its row taken twice: numpy hands a one-row product to BLAS gemv and a
    two-row one to gemm, and gemm sums each dot product in the order of
    the dense (rows x size) @ (size x nodes) product, so the peaks equal
    the dense scan's to the last bit (OpenBLAS; otherwise to the rounding
    of the dot products)."""
    out, rows, cells = _candidates(coefficients, scan)
    cell_peaks = np.empty(rows.size)
    for i in range(0, rows.size, _CELL_CHUNK):
        r, j = rows[i:i + _CELL_CHUNK], cells[i:i + _CELL_CHUNK]
        twice = coefficients[np.repeat(r, 2)].reshape(r.size, 2, -1)
        inside = np.matmul(twice, scan.windows[scan.starts[j]])
        cell_peaks[i:i + _CELL_CHUNK] = np.abs(inside[:, 0]).max(axis=1)
    np.maximum.at(out, rows, cell_peaks)
    return out


def _quadratic(V: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """v' gram v for each row v of V."""
    return np.einsum("ti,ij,tj->t", V, gram, V)


def saddle_probe(scenario: EngagementScenario, solution: "SaddleSolution",
                 n_trials: int = 100, seed: int = 0,
                 kernels: Optional[Kernels] = None,
                 grid: Optional[TimeGrid] = None) -> ProbeReport:
    """Empirical saddle check around a solved pair.

    Random smooth perturbations (a low-order orthogonal-polynomial basis)
    are applied to each side separately; evader perturbations are projected
    into the admissible class of the active region first. Every trial must
    keep J(u_p*, u_e* + d) <= J* <= J(u_p* + d, u_e*) up to a 1e-9 slack;
    the first trial that does not raises ProbeFailure (its evader side
    before its pursuer side).

    Trial t takes its 8 evader and then its 8 pursuer Legendre
    coefficients as normals 16t to 16t + 15 of one stream,
    default_rng(seed), so a run of n trials draws the first n trials of
    any longer run with the same seed; each perturbation is scaled to a
    peak of 0.2 * max(1, max |u*|) over the refined nodes. The peaks come
    from the certified coarse scan of `_peaks`: every 50th node, and then
    only the cells whose bound reaches the coarse maximum, so they equal
    the maxima over every node. Every perturbation lies in
    span(basis, g_e), and J is quadratic in the controls, so each trial's
    terminal z, efforts and cost come from its 9 coefficients and one 9x9
    Gram matrix of the basis and g_e under the Simpson weights; all trials
    are evaluated at once. The basis, its products with the kernels and
    its peak scan are the bundle's (`legendre_gram`, `peak_scan`), so a
    call forms only the products with u_p* and u_e*.
    """
    from .solver import RegionLabel

    if n_trials < 0:
        raise ValueError("n_trials must be nonnegative")
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
    amp_p = _PROBE_AMPLITUDE * max(1.0, float(np.abs(up).max()))
    amp_e = _PROBE_AMPLITUDE * max(1.0, float(np.abs(ue).max()))

    draws = np.random.default_rng(seed).standard_normal((n_trials, 2, nb))
    c_e, c_p = draws[:, 0], draws[:, 1]
    peaks = _peaks(draws.reshape(-1, nb), bundle.peak_scan(nb, scenario.t_f))
    peak_e, peak_p = peaks.reshape(n_trials, 2).T

    scale_e = amp_e / peak_e
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

    V_p = (amp_p / peak_p)[:, None] * c_p
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
