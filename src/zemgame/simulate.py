"""Playout and verification machinery for the reduced and full dynamics.

The reduced quantities run on the sample bundle of a grid
(`Kernels.bundle`): the reduced right-hand sides do not depend on the
state, so the classical one-step method collapses to Simpson panels over the
control and kernel samples. The cost of two kernel-combination laws is a
quadratic form in the kernels' Gram matrix (`Kernels.gram`), exact and
without samples; any other cost is three dot products with the Simpson
weights. The full-state playout integrates each player's own block with
the same classical RK4 in affine form (`rk4_affine`) and reconstructs the
miss variables through the players' rows (`SampleBundle.misses`).

Both playouts of kernel laws (u_p = c_p h_p, u_e = c_he h_e + c_ge g_e:
every saddle, branch and penalty law) are weighted sums of what the bundle
keeps once per grid: the running Simpson integrals of h_p^2, h_e^2, h_e g_e
and g_e^2 (`SampleBundle.running_products`), and five responses of the
player blocks with their z and w (`SampleBundle.responses`). The direct
paths above run for every other pair, and for kernel laws whose sums are
not finite. A grid handed to either playout or to the probe must span
[0, t_f]; any other is refused with ValueError (`check_spans_horizon`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engagement import EngagementScenario
from .errors import NonFiniteResult, ProbeFailure, check
from .numerics import TimeGrid, rk4_affine
from .reduction import (ControlLaw, KernelCombo, Kernels, PeakScan, SampleBundle,
                        check_spans_horizon)
from .solver import RegionLabel, SaddleSolution

_PROBE_BASIS_SIZE = 8
_PROBE_AMPLITUDE = 0.2  # perturbation peak relative to max(1, max |u*|)
_CELL_CHUNK = 512  # most cells of the peak scan evaluated at once (1.7 MB of windows)


@dataclass(frozen=True, eq=False)
class Playout:
    """Trajectories of the reduced state under a pair of control laws at the
    grid nodes; the bundle samples the laws themselves (`SampleBundle.control`)."""

    grid: TimeGrid
    z_traj: np.ndarray
    w_traj: np.ndarray
    z_f: float
    w_f: float


@dataclass(frozen=True)
class CostBreakdown:
    terminal: float
    pursuer_effort: float
    evader_effort: float
    total: float


@dataclass(frozen=True, eq=False)
class FullPlayout:
    grid: TimeGrid
    x_traj: np.ndarray
    z_traj: np.ndarray
    w_traj: np.ndarray
    z_f: float
    w_f: float
    miss: float


def _kernel_law_coefs(u_p: ControlLaw, u_e: ControlLaw) -> Optional[tuple[float, float, float]]:
    """(c_p, c_he, c_ge) when u_p = c_p h_p and u_e = c_he h_e + c_ge g_e,
    the form of every saddle, branch and penalty law; else None."""
    if (isinstance(u_p, KernelCombo) and isinstance(u_e, KernelCombo)
            and u_p.he_coef == u_p.ge_coef == u_e.hp_coef == 0.0):
        return u_p.hp_coef, u_e.he_coef, u_e.ge_coef
    return None


def playout_reduced(scenario: EngagementScenario, kernels: Kernels,
                    u_p: ControlLaw, u_e: ControlLaw,
                    grid: Optional[TimeGrid] = None) -> Playout:
    """Integrate dz = h_p u_p + h_e u_e, dw = g_e u_e from (z0, w0) over the
    grid (by default the kernels' build grid).

    The right-hand sides do not depend on the state, so the classical
    one-step update equals a Simpson panel per step; the bundle's
    cumulative sums (`SampleBundle.running`) are exactly that method. For
    kernel laws u_p = c_p h_p and u_e = c_he h_e + c_ge g_e the integrands
    are combinations of h_p^2, h_e^2, h_e g_e and g_e^2, so z and w are the
    same combinations of the kept sums of those four (`running_products`).
    Any other pair, and kernel laws whose combination is not finite, sum
    their own samples.
    """
    bundle = kernels.bundle(grid)
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
        up, ue = bundle.control(u_p), bundle.control(u_e)
        integrands = np.stack([bundle.h_p * up + bundle.h_e * ue, bundle.g_e * ue])
        if not np.isfinite(integrands).all():
            raise ValueError("non-finite integrand in reduced playout")
        z, w = bundle.running(integrands) + np.array([[scenario.z0], [scenario.w0]])
    return Playout(grid=bundle.grid, z_traj=z, w_traj=w, z_f=float(z[-1]), w_f=float(w[-1]))


def _combo_integrals(gram: np.ndarray, u_p: KernelCombo, u_e: KernelCombo,
                     z0: float) -> tuple[float, float, float]:
    """Terminal z, int u_p^2 and int u_e^2 of a pair of kernel combinations,
    exactly: with c_p and c_e their coefficient rows on k = (h_p, h_e, g_e)
    and K = int k k' (`Kernels.gram`), z_f = z0 + (c_p K)_0 + (c_e K)_1 and
    the efforts are c K c', on Python floats in the order of those
    products."""
    (k00, k01, k02), (k10, k11, k12), (k20, k21, k22) = gram.tolist()
    forms = []
    for law in (u_p, u_e):
        c0, c1, c2 = law.hp_coef, law.he_coef, law.ge_coef
        kc = (c0 * k00 + c1 * k10 + c2 * k20, c0 * k01 + c1 * k11 + c2 * k21,
              c0 * k02 + c1 * k12 + c2 * k22)
        forms.append((kc, kc[0] * c0 + kc[1] * c1 + kc[2] * c2))
    (kp, pursuer), (ke, evader) = forms
    z_f = z0 + kp[0] + ke[1]
    if not (math.isfinite(z_f) and math.isfinite(pursuer) and math.isfinite(evader)):
        raise NonFiniteResult("non-finite cost")
    return z_f, pursuer, evader


def evaluate_cost(scenario: EngagementScenario, kernels: Kernels,
                  u_p: ControlLaw, u_e: ControlLaw,
                  grid: Optional[TimeGrid] = None) -> CostBreakdown:
    """Terminal miss squared plus weighted control efforts,
    J = z_f^2 + alpha int u_p^2 - beta int u_e^2.

    A grid, when given, must span [0, t_f] (`check_spans_horizon`); any
    other is refused with ValueError. When both laws are `KernelCombo`s the
    cost is exact over [0, t_f]: a quadratic form in their coefficients
    with the kernels' Gram matrix (`_combo_integrals`), and the grid is not
    sampled. Any other pair is integrated by Simpson's rule on the refined
    nodes of the grid (by default the kernels' build grid), as dot products
    with the bundle's weights.
    """
    if grid is not None:
        check_spans_horizon(grid, scenario.t_f)
    if isinstance(u_p, KernelCombo) and isinstance(u_e, KernelCombo):
        z_f, up2, ue2 = _combo_integrals(kernels.gram(), u_p, u_e, scenario.z0)
    else:
        bundle = kernels.bundle(grid)
        up, ue, w = bundle.control(u_p), bundle.control(u_e), bundle.weights
        z_f = scenario.z0 + w @ (bundle.h_p * up + bundle.h_e * ue)
        up2, ue2 = w @ (up * up), w @ (ue * ue)
        if not np.isfinite((z_f, up2, ue2)).all():
            raise ValueError("non-finite integrand in cost")
        z_f, up2, ue2 = float(z_f), float(up2), float(ue2)
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
                 grid: Optional[TimeGrid] = None, *, kernels: Kernels) -> FullPlayout:
    """Integrate the players' own blocks and reconstruct z(t), w(t).

    Each player's state (the pursuer's first in `x_traj`) follows
    dx/dt = A x + B u by the classical RK4 over the grid (by default the
    kernels' build grid), with its control taken on the refined nodes. The
    reconstruction z = R_e . x_e - R_p . x_p (`SampleBundle.misses`) reads
    the players' rows at the nodes, e_0 at the horizon, so there z equals
    the achieved miss y_e - y_p exactly.

    For kernel laws u_p = c_p h_p and u_e = c_he h_e + c_ge g_e the
    trajectory, z and w are weighted sums of the five responses the
    bundle keeps (`SampleBundle.responses`, built on the first such call),
    by the two lateral velocities of the initial state and the three
    coefficients: the same RK4, with no scan per call. Any other pair, and
    kernel laws whose sums are not finite, run `rk4_affine` on their own
    controls, so their errors are those of that direct path.
    """
    bundle = kernels.bundle(grid)
    x0 = _initial_full_state(scenario)
    n_p = scenario.pursuer.order + 2
    coefs = _kernel_law_coefs(u_p, u_e)
    combined = None if coefs is None else _combined_full(bundle, x0[1], x0[n_p + 1], *coefs)
    if combined is not None:
        x_traj, z, w = combined
    else:
        x_p, x_e = (rk4_affine(player.A, player.B[None], bundle.control(law)[None], x, bundle.grid)
                    for player, law, x in zip(bundle.players, (u_p, u_e), (x0[:n_p], x0[n_p:])))
        z_p, z_e, w = bundle.misses(x_p, x_e)
        z = z_e - z_p
        x_traj = np.hstack([x_p, x_e])

    miss = float(x_traj[-1, n_p] - x_traj[-1, 0])
    check("terminal miss == z(t_f)", z[-1] - miss, 1e-9, x_traj[-1, n_p], x_traj[-1, 0])
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
               kernels: Kernels, grid: Optional[TimeGrid] = None) -> CostBreakdown:
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


def _candidates(coefficients: np.ndarray, scan: PeakScan,
                norms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The largest |c . basis| at the coarse nodes of `PeakScan` for each
    row c (of 2-norm `norms`), the rows and cells of the pairs whose bound
    reaches it, ordered by cell, and the (coarse nodes x rows) |c . basis|."""
    values = scan.coarse.T @ coefficients.T  # (coarse nodes, rows)
    np.abs(values, out=values)
    coarse_peaks = values.max(axis=0)
    reach = np.maximum(values[:-1], values[1:])
    reach += np.einsum("j,r->jr", scan.kappa, norms)  # kappa_j ||c_r||, not broadcast
    cells, rows = np.divmod(np.flatnonzero(reach >= coarse_peaks), coarse_peaks.size)
    return coarse_peaks, rows, cells, values


def _peaks(coefficients: np.ndarray, scan: PeakScan) -> np.ndarray:
    """max |c . basis[:, i]| over the refined nodes i for each row c, by
    the certified coarse scan of `PeakScan`: the largest value at the
    coarse nodes, raised by the nodes of each cell whose two bounds reach
    it. Of the cells `_candidates` returns, one is evaluated only when its
    bow bound, a concave parabola in theta, exceeds the coarse peak on the
    theta range of its interior nodes. (A cell with none has k = 0 and the
    range [0, 0], and its NaN or zero theta keeps it out.)

    Kept cells are evaluated in one batched product (`_CELL_CHUNK` cells a
    pass, to bound memory), each a (2 x size) @ (size x width) product of
    its row taken twice: numpy hands one row to BLAS gemv and two to gemm.
    On OpenBLAS the peaks so equal, bit for bit, those of the dense product
    taken eight rows at a time (`tests/helpers.dense_peaks`); one product
    of many more rows can sum in another order."""
    norms = np.linalg.norm(coefficients, axis=1)
    out, rows, cells, values = _candidates(coefficients, scan, norms)
    flat = cells * out.size + rows  # of (cell, row) in values; + out.size is (cell + 1, row)
    v_a, v_b = values.ravel().take(flat), values.ravel().take(flat + out.size)
    rise = v_b - v_a
    k = scan.bow.take(cells) * (4.0 * norms.take(rows))
    lo, hi = scan.inner.take(cells, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.minimum(np.maximum(0.5 + rise / (2.0 * k), lo), hi)
    keep = v_a + theta * (rise + k * (1.0 - theta)) > out.take(rows)
    rows, cells = rows[keep], cells[keep]
    cell_peaks = np.empty(rows.size)
    for i in range(0, rows.size, _CELL_CHUNK):
        r = rows[i:i + _CELL_CHUNK]
        twice = coefficients.take(np.repeat(r, 2), axis=0).reshape(r.size, 2, -1)
        inside = np.matmul(twice, scan.windows.take(cells[i:i + _CELL_CHUNK], axis=0))
        # |.| laid out (node, cell), so that the max runs across whole rows
        cell_peaks[i:i + _CELL_CHUNK] = np.abs(inside[:, 0].T, order="C").max(axis=0)
    np.maximum.at(out, rows, cell_peaks)
    return out


def _law_peak(law: KernelCombo, bundle: SampleBundle, kernel_peaks: tuple) -> float:
    """max |law| over the bundle's nodes; a law c k on one kernel takes
    |c| max |k|, the same float, since rounding is monotone and odd."""
    on = [abs(c) * peak for c, peak in zip((law.hp_coef, law.he_coef, law.ge_coef), kernel_peaks)
          if c != 0.0]
    return on[0] if len(on) == 1 else float(np.abs(bundle.control(law)).max())


def _quadratic(V: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """v' gram v for each row v of V."""
    return np.einsum("ti,ti->t", V @ gram, V)


def saddle_probe(scenario: EngagementScenario, solution: SaddleSolution,
                 n_trials: int = 100, seed: int = 0, *, kernels: Kernels,
                 grid: Optional[TimeGrid] = None) -> ProbeReport:
    """Empirical saddle check around a solved pair of kernel laws
    (`KernelCombo`; any other law is refused with TypeError).

    Each trial perturbs each side separately by a random Legendre
    polynomial of degree below 8 on [0, t_f], scaled to a peak of
    0.2 * max(1, max |u*|) over the refined nodes of the grid; an evader
    perturbation is first projected into the admissible class of the
    region. Every trial must keep J(u_p*, u_e* + d) <= J* <= J(u_p* + d, u_e*)
    to a 1e-9 slack; the first that does not raises ProbeFailure (its
    evader side first). Trial t takes its 8 evader and then its 8 pursuer
    coefficients as normals 16t to 16t + 15 of default_rng(seed), so n
    trials are the first n of any longer run.

    J is quadratic in the controls, so all trials are evaluated at once in
    kernel coordinates: J*'s terminal z and efforts exactly from the
    kernels' Gram matrix (`_combo_integrals`), and the perturbations'
    products with the basis, g_e and the kernels from the bundle's Simpson
    products (`SampleBundle.legendre`). The peaks come from the certified
    coarse scan of `_peaks` and equal the maxima over every node; only
    the max |u*| of a law on two kernels reads the nodes (`_law_peak`).
    """
    if n_trials < 0:
        raise ValueError("n_trials must be nonnegative")
    u_p, u_e = solution.u_p, solution.u_e
    if not (isinstance(u_p, KernelCombo) and isinstance(u_e, KernelCombo)):
        raise TypeError("the saddle probe takes kernel laws, not %r and %r" % (u_p, u_e))
    bundle = kernels.bundle(grid)
    z_f, up2, ue2 = _combo_integrals(kernels.gram(), u_p, u_e, scenario.z0)
    alpha, beta = scenario.alpha, scenario.beta
    nb = _PROBE_BASIS_SIZE
    legendre = bundle.legendre(nb, scenario.t_f)
    gram, kernel_dots = legendre.gram, legendre.kernel_dots
    hp_dot, he_dot = kernel_dots[:, 0], kernel_dots[:, 1]
    up_dot = kernel_dots[:nb] @ (u_p.hp_coef, u_p.he_coef, u_p.ge_coef)  # int basis_i u_p*
    ue_dot = kernel_dots @ (u_e.hp_coef, u_e.he_coef, u_e.ge_coef)  # int aug_i u_e*

    j_star = solution.value
    slack = 1e-9 * max(1.0, abs(j_star))
    amp_p = _PROBE_AMPLITUDE * max(1.0, _law_peak(u_p, bundle, legendre.kernel_peaks))
    amp_e = _PROBE_AMPLITUDE * max(1.0, _law_peak(u_e, bundle, legendre.kernel_peaks))

    draws = np.random.default_rng(seed).standard_normal((n_trials, 2, nb))
    c_e, c_p = draws[:, 0], draws[:, 1]
    peaks = _peaks(draws.reshape(-1, nb), legendre.scan)
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
    V_e = np.concatenate([scale_e[:, None] * c_e, ge_part[:, None]], axis=1)
    z_e = z_f + V_e @ he_dot
    j_e = z_e ** 2 + alpha * up2 - beta * (ue2 + 2.0 * (V_e @ ue_dot) + _quadratic(V_e, gram))

    V_p = (amp_p / peak_p)[:, None] * c_p
    z_p = z_f + V_p @ hp_dot[:nb]
    j_p = z_p ** 2 + alpha * (up2 + 2.0 * (V_p @ up_dot)
                              + _quadratic(V_p, gram[:nb, :nb])) - beta * ue2

    # a NaN or infinity reaches an extreme; the worst margins are those of the extremes
    e_worst, p_worst = float(j_e.max(initial=-np.inf)), float(j_p.min(initial=np.inf))
    if n_trials and not all(map(math.isfinite, (j_e.min(), e_worst, p_worst, j_p.max()))):
        raise NonFiniteResult("a saddle probe cost is not finite")
    if e_worst > j_star + slack or p_worst < j_star - slack:
        raised = np.flatnonzero(j_e > j_star + slack)
        lowered = np.flatnonzero(j_p < j_star - slack)
        if raised.size and (not lowered.size or raised[0] <= lowered[0]):
            t = int(raised[0])
            raise ProbeFailure("evader perturbation raised the cost: %g > %g" % (j_e[t], j_star),
                               trial=t, coefficients=c_e[t].copy())
        t = int(lowered[0])
        raise ProbeFailure("pursuer perturbation lowered the cost: %g < %g" % (j_p[t], j_star),
                           trial=t, coefficients=c_p[t].copy())
    return ProbeReport(n_trials=n_trials, evader_worst=e_worst - j_star,
                       pursuer_worst=p_worst - j_star, slack=slack, passed=True)
