"""Reduced-game kernels, integral coefficients, and control laws.

The two-state reduction replaces the full engagement state with the two
zero-effort-miss variables z (pursuer-evader) and w (evader-target). Their
dynamics are driven by three scalar kernels, each a player's own position
response (`build_player_ss`, e_0 its position) in the reversed time s = t_f - t,

    h_p(t) = -e_0 exp(A_p s) B_p
    h_e(t) =  e_0 exp(A_e s) B_e
    g_e(t) =  e_0 exp(A_e (s + t_c)) B_e

and every game quantity is an integral of products of these kernels. The
integrals are evaluated exactly from matrix exponentials; the tests keep
adaptive quadrature as an independent check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .engagement import EngagementScenario, StateSpace, build_player_ss
from .errors import (AssertionFailure, NoControlAuthority, NonFiniteResult, SolvabilityError,
                     check)
from .numerics import TimeGrid, exp_minus_identity, mat_exp, rk4_affine, scaled_exp

# Sign scan of the tail kernel: fewest cells, and the most before the input
# is refused (bounded work); Newton steps per root.
_MIN_SIGN_CELLS = 256
_MAX_SIGN_CELLS = 2 ** 20
_MAX_ROOT_STEPS = 60

# Refined nodes to a cell of the coarse peak scan (`PeakScan`).
_SCAN_STRIDE = 50


def _row(A: np.ndarray, t: float) -> np.ndarray:
    """The position row e_0 exp(A t) of a player's block; e_0 at t = 0, with no exponential."""
    e_0 = np.eye(1, A.shape[0])[0]
    return e_0 @ mat_exp(A, t) if t != 0.0 else e_0


def _progression_rows(first: np.ndarray, A: np.ndarray, step: float, n: int) -> tuple:
    """The n rows first exp(A i h), i = 0..n-1, for the step h and a row or
    a stack of rows `first`, and the last F read: from F = exp(A h) - I
    (`exp_minus_identity`), rows[k:2k] = rows[:k] + rows[:k] @ F, then
    F <- 2F + F F, about log2(n) products whose error does not grow with n
    (I is never rounded into F); a stack is carried as the 2-D rows of its
    array. For n - 1 = 2^j the last F is exp(A h (n - 1)) - I."""
    rows = np.empty((n,) + first.shape)
    rows[0] = first
    flat, per = rows.reshape(-1, A.shape[0]), first.size // A.shape[0]  # per: rows a step
    F = exp_minus_identity(A, step) if n > 1 else None
    k = 1
    while k < n:
        m = min(k, n - k)
        np.add(flat[:m * per] @ F, flat[:m * per], out=flat[k * per:(k + m) * per])
        k += m
        if k < n:
            F = 2.0 * F + F @ F
    return rows, F


class Kernels:
    """Kernel functions of a scenario, from the players' own blocks
    (`build_player_ss`): each kernel is a position row of one player's
    transition matrix applied to its input (`rows`).

    The kernel Gram matrix K = int_0^t_f k k' dt of k = (h_p, h_e, g_e) with
    the tail weight mu_e (`gram`) is computed on its first use and kept. So
    is one sample bundle (`bundle`): that of the last grid asked for, the
    build grid `TimeGrid(0, t_f)` by default. Neither changes once built,
    so the object stays freely shareable.
    """

    def __init__(self, scenario: EngagementScenario):
        self.t_f, self.t_c = scenario.t_f, scenario.t_c
        self._players = (build_player_ss(scenario.pursuer), build_player_ss(scenario.evader))
        self._gram, self._mu_e = None, 0.0  # K and mu_e, formed together by `gram`
        self._bundle: Optional[SampleBundle] = None

    @functools.cached_property
    def grid(self) -> TimeGrid:
        """The build grid `TimeGrid(0, t_f)`, formed on its first read."""
        return TimeGrid(0.0, self.t_f)

    def gram(self) -> np.ndarray:
        """The kernel Gram matrix K (`kernel_gram`), read-only; formed on
        the first call and kept, with mu_e from the same tail scan."""
        if self._gram is None:
            evader = self._players[1]
            self._mu_e, x_e = _tail_weight(evader.A, evader.B, self.t_c)
            self._gram = kernel_gram(*self._players, self.t_f, x_e)
        return self._gram

    def bundle(self, grid: Optional[TimeGrid] = None) -> "SampleBundle":
        """Sample bundle of a grid (by default the build grid): the kept
        bundle when its grid is equal, else a new one that replaces it."""
        grid = self.grid if grid is None else grid
        kept = self._bundle
        # `is` first: warm playouts pass the kept grid, and == compares three fields
        if kept is None or (grid is not kept.grid and grid != kept.grid):
            self._bundle = kept = SampleBundle.sample(self, grid)
        return kept

    def rows(self, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
        """The players' rows at the grid's refined nodes t, s = t_f - t: the
        pursuer's e_0 exp(A_p s) (points x n_p), and the evader's e_0 exp(A_e s)
        over its target rows e_0 exp(A_e (s + t_c)) (points x 2 x n_e). One
        `_progression_rows` doubling a player, from the last node, s = t_f - t_end,
        by the grid's half step ((t_f - t_start) - (t_f - t_end)) / (2n - 2)."""
        start, points = self.t_f - grid.t_end, 2 * grid.n - 1
        step = ((self.t_f - grid.t_start) - start) / (points - 1)
        rows = []
        for player, leads in zip(self._players, ((0.0,), (0.0, self.t_c))):
            first = np.stack([_row(player.A, start + lead) for lead in leads])
            # in time order, contiguous: a reversed view rounds its products differently
            rows.append(_progression_rows(first, player.A, step, points)[0][::-1].copy())
        return rows[0].reshape(points, -1), rows[1]

    def _kernel(self, player: int, ts, lead: float = 0.0) -> np.ndarray:
        """e_0 exp(A (t_f - t + lead)) B of one player at any times t, by one `_row` each."""
        A, B = self._players[player].A, self._players[player].B
        return np.array([_row(A, self.t_f - t + lead) @ B
                         for t in np.atleast_1d(np.asarray(ts, dtype=float)).tolist()])

    def sample_engagement(self, ts) -> tuple[np.ndarray, np.ndarray]:
        return -self._kernel(0, ts), self._kernel(1, ts)

    def sample_target(self, ts) -> np.ndarray:
        return self._kernel(1, ts, self.t_c)

    def h_p(self, t: float) -> float:
        return float(-self._kernel(0, t)[0])

    def h_e(self, t: float) -> float:
        return float(self._kernel(1, t)[0])

    def g_e(self, t: float) -> float:
        """Valid on [0, t_f + t_c]."""
        return float(self._kernel(1, t, self.t_c)[0])


# -- control laws ----------------------------------------------------------


@dataclass(frozen=True)
class KernelCombo:
    """Linear combination of the three kernels.

    Pursuer laws use hp_coef only; evader laws use he_coef and ge_coef.
    """

    hp_coef: float = 0.0
    he_coef: float = 0.0
    ge_coef: float = 0.0


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class AffineInTime:
    slope: float
    intercept: float


@dataclass(frozen=True, eq=False)
class Sampled:
    """Values on a time grid, linearly interpolated between nodes."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.shape != values.shape or times.ndim != 1:
            raise ValueError("times and values must be matching 1-d arrays")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


ControlLaw = Union[KernelCombo, Constant, AffineInTime, Sampled]


def _horizon_tol(t_f: float) -> float:
    """How far a time may sit outside [0, t_f] and still count as inside."""
    return 1e-9 * max(1.0, t_f)


def _check_in_horizon(ts: np.ndarray, t_f: float):
    tol = _horizon_tol(t_f)
    if ts.min() < -tol or ts.max() > t_f + tol:
        raise ValueError("control evaluated outside [0, %g]" % t_f)


def check_spans_horizon(grid: TimeGrid, t_f: float):
    """Refuse a grid that does not run from 0 to t_f, within `_horizon_tol`."""
    tol = _horizon_tol(t_f)
    if abs(grid.t_start) > tol or abs(grid.t_end - t_f) > tol:
        raise ValueError("grid spans [%g, %g], not the horizon [0, %g]"
                         % (grid.t_start, grid.t_end, t_f))


def _sample_explicit(law: ControlLaw, ts: np.ndarray) -> np.ndarray:
    """Values of a law that does not depend on the kernels."""
    if isinstance(law, Constant):
        return np.full(ts.shape, float(law.value))
    if isinstance(law, AffineInTime):
        return law.slope * ts + law.intercept
    if isinstance(law, Sampled):
        return np.interp(ts, law.times, law.values)
    raise TypeError("unknown control law %r" % (law,))


def sample_control(law: ControlLaw, kernels: Kernels, ts) -> np.ndarray:
    """Evaluate a control law at an array of times in [0, t_f]."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    _check_in_horizon(ts, kernels.t_f)
    if isinstance(law, KernelCombo):
        out = np.zeros_like(ts)
        if law.hp_coef != 0.0 or law.he_coef != 0.0:
            hp, he = kernels.sample_engagement(ts)
            out += law.hp_coef * hp + law.he_coef * he
        if law.ge_coef != 0.0:
            out += law.ge_coef * kernels.sample_target(ts)
        return out
    return _sample_explicit(law, ts)


@dataclass(frozen=True, eq=False)
class SampleBundle:
    """The three kernels on the refined nodes of one grid (nodes interleaved
    with panel midpoints, `TimeGrid.refined`), with the composite-Simpson
    weights over those nodes: `weights @ f` is the sum of the Simpson panels
    steps/6 (f_node + 4 f_mid + f_next) of values f on the refined nodes.
    The players' rows (`Kernels.rows`) are kept at the grid nodes for the
    full-state reconstruction (`misses`): the pursuer's R_p (nodes x n_p),
    and the evader's R_e and target rows T_e, stacked (2 x nodes x n_e).

    Every reduced playout, cost and probe on the grid reads its kernel
    values from here, so a grid is sampled once per kernel set; a grid that
    does not span [0, t_f] is refused (`check_spans_horizon`). `players`
    holds the player blocks (`build_player_ss`) that `responses` integrates.
    """

    grid: TimeGrid
    ts: np.ndarray
    h_p: np.ndarray
    h_e: np.ndarray
    g_e: np.ndarray
    weights: np.ndarray
    node_rows_pursuer: np.ndarray
    node_rows_evader: np.ndarray
    players: tuple[StateSpace, StateSpace] = field(repr=False)
    _legendre: Optional[tuple] = field(default=None, init=False, repr=False)
    _running: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _responses: Optional["KernelResponses"] = field(default=None, init=False, repr=False)

    @classmethod
    def sample(cls, kernels: Kernels, grid: TimeGrid) -> "SampleBundle":
        check_spans_horizon(grid, kernels.t_f)
        ts = grid.refined()
        rows_p, rows_e = kernels.rows(grid)
        pursuer, evader = kernels._players
        h_e, g_e = (rows_e.reshape(-1, evader.B.size) @ evader.B).reshape(-1, 2).T.copy()
        sixth = np.diff(grid.nodes) / 6.0
        weights = np.zeros(ts.size)
        weights[1::2] = 4.0 * sixth
        weights[:-1:2] += sixth
        weights[2::2] += sixth
        return cls(grid=grid, ts=ts, h_p=-(rows_p @ pursuer.B), h_e=h_e, g_e=g_e,
                   weights=weights, node_rows_pursuer=rows_p[0::2].copy(),
                   node_rows_evader=rows_e[0::2].transpose(1, 0, 2).copy(),
                   players=kernels._players)

    def control(self, law: ControlLaw) -> np.ndarray:
        """Values of a control law on the refined nodes; kernel laws are
        combinations of the stored kernel values with a nonzero
        coefficient (a pursuer law has one, an evader law two)."""
        if isinstance(law, KernelCombo):
            terms = [coef * kernel for coef, kernel in
                     ((law.hp_coef, self.h_p), (law.he_coef, self.h_e), (law.ge_coef, self.g_e))
                     if coef != 0.0]
            return sum(terms, 0.0) if terms else np.zeros_like(self.ts)
        return _sample_explicit(law, self.ts)

    def running(self, values: np.ndarray) -> np.ndarray:
        """Composite-Simpson integrals from the first node to each node of
        rows of values on the refined nodes (cumulative sums of
        `simpson_panels`), a (rows x nodes) array, first column zero."""
        panels = simpson_panels(values[:, 0::2], values[:, 1::2], np.diff(self.grid.nodes))
        running = np.zeros((values.shape[0], self.grid.nodes.size))
        np.cumsum(panels, axis=1, out=running[:, 1:])
        return running

    def running_products(self) -> np.ndarray:
        """The `running` integrals of h_p^2, h_e^2, h_e g_e and g_e^2, kept
        from the first call, read-only."""
        if self._running is None:
            with np.errstate(over="ignore", invalid="ignore"):  # non-finite sums are refused
                running = self.running(np.stack([self.h_p * self.h_p, self.h_e * self.h_e,
                                                 self.h_e * self.g_e, self.g_e * self.g_e]))
            running.flags.writeable = False
            object.__setattr__(self, "_running", running)
        return self._running

    def misses(self, x_p: np.ndarray, x_e: np.ndarray) -> tuple:
        """(R_p . x_p, R_e . x_e, T_e . x_e) at each grid node, for states of
        the players' own blocks x_p (..., nodes, n_p) and x_e (..., nodes,
        n_e): z = R_e . x_e - R_p . x_p and w = T_e . x_e."""
        rows_e, rows_t = self.node_rows_evader
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite sums are refused
            return tuple(np.einsum("ij,...ij->...i", rows, x) for rows, x in
                         ((self.node_rows_pursuer, x_p), (rows_e, x_e), (rows_t, x_e)))

    def responses(self) -> "KernelResponses":
        """The `KernelResponses` of this grid, built on the first call and
        kept."""
        if self._responses is None:
            object.__setattr__(self, "_responses", KernelResponses.of(self))
        return self._responses

    def legendre(self, size: int, span: float) -> "LegendreProducts":
        """The `LegendreProducts` of the Legendre polynomials of degree below
        `size` on [0, span], kept until a call with another (size, span)."""
        if self._legendre is None or self._legendre[0] != (size, span):
            basis = np.polynomial.legendre.legvander(2.0 * self.ts / span - 1.0, size - 1).T
            aug = np.vstack([basis, self.g_e])
            products = (aug * self.weights) @ np.vstack([aug, self.h_p, self.h_e]).T
            object.__setattr__(self, "_legendre",
                               ((size, span), LegendreProducts.of(basis, products, self)))
        return self._legendre[1]


def simpson_panels(node_vals: np.ndarray, mid_vals: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """steps/6 (f_node + 4 f_mid + f_next) of values f on the refined nodes,
    split into their node and midpoint values (along the last axis)."""
    return steps / 6.0 * (node_vals[..., :-1] + 4.0 * mid_vals + node_vals[..., 1:])


def _responses(player: StateSpace, controls: tuple, grid: TimeGrid) -> np.ndarray:
    """The RK4 trajectories of a player's own block on the grid nodes: from
    a unit lateral velocity with no control, x_k = e_1 + (t_k - t_start) e_0
    without a scan (A e_1 = e_0 and A e_0 = 0, so each step adds h e_0), and
    from rest under each control on the refined nodes by `rk4_affine`, with
    NaN rows where the state overflows, so every sum that reads them is
    refused."""
    rest = np.zeros(player.A.shape[0])
    coasting = np.zeros((grid.n, rest.size))
    coasting[:, 0] = grid.nodes - grid.t_start
    coasting[:, 1] = 1.0
    out = [coasting]
    for control in controls:
        try:
            out.append(rk4_affine(player.A, player.B[None], control[None], rest, grid))
        except ValueError:
            out.append(np.full(coasting.shape, np.nan))
    return np.stack(out)


@dataclass(frozen=True, eq=False)
class KernelResponses:
    """Trajectories on a bundle's grid of which every full-state playout of
    kernel laws is a weighted sum.

    The RK4 state is linear in the initial state and the controls, and the
    player blocks are decoupled. So from lateral velocities v_p and v_e,
    under u_p = c_p h_p and u_e = c_he h_e + c_ge g_e, the pursuer's states
    are v_p pursuer[0] + c_p pursuer[1] and the evader's
    v_e evader[0] + c_he evader[1] + c_ge evader[2], up to rounding, where
    `pursuer` (2, nodes, n_p) and `evader` (3, nodes, n_e) hold
    `_responses`. Row r of `z` (5 x nodes, the pursuer's first) and of
    `w` (3 x nodes) is z or w rebuilt from trajectory r alone
    (`SampleBundle.misses`). Read-only.
    """

    pursuer: np.ndarray
    evader: np.ndarray
    z: np.ndarray
    w: np.ndarray

    @classmethod
    def of(cls, bundle: SampleBundle) -> "KernelResponses":
        player_p, player_e = bundle.players
        pursuer = _responses(player_p, (bundle.h_p,), bundle.grid)
        evader = _responses(player_e, (bundle.h_e, bundle.g_e), bundle.grid)
        z_p, z_e, w = bundle.misses(pursuer, evader)
        z = np.concatenate([-z_p, z_e])
        for array in (pursuer, evader, z, w):
            array.flags.writeable = False
        return cls(pursuer=pursuer, evader=evader, z=z, w=w)


@dataclass(frozen=True, eq=False)
class PeakScan:
    """Coarse data of a basis (one row per function, one column per
    refined node) for the peaks max_i |c . basis[:, i]| of coefficient
    rows c (`simulate._peaks`).

    The coarse nodes are every `_SCAN_STRIDE`-th refined node and the last
    one, and `coarse` is the basis there. Interior node i of the cell
    between coarse nodes a and b sits at theta_i = (t_i - t_a) / (t_b - t_a)
    (`inner`: the least and largest theta_i of each cell, both 0 in a cell
    with none), and gap_i = ||basis[:, i] - l_i||_2 for the linear
    interpolant l_i = (1 - theta_i) basis[:, a] + theta_i basis[:, b].
    kappa_j bounds gap_i over cell j and bow_j bounds gap_i / (4 theta_i
    (1 - theta_i)), each with a rounding floor that bow_j meets at every
    interior node. So with v = |c . coarse|, |c . basis[:, i]| is at most
    max(v_a, v_b) + ||c|| kappa_j and (1 - theta_i) v_a + theta_i v_b
    + 4 ||c|| bow_j theta_i (1 - theta_i); a cell where either falls short
    of the largest v cannot hold the peak. `windows[j]` is the basis over
    cell j, ends included, as wide as the widest cell (the last window ends
    on the last node): a contiguous (cell, function, node) stack.
    """

    coarse: np.ndarray
    kappa: np.ndarray
    bow: np.ndarray
    inner: np.ndarray
    windows: np.ndarray

    @classmethod
    def of(cls, basis: np.ndarray, ts: np.ndarray) -> "PeakScan":
        n = ts.size
        index = np.arange(0, n, _SCAN_STRIDE)
        if index[-1] != n - 1:
            index = np.append(index, n - 1)
        cell = np.minimum(np.arange(n) // _SCAN_STRIDE, index.size - 2)
        a, b = index[cell], index[cell + 1]
        theta = (ts - ts[a]) / (ts[b] - ts[a])
        gap = np.linalg.norm(basis - ((1.0 - theta) * basis[:, a] + theta * basis[:, b]), axis=0)
        # above the rounding of the dot products and of the gaps themselves
        floor = 4.0 * (basis.shape[0] + 2) * np.finfo(float).eps
        floor *= np.linalg.norm(basis, axis=0).max()
        interior = np.ones(n, dtype=bool)
        interior[index] = False
        arch = np.where(interior, 4.0 * theta * (1.0 - theta), np.inf)  # coarse nodes: their own v
        hi = np.maximum.reduceat(np.where(interior, theta, 0.0), index[:-1])
        lo = np.minimum(np.minimum.reduceat(np.where(interior, theta, 1.0), index[:-1]), hi)
        width = int(index[1]) + 1  # the first cell is the widest
        windows = sliding_window_view(basis, width, axis=1).transpose(1, 0, 2)
        return cls(coarse=basis[:, index], kappa=np.maximum.reduceat(gap, index[:-1]) + floor,
                   bow=(np.maximum.reduceat(gap / arch, index[:-1])
                        + floor / np.minimum.reduceat(arch, index[:-1])),
                   inner=np.stack([lo, hi]), windows=windows[np.minimum(index[:-1], n - width)])


@dataclass(frozen=True, eq=False)
class LegendreProducts:
    """What the saddle probe reads of a Legendre basis on a bundle's nodes
    (`SampleBundle.legendre`): the Simpson products of the rows (basis, g_e)
    with (basis, g_e) (`gram`) and with (h_p, h_e, g_e) (`kernel_dots`);
    max |h_p|, |h_e| and |g_e| (`kernel_peaks`); the basis's `PeakScan`."""

    gram: np.ndarray
    kernel_dots: np.ndarray
    kernel_peaks: tuple[float, float, float]
    scan: PeakScan

    @classmethod
    def of(cls, basis: np.ndarray, products: np.ndarray, bundle: SampleBundle):
        size = basis.shape[0]
        return cls(products[:, :size + 1], products[:, [size + 1, size + 2, size]],
                   tuple(float(np.abs(k).max()) for k in (bundle.h_p, bundle.h_e, bundle.g_e)),
                   PeakScan.of(basis, bundle.ts))


# -- game coefficients -----------------------------------------------------


@dataclass(frozen=True)
class GameCoefficients:
    """All reduced-game scalars. The branch system G omega = b has
    G = [[s, G2], [-G2, G3]] and the fixed-pursuer system F = [[1 - nu_e, G2],
    [-G2, G3]]; the solvers read their entries as these floats.

    s        1 + int(h_p^2)/alpha - int(h_e^2)/beta, the paper's G1
    nu_p     int(h_p^2)/alpha
    nu_e     int(h_e^2)/beta
    G2, G3   int(h_e g_e)/beta, int(g_e^2)/beta
    a        slope of the terminal w against z0 under the unconstrained
             saddle play, equal to G2/s
    d        nu_p G2^2 / (s det F), in (0, 1) whenever solvable
    mu_e     reachability weight int |g_e| over the tail [t_f, t_f + t_c]
    det_G, det_F  s G3 + G2^2 and (1 - nu_e) G3 + G2^2
    beta_star  the solvability threshold int(h_e^2)
    K        the kernel Gram matrix (`kernel_gram`) they come from, or None;
             it does not take part in == and hash, which read the scalars
    """

    s: float
    nu_p: float
    nu_e: float
    G2: float
    G3: float
    a: float
    d: float
    mu_e: float
    det_G: float
    det_F: float
    beta_star: float
    alpha: float
    beta: float
    ae_max: float
    K: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def bound(self) -> float:
        """Largest reachable terminal correction mu_e * ae_max."""
        return self.mu_e * self.ae_max

    @property
    def constraint_degenerate(self) -> bool:
        """True when the terminal constraint collapses to an equality w(t_f) = 0."""
        return self.bound == 0.0

    def __post_init__(self):
        for label, ok in (("s > 0", self.s > 0), ("det G > 0", self.det_G > 0),
                          ("det F > 0", self.det_F > 0), ("0 <= d < 1", 0.0 <= self.d < 1.0)):
            if not ok:
                raise AssertionFailure("coefficient consistency check failed: %s" % label)
        check("s - nu_p == 1 - nu_e", (self.s - self.nu_p) - (1.0 - self.nu_e), 1e-10,
              1.0, self.nu_p, self.nu_e)


def _assemble(integrals: tuple[float, float, float, float], mu: float, alpha: float,
              beta: float, ae_max: float, K: Optional[np.ndarray] = None) -> GameCoefficients:
    """Coefficients from int h_p^2, h_e^2, h_e g_e, g_e^2 over [0, t_f] and
    mu, keeping the kernel Gram matrix K they were read from, if any.

    F's first entry s - nu_p is formed as 1 - nu_e, which does not cancel
    as nu_p grows. Solvability (beta > int h_e^2) makes it positive, so
    det F = 0 only when the evader cannot move its terminal miss w at all
    (int g_e^2 = 0, and then int h_e g_e = 0 too, or their ratios to beta
    underflow); that game is refused with NoControlAuthority before d
    divides by det F.
    """
    int_hp2, int_he2, int_hege, int_ge2 = integrals
    if beta <= int_he2:
        raise SolvabilityError(beta, int_he2)
    nu_p = int_hp2 / alpha
    nu_e = int_he2 / beta
    s = 1.0 + nu_p - nu_e
    G2, G3 = int_hege / beta, int_ge2 / beta
    if not all(map(math.isfinite, (nu_p, G2, G3))):
        raise NonFiniteResult("the kernel integrals over alpha or beta overflow the float range")
    det_G = s * G3 + G2 * G2
    det_F = (1.0 - nu_e) * G3 + G2 * G2
    if det_F == 0.0:
        raise NoControlAuthority(int_ge2)
    d = (nu_p / s) * (G2 * G2 / det_F)  # two factors in [0, 1]: nu_p G2^2 may overflow
    return GameCoefficients(
        s=s, nu_p=nu_p, nu_e=nu_e, G2=G2, G3=G3, a=G2 / s, d=d, mu_e=mu, det_G=det_G,
        det_F=det_F, beta_star=int_he2, alpha=alpha, beta=beta, ae_max=ae_max, K=K)


def _augmented(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, float]:
    """(M, c): M = [[A, B / c], [0, 0]], c the least power of two >= 1 with ||B / c||_1 <=
    max(1, ||A||_1), so the gain adds no squarings; c exp(M s)[:-1, -1] = int_0^s exp(A r) B dr."""
    n = A.shape[0]
    M = np.zeros((n + 1, n + 1))
    M[:n, :n], M[:n, n] = A, B
    norms = np.add.reduce(np.abs(M))  # the column sums of |A|, then ||B||_1
    ratio = norms.item(n) / max(1.0, np.maximum.reduce(norms[:n]))
    scale = 2.0 ** math.ceil(math.log2(ratio)) if ratio > 1.0 else 1.0
    M[:n, n] /= scale
    return M, scale


def _sign_cells(A: np.ndarray, span: float) -> int:
    """Cells of the sign scan of a player's position kernel over [0, span]:
    at least 256 and 4 per radian of max |Im lambda(A)| * span, rounded up to
    a power of two. Only the controller block A_c = A[2:, 2:] can oscillate;
    its eigenvalues are skipped at order 1 or below, and where a bound on
    max |Im lambda(A_c)| (sqrt(|a_01 a_10|) at order 2, Bendixson's
    0.5 ||A_c - A_c'||_1 above) keeps the count at 256 with a cell to spare."""
    A_c = A[2:, 2:]
    if A_c.shape[0] < 2:
        return _MIN_SIGN_CELLS
    bound = (math.sqrt(abs(A_c.item(0, 1) * A_c.item(1, 0))) if A_c.shape[0] == 2
             else 0.5 * np.maximum.reduce(np.add.reduce(np.abs(A_c - A_c.T))))
    if 4.0 * bound * span <= _MIN_SIGN_CELLS - 1:
        return _MIN_SIGN_CELLS
    omega = float(np.abs(np.linalg.eigvals(A_c).imag).max())
    cells = max(_MIN_SIGN_CELLS, int(math.ceil(4.0 * omega * span)))
    if cells > _MAX_SIGN_CELLS:
        raise ValueError("evader oscillation of %g rad/s over t_c = %g needs %d sign-scan "
                         "cells, more than %d" % (omega, span, cells, _MAX_SIGN_CELLS))
    return 1 << (cells - 1).bit_length()


def _tail_weight(A: np.ndarray, B: np.ndarray, t_c: float) -> tuple[float, np.ndarray]:
    """(mu_e, x_e): the reachability weight of `coefficients`, the terminal
    correction the evader can accumulate on the tail [t_f, t_f + t_c] under its
    acceleration bound, int_0^t_c |D exp(A s) B| ds for its block (A, B) and
    D = e_0; and x_e = exp(A t_c) B for `kernel_gram` (B itself at t_c = 0).

    With P(s) = int_0^s D exp(A r) B dr from the augmented exponential M,
    the integral is sum |P(rho_{i+1}) - P(rho_i)| over the sign changes rho_i
    of the kernel and both end points, found on a uniform scan
    (`_progression_rows`, `_sign_cells`) and refined by safeguarded Newton
    steps (a root error delta costs O(delta^2), as P is stationary there).
    The scan's 2^j cells end on F = exp(M t_c) - I: x_e = B + F[:n, :n] B,
    and the end row holds P(t_c), the integral when no sign changes.
    """
    if t_c == 0.0:
        return 0.0, B
    n = A.shape[0]
    M, scale = _augmented(A, B)
    cells = _sign_cells(A, t_c)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        rows, F = _progression_rows(np.eye(1, n + 1)[0], M, t_c / cells, cells + 1)  # D, 0 for P
        x_e = B + F[:n, :n] @ B
        g = rows[:, :n] @ B
    if not (np.isfinite(rows[-1]).all() and np.isfinite(x_e).all()):
        raise NonFiniteResult("the evader's tail over t_c = %g overflows the float range" % t_c)
    if np.minimum.reduce(g) >= 0.0 or np.maximum.reduce(g) <= 0.0:  # one sign; a NaN fails both
        return scale * abs(rows.item(-1, n)), x_e
    signs = np.sign(g)
    nz = np.flatnonzero(signs)
    change = np.flatnonzero(signs[nz[:-1]] != signs[nz[1:]])
    AB = A @ B
    s = np.linspace(0.0, t_c, cells + 1)
    knots = [0.0]
    for i, j in zip(nz[change].tolist(), nz[change + 1].tolist()):
        lo, hi = s[i], s[j]
        x = lo - g[i] * (hi - lo) / (g[j] - g[i])
        for _ in range(_MAX_ROOT_STEPS):
            r = rows[i] @ mat_exp(M, x - s[i])
            gx = r[:n] @ B
            if gx == 0.0:
                break
            if np.sign(gx) == signs[i]:
                lo = x
            else:
                hi = x
            slope = r[:n] @ AB
            nxt = x - gx / slope if slope != 0.0 else math.nan
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
            if abs(nxt - x) <= 1e-12 * t_c:
                break
            x = nxt
        knots.append(float(r[n]))
    knots.append(float(rows[-1, n]))
    return scale * float(np.abs(np.diff(knots)).sum()), x_e


def integral_g_e(scenario: EngagementScenario) -> float:
    """int_0^t_f g_e dt, from one augmented exponential started at the
    evader's first target row e_0 exp(A_e t_c) (`Kernels.rows`)."""
    ev = build_player_ss(scenario.evader)
    M, scale = _augmented(ev.A, ev.B)
    row = np.append(_row(ev.A, scenario.t_c), 0.0)
    return scale * float(row @ mat_exp(M, scenario.t_f)[:, -1])


def kernel_gram(pursuer: StateSpace, evader: StateSpace, t_f: float, x_e: np.ndarray) -> np.ndarray:
    """K = int_0^t_f k k' dt for the kernels k = (h_p, h_e, g_e), from the
    players' own blocks (`build_player_ss`; only A and B are read): the 3x3
    Gram matrix of which every cost of kernel-combination controls is a
    quadratic form (`simulate.evaluate_cost`). Read-only.

    In the reversed time s = t_f - t the kernels are the players' position
    responses: h_p = -D_p exp(A_p s) B_p, h_e = D_e exp(A_e s) B_e and
    g_e = D_e exp(A_e s) x_e, x_e = exp(A_e t_c) B_e (`_tail_weight`), D
    picking each player's position. So every product integral is a quadratic
    form of one observability Gramian W = int_0^t_f exp(Y' s) d' d exp(Y s) ds
    of Y = diag(A_p, A_e) and d = [D_p, D_e]: int h_p^2 = B_p' W_pp B_p,
    int h_e g_e = B_e' W_ee x_e, int h_p g_e = -B_p' W_pe x_e, and so on.

    W comes from Van Loan (IEEE TAC 1978): for C = [[-Y', u u'], [0, Y]]
    with the unit vector u = d / |d|, exp(C h) = [[., F12], [0, exp(Y h)]]
    and W(h) = |d|^2 exp(Y' h) F12. One `scaled_exp(C t_f)` gives both the
    step h = t_f / 2^k, k being the squarings exp(C t_f) would need, and
    exp(C h), used unsquared (squaring would square exp(-Y' h) and swamp
    the result for stiff Y); k doublings W <- W + Phi W Phi', Phi <- Phi^2
    carry W(h) to W(t_f). C t_f is written entry by entry as c t_f.
    """
    n = pursuer.A.shape[0]
    N = n + evader.A.shape[0]
    C = np.zeros((2 * N, 2 * N))
    for lo, hi, A in ((0, n, pursuer.A), (n, N, evader.A)):
        np.multiply(A.T, -t_f, out=C[lo:hi, lo:hi])
        np.multiply(A, t_f, out=C[N + lo:N + hi, N + lo:N + hi])
    unit = 1.0 / math.sqrt(2.0)  # the two nonzero entries of u, at 0 and n
    C[0, N] = C[0, N + n] = C[n, N] = C[n, N + n] = unit * unit * t_f
    doublings, F = scaled_exp(C)
    phi = F[N:, N:].T
    W = phi @ F[:N, N:]
    for k in range(doublings):
        W += phi @ W @ phi.T
        if k + 1 < doublings:  # the last square would go unread
            phi = phi @ phi
    W *= 2.0  # |d|^2
    W_ee, B_p, B_e = W[n:, n:], pursuer.B, evader.B
    p_row, e_row = B_p @ W[:n, n:], x_e @ W_ee  # B_p' W_pe and x_e' W_ee
    hp_he, hp_ge, he_ge = -float(p_row @ B_e), -float(p_row @ x_e), float(e_row @ B_e)
    K = np.array([[float(B_p @ W[:n, :n] @ B_p), hp_he, hp_ge],
                  [hp_he, float(B_e @ W_ee @ B_e), he_ge],
                  [hp_ge, he_ge, float(e_row @ x_e)]])
    K.flags.writeable = False
    return K


def coefficients(scenario: EngagementScenario,
                 kernels: Optional[Kernels] = None) -> GameCoefficients:
    """All game coefficients from exact kernel integrals: int h_p^2,
    int h_e^2, int h_e g_e and int g_e^2 are entries of the kernel Gram
    matrix, kept as `K`, read with mu_e from `Kernels.gram` of the given
    kernels or of the scenario's own; no kernel samples are taken. Raises
    SolvabilityError when beta does not exceed int h_e^2."""
    kernels = Kernels(scenario) if kernels is None else kernels
    K = kernels.gram()  # forms mu_e too
    return _assemble((K.item(0, 0), K.item(1, 1), K.item(1, 2), K.item(2, 2)), kernels._mu_e,
                     scenario.alpha, scenario.beta, scenario.ae_max, K)
