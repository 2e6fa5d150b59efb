"""Reduced-game kernels, integral coefficients, and control laws.

The two-state reduction replaces the full engagement state with the two
zero-effort-miss variables z (pursuer-evader) and w (evader-target). Their
dynamics are driven by three scalar kernels,

    h_p(t) = D_ep exp(A_ep (t_f - t)) B_ep
    h_e(t) = D_ep exp(A_ep (t_f - t)) C_ep
    g_e(t) = D_e  exp(A_e (t_f + t_c - t)) B_e

and every game quantity is an integral of products of these kernels. The
integrals are evaluated exactly from matrix exponentials; adaptive quadrature
(`solvability_threshold`) stays only as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .engagement import EngagementScenario, build_evader_ss, build_relative_ss, first_order_scenario
from .errors import AssertionFailure, SolvabilityError
from .numerics import PSI_SERIES, TimeGrid, mat_exp, psi, quad_adaptive, scaled_exp

_INTEGRAL_TOL = 1e-10

# Largest deviation of a query set from a uniform progression, relative to
# its largest delta, that still counts as uniform (a few ulps of linspace
# and midpoint rounding).
_PROGRESSION_TOL = 1e-13

# Sign scan of the tail kernel: fewest cells, and the most before the input
# is refused (bounded work); Newton steps per root.
_MIN_SIGN_CELLS = 256
_MAX_SIGN_CELLS = 2 ** 20
_MAX_ROOT_STEPS = 60


def _transition_rows(D: np.ndarray, A: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Rows D exp(A delta) for an ascending array of nonnegative deltas.

    A uniform progression delta_0 + i h (a uniform grid, its nodes or its
    midpoints) is built by repeated doubling: with E = exp(A h),
    rows[k:2k] = rows[:k] @ E and then E = E @ E, so n rows cost about
    log2(n) matrix products. Any other set costs one matrix exponential per
    point.
    """
    deltas = np.asarray(deltas, dtype=float)
    n = deltas.size
    rows = np.empty((n, A.shape[0]))
    if n == 0:
        return rows
    step = (deltas[-1] - deltas[0]) / (n - 1) if n > 1 else 0.0
    if n > 2 and np.abs(np.diff(deltas) - step).max() > _PROGRESSION_TOL * max(1.0, deltas[-1]):
        for i, delta in enumerate(deltas):
            rows[i] = D @ mat_exp(A, delta)
        return rows
    rows[0] = D @ mat_exp(A, deltas[0]) if deltas[0] != 0.0 else D
    E = mat_exp(A, step) if n > 1 else None
    k = 1
    while k < n:
        m = min(k, n - k)
        rows[k:k + m] = rows[:m] @ E
        k += m
        if k < n:
            E = E @ E
    return rows


class Kernels:
    """Kernel functions of a scenario, backed by transition-matrix rows.

    The sample bundle of the build grid (`bundle`) is computed at
    construction, and the bundle of the last other grid asked for is kept
    in one more slot; any other query evaluates the transition rows
    directly (`_transition_rows`: by doubling on a uniform progression, one
    matrix exponential per point otherwise). A bundle's arrays are never
    changed once built, so the object stays freely shareable.
    """

    def __init__(self, scenario: EngagementScenario, grid: Optional[TimeGrid] = None):
        self.t_f = scenario.t_f
        self.t_c = scenario.t_c
        self.grid = grid if grid is not None else TimeGrid.uniform(0.0, scenario.t_f)

        rel = build_relative_ss(scenario.pursuer, scenario.evader)
        ev = build_evader_ss(scenario.evader)
        self._A_ep, self._B_ep, self._C_ep, self._D_ep = rel.A, rel.B, rel.C, rel.D_row
        self._A_e, self._B_e, self._D_e = ev.A, ev.B, ev.D_row
        self._bundle = SampleBundle.sample(self, self.grid)
        self._off_grid: Optional[SampleBundle] = None

    def bundle(self, grid: Optional[TimeGrid] = None) -> "SampleBundle":
        """Sample bundle of a grid: the one computed at construction for the
        build grid (the default); for any other grid, the kept bundle when
        its nodes are equal, else a new one that replaces it."""
        if grid is None:
            return self._bundle
        for kept in (self._bundle, self._off_grid):
            if kept is not None and (grid is kept.grid
                                     or np.array_equal(grid.nodes, kept.grid.nodes)):
                return kept
        self._off_grid = SampleBundle.sample(self, grid)
        return self._off_grid

    def rows_engagement(self, ts) -> np.ndarray:
        """D_ep exp(A_ep (t_f - t)) for each t."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        order = np.argsort(-ts)  # ascending delta = t_f - t
        rows = _transition_rows(self._D_ep, self._A_ep, self.t_f - ts[order])
        out = np.empty_like(rows)
        out[order] = rows
        return out

    def rows_target(self, ts) -> np.ndarray:
        """D_e exp(A_e (t_f + t_c - t)) for each t."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        order = np.argsort(-ts)
        rows = _transition_rows(self._D_e, self._A_e, self.t_f + self.t_c - ts[order])
        out = np.empty_like(rows)
        out[order] = rows
        return out

    # -- kernel values -----------------------------------------------------

    def sample_engagement(self, ts) -> tuple[np.ndarray, np.ndarray]:
        rows = self.rows_engagement(ts)
        return rows @ self._B_ep, rows @ self._C_ep

    def sample_target(self, ts) -> np.ndarray:
        return self.rows_target(ts) @ self._B_e

    def h_p(self, t: float) -> float:
        return float(self.sample_engagement(t)[0][0])

    def h_e(self, t: float) -> float:
        return float(self.sample_engagement(t)[1][0])

    def g_e(self, t: float) -> float:
        """Valid on [0, t_f + t_c]; the tail beyond t_f feeds the
        reachability weight integral."""
        return float(self.sample_target(t)[0])


class FirstOrderKernels:
    """Closed-form kernels for strictly proper first-order lags on both sides.

    Same evaluation interface as Kernels, built on psi instead of matrix
    exponentials; serves as an independent path for cross-checks.
    """

    def __init__(self, tau_p: float, tau_e: float, t_f: float, t_c: float):
        if tau_p <= 0 or tau_e <= 0:
            raise ValueError("time constants must be positive")
        self.tau_p = tau_p
        self.tau_e = tau_e
        self.t_f = t_f
        self.t_c = t_c

    def sample_engagement(self, ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        hp = -self.tau_p * psi((self.t_f - ts) / self.tau_p)
        he = self.tau_e * psi((self.t_f - ts) / self.tau_e)
        return np.atleast_1d(hp), np.atleast_1d(he)

    def sample_target(self, ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return np.atleast_1d(self.tau_e * psi((self.t_f + self.t_c - ts) / self.tau_e))

    def h_p(self, t: float) -> float:
        return float(self.sample_engagement(t)[0][0])

    def h_e(self, t: float) -> float:
        return float(self.sample_engagement(t)[1][0])

    def g_e(self, t: float) -> float:
        return float(self.sample_target(t)[0])


KernelSet = Union[Kernels, FirstOrderKernels]


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


@dataclass(frozen=True)
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


def _check_in_horizon(ts: np.ndarray, t_f: float):
    tol = 1e-9 * max(1.0, t_f)
    if ts.min() < -tol or ts.max() > t_f + tol:
        raise ValueError("control evaluated outside [0, %g]" % t_f)


def _sample_explicit(law: ControlLaw, ts: np.ndarray) -> np.ndarray:
    """Values of a law that does not depend on the kernels."""
    if isinstance(law, Constant):
        return np.full(ts.shape, float(law.value))
    if isinstance(law, AffineInTime):
        return law.slope * ts + law.intercept
    if isinstance(law, Sampled):
        return np.interp(ts, law.times, law.values)
    raise TypeError("unknown control law %r" % (law,))


def sample_control(law: ControlLaw, kernels: KernelSet, ts) -> np.ndarray:
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


@dataclass(frozen=True)
class SampleBundle:
    """The three kernels on the refined nodes of one grid (nodes interleaved
    with panel midpoints, `TimeGrid.refined`), with the composite-Simpson
    weights over those nodes: `weights @ f` is the sum of the Simpson panels
    steps/6 (f_node + 4 f_mid + f_next) of values f on the refined nodes.
    The engagement and target transition rows (`Kernels.rows_engagement`,
    `Kernels.rows_target`) are kept at the grid nodes, for the full-state
    reconstruction.

    Every reduced playout, cost and probe on the grid reads its kernel
    values from here, so a grid is sampled once per kernel set.
    """

    grid: TimeGrid
    ts: np.ndarray
    h_p: np.ndarray
    h_e: np.ndarray
    g_e: np.ndarray
    weights: np.ndarray
    node_rows_engagement: np.ndarray
    node_rows_target: np.ndarray
    _legendre: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def sample(cls, kernels: Kernels, grid: TimeGrid) -> "SampleBundle":
        ts = grid.refined()
        _check_in_horizon(ts, kernels.t_f)
        rows_ep, rows_e = kernels.rows_engagement(ts), kernels.rows_target(ts)
        sixth = np.diff(grid.nodes) / 6.0
        weights = np.zeros(ts.size)
        weights[1::2] = 4.0 * sixth
        weights[:-1:2] += sixth
        weights[2::2] += sixth
        return cls(grid=grid, ts=ts, h_p=rows_ep @ kernels._B_ep, h_e=rows_ep @ kernels._C_ep,
                   g_e=rows_e @ kernels._B_e, weights=weights,
                   node_rows_engagement=rows_ep[0::2].copy(),
                   node_rows_target=rows_e[0::2].copy())

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

    def legendre_gram(self, size: int, span: float) -> tuple[np.ndarray, np.ndarray]:
        """Legendre polynomials of degree below `size` on [0, span] at the
        refined nodes, one row per degree, and the Simpson products of the
        rows (basis, g_e) with the rows (basis, g_e, h_p, h_e), a
        (size + 1) x (size + 3) matrix. Computed on the first call and kept
        until a call with another (size, span)."""
        if self._legendre is None or self._legendre[0] != (size, span):
            basis = np.polynomial.legendre.legvander(2.0 * self.ts / span - 1.0, size - 1).T
            aug = np.vstack([basis, self.g_e])
            products = (aug * self.weights) @ np.vstack([aug, self.h_p, self.h_e]).T
            object.__setattr__(self, "_legendre", ((size, span), basis, products))
        return self._legendre[1], self._legendre[2]


# -- game coefficients -----------------------------------------------------


@dataclass(frozen=True)
class GameCoefficients:
    """All reduced-game scalars and 2x2 matrices.

    s        1 + int(h_p^2)/alpha - int(h_e^2)/beta
    nu_p     int(h_p^2)/alpha
    nu_e     int(h_e^2)/beta
    G1..G3   s, int(h_e g_e)/beta, int(g_e^2)/beta
    a        slope of the terminal w against z0 under the unconstrained
             saddle play, equal to G2/G1
    d        nu_p G2^2 / (G1 det F), in (0, 1) whenever solvable
    mu_e     reachability weight int |g_e| over the tail [t_f, t_f + t_c]
    beta_star  the solvability threshold int(h_e^2)
    G, G_tilde, G_bar, F, F_bar   the 2x2 system matrices and the matching
             value-form matrices diag(1,-1) G and (X^-1)' diag(1,-1)
    """

    s: float
    nu_p: float
    nu_e: float
    G1: float
    G2: float
    G3: float
    a: float
    d: float
    mu_e: float
    det_G: float
    det_F: float
    beta_star: float
    G: np.ndarray
    G_tilde: np.ndarray
    G_bar: np.ndarray
    F: np.ndarray
    F_bar: np.ndarray
    alpha: float
    beta: float
    ae_max: float

    @property
    def bound(self) -> float:
        """Largest reachable terminal correction mu_e * ae_max."""
        return self.mu_e * self.ae_max

    @property
    def constraint_degenerate(self) -> bool:
        """True when the terminal constraint collapses to an equality w(t_f) = 0."""
        return self.bound == 0.0

    def __post_init__(self):
        checks = (
            ("s > 0", self.s > 0),
            ("det G > 0", self.det_G > 0),
            ("det F > 0", self.det_F > 0),
            ("0 <= d < 1", 0.0 <= self.d < 1.0),
            ("G1 - nu_p == 1 - nu_e", abs((self.G1 - self.nu_p) - (1.0 - self.nu_e))
             <= 1e-10 * max(1.0, abs(1.0 - self.nu_e))),
        )
        for label, ok in checks:
            if not ok:
                raise AssertionFailure("coefficient consistency check failed: %s" % label)


def solvability_threshold(kernels: KernelSet, tol: float = _INTEGRAL_TOL) -> float:
    """Integral of the squared evader kernel over the game horizon; the
    evader effort weight must strictly exceed it."""
    return quad_adaptive(lambda t: kernels.h_e(t) ** 2, 0.0, kernels.t_f, tol)


def _assemble(integrals: tuple[float, float, float, float], mu: float,
              alpha: float, beta: float, ae_max: float) -> GameCoefficients:
    """Coefficients from int h_p^2, h_e^2, h_e g_e, g_e^2 over [0, t_f] and mu."""
    int_hp2, int_he2, int_hege, int_ge2 = integrals
    if beta <= int_he2:
        raise SolvabilityError(beta, int_he2)
    nu_p = int_hp2 / alpha
    nu_e = int_he2 / beta
    s = 1.0 + nu_p - nu_e
    G1, G2, G3 = s, int_hege / beta, int_ge2 / beta
    det_G = G1 * G3 + G2 * G2
    det_F = (G1 - nu_p) * G3 + G2 * G2
    d = nu_p * G2 * G2 / (G1 * det_F)
    sign_flip = np.diag([1.0, -1.0])
    G = np.array([[G1, G2], [-G2, G3]])
    F = np.array([[G1 - nu_p, G2], [-G2, G3]])
    return GameCoefficients(
        s=s, nu_p=nu_p, nu_e=nu_e, G1=G1, G2=G2, G3=G3,
        a=G2 / G1, d=d, mu_e=mu, det_G=det_G, det_F=det_F,
        beta_star=int_he2,
        G=G, G_tilde=sign_flip @ G, G_bar=np.linalg.inv(G).T @ sign_flip,
        F=F, F_bar=np.linalg.inv(F).T @ sign_flip,
        alpha=alpha, beta=beta, ae_max=ae_max,
    )


def _gramian(A: np.ndarray, x: np.ndarray, T: float) -> np.ndarray:
    """W = int_0^T exp(A s) x x' exp(A' s) ds.

    Van Loan (IEEE TAC 1978): for C = [[-A, Q], [0, A']] and Q = x x',
    exp(C h) = [[., F12], [0, exp(A' h)]] and W(h) = exp(A h) F12. One
    `scaled_exp(C T)` gives both the step h = T / 2^k, k being the squarings
    exp(C T) would need, and exp(C h), which is used unsquared (squaring it
    would square exp(-A h) and swamp the result for stiff A); k doublings
    W <- W + Phi W Phi', Phi <- Phi^2 then carry W(h) out to W(T). x is
    normalised first so that the coupling block has unit size.
    """
    n = A.shape[0]
    size = float(x @ x)
    if size == 0.0:
        return np.zeros((n, n))
    unit = x / math.sqrt(size)
    C = np.zeros((2 * n, 2 * n))
    C[:n, :n] = -A
    C[:n, n:] = np.outer(unit, unit)
    C[n:, n:] = A.T
    doublings, F = scaled_exp(C * T)
    phi = F[n:, n:].T
    W = phi @ F[:n, n:]
    for _ in range(doublings):
        W = W + phi @ W @ phi.T
        phi = phi @ phi
    return size * W


def _augmented(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """[[A, B], [0, 0]]: the top-right block of exp(M s) is int_0^s exp(A r) B dr."""
    n = A.shape[0]
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = A
    M[:n, n] = B
    return M


def _sign_cells(A: np.ndarray, span: float) -> int:
    """Cells of the sign scan of a kernel over [0, span]: at least 256, and
    at least 4 per radian of the fastest oscillation, max |Im lambda(A)| * span."""
    omega = float(np.abs(np.linalg.eigvals(A).imag).max())
    cells = max(_MIN_SIGN_CELLS, int(math.ceil(4.0 * omega * span)))
    if cells > _MAX_SIGN_CELLS:
        raise ValueError("evader oscillation of %g rad/s over t_c = %g needs %d sign-scan "
                         "cells, more than %d" % (omega, span, cells, _MAX_SIGN_CELLS))
    return cells


def _tail_weight(A: np.ndarray, B: np.ndarray, D: np.ndarray, t_c: float) -> float:
    """int_0^t_c |D exp(A s) B| ds, exactly.

    With P(s) = int_0^s D exp(A r) B dr read from the augmented exponential,
    the integral is sum |P(rho_{i+1}) - P(rho_i)| over the sign changes rho_i
    of the kernel together with both end points. Sign changes are found on a
    uniform scan (`_sign_cells`) and refined by safeguarded Newton steps;
    P is stationary at a root, so a root error delta costs only O(delta^2).
    """
    if t_c == 0.0:
        return 0.0
    n = A.shape[0]
    M = _augmented(A, B)
    AB = A @ B
    start = np.append(D, 0.0)
    s = np.linspace(0.0, t_c, _sign_cells(A, t_c) + 1)
    rows = _transition_rows(start, M, s)
    g = rows[:, :n] @ B
    signs = np.sign(g)
    nz = np.flatnonzero(signs)
    change = np.flatnonzero(signs[nz[:-1]] != signs[nz[1:]])
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
    return float(np.abs(np.diff(knots)).sum())


def mu_e(scenario: EngagementScenario) -> float:
    """Reachability weight: how much terminal correction the evader can
    accumulate on the tail [t_f, t_f + t_c] under its acceleration bound,
    int |g_e| over the tail."""
    ev = build_evader_ss(scenario.evader)
    return _tail_weight(ev.A, ev.B, ev.D_row, scenario.t_c)


def integral_g_e(scenario: EngagementScenario) -> float:
    """int_0^t_f g_e dt, from one augmented exponential started at
    D_e exp(A_e t_c)."""
    ev = build_evader_ss(scenario.evader)
    start = np.append(ev.D_row @ mat_exp(ev.A, scenario.t_c), 0.0)
    return float(start @ mat_exp(_augmented(ev.A, ev.B), scenario.t_f)[:, -1])


def coefficients(scenario: EngagementScenario,
                 kernels: Optional[KernelSet] = None) -> GameCoefficients:
    """All game coefficients from exact kernel integrals.

    The four product integrals are quadratic forms of one observability
    Gramian W = int_0^t_f exp(Y' s) d' d exp(Y s) ds of Y = diag(A_ep, A_e)
    and d = [D_ep, D_e], the kernels taken in the reversed time s = t_f - t:
    B_ep' W11 B_ep, C_ep' W11 C_ep, C_ep' W12 x_e and x_e' W22 x_e with
    x_e = exp(A_e t_c) B_e. mu_e comes from `_tail_weight`. No kernel
    samples are taken: `kernels` is accepted and not read. Raises
    SolvabilityError when the evader effort weight does not exceed the
    squared-kernel integral.
    """
    rel = build_relative_ss(scenario.pursuer, scenario.evader)
    ev = build_evader_ss(scenario.evader)
    n = rel.A.shape[0]
    Y = np.zeros((n + ev.A.shape[0],) * 2)
    Y[:n, :n] = rel.A
    Y[n:, n:] = ev.A
    W = _gramian(Y.T, np.concatenate([rel.D_row, ev.D_row]), scenario.t_f)
    B, C, x_e = rel.B, rel.C, mat_exp(ev.A, scenario.t_c) @ ev.B
    integrals = (float(B @ W[:n, :n] @ B),
                 float(C @ W[:n, :n] @ C),
                 float(C @ W[:n, n:] @ x_e),
                 float(x_e @ W[n:, n:] @ x_e))
    mu = _tail_weight(ev.A, ev.B, ev.D_row, scenario.t_c)
    return _assemble(integrals, mu, scenario.alpha, scenario.beta, scenario.ae_max)


# -- closed forms for the first-order special case ---------------------------


def _psi_moments(x: float) -> tuple[float, float, float, float]:
    """psi(x) and the integrals over [0, x] of psi(u), u psi(u) and
    psi(u)^2, each to a few ulps: from the power series below x = 1, where
    the closed forms cancel, and from the closed forms above."""
    if x < 1.0:
        return tuple(float(v) for v in PSI_SERIES @ x ** np.arange(PSI_SERIES.shape[1]))
    e = math.exp(-x)
    p = e + x - 1.0
    return (p, 0.5 * x * x - p, 1.0 - (1.0 + x) * e + x * x * (x / 3.0 - 0.5),
            x * (x * x - 3.0 * x + 3.0) / 3.0 - 2.0 * x * e - 0.5 * math.expm1(-2.0 * x))


def _psi_product_integral(x: float, s: float, t: float) -> float:
    """int_0^x psi(u + s) psi(u + t) du for x, s, t >= 0.

    psi(u + s) = e^-s psi(u) + (1 - e^-s) u + psi(s) splits each factor
    into non-negative parts, so the integral is a sum of non-negative terms
    and keeps the relative accuracy of `_psi_moments`.
    """
    _, int_psi, int_u_psi, int_psi_sq = _psi_moments(x)
    a, c, p = math.exp(-s), -math.expm1(-s), _psi_moments(s)[0]
    b, d, q = math.exp(-t), -math.expm1(-t), _psi_moments(t)[0]
    return (a * b * int_psi_sq + (a * d + c * b) * int_u_psi + (a * q + p * b) * int_psi
            + c * d * x ** 3 / 3.0 + (c * q + p * d) * x * x / 2.0 + p * q * x)


def first_order_coefficients(tau_p: float, tau_e: float, t_f: float, t_c: float,
                             alpha: float, beta: float, ae_max: float) -> GameCoefficients:
    """Game coefficients for first-order controllers from analytic
    antiderivatives of the psi kernels.

    Independent of the matrix-exponential path; agrees with it to better
    than 1e-8 relative on non-degenerate scenarios.
    """
    # built for its checks: a non-positive or non-finite argument is refused
    scenario = first_order_scenario(tau_p, tau_e, t_f, t_c, alpha, beta, ae_max)
    xe = t_f / tau_e
    sigma = t_c / tau_e
    integrals = (tau_p ** 3 * _psi_product_integral(t_f / tau_p, 0.0, 0.0),
                 tau_e ** 3 * _psi_product_integral(xe, 0.0, 0.0),
                 tau_e ** 3 * _psi_product_integral(xe, 0.0, sigma),
                 tau_e ** 3 * _psi_product_integral(xe, sigma, sigma))
    mu = tau_e ** 2 * _psi_moments(sigma)[1]
    return _assemble(integrals, mu, scenario.alpha, scenario.beta, scenario.ae_max)
