"""Small dense numerical substrate.

Everything the game solver needs and nothing more: a matrix exponential for
the transition matrices of time-invariant controller dynamics, an adaptive
Gauss-Legendre quadrature (the independent check of the exact kernel
integrals), a classical one-step trajectory integrator, and explicit 2x2
solves.

All functions are pure; results are plain numpy arrays or floats.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NearSingularError, NonFiniteResult

DEFAULT_GRID_NODES = 2001

# Degree-13 diagonal Pade numerator coefficients for exp(A) and the matching
# scaling threshold (1-norm above which the argument is halved).
_PADE13_B = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_PADE13_THETA = 5.371920351148152
# The bound on eta = min(max(d6, d8), max(d8, d10)) of Al-Mohy and Higham
# (2009), and 1 / |c_27| of their Pade-13 backward-error series.
_PADE13_ETA_THETA = 4.25
_PADE13_ABS_C_RECIP = 113250775606021113483283660800000000.0

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(7)

_MAX_QUAD_DEPTH = 48


def _norm1(M: np.ndarray):
    """||M||_1, the largest column sum of |M|: the arithmetic of
    `np.linalg.norm(M, 1)`, on the ufunc reductions without their wrappers."""
    return np.maximum.reduce(np.add.reduce(np.abs(M), axis=0))


def _powers(M: np.ndarray) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Squarings s for exp(M) and M / 2^s with its even powers 2, 4, 6.

    The rule of Al-Mohy and Higham (SIAM J. Matrix Anal. Appl. 2009,
    Algorithm 5.1): s comes from eta = min(max(d6, d8), max(d8, d10)),
    d_p = ||M^p||_1^(1/p), rather than from ||M||_1, plus the correction
    ell that guards the Pade backward error. d_p can sit far below the norm
    (a lightly damped oscillator: omega against omega^2), and each squaring
    saved halves the amplification of the rounding error. The powers are
    first formed at the norm-based scaling, so none can overflow.
    """
    norm = float(_norm1(M))
    s = int(np.ceil(np.log2(norm / _PADE13_THETA))) if norm > _PADE13_THETA else 0
    if s:
        M = M / 2.0 ** s
    M2 = M @ M
    M4 = M2 @ M2
    M6 = M4 @ M2
    if s == 0:
        return s, M, M2, M4, M6
    d6 = _norm1(M6) ** (1.0 / 6.0)
    d8 = _norm1(M4 @ M4) ** (1.0 / 8.0)
    d10 = _norm1(M4 @ M6) ** (1.0 / 10.0)
    eta = min(max(d6, d8), max(d8, d10))
    if eta > 0.0:
        fewer = s - max(0, int(np.ceil(np.log2(eta / _PADE13_ETA_THETA))) + s)
        if fewer > 0:
            fewer -= _pade_ell(M * 2.0 ** fewer)
        if fewer > 0:
            scale = 2.0 ** fewer
            s -= fewer
            M, M2, M4, M6 = M * scale, M2 * scale ** 2, M4 * scale ** 4, M6 * scale ** 6
    return s, M, M2, M4, M6


def _pade_ell(M: np.ndarray) -> int:
    """Extra squarings the Pade-13 backward error of M asks for (ell in
    Al-Mohy and Higham 2009, from || |M|^27 ||_1); a count past any saving
    when that power overflows."""
    p1 = np.abs(M)
    ones_p1 = p1.sum(axis=0)
    norm = float(ones_p1.max())
    if norm == 0.0:
        return 0
    p2 = p1 @ p1
    p4 = p2 @ p2
    p8 = p4 @ p4
    column_sums = ((ones_p1 @ p2) @ p8) @ (p8 @ p8)  # 1' |M|^27
    alpha = float(column_sums.max()) / (norm * _PADE13_ABS_C_RECIP)
    if not math.isfinite(alpha):
        return 1 << 30
    if alpha == 0.0:
        return 0
    return max(0, int(np.ceil(np.log2(alpha / 2.0 ** -53) / 26.0)))


def _pade13(M: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Squarings s for exp(M) (`_powers`), and U, V of the Pade-13 approximant
    (V - U)^-1 (V + U) of exp(M / 2^s), b_1 I and b_0 I added in place."""
    s, M, M2, M4, M6 = _powers(M)
    b = _PADE13_B
    step = M.shape[0] + 1  # of the diagonal in the (C-contiguous) sums of products
    inner = M6 @ (b[13] * M6 + b[11] * M4 + b[9] * M2) + b[7] * M6 + b[5] * M4 + b[3] * M2
    inner.ravel()[::step] += b[1]
    U = M @ inner
    V = M6 @ (b[12] * M6 + b[10] * M4 + b[8] * M2) + b[6] * M6 + b[4] * M4 + b[2] * M2
    V.ravel()[::step] += b[0]
    return s, U, V


def scaled_exp(M: np.ndarray) -> tuple[int, np.ndarray]:
    """Squarings s and the approximant of exp(M / 2^s) (`_pade13`)."""
    s, U, V = _pade13(M)
    return s, np.linalg.solve(V - U, V + U)


def _checked(A: np.ndarray, t: float) -> np.ndarray:
    """A t, refused (ValueError) unless A is square and t and A t finite."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix exponential requires a square matrix, got shape %r" % (A.shape,))
    if not math.isfinite(t):
        raise ValueError("non-finite time scale %r" % (t,))
    M = A * float(t)  # a finite sum has finite terms
    if not math.isfinite(np.add.reduce(M, None)) and not np.isfinite(M).all():
        raise ValueError("matrix exponential argument contains non-finite entries")
    return M


def mat_exp(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(A*t) by scaling-and-squaring with the diagonal Pade-13 approximant
    (`scaled_exp`): near round-off for the small dense matrices used here.
    Raises ValueError for non-square or non-finite input."""
    M = _checked(A, t)
    if M.shape[0] == 0:
        return np.zeros((0, 0))
    halvings, E = scaled_exp(M)
    for _ in range(halvings):
        E = E @ E
    return E


def exp_minus_identity(A: np.ndarray, t: float) -> np.ndarray:
    """F = exp(A*t) - I with the checks of `mat_exp`: (V - U)^-1 2U (`_pade13`)
    squared as I + F, F <- 2F + F F: no step rounds I into F, so F stays accurate near 0."""
    halvings, U, V = _pade13(_checked(A, t))
    F = np.linalg.solve(V - U, 2.0 * U)
    for _ in range(halvings):
        F = 2.0 * F + F @ F
    return F


def _gl7(f: Callable[[float], float], a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    total = 0.0
    for x, w in zip(_GL_NODES, _GL_WEIGHTS):
        y = f(mid + half * x)
        if not np.isfinite(y):
            raise ValueError("integrand is not finite at t=%r" % (mid + half * x,))
        total += w * y
    return half * total


def _adapt(f, a, b, whole, budget, depth):
    mid = 0.5 * (a + b)
    left = _gl7(f, a, mid)
    right = _gl7(f, mid, b)
    if abs(left + right - whole) <= budget:
        return left + right
    if depth <= 0:
        raise RuntimeError(
            "adaptive quadrature failed to converge on [%g, %g]" % (a, b)
        )
    return (_adapt(f, a, mid, left, 0.5 * budget, depth - 1)
            + _adapt(f, mid, b, right, 0.5 * budget, depth - 1))


def quad_adaptive(f: Callable[[float], float], a: float, b: float, tol: float = 1e-10) -> float:
    """Integrate f over [a, b] with adaptive composite 7-point Gauss-Legendre.

    Panels are bisected recursively until the two-half refinement of each
    panel agrees with the single-panel rule within its share of the budget
    tol * (1 + |rough integral|), so the result satisfies
    |result - integral| <= tol * (1 + |result|) for integrands smooth on all
    but finitely many points.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("integration limits must be finite")
    if a > b:
        raise ValueError("integration limits out of order: %g > %g" % (a, b))
    if a == b:
        return 0.0
    whole = _gl7(f, a, b)
    budget = tol * (1.0 + abs(whole))
    return _adapt(f, a, b, whole, budget, _MAX_QUAD_DEPTH)


def solve2_entries(m00, m01, m10, m11, b0, b1):
    """Solve [[m00, m01], [m10, m11]] x = (b0, b1) by the explicit inverse,
    on scalars (Python floats give Python floats). Returns (x0, x1).

    Raises NearSingularError when |det| < 1e-12 max(1, |m00 m11| + |m01 m10|):
    where the two terms of det cancel, whatever the scaling of rows and columns.
    Raises NonFiniteResult when that sum of products overflows or is NaN.
    """
    det = m00 * m11 - m01 * m10
    scale = abs(m00 * m11) + abs(m01 * m10)
    if not scale < math.inf:  # max(1.0, nan) would be 1.0
        raise NonFiniteResult("the products of 2x2 entries overflow the float range: the "
                              "kernel integrals over the weights alpha or beta are too large")
    threshold = 1e-12 * max(1.0, scale)
    if abs(det) < threshold:
        raise NearSingularError("2x2 determinant %g is below the singularity threshold %g"
                                % (det, threshold))
    return (m11 * b0 - m01 * b1) / det, (m00 * b1 - m10 * b0) / det


def solve2(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the 2x2 system M x = b by the explicit inverse (`solve2_entries`).

    Raises NearSingularError when |det M| < 1e-12 * max(1, |m00 m11| + |m01 m10|).
    """
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    if M.shape != (2, 2) or b.shape != (2,):
        raise ValueError("solve2 expects a 2x2 matrix and a length-2 vector")
    return np.array(solve2_entries(*M.ravel().tolist(), *b.tolist()))


@dataclass(frozen=True)
class TimeGrid:
    """n uniformly spaced time nodes from t_start to t_end, both included:
    `nodes` is `np.linspace(t_start, t_end, n)`, read-only, formed on its
    first read. Grids are equal when their three fields are."""

    t_start: float
    t_end: float
    n: int = DEFAULT_GRID_NODES

    def __post_init__(self):
        if isinstance(self.n, bool) or not (isinstance(self.n, numbers.Integral) and self.n >= 2):
            raise ValueError("a time grid needs an integer node count n >= 2, got %r" % (self.n,))
        t_start, t_end = float(self.t_start), float(self.t_end)
        if not (math.isfinite(t_start) and math.isfinite(t_end - t_start) and t_end > t_start):
            raise ValueError("time grid [%g, %g] is not finite and increasing" % (t_start, t_end))
        for name, value in (("t_start", t_start), ("t_end", t_end), ("n", int(self.n))):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        nodes = np.linspace(self.t_start, self.t_end, self.n)
        nodes.flags.writeable = False
        return nodes

    @classmethod
    def uniform(cls, t_start: float, t_end: float, n: int = DEFAULT_GRID_NODES) -> "TimeGrid":
        return cls(t_start, t_end, n)

    @property
    def step(self) -> float:
        """The node spacing (t_end - t_start) / (n - 1)."""
        return (self.t_end - self.t_start) / (self.n - 1)

    def refined(self) -> np.ndarray:
        """Nodes interleaved with panel midpoints (2n - 1 points)."""
        out = np.empty(2 * self.n - 1)
        out[0::2] = self.nodes
        out[1::2] = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        return out


def ode_playout(rhs: Callable, x0, grid: TimeGrid) -> np.ndarray:
    """Integrate dx/dt = rhs(t, x) over the grid nodes with classical RK4.

    Returns the trajectory as an (n_nodes, dim) array. Raises ValueError if
    the state stops being finite.
    """
    ts = grid.nodes
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    out = np.empty((ts.size, x.size))
    out[0] = x
    for k in range(ts.size - 1):
        t = ts[k]
        h = ts[k + 1] - t
        k1 = np.asarray(rhs(t, x), dtype=float)
        k2 = np.asarray(rhs(t + 0.5 * h, x + 0.5 * h * k1), dtype=float)
        k3 = np.asarray(rhs(t + 0.5 * h, x + 0.5 * h * k2), dtype=float)
        k4 = np.asarray(rhs(t + h, x + h * k3), dtype=float)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all():
            raise ValueError("state became non-finite at t=%g" % ts[k + 1])
        out[k + 1] = x
    return out


def rk4_affine(A: np.ndarray, inputs: np.ndarray, controls: np.ndarray, x0,
               grid: TimeGrid) -> np.ndarray:
    """The classical RK4 of `ode_playout` for dx/dt = A x + inputs' u(t)
    over the nodes of a grid: `inputs` is (m x dim), one input row per
    control, and `controls` is (m x refined nodes), the m controls
    tabulated on the refined nodes of the grid (`TimeGrid.refined`).

    Each step is affine in the state, x_{k+1} = P x_k + q_k, with
    P = I + H + H^2/2 + H^3/6 + H^4/24 for H = h A and the grid step h,
    and q_k the step taken from x = 0. With f = inputs' u at the step's
    start, midpoint and end, that offset is exactly
    q = h (f0 + 4 fm + f1)/6 + h^2 A (f0 + 2 fm)/6 + h^3 A^2 (f0 + fm)/12
    + h^4 A^3 f0/24, with h the step's own node difference, so the offsets
    of all steps come from one (steps x 4m) @ (4m x dim) product of the
    weighted control samples with inputs (A')^p, p = 0..3.

    The n steps run as a doubling scan (Hillis and Steele, "Data parallel
    algorithms", CACM 1986) over the rows (x0, q_0, ..., q_{n-1}): for
    m = 1, 2, 4, ... below n + 1, rows[m:] += rows[:-m] @ (P^m)', so after
    about log2(n) products of the whole (n + 1) x dim array row k holds
    x_k. When the doubled rows are not all finite (P^m overflowing against
    a zero state, or a state that really overflows) the steps are taken one
    at a time instead (`_stepwise`). Returns the (n_nodes, dim) trajectory;
    raises ValueError at the first node where the state stops being finite.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    h = np.diff(grid.nodes)
    u0, u_mid, u1 = controls[:, :-1:2], controls[:, 1::2], controls[:, 2::2]
    weighted = np.concatenate([(h / 6.0) * (u0 + 4.0 * u_mid + u1),
                               (h ** 2 / 6.0) * (u0 + 2.0 * u_mid),
                               (h ** 3 / 12.0) * (u0 + u_mid),
                               (h ** 4 / 24.0) * u0])
    powers = [inputs]
    for _ in range(3):
        powers.append(powers[-1] @ A.T)
    q = weighted.T @ np.concatenate(powers)

    out = np.concatenate([x0[None], q])
    ident = np.eye(A.shape[0])
    H = grid.step * A
    P = power = ident + H @ (ident + (H / 2.0) @ (ident + (H / 3.0) @ (ident + H / 4.0)))
    m = 1
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows take the loop
        while m < out.shape[0]:
            out[m:] += out[:-m] @ power.T
            m *= 2
            if m < out.shape[0]:
                power = power @ power
    if np.isfinite(out).all():
        return out
    return _stepwise(P, q, x0, grid)


def _stepwise(P: np.ndarray, q: np.ndarray, x0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """The steps x_{k+1} = P x_k + q_k of `rk4_affine` one at a time, its
    fallback; raises ValueError at the first node where the state is not finite."""
    out = np.empty((q.shape[0] + 1, x0.size))
    out[0] = x = x0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite state raises below
        for k, offset in enumerate(q):
            out[k + 1] = x = P @ x + offset
            if not np.isfinite(x).all():
                raise ValueError("state became non-finite at t=%g" % grid.nodes[k + 1])
    return out
