"""Small dense numerical substrate.

Everything the game solver needs and nothing more: a matrix exponential for
the transition matrices of time-invariant controller dynamics, an adaptive
Gauss-Legendre quadrature (the independent check of the exact kernel
integrals), a classical one-step trajectory integrator, explicit 2x2
solves, and a cancellation-safe evaluation of the first-order ramp response
psi(t) = exp(-t) + t - 1.

All functions are pure; results are plain numpy arrays or floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NearSingularError

DEFAULT_GRID_NODES = 2001

_PSI_SWITCH = 1e-3

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


def psi(t):
    """Ramp response exp(-t) + t - 1 of a unit first-order lag, for t >= 0.

    Below t = 1e-3 the direct formula loses nearly all significant digits to
    cancellation (the value behaves like t^2/2), so a degree-6 Taylor
    expansion is used there instead. Accepts scalars or arrays.
    """
    t = np.asarray(t, dtype=float)
    direct = np.exp(-t) + t - 1.0
    series = t * t * (
        1.0 / 2.0
        + t * (-1.0 / 6.0 + t * (1.0 / 24.0 + t * (-1.0 / 120.0 + t / 720.0)))
    )
    out = np.where(t < _PSI_SWITCH, series, direct)
    if out.ndim == 0:
        return float(out)
    return out


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
    norm = float(np.linalg.norm(M, 1))
    s = int(np.ceil(np.log2(norm / _PADE13_THETA))) if norm > _PADE13_THETA else 0
    M = M / 2.0 ** s
    M2 = M @ M
    M4 = M2 @ M2
    M6 = M4 @ M2
    if s == 0:
        return s, M, M2, M4, M6
    d6 = np.linalg.norm(M6, 1) ** (1.0 / 6.0)
    d8 = np.linalg.norm(M4 @ M4, 1) ** (1.0 / 8.0)
    d10 = np.linalg.norm(M4 @ M6, 1) ** (1.0 / 10.0)
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
    norm = float(np.linalg.norm(M, 1))
    if norm == 0.0:
        return 0
    p1 = np.abs(M)
    p2 = p1 @ p1
    p8 = (p2 @ p2) @ (p2 @ p2)
    column_sums = ((p1.sum(axis=0) @ p2) @ p8) @ (p8 @ p8)  # 1' |M|^27
    alpha = float(column_sums.max()) / (norm * _PADE13_ABS_C_RECIP)
    if not np.isfinite(alpha):
        return 1 << 30
    if alpha == 0.0:
        return 0
    return max(0, int(np.ceil(np.log2(alpha / 2.0 ** -53) / 26.0)))


def mat_exp(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(A*t) by scaling-and-squaring with the diagonal Pade-13 approximant.

    Accurate to near round-off for the small dense matrices used here; the
    number of squarings follows `_powers`. Raises ValueError for non-square
    or non-finite input.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix exponential requires a square matrix, got shape %r" % (A.shape,))
    if not np.isfinite(t):
        raise ValueError("non-finite time scale %r" % (t,))
    M = A * float(t)
    if M.size and not np.isfinite(M).all():
        raise ValueError("matrix exponential argument contains non-finite entries")
    n = M.shape[0]
    if n == 0:
        return np.zeros((0, 0))

    halvings, M, M2, M4, M6 = _powers(M)
    b = _PADE13_B
    ident = np.eye(n)
    U = M @ (M6 @ (b[13] * M6 + b[11] * M4 + b[9] * M2)
             + b[7] * M6 + b[5] * M4 + b[3] * M2 + b[1] * ident)
    V = (M6 @ (b[12] * M6 + b[10] * M4 + b[8] * M2)
         + b[6] * M6 + b[4] * M4 + b[2] * M2 + b[0] * ident)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(halvings):
        E = E @ E
    return E


def squarings(A: np.ndarray) -> int:
    """Number of squarings `mat_exp(A)` takes."""
    return _powers(np.asarray(A, dtype=float))[0]


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


def solve2(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the 2x2 system M x = b by the explicit inverse.

    Raises NearSingularError when |det M| < 1e-12 * max(1, ||M||_F^2).
    """
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    if M.shape != (2, 2) or b.shape != (2,):
        raise ValueError("solve2 expects a 2x2 matrix and a length-2 vector")
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    scale = max(1.0, float(np.sum(M * M)))
    if abs(det) < 1e-12 * scale:
        raise NearSingularError(
            "2x2 determinant %g is below the singularity threshold %g" % (det, 1e-12 * scale)
        )
    return np.array([
        (M[1, 1] * b[0] - M[0, 1] * b[1]) / det,
        (M[0, 0] * b[1] - M[1, 0] * b[0]) / det,
    ])


@dataclass(frozen=True)
class TimeGrid:
    """A strictly increasing sequence of time nodes including both endpoints."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("a time grid needs at least two nodes")
        if not np.isfinite(nodes).all():
            raise ValueError("time grid nodes must be finite")
        if not (np.diff(nodes) > 0).all():
            raise ValueError("time grid nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, t_start: float, t_end: float, n: int = DEFAULT_GRID_NODES) -> "TimeGrid":
        return cls(np.linspace(float(t_start), float(t_end), int(n)))

    @property
    def t_start(self) -> float:
        return float(self.nodes[0])

    @property
    def t_end(self) -> float:
        return float(self.nodes[-1])

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    def refined(self) -> np.ndarray:
        """Nodes interleaved with panel midpoints (2n - 1 points)."""
        out = np.empty(2 * self.nodes.size - 1)
        out[0::2] = self.nodes
        out[1::2] = self.midpoints
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
