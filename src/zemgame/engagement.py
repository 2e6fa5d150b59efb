"""Player controller models, engagement scenarios, and state-space builders.

Each player carries a linear controller of arbitrary order n whose output is
the lateral acceleration. Stacking lateral position, lateral velocity and
the controller state gives the (n+2)-dimensional player block, the one
state layout the zero-effort-miss reduction reads. The stacked, relative
(evader minus pursuer) and evader-with-selector systems are kept as builders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


def _as_float_array(value, shape, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float).reshape(shape)  # a finite sum has finite terms
    if not math.isfinite(np.add.reduce(arr, None)) and not np.isfinite(arr).all():
        raise ValueError("%s contains non-finite entries" % name)
    return arr


def _require_finite(obj, names) -> None:
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise ValueError("%s must be finite" % name)


@dataclass(frozen=True, eq=False)
class ControllerModel:
    """One player's internal linear controller.

    order   n, the number of internal controller states (may be 0)
    sys     n x n system matrix
    inp     length-n input vector
    out     length-n output vector (acceleration = out . state + feed * u)
    feed    direct feedthrough from the command to the acceleration
    """

    order: int
    sys: np.ndarray
    inp: np.ndarray
    out: np.ndarray
    feed: float

    def __post_init__(self):
        n = int(self.order)
        if n < 0:
            raise ValueError("controller order must be nonnegative")
        self.__dict__.update(order=n, sys=_as_float_array(self.sys, (n, n), "sys"),
                             inp=_as_float_array(self.inp, (n,), "inp"),
                             out=_as_float_array(self.out, (n,), "out"), feed=float(self.feed))
        if not math.isfinite(self.feed):
            raise ValueError("feed must be finite")

    @classmethod
    def first_order(cls, tau: float) -> "ControllerModel":
        """Strictly proper first-order lag with time constant tau.

        The command is the lateral acceleration command; the acceleration
        tracks it with lag tau.
        """
        if not (math.isfinite(tau) and tau > 0):
            raise ValueError("time constant must be positive and finite")
        return cls(order=1, sys=[[-1.0 / tau]], inp=[1.0 / tau], out=[1.0], feed=0.0)

    @classmethod
    def zero_order(cls, feed: float = 1.0) -> "ControllerModel":
        """Ideal controller: the command is the lateral acceleration itself."""
        return cls(order=0, sys=np.zeros((0, 0)), inp=np.zeros(0), out=np.zeros(0), feed=feed)


@dataclass(frozen=True, eq=False)
class StateSpace:
    """A dense linear system dx/dt = A x + B u_p (+ C u_e), with an optional
    output selector row D_row."""

    A: np.ndarray
    B: np.ndarray
    C: Optional[np.ndarray] = None
    D_row: Optional[np.ndarray] = None


def build_player_ss(m: ControllerModel) -> StateSpace:
    """Single-player block: state (y, ydot, controller state).

    The acceleration row couples ydot to the controller output; the command
    enters through the feedthrough and the controller input vector.
    """
    n = m.order
    A = np.zeros((n + 2, n + 2))
    A[0, 1] = 1.0
    A[1, 2:] = m.out
    A[2:, 2:] = m.sys
    return StateSpace(A=A, B=np.concatenate(((0.0, m.feed), m.inp)))


def build_game_ss(p: ControllerModel, e: ControllerModel) -> StateSpace:
    """Both players stacked block-diagonally; B drives the pursuer block and
    C the evader block."""
    sp = build_player_ss(p)
    se = build_player_ss(e)
    np_, ne = p.order + 2, e.order + 2
    A = np.zeros((np_ + ne, np_ + ne))
    A[:np_, :np_] = sp.A
    A[np_:, np_:] = se.A
    B = np.zeros(np_ + ne)
    B[:np_] = sp.B
    C = np.zeros(np_ + ne)
    C[np_:] = se.B
    return StateSpace(A=A, B=B, C=C)


def build_relative_ss(p: ControllerModel, e: ControllerModel) -> StateSpace:
    """Relative system: state (y_e - y_p, ydot_e - ydot_p, pursuer controller
    state, evader controller state).

    The pursuer enters the relative acceleration with a minus sign; the
    selector row picks the relative position.
    """
    n_p, n_e = p.order, e.order
    dim = n_p + n_e + 2
    A = np.zeros((dim, dim))
    A[0, 1] = 1.0
    A[1, 2:2 + n_p] = -p.out
    A[1, 2 + n_p:] = e.out
    A[2:2 + n_p, 2:2 + n_p] = p.sys
    A[2 + n_p:, 2 + n_p:] = e.sys
    B = np.zeros(dim)
    B[1] = -p.feed
    B[2:2 + n_p] = p.inp
    C = np.zeros(dim)
    C[1] = e.feed
    C[2 + n_p:] = e.inp
    D = np.zeros(dim)
    D[0] = 1.0
    return StateSpace(A=A, B=B, C=C, D_row=D)


def build_evader_ss(e: ControllerModel) -> StateSpace:
    """Evader-only block with the position selector row."""
    ss = build_player_ss(e)
    D = np.zeros(e.order + 2)
    D[0] = 1.0
    return StateSpace(A=ss.A, B=ss.B, D_row=D)


@dataclass(frozen=True)
class EngagementGeometry:
    """Collision-course geometry: speeds and small initial aspect angles."""

    Vp: float
    Ve: float
    phi_p0: float
    phi_e0: float

    def __post_init__(self):
        _require_finite(self, ("Vp", "Ve", "phi_p0", "phi_e0"))
        if self.Vp <= 0 or self.Ve <= 0:
            raise ValueError("speeds must be positive")


def initial_zem(geometry: EngagementGeometry, t_f: float, t_c: float) -> tuple[float, float]:
    """Initial zero-effort-miss pair implied by the linearized geometry.

    z0 = t_f * (|Ve| phi_e0 - |Vp| phi_p0)
    w0 = (t_f + t_c) * |Ve| phi_e0
    """
    ve = geometry.Ve * geometry.phi_e0
    vp = geometry.Vp * geometry.phi_p0
    return t_f * (ve - vp), (t_f + t_c) * ve


def resolve_horizons(t_f: float, t_c: float | None = None, nu: float | None = None) -> float:
    """Resolve the evader-target horizon from exactly one of t_c or nu
    (the pursuer/evader speed ratio, giving t_c = nu * t_f)."""
    if (t_c is None) == (nu is None):
        raise ValueError("exactly one of t_c and nu must be given")
    if t_c is None:
        t_c = nu * t_f
    if t_c < 0:
        raise ValueError("t_c must be nonnegative")
    return float(t_c)


@dataclass(frozen=True)
class EngagementScenario:
    """Full game setup.

    t_f is the pursuer-evader engagement horizon (the game horizon); t_c the
    remaining evader-target flight time after t_f. alpha and beta weight the
    pursuer and evader control efforts, ae_max bounds the evader acceleration
    after t_f, and (z0, w0) are the initial zero-effort-miss values.
    """

    pursuer: ControllerModel
    evader: ControllerModel
    t_f: float
    t_c: float
    alpha: float
    beta: float
    ae_max: float
    z0: float
    w0: float
    geometry: Optional[EngagementGeometry] = field(default=None)

    def __post_init__(self):
        _require_finite(self, ("t_f", "t_c", "alpha", "beta", "ae_max", "z0", "w0"))
        if self.t_f <= 0:
            raise ValueError("t_f must be positive")
        if self.t_c < 0:
            raise ValueError("t_c must be nonnegative")
        for name in ("alpha", "beta", "ae_max"):
            if getattr(self, name) <= 0:
                raise ValueError("%s must be positive" % name)


def first_order_scenario(tau_p: float, tau_e: float, t_f: float, t_c: float,
                         alpha: float, beta: float, ae_max: float,
                         z0: float = 0.0, w0: float = 0.0) -> EngagementScenario:
    """Scenario with strictly proper first-order controllers on both sides."""
    return EngagementScenario(
        pursuer=ControllerModel.first_order(tau_p),
        evader=ControllerModel.first_order(tau_e),
        t_f=t_f, t_c=t_c, alpha=alpha, beta=beta, ae_max=ae_max, z0=z0, w0=w0,
    )
