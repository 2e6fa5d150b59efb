"""Open-loop saddle-point solutions of the reduced game.

The plane of initial positions (z0, w0) splits into an open strip Omega,
where the unconstrained game already satisfies the terminal constraint, and
two closed half-planes OmegaPlus / OmegaMinus, where the constraint binds at
its upper or lower bound. Each regime has an explicit solution driven by
2x2 linear solves against the coefficient matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .engagement import EngagementScenario
from .errors import (AssertionFailure, NearSingularError, NonFiniteResult, NotInConstrainedRegion,
                     check)
from .numerics import solve2_entries
from .reduction import ControlLaw, GameCoefficients, KernelCombo


class RegionLabel(str, Enum):
    OMEGA = "Omega"
    OMEGA_PLUS = "OmegaPlus"
    OMEGA_MINUS = "OmegaMinus"


@dataclass(frozen=True)
class Region:
    """Region of the initial-position plane, with the signed margin
    w0 + a z0 minus the relevant bound (for Omega, |w0 + a z0| - bound,
    negative inside the strip)."""

    label: RegionLabel
    margin: float


@dataclass(frozen=True)
class SaddleSolution:
    """Open-loop saddle point in any region: the two kernel laws, their
    value, and the terminal pair omega_f = (z_f, v_f) with the terminal
    w_f. v_f is the multiplier of the terminal constraint: the second entry
    of G^-1 b on a branch, and 0.0 in the strip, where the constraint does
    not bind."""

    region: Region
    u_p: ControlLaw
    u_e: ControlLaw
    value: float
    z_f: float
    w_f: float
    v_f: float = 0.0


class PenaltyRecord(NamedTuple):
    """Penalized saddle point for one eps: omega_eps = (z_f, v_f), its
    value, and the terminal w_f = sign*bound + eps*v_f it implies. Compared
    and hashed by identity, as omega_eps is an array."""

    eps: float
    omega_eps: np.ndarray
    value: float
    z_f: float
    w_f: float
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def _shift(sign: int, bound: float) -> float:
    """gamma_1 = -sign*bound of the branch pinned at w_f = sign*bound
    (gamma = (0, gamma_1))."""
    if sign not in (1, -1):
        raise ValueError("branch sign must be +1 or -1")
    return -sign * bound


def _require_finite(values: tuple, what: str, *args) -> None:
    """Refuse finite input whose result `what % args` overflowed the float range."""
    if not all(map(math.isfinite, values)):
        raise NonFiniteResult("%s is not finite: the position, bound or weights "
                              "overflow the float range" % (what % args))


def g_bar(coeffs: GameCoefficients) -> tuple[float, float, float]:
    """The entries (b00, b01, b11) of the symmetric value-form matrix
    G_bar = (G^-1)' diag(1,-1) = [[G3, -G2], [-G2, -s]] / det G of
    G = [[s, G2], [-G2, G3]], on Python floats."""
    return coeffs.G3 / coeffs.det_G, -coeffs.G2 / coeffs.det_G, -coeffs.s / coeffs.det_G


def _position_form(coeffs: GameCoefficients, z0: float, w0: float, shift: float) -> tuple:
    """The summands of chi0' G_bar chi0 + 2 chi0' G_bar gamma for chi0 =
    (z0, w0) and gamma = (0, shift), on Python floats in the order of those
    products: c0 z0, c1 w0 and 2 c1 shift, for (c0, c1) = chi0' G_bar."""
    b00, b01, b11 = g_bar(coeffs)
    c0, c1 = z0 * b00 + w0 * b01, z0 * b01 + w0 * b11
    return c0 * z0, c1 * w0, 2.0 * (c1 * shift)


def classify(coeffs: GameCoefficients, z0: float, w0: float) -> Region:
    """Assign the initial position to Omega, OmegaPlus or OmegaMinus.

    Boundary points go to the closed half-planes; on the boundary the
    constrained and unconstrained solutions coincide, so the assignment is
    value-equivalent and deterministic.
    """
    m = w0 + coeffs.a * z0
    bound = coeffs.bound
    if m >= bound:
        return Region(RegionLabel.OMEGA_PLUS, m - bound)
    if m <= -bound:
        return Region(RegionLabel.OMEGA_MINUS, m + bound)
    return Region(RegionLabel.OMEGA, abs(m) - bound)


def solve_urg(coeffs: GameCoefficients,
              z0: float) -> tuple[KernelCombo, KernelCombo, float, float]:
    """Unconstrained saddle point as the `SaddleSolution` fields u_p, u_e,
    value and z_f: both controls proportional to their own kernel, terminal
    miss z_f = z0/s.

    The value is the cost of the pair from the exact integrals
    int h_p^2 = alpha nu_p and int h_e^2 = beta nu_e, cross-checked against
    z0^2/s to 1e-12 of its summed terms z0^2 (1 + nu_p + nu_e)/s^2, so that
    rounding near the solvability threshold (small s) does not fire it.
    """
    scale = z0 / (coeffs.alpha * coeffs.s)
    u_p = KernelCombo(hp_coef=-scale)
    u_e = KernelCombo(he_coef=z0 / (coeffs.beta * coeffs.s))
    z_f = z0 / coeffs.s

    try:
        pursuer = coeffs.alpha * scale ** 2 * (coeffs.alpha * coeffs.nu_p)
        evader = coeffs.beta * u_e.he_coef ** 2 * (coeffs.beta * coeffs.nu_e)
    except OverflowError:  # a float square past the range
        pursuer = evader = math.inf
    value = z_f * z_f + pursuer - evader
    closed = z0 * z0 / coeffs.s
    _require_finite((value, closed), "the unconstrained value")
    check("strip value == z0^2/s", value - closed, 1e-12, z_f * z_f + pursuer + evader)
    return u_p, u_e, value, z_f


def solve_erg_branch(coeffs: GameCoefficients, z0: float, w0: float, sign: int) -> SaddleSolution:
    """Equality-constrained branch saddle point, terminal w pinned at
    sign*bound: omega_f = (z_f, v_f) = G^-1 b, with the value computed both
    as omega' G_tilde omega and as the quadratic form in the initial
    position; the two must agree to 1e-9 of their largest summand (the
    position form cancels to 0 at the wall (0, sign*bound)). Both are formed
    on Python floats, in the order of the matrix products. The region is the
    branch's half-plane with the margin `classify` gives there, so
    sign*margin < 0 marks a branch forced against the dispatch."""
    shift = _shift(sign, coeffs.bound)
    s, G2, G3 = coeffs.s, coeffs.G2, coeffs.G3
    z_f, v_f = solve2_entries(s, G2, -G2, G3, z0, w0 + shift)
    value_terms = ((z_f * s + v_f * G2) * z_f, (z_f * G2 - v_f * G3) * v_f)
    chi_terms = (*_position_form(coeffs, z0, w0, shift), shift * (-s / coeffs.det_G) * shift)
    value = value_terms[0] + value_terms[1]
    value_chi = chi_terms[0] + chi_terms[1] + chi_terms[2] + chi_terms[3]
    _require_finite((z_f, v_f, value, value_chi), "the branch value")
    check("branch value == position form", value - value_chi, 1e-9, *value_terms, *chi_terms)
    u_p = KernelCombo(hp_coef=-z_f / coeffs.alpha)
    u_e = KernelCombo(he_coef=z_f / coeffs.beta, ge_coef=-v_f / coeffs.beta)
    label = RegionLabel.OMEGA_PLUS if sign == 1 else RegionLabel.OMEGA_MINUS
    return SaddleSolution(Region(label, w0 + coeffs.a * z0 + shift), u_p, u_e, value,
                          z_f, sign * coeffs.bound, v_f)


def aux_cross(coeffs: GameCoefficients, z0: float, w0: float, pursuer_sign: int) -> float:
    """J_cross: the full cost when the pursuer plays one branch's optimal
    control and the evader optimally reaches the opposite terminal sign, as
    a quadratic form in the initial position, on Python floats.

    The form needs neither the pursuer's branch solve nor the evader's reply
    omega1 = F^-1 mu, so a game whose F is near singular while G is not
    (a tiny int g_e^2 / beta) still gets its J_cross.
    """
    bound = coeffs.bound
    other = _shift(-pursuer_sign, bound)
    rho = bound * bound * (3.0 * coeffs.nu_p * coeffs.G2 ** 2
                           - (coeffs.s - coeffs.nu_p) * coeffs.det_G) \
        / (coeffs.det_G * coeffs.det_F)
    c_z, c_w, c_shift = _position_form(coeffs, z0, w0, other)
    J_cross = c_z + c_w + c_shift + rho
    _require_finite((J_cross,), "the cross-play value")
    return J_cross


def solve_erg(coeffs: GameCoefficients, z0: float, w0: float, region: Region) -> SaddleSolution:
    """Saddle point of the equality-constrained game outside the strip.

    Takes the branch of `region`, the half-plane test on w0 + a z0 that
    `classify` made at (z0, w0), and checks that both the fixed-pursuer
    inequality J_cross <= J and the branch margin hold to 1e-8 (`check`);
    a failure of either is an internal inconsistency.
    """
    if region.label is RegionLabel.OMEGA:
        raise NotInConstrainedRegion(
            "initial position (%g, %g) lies inside the unconstrained strip" % (z0, w0)
        )
    sign = 1 if region.label is RegionLabel.OMEGA_PLUS else -1
    branch = solve_erg_branch(coeffs, z0, w0, sign)

    J_cross = aux_cross(coeffs, z0, w0, sign)
    check("fixed-pursuer J_cross <= J", max(J_cross - branch.value, 0.0), 1e-8,
          branch.value, J_cross)
    check("branch margin sign (w0 + a z0) >= d bound",
          max(coeffs.d * coeffs.bound - sign * (w0 + coeffs.a * z0), 0.0), 1e-8, coeffs.bound,
          w0, coeffs.a * z0)
    return branch


def solve_rg(scenario: EngagementScenario, coeffs: GameCoefficients) -> SaddleSolution:
    """Complete open-loop saddle point of the reduced game at the scenario's
    position, from the `GameCoefficients` its caller built.

    Dispatches on the region of (z0, w0): the unconstrained solution inside
    the strip, the matching equality branch outside.
    """
    z0, w0 = scenario.z0, scenario.w0
    region = classify(coeffs, z0, w0)
    if region.label is RegionLabel.OMEGA:
        w_f = w0 + coeffs.a * z0
        if abs(w_f) >= coeffs.bound:
            raise AssertionFailure(
                "interior dispatch with infeasible terminal %g" % w_f
            )
        return SaddleSolution(region, *solve_urg(coeffs, z0), w_f=w_f)
    return solve_erg(coeffs, z0, w0, region)


DEFAULT_EPS_SWEEP = tuple(10.0 ** (-k) for k in range(7))


def penalty_sweep(coeffs: GameCoefficients, z0: float, w0: float, sign: int,
                  eps_list: Optional[Sequence[float]] = None) -> list[PenaltyRecord]:
    """Solve the penalized game along a descending sequence of eps.

    For each eps, (G + diag(0, eps)) omega = b is solved on Python floats
    by the explicit 2x2 inverse (`solve2_entries`), and the value is
    omega' diag(1,-1) (G + diag(0, eps)) omega. Every eps is solved before
    any record is built, so NearSingularError names the first singular eps
    (as "system i" in a sweep of more than one) ahead of a non-finite
    record. The terminal w of the penalized solution sits at sign*bound +
    eps*v, so the records expose the approach to the constrained branch.
    """
    if eps_list is None:
        eps_list = DEFAULT_EPS_SWEEP
    eps_arr = [float(e) for e in eps_list]
    if not all(0.0 < e < math.inf for e in eps_arr):
        raise ValueError("eps values must be positive and finite")
    if any(later >= earlier for earlier, later in zip(eps_arr, eps_arr[1:])):
        raise ValueError("eps values must be strictly descending")
    m00, m01, m10, m11 = coeffs.s, coeffs.G2, -coeffs.G2, coeffs.G3
    b0, b1 = float(z0), float(w0 + _shift(sign, coeffs.bound))
    solved = []
    for i, e in enumerate(eps_arr):
        try:
            solved.append(solve2_entries(m00, m01, m10, m11 + e, b0, b1))
        except NearSingularError as err:
            raise (err if len(eps_arr) == 1 else
                   NearSingularError("%s (system %d)" % (err, i))) from None
    records = []
    for e, (z, v) in zip(eps_arr, solved):
        value = (z * m00 - v * m10) * z + (z * m01 - v * (m11 + e)) * v
        w_f = sign * coeffs.bound + e * v
        _require_finite((z, v, value, w_f), "the penalized value at eps = %g", e)
        records.append(PenaltyRecord(eps=e, omega_eps=np.array([z, v]), value=value,
                                     z_f=z, w_f=w_f))
    return records
