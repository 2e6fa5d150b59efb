"""Shared test helpers: frozen oracle values, random scenario factories, and
test-only references of library quantities.

The ORACLE constants were computed with an independent pipeline
(scipy.integrate.quad over the closed-form psi kernels plus plain numpy
linear algebra) and are frozen here; the library must reproduce them through
its own matrix-exponential and adaptive-quadrature path.
"""

import dataclasses
import functools
import math
import re
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

import zemgame as z
from zemgame.engagement import build_player_ss
from zemgame.errors import AssertionFailure, NearSingularError, NotInConstrainedRegion
from zemgame.numerics import (_PADE13_ABS_C_RECIP, _PADE13_B, _PADE13_ETA_THETA,
                              _PADE13_THETA, mat_exp, quad_adaptive, solve2)
from zemgame.reduction import _assemble, simpson_panels

ORACLE = SimpleNamespace(
    beta_star=0.243832425334,
    mu_e=0.324998765902,
    bound=32.4998765902,
    nu_p=3.535882319474,
    nu_e=0.812774751112,
    s=3.723107568361,
    G2=2.041108441278,
    G3=5.911118515015,
    a=0.548227093577,
    det_G=26.1738537498,
    det_F=5.272834304236,
    d=0.750378275125,
    G_bar=np.array([[0.22584059, -0.07798273], [-0.07798273, -0.14224530]]),
    int_ge=1.3000012340,
    # branch data at (100, -100)
    omega_plus=np.array([32.91676023, -11.04921163]),
    omega_minus=np.array([27.84790234, -1.80330251]),
    value_plus=1827.656845,
    value_minus=2663.067092,
    # unconstrained play from z0 = 100
    urg_z_f=26.859283048868,
    urg_value=2685.928304887,
    urg_w_f_a=4.82270936,     # from (100, -50)
    urg_w_f_b=-45.17729064,   # from (100, -100)
    # cross checks at (100, -100)
    ue_bar=101.92288524,
    j_const=1359.77861380,
    j_ramp=2378.31918439,
    # penalized solve at eps = 1, sign +
    upg_eps1_omega=np.array([32.1624147, -9.6732389]),
    upg_eps1_value=1934.538509,
    # fixed-pursuer auxiliary problems at (100, -100)
    aux_plus_omega1=np.array([7.75542626, -8.74123185]),
    aux_plus_J=3114.030787,
    aux_minus_omega1=np.array([53.00923631, -4.11128229]),
    aux_minus_J=2278.620540,
    rho=300.718242,
    # interior-case candidates at (100, -100)
    zbar_f1=-87.540493,
    w_interior_1=-278.679638,
    zbar_f2=8.188503,
    w_interior_2=-83.286378,
    # cross-play table values
    table_plus={("+", "+"): 1941.90117889, ("+", "-"): 415.61705297,
                ("-", "+"): 2353.97954118},
    table_minus={("-", "-"): 2431.13537701, ("-", "+"): 1459.60579810,
                 ("+", "-"): 2843.21373930},
)

MIXED_ORDERS = Path(__file__).resolve().parents[1] / "scenarios" / "geometry_mixed_orders.json"


def check_failure(error: AssertionFailure, name: str) -> tuple[float, float]:
    """(residual, bound) of an `errors.check` failure, after asserting that
    its message names the check `name`, and that |residual| exceeds the
    bound (or the residual is NaN)."""
    match = re.fullmatch(r"(.*): residual (\S+) exceeds (\S+)", str(error))
    assert match, str(error)
    assert match.group(1) == name
    residual, bound = float(match.group(2)), float(match.group(3))
    assert not abs(residual) <= bound
    return residual, bound


def solvability_threshold(kernels, tol=1e-10):
    """int h_e^2 over the game horizon by adaptive quadrature; the evader
    effort weight must strictly exceed it."""
    return quad_adaptive(lambda t: kernels.h_e(t) ** 2, 0.0, kernels.t_f, tol)


def psi_ref(t):
    """Reference psi built on expm1 only; adequate for t not tiny."""
    return np.expm1(-np.asarray(t, dtype=float)) + t


def random_controller(rng, order):
    if order == 0:
        return z.ControllerModel.zero_order(feed=float(rng.uniform(0.5, 1.5)))
    A = -np.diag(rng.uniform(0.8, 4.0, order)) + 0.3 * rng.standard_normal((order, order))
    shift = max(0.0, float(np.linalg.eigvals(A).real.max()))
    A = A - (shift + 0.2) * np.eye(order)
    feed = 0.0 if rng.uniform() < 0.7 else float(rng.uniform(0.2, 0.8))
    return z.ControllerModel(order=order, sys=A, inp=rng.uniform(0.5, 2.0, order),
                             out=rng.uniform(0.5, 2.0, order), feed=feed)


def oscillator(omega, zeta):
    """Second-order acceleration loop with natural frequency omega."""
    return z.ControllerModel(order=2, sys=[[0.0, 1.0], [-omega ** 2, -2.0 * zeta * omega]],
                             inp=[0.0, omega ** 2], out=[1.0, 0.0], feed=0.0)


def random_scenario(rng, max_order=3):
    """A random solvable scenario: beta is set a safe factor above the
    solvability threshold computed from the realized kernels."""
    pursuer = random_controller(rng, int(rng.integers(0, max_order + 1)))
    evader = random_controller(rng, int(rng.integers(0, max_order + 1)))
    base = z.EngagementScenario(
        pursuer=pursuer, evader=evader,
        t_f=float(rng.uniform(0.6, 1.8)), t_c=float(rng.uniform(0.3, 1.2)),
        alpha=float(rng.uniform(0.03, 0.4)), beta=1.0,
        ae_max=float(rng.uniform(20.0, 150.0)),
        z0=float(rng.uniform(-150.0, 150.0)), w0=float(rng.uniform(-150.0, 150.0)),
    )
    kernels = z.Kernels(base)
    threshold = solvability_threshold(kernels)
    scenario = dataclasses.replace(base, beta=threshold * float(rng.uniform(1.4, 3.0)))
    return scenario, z.Kernels(scenario)


@functools.cache
def random_draws():
    """8 `random_scenario` draws of orders 0-10, each with its kernels."""
    rng = np.random.default_rng(1401)
    return tuple(random_scenario(rng, max_order=10) for _ in range(8))


def random_first_order(rng):
    tau_p = float(rng.uniform(0.08, 0.5))
    tau_e = float(rng.uniform(0.05, 0.3))
    t_f = float(rng.uniform(0.6, 2.0))
    t_c = float(rng.uniform(0.2, 1.2))
    alpha = float(rng.uniform(0.02, 0.3))
    ae_max = float(rng.uniform(30.0, 150.0))
    probe = first_order_coefficients(tau_p, tau_e, t_f, t_c, alpha, beta=1e9, ae_max=ae_max)
    beta = probe.beta_star * float(rng.uniform(1.3, 3.0))
    return dict(tau_p=tau_p, tau_e=tau_e, t_f=t_f, t_c=t_c, alpha=alpha,
                beta=beta, ae_max=ae_max)


@dataclass(frozen=True)
class TerminalCheck:
    """Outcome of the terminal-constraint comparison; margin is
    bound - |w_f| (negative when violated)."""

    satisfied: bool
    margin: float

    @property
    def excess(self) -> float:
        return -self.margin


def check_terminal(w_f, coeffs):
    """Compare |w_f| against the reachable bound with a 1e-9 relative band."""
    bound = coeffs.bound
    tol = 1e-9 * max(1.0, bound)
    margin = bound - abs(w_f)
    return TerminalCheck(satisfied=margin >= -tol, margin=margin)


def admissible_evader_perturbation(delta, ge_n, ge_m, steps):
    """Project a perturbation onto the class that leaves the terminal w
    unchanged (discrete version of int g_e delta = 0, in the same panel
    quadrature the playout uses). `saddle_probe` applies the same projection
    to coefficient vectors; this is its sampled form."""
    d_n, d_m = delta[0::2], delta[1::2]
    num = float(np.sum(simpson_panels(ge_n * d_n, ge_m * d_m, steps)))
    den = float(np.sum(simpson_panels(ge_n ** 2, ge_m ** 2, steps)))
    out = delta.copy()
    out[0::2] -= (num / den) * ge_n
    out[1::2] -= (num / den) * ge_m
    return out


def dense_peaks(coefficients, basis):
    """max |c @ basis| over every column for each row c, eight rows at a
    time: the dense scan the probe used before its certified coarse scan
    (`simulate._peaks`), kept as that scan's reference."""
    out = np.empty(len(coefficients))
    for i in range(0, len(coefficients), 8):
        out[i:i + 8] = np.abs(coefficients[i:i + 8] @ basis).max(axis=1)
    return out


def coarse_candidates(coefficients, scan):
    """(coarse peaks, rows, cells, coarse values) of the coarse peak scan
    by its kappa bound alone, max(v_a, v_b) + ||c|| kappa_j >= the row's
    coarse peak: the rule `simulate._candidates` was certified with, kept
    to hold its rows and cells bitwise."""
    values = np.abs(scan.coarse.T @ coefficients.T)
    peaks = values.max(axis=0)
    reach = np.maximum(values[:-1], values[1:]) + scan.kappa[:, None] * np.linalg.norm(
        coefficients, axis=1)
    cells, rows = np.nonzero(reach >= peaks)
    return peaks, rows, cells, values


def combo_integrals_matrix_form(gram, u_p, u_e, z0):
    """(z_f, int u_p^2, int u_e^2) of two kernel combinations by numpy
    matrix products, the form `simulate._combo_integrals` had before it
    moved to Python floats, with the summed magnitudes of the terms of
    each."""
    coefs = np.array([[u_p.hp_coef, u_p.he_coef, u_p.ge_coef],
                      [u_e.hp_coef, u_e.he_coef, u_e.ge_coef]])
    kc = coefs @ gram
    magnitudes = np.abs(coefs) @ np.abs(gram)
    values = (z0 + kc[0, 0] + kc[1, 1], *(kc * coefs).sum(axis=1))
    scales = (abs(z0) + magnitudes[0, 0] + magnitudes[1, 1],
              *(magnitudes * np.abs(coefs)).sum(axis=1))
    return values, scales


class GameMatrices(NamedTuple):
    G: np.ndarray
    G_tilde: np.ndarray
    G_bar: np.ndarray
    F: np.ndarray
    F_bar: np.ndarray


def game_matrices(coeffs) -> GameMatrices:
    """The 2x2 matrices of the reduced game from the `GameCoefficients`
    scalars: the branch system G = [[s, G2], [-G2, G3]], the fixed-pursuer
    system F = [[1 - nu_e, G2], [-G2, G3]], G_tilde = diag(1,-1) G, and the
    value forms G_bar = (G^-1)' diag(1,-1) and F_bar likewise, by LAPACK's
    inverse as `bench/oracle.py` forms G_bar, not by the solver's closed
    forms."""
    flip = np.diag([1.0, -1.0])
    G = np.array([[coeffs.s, coeffs.G2], [-coeffs.G2, coeffs.G3]])
    F = np.array([[1.0 - coeffs.nu_e, coeffs.G2], [-coeffs.G2, coeffs.G3]])
    return GameMatrices(G=G, G_tilde=flip @ G, G_bar=np.linalg.inv(G).T @ flip,
                        F=F, F_bar=np.linalg.inv(F).T @ flip)


def fixed_pursuer_reply(coeffs, z0, w0, sign):
    """The evader's best reply when the pursuer plays the branch of `sign`
    and the evader reaches the opposite terminal sign:
    u_e = (omega1_0 h_e - omega1_1 g_e)/beta with omega1 = F^-1 mu,
    mu = (z0 - nu_p z_fix, w0 + sign*bound) and z_fix the pursuer's branch
    terminal miss. Returns the law and omega1."""
    m = game_matrices(coeffs)
    z_fix = np.linalg.solve(m.G, np.array([z0, w0 - sign * coeffs.bound]))[0]
    omega1 = np.linalg.solve(m.F, np.array([z0 - coeffs.nu_p * z_fix, w0 + sign * coeffs.bound]))
    return z.KernelCombo(he_coef=omega1[0] / coeffs.beta, ge_coef=-omega1[1] / coeffs.beta), omega1


@dataclass(frozen=True)
class CaseIiiDiagnostic:
    """Interior-case feasibility data for the two auxiliary fixed-pursuer
    problems: the candidate terminal z and the terminal w it would imply,
    against the open interval (-bound, bound)."""

    z_bar_f1: float
    z_bar_f2: float
    w_interior_1: float
    w_interior_2: float
    bound: float
    inside_1: bool
    inside_2: bool


def check_case_iii_infeasible(coeffs, z0, w0):
    """Confirm that, outside the strip, neither fixed-pursuer auxiliary
    problem can settle strictly inside the terminal interval.

    Raises AssertionFailure if an interior candidate appears, which the
    solvable game forbids.
    """
    region = z.classify(coeffs, z0, w0)
    if region.label is z.RegionLabel.OMEGA:
        raise NotInConstrainedRegion(
            "case analysis applies only outside the unconstrained strip"
        )
    diag = case_iii_positions(coeffs, z0, w0)
    if diag.inside_1 or diag.inside_2:
        raise AssertionFailure(
            "interior terminal candidate found outside the strip at (%g, %g)" % (z0, w0)
        )
    return diag


def case_iii_positions(coeffs, z0, w0):
    """Interior-case candidates for any initial position (no region guard)."""
    chi0 = np.array([z0, w0])
    bound = coeffs.bound
    one_minus_nu_e = 1.0 - coeffs.nu_e
    z_bars = []
    for sign in (1, -1):
        omega_fix = solve2(game_matrices(coeffs).G, chi0 - np.array([0.0, sign * bound]))
        z_bars.append((z0 - coeffs.nu_p * omega_fix[0]) / one_minus_nu_e)
    w1 = w0 + coeffs.G2 * z_bars[0]
    w2 = w0 + coeffs.G2 * z_bars[1]
    return CaseIiiDiagnostic(
        z_bar_f1=z_bars[0], z_bar_f2=z_bars[1],
        w_interior_1=w1, w_interior_2=w2, bound=bound,
        inside_1=bool(-bound < w1 < bound),
        inside_2=bool(-bound < w2 < bound),
    )


# -- the 2x2 layer as it stood before it moved to Python floats: the
# elementwise `numerics.solve2_entries`, for a stack of systems, and the
# one-pass `solver.penalty_sweep` arithmetic, verbatim, for bit-for-bit
# comparison.


def solve2_entries_reference(m00, m01, m10, m11, b0, b1):
    """The explicit 2x2 inverse, elementwise over entries that broadcast;
    NearSingularError at the first system whose |det| is below
    1e-12 max(1, |m00 m11| + |m01 m10|)."""
    det = m00 * m11 - m01 * m10
    threshold = 1e-12 * np.maximum(1.0, abs(m00 * m11) + abs(m01 * m10))
    singular = np.abs(det) < threshold
    if np.any(singular):
        det, threshold, singular = np.broadcast_arrays(det, threshold, singular)
        first = np.flatnonzero(singular)[0]
        raise NearSingularError(
            "2x2 determinant %g is below the singularity threshold %g%s"
            % (det.flat[first], threshold.flat[first],
               " (system %d)" % first if singular.size > 1 else ""))
    return (m11 * b0 - m01 * b1) / det, (m00 * b1 - m10 * b0) / det


def penalty_sweep_reference(coeffs, z0, w0, sign, eps_list):
    """(z_f, v_f, value, w_f) arrays over eps of the penalized systems
    (G + diag(0, eps)) omega = (z0, w0 - sign*bound), every eps in one
    elementwise solve."""
    eps = np.array(eps_list, dtype=float)
    (m00, m01), (m10, m11) = game_matrices(coeffs).G.tolist()
    m11 = m11 + eps
    with np.errstate(over="ignore", invalid="ignore"):
        z_f, v_f = solve2_entries_reference(m00, m01, m10, m11, z0, w0 - sign * coeffs.bound)
        value = (z_f * m00 - v_f * m10) * z_f + (z_f * m01 - v_f * m11) * v_f
        w_f = sign * coeffs.bound + eps * v_f
    return z_f, v_f, value, w_f


# -- the Pade-13 exponential as it stood before its 1-norms and identity
# terms dropped numpy's wrappers: `numerics._powers`, `_pade_ell` and
# `scaled_exp`, verbatim, for bit-for-bit comparison.


def _reference_powers(M):
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
            fewer -= _reference_pade_ell(M * 2.0 ** fewer)
        if fewer > 0:
            scale = 2.0 ** fewer
            s -= fewer
            M, M2, M4, M6 = M * scale, M2 * scale ** 2, M4 * scale ** 4, M6 * scale ** 6
    return s, M, M2, M4, M6


def _reference_pade_ell(M):
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


def pade13_reference(M):
    """(s, Pade-13 approximant of exp(M / 2^s)), as `numerics.scaled_exp`."""
    s, M, M2, M4, M6 = _reference_powers(M)
    b = _PADE13_B
    ident = np.eye(M.shape[0])
    U = M @ (M6 @ (b[13] * M6 + b[11] * M4 + b[9] * M2)
             + b[7] * M6 + b[5] * M4 + b[3] * M2 + b[1] * ident)
    V = (M6 @ (b[12] * M6 + b[10] * M4 + b[8] * M2)
         + b[6] * M6 + b[4] * M4 + b[2] * M2 + b[0] * ident)
    return s, np.linalg.solve(V - U, V + U)


# -- the kernel Gram matrix K and the tail weight mu_e in 50-digit arithmetic
# (mpmath numbers in object arrays): Taylor series at a step short enough
# that no term cancels, then exact doublings; no float exponential is read


def _mp_halvings(t, *mats):
    """k with ||M t||_1 / 2^k <= 1/8 for every M of mats."""
    norm = max(float(np.abs(M).sum(axis=0).max()) for M in mats) * float(t)
    return max(0, math.ceil(math.log2(8.0 * norm))) if norm > 0.0 else 0


def _mp_array(M, mpmath):
    return np.vectorize(mpmath.mpf, otypes=[object])(np.asarray(M, dtype=float))


def _mp_exp(M, t, mpmath):
    """exp(M t): 40 Taylor terms at t / 2^k, then k squarings."""
    k = _mp_halvings(t, M)
    Mh = _mp_array(M, mpmath) * (mpmath.mpf(t) / 2 ** k)
    E = term = _mp_array(np.eye(M.shape[0]), mpmath)
    for m in range(1, 40):
        term = term @ Mh / m
        E = E + term
    for _ in range(k):
        E = E @ E
    return E


def _mp_gramian(X, Y, t, mpmath):
    """int_0^t exp(X' s) e_0 e_0' exp(Y s) ds: the Taylor series of the
    integrand, T_m = (X' T_(m-1) + T_(m-1) Y) / m, integrated termwise over
    [0, h], h = t / 2^k, then k doublings W <- W + Phi_X' W Phi_Y,
    Phi <- Phi^2."""
    k = _mp_halvings(t, X, Y)
    h = mpmath.mpf(t) / 2 ** k
    Xh, Yh = _mp_array(X, mpmath) * h, _mp_array(Y, mpmath) * h
    term = _mp_array(np.zeros((X.shape[0], Y.shape[0])), mpmath)
    term[0, 0] = mpmath.mpf(1)
    W = term.copy()
    for m in range(1, 40):
        term = (Xh.T @ term + term @ Yh) / m
        W = W + term / (m + 1)
    W = W * h
    phi_x, phi_y = _mp_exp(X, h, mpmath), _mp_exp(Y, h, mpmath)
    for _ in range(k):
        W = W + phi_x.T @ W @ phi_y
        phi_x, phi_y = phi_x @ phi_x, phi_y @ phi_y
    return W


def reference_gram(scenario):
    """(K, mu_e) of a scenario in 50-digit arithmetic, as mpmath numbers: K
    the 3x3 Gram matrix of (h_p, h_e, g_e) over [0, t_f]
    (`reduction.kernel_gram`), with x_e = exp(A_e t_c) B_e, and mu_e =
    |P(t_c)|, P(s) = int_0^s D_e exp(A_e r) B_e dr. That is the tail weight
    when g_e keeps one sign on the tail, which a 1024-cell float scan
    asserts. The caller imports mpmath first (`pytest.importorskip`)."""
    import mpmath

    p, e = build_player_ss(scenario.pursuer), build_player_ss(scenario.evader)
    t_f, t_c, n = scenario.t_f, scenario.t_c, e.A.shape[0]
    g = [float(mat_exp(e.A, s)[0] @ e.B) for s in np.linspace(0.0, t_c, 1025)[1:]]
    assert not g or min(g) >= 0.0 or max(g) <= 0.0, "g_e changes sign on the tail"
    with mpmath.workdps(50):
        B_p, B_e = _mp_array(p.B, mpmath), _mp_array(e.B, mpmath)
        x_e = _mp_exp(e.A, t_c, mpmath) @ B_e if t_c else B_e
        W_pp, W_ee = _mp_gramian(p.A, p.A, t_f, mpmath), _mp_gramian(e.A, e.A, t_f, mpmath)
        W_pe = _mp_gramian(p.A, e.A, t_f, mpmath)
        hp_he, hp_ge, he_ge = -(B_p @ W_pe @ B_e), -(B_p @ W_pe @ x_e), B_e @ W_ee @ x_e
        K = np.array([[B_p @ W_pp @ B_p, hp_he, hp_ge],
                      [hp_he, B_e @ W_ee @ B_e, he_ge],
                      [hp_ge, he_ge, x_e @ W_ee @ x_e]], dtype=object)
        if not t_c:
            return K, mpmath.mpf(0)
        M = np.zeros((n + 1, n + 1))
        M[:n, :n], M[:n, n] = e.A, e.B
        return K, abs(_mp_exp(M, t_c, mpmath)[0, n])


# -- the closed-form first-order coefficients: psi(t) = exp(-t) + t - 1 and
# its antiderivatives, the independent oracle of `coefficients` for
# first-order lags


def _psi_series() -> np.ndarray:
    """Power-series coefficients, by exponent, of psi(x) and of the integrals
    over [0, x] of psi(u), u psi(u) and psi(u)^2, from
    psi(u) = sum_{k>=2} (-u)^k / k! and psi(u)^2 = sum_{k>=4} (-u)^k (2^k - 2 - 2k) / k!.
    Below x = 1 the last term kept is under 1e-20 of the sum."""
    table = np.zeros((4, 32))
    for k in range(2, 30):
        term = (-1.0) ** k / math.factorial(k)
        table[0, k] = term
        table[1, k + 1] = term / (k + 1)
        table[2, k + 2] = term / (k + 2)
        if k >= 4:
            table[3, k + 1] = term * (2.0 ** k - 2.0 - 2.0 * k) / (k + 1)
    return table


PSI_SERIES = _psi_series()


def psi(t):
    """Ramp response exp(-t) + t - 1 of a unit first-order lag, for t >= 0.

    Below t = 1 the direct formula loses digits to cancellation (the value
    behaves like t^2/2), so the power series of `PSI_SERIES` is summed there
    instead; either way the result is within a few ulps. Accepts scalars or
    arrays.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # the branch not taken
        series = np.polynomial.polynomial.polyval(t, PSI_SERIES[0])
    out = np.where(t < 1.0, series, np.exp(-t) + t - 1.0)
    if out.ndim == 0:
        return float(out)
    return out


def psi_moments(x: float) -> tuple[float, float, float, float]:
    """psi(x) and the integrals over [0, x] of psi(u), u psi(u) and
    psi(u)^2, each to a few ulps: from the power series below x = 1, where
    the closed forms cancel, and from the closed forms above."""
    if x < 1.0:
        return tuple(float(v) for v in PSI_SERIES @ x ** np.arange(PSI_SERIES.shape[1]))
    e = math.exp(-x)
    p = e + x - 1.0
    return (p, 0.5 * x * x - p, 1.0 - (1.0 + x) * e + x * x * (x / 3.0 - 0.5),
            x * (x * x - 3.0 * x + 3.0) / 3.0 - 2.0 * x * e - 0.5 * math.expm1(-2.0 * x))


def psi_product_integral(x: float, s: float, t: float) -> float:
    """int_0^x psi(u + s) psi(u + t) du for x, s, t >= 0.

    psi(u + s) = e^-s psi(u) + (1 - e^-s) u + psi(s) splits each factor
    into non-negative parts, so the integral is a sum of non-negative terms
    and keeps the relative accuracy of `psi_moments`.
    """
    _, int_psi, int_u_psi, int_psi_sq = psi_moments(x)
    a, c, p = math.exp(-s), -math.expm1(-s), psi_moments(s)[0]
    b, d, q = math.exp(-t), -math.expm1(-t), psi_moments(t)[0]
    return (a * b * int_psi_sq + (a * d + c * b) * int_u_psi + (a * q + p * b) * int_psi
            + c * d * x ** 3 / 3.0 + (c * q + p * d) * x * x / 2.0 + p * q * x)


def first_order_coefficients(tau_p: float, tau_e: float, t_f: float, t_c: float,
                             alpha: float, beta: float, ae_max: float) -> z.GameCoefficients:
    """Game coefficients for first-order controllers from analytic
    antiderivatives of the psi kernels.

    Independent of the matrix-exponential path of `coefficients`; agrees
    with it to better than 1e-8 relative on non-degenerate scenarios. Moved
    here from the library, whose only path is that one.
    """
    # built for its checks: a non-positive or non-finite argument is refused
    scenario = z.first_order_scenario(tau_p, tau_e, t_f, t_c, alpha, beta, ae_max)
    xe = t_f / tau_e
    sigma = t_c / tau_e
    integrals = (tau_p ** 3 * psi_product_integral(t_f / tau_p, 0.0, 0.0),
                 tau_e ** 3 * psi_product_integral(xe, 0.0, 0.0),
                 tau_e ** 3 * psi_product_integral(xe, 0.0, sigma),
                 tau_e ** 3 * psi_product_integral(xe, sigma, sigma))
    mu = tau_e ** 2 * psi_moments(sigma)[1]
    return _assemble(integrals, mu, scenario.alpha, scenario.beta, scenario.ae_max)
