"""Independent reference computations for the benchmark's checks.

Nothing here imports zemgame. Scenarios arrive as the JSON documents the
benchmark writes (the format of `scenarios/*.json`), and every game quantity
is rebuilt from them:

* each player's position response to a unit command impulse,
  y(s) = e1' exp(A s) B, from its own (y, ydot, controller) block;
* the kernels h_p(t) = -y_p(t_f - t), h_e(t) = y_e(t_f - t) and
  g_e(t) = y_e(t_f + t_c - t);
* the integrals behind G, `a` and `bound`: by scipy.integrate.quad on the
  closed-form psi responses for first-order lags, and by composite
  Gauss-Legendre panels over scipy.linalg.expm for every other controller;
* region, value, terminals, penalized solves and cross-play costs from the
  closed forms of the reduced game.

`estimate` is the numpy-only variant used while generating inputs, so that
scipy is not loaded (and not counted in peak memory) before the timed phase.
"""

from __future__ import annotations

import math

import numpy as np

GL_NODES = 10
_X, _W = np.polynomial.legendre.leggauss(GL_NODES)
_X01, _W01 = 0.5 * (_X + 1.0), 0.5 * _W


# -- scenario documents ------------------------------------------------------


def player_block(node: dict) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) of one player's block, state (y, ydot, controller state)."""
    if "first_order_tau" in node:
        tau = float(node["first_order_tau"])
        ctrl_A, ctrl_b, ctrl_c, feed = [[-1.0 / tau]], [1.0 / tau], [1.0], 0.0
    else:
        ctrl_A, ctrl_b, ctrl_c, feed = node["A"], node["b"], node["c"], node["d"]
    n = len(ctrl_b)
    A = np.zeros((n + 2, n + 2))
    A[0, 1] = 1.0
    if n:
        A[1, 2:] = ctrl_c
        A[2:, 2:] = np.asarray(ctrl_A, dtype=float).reshape(n, n)
    B = np.zeros(n + 2)
    B[1] = feed
    B[2:] = ctrl_b
    return A, B


def horizons(doc: dict) -> tuple[float, float]:
    h = doc["horizon"]
    t_f = float(h["t_f"])
    return t_f, float(h["t_c"]) if "t_c" in h else float(h["nu"]) * t_f


def initial_position(doc: dict) -> tuple[float, float]:
    init = doc["initial"]
    if "z0" in init:
        return float(init["z0"]), float(init["w0"])
    t_f, t_c = horizons(doc)
    ve = init["Ve"] * init["phi_e0"]
    return t_f * (ve - init["Vp"] * init["phi_p0"]), (t_f + t_c) * ve


# -- position responses --------------------------------------------------------


def expm_taylor(M: np.ndarray) -> np.ndarray:
    """exp(M) by scaling and squaring a degree-18 Taylor sum (numpy only)."""
    norm = float(np.abs(M).sum(axis=0).max()) if M.size else 0.0
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    X = M / 2.0 ** squarings
    E = term = np.eye(M.shape[0])
    for j in range(1, 19):
        term = term @ X / j
        E = E + term
    for _ in range(squarings):
        E = E @ E
    return E


def _power_rows(A, start: float, step: float, count: int, expm) -> np.ndarray:
    """Rows e1' exp(A (start + k step)) for k = 0..count-1.

    Built by doubling: rows [m, 2m) are rows [0, m) times exp(A m step), so
    the work is a dozen matrix products and two exponentials.
    """
    rows = np.zeros((count, A.shape[0]))
    rows[0, 0] = 1.0
    if start:
        rows[0] = rows[0] @ expm(A * start)
    E = expm(A * step)
    m = 1
    while m < count:
        k = min(m, count - m)
        rows[m:m + k] = rows[:k] @ E
        E = E @ E
        m += k
    return rows


def uniform_response(A, B, start: float, step: float, n: int, expm) -> np.ndarray:
    """y(start + k*step) for k = 0..n."""
    return _power_rows(A, start, step, n + 1, expm) @ B


def _simpson(values: np.ndarray, step: float) -> float:
    return step / 3.0 * float(values[0] + values[-1] + 4.0 * values[1:-1:2].sum()
                              + 2.0 * values[2:-1:2].sum())


def estimate(doc: dict, panels: int = 4000) -> dict:
    """Integrals by composite Simpson on uniform responses, numpy only.

    Accurate enough to choose beta above its threshold and to place
    positions relative to the strip; never used to check a result.
    """
    t_f, t_c = horizons(doc)
    A_p, B_p = player_block(doc["players"]["pursuer"])
    A_e, B_e = player_block(doc["players"]["evader"])
    h = t_f / panels
    y_p = uniform_response(A_p, B_p, 0.0, h, panels, expm_taylor)
    y_e = uniform_response(A_e, B_e, 0.0, h, panels, expm_taylor)
    y_g = uniform_response(A_e, B_e, t_c, h, panels, expm_taylor)
    y_tail = uniform_response(A_e, B_e, 0.0, t_c / panels, panels, expm_taylor) if t_c else None
    return _assemble(doc, _simpson(y_p ** 2, h), _simpson(y_e ** 2, h),
                     _simpson(y_e * y_g, h), _simpson(y_g ** 2, h),
                     _simpson(np.abs(y_tail), t_c / panels) if t_c else 0.0)


# -- reference coefficients ------------------------------------------------------


def _psi_response(tau: float):
    return lambda s: tau * (math.expm1(-s / tau) + s / tau)


def _gl_values(A, B, start: float, length: float, panels: int, expm) -> np.ndarray:
    """y at the Gauss-Legendre nodes of `panels` equal panels on
    [start, start + length], as a (panels, GL_NODES) array."""
    H = length / panels
    offsets = np.stack([expm(A * (H * x)) @ B for x in _X01])  # (GL_NODES, dim)
    return _power_rows(A, start, H, panels, expm) @ offsets.T


def _gl_integrals(A_p, B_p, A_e, B_e, t_f, t_c, expm, rtol=1e-13, max_panels=1 << 16):
    """(I_pp, I_ee, I_eg, I_gg) by composite Gauss-Legendre, doubling the
    panel count until every integral moves by less than rtol."""
    previous = None
    panels = 8
    while panels <= max_panels:
        w = np.tile(_W01 * (t_f / panels), (panels, 1))
        y_p = _gl_values(A_p, B_p, 0.0, t_f, panels, expm)
        y_e = _gl_values(A_e, B_e, 0.0, t_f, panels, expm)
        y_g = _gl_values(A_e, B_e, t_c, t_f, panels, expm)
        current = np.array([np.sum(w * y_p ** 2), np.sum(w * y_e ** 2),
                            np.sum(w * y_e * y_g), np.sum(w * y_g ** 2)])
        if previous is not None and (np.abs(current - previous)
                                     <= rtol * np.abs(current).max()).all():
            return tuple(float(v) for v in current)
        previous = current
        panels *= 2
    raise RuntimeError("reference quadrature did not converge")


def _quad(f, a, b):
    from scipy.integrate import quad

    value, _ = quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=1000)
    return value


def _abs_integral(y, y_grid: np.ndarray, t_c: float) -> float:
    """int_0^t_c |y|, split at the sign changes seen on a uniform grid."""
    from scipy.optimize import brentq

    grid = np.linspace(0.0, t_c, y_grid.size)
    flips = np.nonzero(np.sign(y_grid[:-1]) * np.sign(y_grid[1:]) < 0)[0]
    roots = [brentq(y, grid[i], grid[i + 1], xtol=1e-15) for i in flips]
    cuts = [0.0, *roots, t_c]
    return sum(abs(_quad(y, lo, hi)) for lo, hi in zip(cuts, cuts[1:]))


def coefficients(doc: dict) -> dict:
    """Reference G, a, bound and friends for a scenario document."""
    from scipy.linalg import expm

    t_f, t_c = horizons(doc)
    players = doc["players"]
    A_p, B_p = player_block(players["pursuer"])
    A_e, B_e = player_block(players["evader"])
    first_order = all("first_order_tau" in players[k] for k in ("pursuer", "evader"))
    if first_order:
        y_p = _psi_response(float(players["pursuer"]["first_order_tau"]))
        y_e = _psi_response(float(players["evader"]["first_order_tau"]))
        ints = (_quad(lambda s: y_p(s) ** 2, 0.0, t_f),
                _quad(lambda s: y_e(s) ** 2, 0.0, t_f),
                _quad(lambda s: y_e(s) * y_e(s + t_c), 0.0, t_f),
                _quad(lambda s: y_e(s) ** 2, t_c, t_c + t_f))
        y_tail = y_e
    else:
        ints = _gl_integrals(A_p, B_p, A_e, B_e, t_f, t_c, expm)

        def y_tail(s):
            return float(expm(A_e * s)[0] @ B_e)

    mu = 0.0
    if t_c:
        grid = uniform_response(A_e, B_e, 0.0, t_c / 2000, 2000, expm)
        mu = _abs_integral(y_tail, grid, t_c)
    return _assemble(doc, *ints, mu)


def _assemble(doc: dict, I_pp, I_ee, I_eg, I_gg, mu) -> dict:
    w = doc["weights"]
    alpha, beta = float(w["alpha"]), float(w["beta"])
    t_f, t_c = horizons(doc)
    nu_p, nu_e = I_pp / alpha, I_ee / beta
    s = 1.0 + nu_p - nu_e
    G2, G3 = I_eg / beta, I_gg / beta
    G = np.array([[s, G2], [-G2, G3]])
    return dict(alpha=alpha, beta=beta, t_f=t_f, t_c=t_c, beta_star=I_ee,
                nu_p=nu_p, nu_e=nu_e, s=s, G2=G2, G3=G3, a=G2 / s,
                bound=mu * float(doc["evader_bound"]["ae_max"]), G=G,
                G_bar=np.linalg.inv(G).T @ np.diag([1.0, -1.0]))


# -- reduced-game closed forms ---------------------------------------------------


def region(c: dict, z0: float, w0: float) -> tuple[str, float]:
    """Region label and signed margin, as `classify` defines them."""
    m = w0 + c["a"] * z0
    if m >= c["bound"]:
        return "OmegaPlus", m - c["bound"]
    if m <= -c["bound"]:
        return "OmegaMinus", m + c["bound"]
    return "Omega", abs(m) - c["bound"]


def branch(c: dict, z0: float, w0: float, sign: int) -> dict:
    """Equality branch pinned at w_f = sign*bound: omega = G^-1 (chi0 + gamma),
    value (chi0 + gamma)' G_bar (chi0 + gamma)."""
    b = np.array([z0, w0 - sign * c["bound"]])
    omega = np.linalg.solve(c["G"], b)
    return dict(omega=omega, z_f=float(omega[0]), w_f=sign * c["bound"],
                value=float(b @ c["G_bar"] @ b),
                z_f_scale=float(np.abs(np.linalg.inv(c["G"])[0]) @ np.abs(b)),
                value_scale=float(np.abs(b) @ np.abs(c["G_bar"]) @ np.abs(b)))


def solution(c: dict, z0: float, w0: float) -> dict:
    """What `solve_rg` should return at (z0, w0), with the natural scale of
    each quantity (`<name>_scale`) for tolerance bands; `strip_unit_cost`
    supplies the strip value on the solver's own grid."""
    label, margin = region(c, z0, w0)
    if label == "Omega":
        value = z0 * z0 / c["s"]
        out = dict(z_f=z0 / c["s"], w_f=w0 + c["a"] * z0, value=value,
                   z_f_scale=abs(z0 / c["s"]), value_scale=abs(value))
    else:
        out = branch(c, z0, w0, 1 if label == "OmegaPlus" else -1)
    out.update(region=label, margin=margin,
               w_f_scale=abs(w0) + abs(c["a"] * z0) + c["bound"])
    return out


def penalized(c: dict, z0: float, w0: float, sign: int, eps: float) -> dict:
    """Penalized game: (G + diag(0, eps)) omega = chi0 + gamma."""
    M = c["G"] + np.diag([0.0, eps])
    omega = np.linalg.solve(M, np.array([z0, w0 - sign * c["bound"]]))
    return dict(omega=omega, value=float(omega @ np.diag([1.0, -1.0]) @ M @ omega),
                w_f=sign * c["bound"] + eps * float(omega[1]))


def cross_cost(c: dict, z0: float, w0: float, pursuer_omega, evader_omega) -> float:
    """J of u_p = -(z_i/alpha) h_p against u_e = (z_j h_e - v_j g_e)/beta,
    from the kernel integrals alone."""
    zi = float(pursuer_omega[0])
    zj, vj = float(evader_omega[0]), float(evader_omega[1])
    z_f = z0 - zi * c["nu_p"] + zj * c["nu_e"] - vj * c["G2"]
    return (z_f * z_f + zi * zi * c["nu_p"]
            - (zj * zj * c["nu_e"] - 2.0 * zj * vj * c["G2"] + vj * vj * c["G3"]))


def strip_unit_cost(doc: dict, c: dict, grid_nodes: int) -> float:
    """Strip value for z0 = 1 as the solver evaluates it: composite Simpson
    panels of the unconstrained pair on a uniform grid of `grid_nodes`."""
    from scipy.linalg import expm

    t_f, _ = horizons(doc)
    A_p, B_p = player_block(doc["players"]["pursuer"])
    A_e, B_e = player_block(doc["players"]["evader"])
    n = 2 * (grid_nodes - 1)
    # refined grid, ascending in t: y(t_f - t) read backwards
    y_p = uniform_response(A_p, B_p, 0.0, t_f / n, n, expm)[::-1]
    y_e = uniform_response(A_e, B_e, 0.0, t_f / n, n, expm)[::-1]
    u_p = y_p / (c["alpha"] * c["s"])
    u_e = y_e / (c["beta"] * c["s"])

    def simpson(f):
        return t_f / (grid_nodes - 1) / 6.0 * float(np.sum(f[:-1:2] + 4.0 * f[1::2] + f[2::2]))

    z_f = 1.0 + simpson(-y_p * u_p + y_e * u_e)
    return z_f * z_f + c["alpha"] * simpson(u_p ** 2) - c["beta"] * simpson(u_e ** 2)
