"""The three workloads: seeded inputs, set-up, one round of operations, and
the independent check of each operation's result.

Every workload is a fixed list of operations (one round) that the timed loop
replays whole. Inputs depend only on the seed; the program sees only the
generated inputs (scenario files and positions). Results are reduced to
plain Python values inside the operation, so that repeats can be compared
for exact equality and the first round's results checked against `oracle`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

RTOL = 1e-8     # relative band for every value checked against the oracle
FLOOR = 1e-10   # share of the quantity's natural scale added to the band
STRIP_RTOL = 1e-6  # the solver's own band between the strip value and z0^2/s
GRID_NODES = 2001  # the solver's default grid
OFF_GRID_NODES = 2500  # a grid whose refined nodes miss the kernel build grid
TABLE_MINUS_MINUS = 2431.135  # study (-,-) cross-play entry at (-100, -20)
TABLE_PIN_TOL = 5e-4  # the pinned entry is given to three decimals
STUDY_VERIFY_POSITIONS = ((100.0, -100.0), (100.0, -50.0), (100.0, 50.0), (-100.0, -20.0))
PROBE_TRIALS = 100
KINDS = ("Omega", "OmegaPlus", "OmegaMinus")


@dataclasses.dataclass
class Bundle:
    """A set-up workload: one round of named operations and their check."""

    ops: list[tuple[str, Callable[[], object]]]
    check: Callable[[str, object], list[str]]  # problems with one result; [] if correct


def close(x: float, ref: float, scale: float = 0.0, rtol: float = RTOL) -> bool:
    return abs(x - ref) <= rtol * abs(ref) + FLOOR * scale


def _load_doc(root: Path, name: str) -> dict:
    return json.loads((root / "scenarios" / name).read_text(encoding="utf-8"))


def _position(rng, est: dict, kind: str) -> tuple[float, float]:
    """A position of the given region kind, placed by the numpy estimate of
    `a` and `bound` with a margin of at least a tenth of the strip width."""
    z0 = float(rng.choice((-1.0, 1.0)) * rng.uniform(20.0, 150.0))
    bound = est["bound"]
    scale = max(bound, 20.0)
    if kind == "Omega":
        m = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.8) * bound)
    else:
        m = (1.0 if kind == "OmegaPlus" else -1.0) * (bound + rng.uniform(0.2, 1.5) * scale)
    return z0, m - est["a"] * z0


def _scenario_doc(pursuer: dict, evader: dict, t_f: float, t_c: float, rng) -> dict:
    doc = {
        "players": {"pursuer": pursuer, "evader": evader},
        "horizon": {"t_f": t_f, "t_c": t_c},
        "weights": {"alpha": float(rng.uniform(0.05, 0.2)), "beta": 1.0},
        "evader_bound": {"ae_max": float(rng.uniform(50.0, 120.0))},
        "initial": {"z0": 0.0, "w0": 0.0},
    }
    # beta a random factor above the estimated solvability threshold
    doc["weights"]["beta"] = oracle.estimate(doc)["beta_star"] * float(rng.uniform(1.5, 2.5))
    return doc


def random_controller(rng, order: int, feed: bool) -> dict:
    """A stable controller of the given order, A with a dominant negative
    diagonal; order 0 is a pure gain."""
    if order == 0:
        return {"A": [], "b": [], "c": [], "d": float(rng.uniform(0.6, 1.4))}
    A = -np.diag(rng.uniform(1.5, 4.0, order)) + 0.3 * rng.standard_normal((order, order))
    A -= (max(0.0, float(np.linalg.eigvals(A).real.max())) + 0.5) * np.eye(order)
    return {"A": A.tolist(), "b": rng.uniform(0.5, 2.0, order).tolist(),
            "c": rng.uniform(0.5, 2.0, order).tolist(),
            "d": float(rng.uniform(0.2, 0.8)) if feed else 0.0}


def oscillator(omega: float, zeta: float) -> dict:
    """Lightly damped second-order evader: a'' + 2 zeta omega a' + omega^2 a = omega^2 u."""
    return {"A": [[0.0, 1.0], [-omega ** 2, -2.0 * zeta * omega]],
            "b": [0.0, omega ** 2], "c": [1.0, 0.0], "d": 0.0}


def _lag(tau: float) -> dict:
    return {"first_order_tau": tau}


# -- scenarios -----------------------------------------------------------------------

# Oscillators stop at 160 rad/s: from about 250 up, `coefficients` misses
# its 1e-10 quadrature tolerance on some seeds (see CHANGES.md).
OSCILLATOR_OMEGAS = (10.0, 20.0, 40.0, 80.0, 160.0)
LONG_HORIZONS = (10.0, 25.0, 50.0)
HORIZON_SEED = 0  # horizons do not follow --seed (see scenario_set)


def scenario_set(root: Path, seed: int) -> list[tuple[str, dict]]:
    """The 35 scenario documents of the `scenarios` workload.

    Member kinds, controller orders, omegas and horizons are the same for
    every seed, so that the work of a round (adaptive quadrature panels,
    matrix-exponential squarings) barely depends on it. The seed draws the
    controller entries, damping, weights and positions.
    """
    streams = iter(np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(128))
    fixed = np.random.default_rng(HORIZON_SEED)

    def horizon(t_f_range, t_c_range):
        return float(fixed.uniform(*t_f_range)), float(fixed.uniform(*t_c_range))

    members = [("study", _load_doc(root, "study.json")),
               ("mixed_orders", _load_doc(root, "geometry_mixed_orders.json"))]
    for k in range(11):  # random controllers, orders 0..10 on each side
        for rep, evader_order in enumerate(((3 * k) % 11, (3 * k + 5) % 11)):
            rng = next(streams)
            members.append(("random_%d_%d" % (k, evader_order), _scenario_doc(
                random_controller(rng, k, feed=rep == 0),
                random_controller(rng, evader_order, feed=rep == 1),
                *horizon((0.8, 1.4), (0.4, 1.0)), rng)))
    members.append(("stiff_pursuer", _scenario_doc(
        _lag(1e-5), _lag(0.1), *horizon((0.8, 1.2), (0.5, 1.0)), next(streams))))
    members.append(("stiff_evader", _scenario_doc(
        _lag(0.2), _lag(1e-5), *horizon((0.8, 1.2), (0.5, 1.0)), next(streams))))
    for t_f in LONG_HORIZONS:
        members.append(("long_%g" % t_f, _scenario_doc(
            _lag(0.2), _lag(0.1), t_f, t_f * float(fixed.uniform(0.3, 0.8)), next(streams))))
    members.append(("t_c_zero", _scenario_doc(
        _lag(0.2), _lag(0.1), float(fixed.uniform(0.8, 1.2)), 0.0, next(streams))))
    for omega in OSCILLATOR_OMEGAS:
        rng = next(streams)
        members.append(("oscillator_%g" % omega, _scenario_doc(
            _lag(0.2), oscillator(omega, float(rng.uniform(0.03, 0.08))),
            1.0, float(fixed.uniform(0.5, 1.0)), rng)))
    # positions: a third in the strip, cycling over the members; the two
    # repository files keep their own positions; t_c = 0 has no strip
    for i, (name, doc) in enumerate(members[2:], start=2):
        kind = KINDS[i % 3]
        if name == "t_c_zero" and kind == "Omega":
            kind = "OmegaPlus"
        z0, w0 = _position(next(streams), oracle.estimate(doc), kind)
        doc["initial"] = {"z0": z0, "w0": w0}
    return members


def _parse_solve(out: str) -> dict:
    got = {}
    for line in out.splitlines():
        if line.startswith("region: "):
            got["region"] = line[len("region: "):]
        m = re.match(r"(value|z_f|w_f)\s+(\S+)\s+\[", line)
        if m:
            got[m.group(1)] = float(m.group(2))
    return got


def check_solution(got: dict, want: dict) -> list[str]:
    """Region, value, z_f and w_f of one solve against the reference."""
    problems = []
    if got.get("region") != want["region"]:
        return ["region %r, expected %r" % (got.get("region"), want["region"])]
    for key in ("value", "z_f", "w_f"):
        if key not in got:
            problems.append("%s missing" % key)
        elif not close(got[key], want[key], want["%s_scale" % key]):
            problems.append("%s %.15g, expected %.15g" % (key, got[key], want[key]))
    if want["region"] == "Omega" and "value" in got and not close(
            got["value"], want["closed_value"], 1.0, STRIP_RTOL):
        problems.append("strip value %.15g off z0^2/s = %.15g" % (got["value"], want["closed_value"]))
    return problems


def expected_solution(doc: dict, coeffs: dict, z0: float, w0: float,
                      strip_unit: float | None = None) -> dict:
    """Reference solution with the scale of each quantity for the band.

    In the strip the value is the solver's own Simpson evaluation of the
    unconstrained pair (`strip_unit` * z0^2), kept beside z0^2/s.
    """
    want = oracle.solution(coeffs, z0, w0)
    if want["region"] == "Omega":
        if strip_unit is None:
            strip_unit = oracle.strip_unit_cost(doc, coeffs, GRID_NODES)
        want["closed_value"] = want["value"]
        want["value"] = strip_unit * z0 * z0
        want["value_scale"] = abs(want["value"])
    return want


def setup_scenarios(zg, root: Path, seed: int, work_dir: Path) -> Bundle:
    members = scenario_set(root, seed)
    paths = {}
    for i, (name, doc) in enumerate(members):
        path = work_dir / ("%02d_%s.json" % (i, name))
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = str(path)
    order = np.random.default_rng([seed, 1]).permutation(len(members))
    docs = dict(members)

    def solve(path: str) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = zg.cli.main(["solve", path])
        if code != 0:
            raise RuntimeError("exit %d: %s" % (code, err.getvalue().strip()))
        return out.getvalue()

    def check(name: str, out: str) -> list[str]:
        doc = docs[name]
        return check_solution(_parse_solve(out), expected_solution(
            doc, oracle.coefficients(doc), *oracle.initial_position(doc)))

    ops = [(members[i][0], (lambda p=paths[members[i][0]]: solve(p))) for i in order]
    return Bundle(ops=ops, check=check)


# -- positions -----------------------------------------------------------------------

BATCH_PER_KIND = 10   # positions of each region kind in one batch
BATCHES_PER_SCENARIO = 4


def setup_positions(zg, root: Path, seed: int, work_dir: Path) -> Bundle:
    rng = np.random.default_rng([seed, 2])
    files = {"study": "study.json", "mixed_orders": "geometry_mixed_orders.json"}
    docs = {name: _load_doc(root, file) for name, file in files.items()}
    docs["random_3_3"] = _scenario_doc(random_controller(rng, 3, feed=False),
                                       random_controller(rng, 3, feed=True), 1.15, 0.65, rng)
    solved = {}
    for name, doc in docs.items():
        if name in files:
            scenario, _ = zg.cli.load_scenario(str(root / "scenarios" / files[name]))
        else:
            scenario = zg.cli.scenario_from_document(doc)
        kernels = zg.Kernels(scenario)
        solved[name] = (scenario, zg.coefficients(scenario, kernels))
    estimates = {name: oracle.estimate(doc) for name, doc in docs.items()}
    batches = []
    for b in range(BATCHES_PER_SCENARIO * len(docs)):
        name = list(docs)[b % len(docs)]
        positions = [_position(rng, estimates[name], kind)
                     for kind in KINDS for _ in range(BATCH_PER_KIND)]
        batches.append(("%s/%d" % (name, b), name,
                        [positions[i] for i in rng.permutation(len(positions))]))

    def solve_batch(name: str, positions):
        scenario, coeffs = solved[name]
        out = []
        for z0, w0 in positions:
            region = zg.classify(coeffs, z0, w0)
            sol = zg.solve_rg(dataclasses.replace(scenario, z0=z0, w0=w0, geometry=None),
                              coeffs=coeffs)
            out.append((region.label.value, float(region.margin), sol.region.label.value,
                        float(sol.value), float(sol.z_f), float(sol.w_f)))
        return tuple(out)

    references = {}
    by_key = {key: (name, positions) for key, name, positions in batches}

    def check(key: str, result) -> list[str]:
        name, positions = by_key[key]
        if name not in references:
            c = oracle.coefficients(docs[name])
            references[name] = (c, oracle.strip_unit_cost(docs[name], c, GRID_NODES))
        coeffs, unit = references[name]
        problems = []
        for (z0, w0), (label, margin, sol_label, value, z_f, w_f) in zip(positions, result):
            want = expected_solution(docs[name], coeffs, z0, w0, unit)
            if label != sol_label:
                problems.append("classify %s but solve_rg %s at (%g, %g)" % (label, sol_label, z0, w0))
            if not close(margin, want["margin"], want["w_f_scale"]):
                problems.append("margin %.15g, expected %.15g at (%g, %g)"
                                % (margin, want["margin"], z0, w0))
            problems += ["%s at (%g, %g)" % (p, z0, w0) for p in check_solution(
                dict(region=label, value=value, z_f=z_f, w_f=w_f), want)]
        return problems

    ops = [(key, (lambda n=name, p=positions: solve_batch(n, p))) for key, name, positions in batches]
    return Bundle(ops=ops, check=check)


# -- verify --------------------------------------------------------------------------


def setup_verify(zg, root: Path, seed: int, work_dir: Path) -> Bundle:
    rng = np.random.default_rng([seed, 3])
    study_doc = _load_doc(root, "study.json")
    mixed_doc = _load_doc(root, "geometry_mixed_orders.json")
    table_positions = (tuple(study_doc["table1"]["plus"]), tuple(study_doc["table1"]["minus"]))
    cases = {}
    for name, file, doc, positions in (
            ("study", "study.json", study_doc, STUDY_VERIFY_POSITIONS),
            ("mixed_orders", "geometry_mixed_orders.json", mixed_doc,
             (oracle.initial_position(mixed_doc),))):
        base, _ = zg.cli.load_scenario(str(root / "scenarios" / file))
        kernels = zg.Kernels(base)
        coeffs = zg.coefficients(base, kernels)
        for z0, w0 in positions:
            scenario = dataclasses.replace(base, z0=z0, w0=w0, geometry=None)
            cases["%s(%g,%g)" % (name, z0, w0)] = dict(
                name=name, doc=doc, scenario=scenario, kernels=kernels, coeffs=coeffs,
                solution=zg.solve_rg(scenario, coeffs=coeffs),
                probe_seed=int(rng.integers(0, 2 ** 31)))

    def verify(case: dict):
        sc, k, c, sol = case["scenario"], case["kernels"], case["coeffs"], case["solution"]
        probe = zg.saddle_probe(sc, sol, n_trials=PROBE_TRIALS, seed=case["probe_seed"], kernels=k)
        full = zg.playout_full(sc, sol.u_p, sol.u_e, kernels=k)
        reduced = zg.playout_reduced(sc, k, sol.u_p, sol.u_e)
        table = {}
        for z0, w0 in table_positions:
            at = dataclasses.replace(sc, z0=z0, w0=w0, geometry=None)
            branches = {"+": zg.solve_erg_branch(c, z0, w0, 1),
                        "-": zg.solve_erg_branch(c, z0, w0, -1)}
            for i in "+-":
                for j in "+-":
                    table[(z0, w0, i, j)] = float(
                        zg.cross_play(at, branches[i].u_p, branches[j].u_e, k).total)
        sweeps = {sign: tuple((r.eps, r.value, r.w_f, tuple(r.omega_eps.tolist()))
                              for r in zg.penalty_sweep(c, sc.z0, sc.w0, sign))
                  for sign in (1, -1)}
        off_grid = zg.evaluate_cost(sc, k, sol.u_p, sol.u_e,
                                    zg.TimeGrid.uniform(0.0, sc.t_f, OFF_GRID_NODES))
        return dict(probe=(probe.n_trials, probe.evader_worst, probe.pursuer_worst,
                           probe.slack, probe.passed),
                    full_z_f=full.z_f, reduced_z_f=reduced.z_f, reduced_w_f=reduced.w_f,
                    table=table, sweeps=sweeps, off_grid=float(off_grid.total))

    def check(key: str, got) -> list[str]:
        case = cases[key]
        sc, doc = case["scenario"], case["doc"]
        coeffs = oracle.coefficients(doc)
        want = expected_solution(doc, coeffs, sc.z0, sc.w0)
        problems = []
        n, evader_worst, pursuer_worst, slack, passed = got["probe"]
        if not (passed and n == PROBE_TRIALS and evader_worst <= slack and pursuer_worst >= -slack):
            problems.append("saddle probe %r" % (got["probe"],))
        if not close(got["full_z_f"], got["reduced_z_f"], want["z_f_scale"]):
            problems.append("full z_f %.15g vs reduced %.15g" % (got["full_z_f"], got["reduced_z_f"]))
        if not close(got["reduced_z_f"], want["z_f"], want["z_f_scale"]):
            problems.append("reduced z_f %.15g, expected %.15g" % (got["reduced_z_f"], want["z_f"]))
        if not close(got["reduced_w_f"], want["w_f"], want["w_f_scale"]):
            problems.append("reduced w_f %.15g, expected %.15g" % (got["reduced_w_f"], want["w_f"]))
        if not close(got["off_grid"], want["value"], want["value_scale"]):
            problems.append("off-grid cost %.15g, expected %.15g" % (got["off_grid"], want["value"]))
        t = got["table"]
        for (z0, w0), hi, lo in zip(table_positions, "+-", "-+"):
            if not t[(z0, w0, hi, lo)] < t[(z0, w0, hi, hi)] < t[(z0, w0, lo, hi)]:
                problems.append("cross-play ordering at (%g, %g)" % (z0, w0))
            branches = {"+": oracle.branch(coeffs, z0, w0, 1), "-": oracle.branch(coeffs, z0, w0, -1)}
            for i in "+-":
                for j in "+-":
                    ref = oracle.cross_cost(coeffs, z0, w0, branches[i]["omega"], branches[j]["omega"])
                    if not close(t[(z0, w0, i, j)], ref, branches["+"]["value_scale"]):
                        problems.append("cross-play (%s,%s) at (%g, %g): %.15g, expected %.15g"
                                        % (i, j, z0, w0, t[(z0, w0, i, j)], ref))
        if case["name"] == "study" and abs(t[(-100.0, -20.0, "-", "-")] - TABLE_MINUS_MINUS) > TABLE_PIN_TOL:
            problems.append("study (-,-) entry %.9g is not %s" % (t[(-100.0, -20.0, "-", "-")],
                                                               TABLE_MINUS_MINUS))
        for sign, records in got["sweeps"].items():
            final = oracle.branch(coeffs, sc.z0, sc.w0, sign)
            gaps = []
            for eps, value, w_f, omega in records:
                ref = oracle.penalized(coeffs, sc.z0, sc.w0, sign, eps)
                if not (close(value, ref["value"], final["value_scale"])
                        and close(w_f, ref["w_f"], want["w_f_scale"])
                        and all(close(o, r, want["z_f_scale"]) for o, r in zip(omega, ref["omega"]))):
                    problems.append("penalized solve sign %d eps %g off the reference" % (sign, eps))
                gaps.append(float(np.linalg.norm(np.array(omega) - final["omega"])))
            if not all(later < earlier for earlier, later in zip(gaps, gaps[1:])):
                problems.append("penalty sweep %d does not approach its branch" % sign)
        return problems

    order = rng.permutation(len(cases))
    keys = list(cases)
    ops = [(keys[i], (lambda c=cases[keys[i]]: verify(c))) for i in order]
    return Bundle(ops=ops, check=check)


WORKLOADS = {
    # name: (set-up, fewest operations per run, so that each operation runs
    # several rounds and its best time is taken over them)
    "scenarios": (setup_scenarios, 100),
    "positions": (setup_positions, 100),
    "verify": (setup_verify, 40),
}
