"""Per-layer spans for the traced run, installed from outside the program.

`Tracer.install` replaces each traced public function of zemgame, in every
zemgame module that holds a reference to it, with a wrapper that records a
span; methods and constructors are wrapped on their class. `uninstall`
puts the originals back. Spans are kept as running totals per layer name:

* `calls`: outermost entries (a call nested in a span of the same name,
  such as `h_e` calling `sample_engagement`, belongs to the outer span);
* `ms`: total span time; `self_ms`: span time minus the time of the spans
  it encloses;
* `evals` / `rhs_calls`: integrand and right-hand-side calls made inside
  `quad_adaptive` and `ode_playout`.

Time spent in no span while an operation runs is `unattributed_ms`.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# layer name -> (module, attribute path) of each traced callable
LAYERS = {
    "numerics.mat_exp": [("numerics", "mat_exp")],
    "numerics.quad_adaptive": [("numerics", "quad_adaptive")],
    "numerics.ode_playout": [("numerics", "ode_playout")],
    "numerics.solve2": [("numerics", "solve2")],
    "reduction.Kernels": [("reduction", "Kernels.__init__")],
    "reduction.kernel_samples": [("reduction", "Kernels." + m) for m in
                                 ("sample_engagement", "sample_target", "h_p", "h_e", "g_e")],
    "reduction.coefficients": [("reduction", "coefficients")],
    "reduction.sample_control": [("reduction", "sample_control")],
    "solver.classify": [("solver", "classify")],
    "solver.solve_rg": [("solver", "solve_rg")],
    "solver.solve_urg": [("solver", "solve_urg")],
    "solver.solve_erg": [("solver", "solve_erg")],
    "solver.penalty_sweep": [("solver", "penalty_sweep")],
    "simulate.evaluate_cost": [("simulate", "evaluate_cost")],
    "simulate.playout_reduced": [("simulate", "playout_reduced")],
    "simulate.playout_full": [("simulate", "playout_full")],
    "simulate.saddle_probe": [("simulate", "saddle_probe")],
    "simulate.cross_play": [("simulate", "cross_play")],
    "cli.main": [("cli", "main")],
    "cli.load_scenario": [("cli", "load_scenario")],
    "engagement": [("engagement", name) for name in (
        "build_player_ss", "build_game_ss", "build_relative_ss", "build_evader_ss",
        "first_order_scenario", "initial_zem", "resolve_horizons",
        "ControllerModel.__post_init__", "EngagementScenario.__post_init__",
        "EngagementGeometry.__post_init__")],
}

# the per-layer metrics reported, as (layer, statistic, unit)
METRICS = [
    ("numerics.mat_exp", "calls", "count"), ("numerics.mat_exp", "ms", "ms"),
    ("numerics.quad_adaptive", "calls", "count"), ("numerics.quad_adaptive", "evals", "count"),
    ("numerics.quad_adaptive", "self_ms", "ms"),
    ("numerics.ode_playout", "ms", "ms"), ("numerics.ode_playout", "rhs_calls", "count"),
    ("numerics.solve2", "calls", "count"),
    ("reduction.Kernels", "calls", "count"), ("reduction.Kernels", "ms", "ms"),
    ("reduction.kernel_samples", "calls", "count"),
    ("reduction.coefficients", "self_ms", "ms"),
    ("reduction.sample_control", "calls", "count"), ("reduction.sample_control", "ms", "ms"),
    ("solver.classify", "calls", "count"), ("solver.solve_rg", "self_ms", "ms"),
    ("solver.solve_urg", "self_ms", "ms"), ("solver.solve_erg", "self_ms", "ms"),
    ("solver.penalty_sweep", "ms", "ms"),
    ("simulate.evaluate_cost", "calls", "count"), ("simulate.evaluate_cost", "self_ms", "ms"),
    ("simulate.playout_reduced", "self_ms", "ms"),
    ("simulate.playout_full", "self_ms", "ms"), ("simulate.saddle_probe", "self_ms", "ms"),
    ("simulate.cross_play", "calls", "count"),
    ("cli.main", "self_ms", "ms"), ("cli.load_scenario", "ms", "ms"),
    ("engagement", "ms", "ms"),
]

# the callback argument whose calls are counted, and under which statistic
_COUNTED_ARG = {"numerics.quad_adaptive": "evals", "numerics.ode_playout": "rhs_calls"}


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.top_ms = 0.0  # time inside outermost spans, for unattributed_ms
        self._stack: list[list[float]] = []  # child time of each open span
        self._open: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    def reset(self):
        self.stats.clear()
        self.top_ms = 0.0

    def _wrap(self, layer: str, fn):
        counted = _COUNTED_ARG.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer in self._open:
                return fn(*args, **kwargs)
            stats = self.stats[layer]
            if counted:
                callback = args[0]

                def counting(*a):
                    stats[counted] += 1
                    return callback(*a)

                args = (counting,) + args[1:]
            frame = [0.0]
            self._open.add(layer)
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = (perf_counter() - start) * 1e3
                self._stack.pop()
                self._open.discard(layer)
                stats["calls"] += 1
                stats["ms"] += span
                stats["self_ms"] += span - frame[0]
                if self._stack:
                    self._stack[-1][0] += span
                else:
                    self.top_ms += span

        return traced

    def install(self, package: str = "zemgame"):
        """Wrap every traced callable wherever a zemgame module refers to it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for layer, targets in LAYERS.items():
            for module, path in targets:
                owner = sys.modules["%s.%s" % (package, module)]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapped = self._wrap(layer, original)
                if outer:  # a method or constructor: patch its class once
                    self._patch(owner, attr, original, wrapped)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, original, wrapped)

    def _patch(self, owner, name, original, wrapped):
        setattr(owner, name, wrapped)
        self._patched.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def snapshot(self, divide: float = 1.0) -> dict:
        return {layer: {k: v / divide for k, v in stats.items()}
                for layer, stats in self.stats.items()}


def per_layer(setup: dict, rounds: dict) -> dict:
    """Reported figure of each metric: one set-up plus one round."""
    out = {}
    for layer, stat, unit in METRICS:
        value = setup.get(layer, {}).get(stat, 0.0) + rounds.get(layer, {}).get(stat, 0.0)
        out["%s.%s" % (layer, stat)] = (value, unit)
    return out
