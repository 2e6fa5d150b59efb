"""Benchmark of the zemgame solver: one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from `src/` of the checkout that
holds this file, never from an installed copy. The process is single
threaded (BLAS pinned to one thread) and runs a closed loop: whole rounds
of the workload's operations, one after the other, until S seconds have
passed and the workload's fewest operations have run.

With --trace 0 it reports the end-to-end metrics; with --trace 1 it reports
the per-layer metrics of a traced run (see spans.py). The independent
checks run after the timed phase, and the last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5    # set-ups per run, before the timed phase; setup_s is their median
DEADLINE_S = 120.0   # no new round starts this long after the first timed one
REPRO_ROWS = 39      # fewest rows `zemgame repro` must print, all passing


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the program."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                    "import zemgame.cli", str(SRC)], check=True)
    return perf_counter() - start


class Loop:
    """Timed closed loop over whole rounds.

    Keeps the first result of each operation and only the repeats that
    differ from it, so memory does not grow with the number of rounds.

    The time metrics rest on each operation's best (least) wall and CPU
    time over the run's rounds. On a shared host the speed of every
    process can change by up to a factor of two over seconds to minutes; a
    mean or median over a run follows the share of the run spent at each
    speed, while an operation's best time only needs one round at full
    speed. Extra work in the program raises the best time like any other.
    """

    def __init__(self):
        self.walls: list[float] = []
        self.best_wall: dict[str, float] = {}  # least wall seconds of each operation
        self.best_cpu: dict[str, float] = {}   # least process CPU seconds of each operation
        self.rounds = 0
        self.first: dict = {}
        self.repeats: dict = {}
        self.diverged: list = []

    def run(self, ops, seconds: float, min_ops: int, deadline: float):
        gc.collect()
        start = perf_counter()
        while True:
            for key, op in ops:
                wall, cpu = perf_counter(), process_time()
                try:
                    result = op()
                except Exception as exc:  # a failing operation is counted, not fatal
                    result = ("raised", repr(exc))
                cpu = process_time() - cpu
                self.walls.append(perf_counter() - wall)
                self.best_wall[key] = min(self.best_wall.get(key, self.walls[-1]), self.walls[-1])
                self.best_cpu[key] = min(self.best_cpu.get(key, cpu), cpu)
                if key not in self.first:
                    self.first[key] = result
                    self.repeats[key] = 0
                elif result == self.first[key]:
                    self.repeats[key] += 1
                else:
                    self.diverged.append((key, result))
            self.rounds += 1
            now = perf_counter()
            if (now - start >= seconds and len(self.walls) >= min_ops) or now >= deadline:
                break

    def ops_per_s(self) -> float:
        """Operations of a round over the sum of their best wall times."""
        return len(self.best_wall) / sum(self.best_wall.values())


def count_failures(loops, check) -> tuple[int, int, list[str]]:
    """(failed operations, failed checks, messages) over all loops."""
    failed = wrong = 0
    messages = []
    verdicts = {}
    for loop in loops:
        outcomes = [(key, result, 1 + loop.repeats[key]) for key, result in loop.first.items()]
        outcomes += [(key, result, 1) for key, result in loop.diverged]
        for key, result, times in outcomes:
            if isinstance(result, tuple) and result[:1] == ("raised",):
                failed += times
                messages.append("FAIL %s: %s" % (key, result[1]))
                continue
            marker = (key, repr(result))
            if marker not in verdicts:
                verdicts[marker] = check(key, result)
                messages += ["FAIL %s: %s" % (key, p) for p in verdicts[marker]]
            if verdicts[marker]:
                failed += times
                wrong += times
    return failed, wrong, messages


def repro_passes(zg) -> bool:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = zg.cli.main(["repro"])
    m = re.search(r"^(\d+)/(\d+) checks passed$", out.getvalue(), re.M)
    return code == 0 and m is not None and m.group(1) == m.group(2) \
        and int(m.group(2)) >= REPRO_ROWS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is first imported, here and in children

    if not (SRC / "zemgame" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print("error: no zemgame sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import zemgame as zg
    import zemgame.cli  # noqa: F401  (operations call zg.cli.main)
    if Path(zg.__file__).resolve().parent != SRC / "zemgame":
        print("error: zemgame imported from %s" % zg.__file__, file=sys.stderr)
        return 2

    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    setup, min_ops = workloads.WORKLOADS[args.workload]

    work_dir = BENCH / "results" / ("work-%d" % os.getpid())
    work_dir.mkdir(parents=True)
    try:
        metrics = {}
        tracer = spans.Tracer()
        if args.trace:
            tracer.install()
            bundle = setup(zg, ROOT, args.seed, work_dir)
            tracer.uninstall()
            setup_stats = tracer.snapshot()
            tracer.reset()
            untraced, traced = Loop(), Loop()
            deadline = perf_counter() + DEADLINE_S
            untraced.run(bundle.ops, args.seconds / 2, 1, deadline)
            tracer.install()
            traced.run(bundle.ops, args.seconds / 2, 1, deadline)
            tracer.uninstall()
            loops = [untraced, traced]
            for name, (value, unit) in spans.per_layer(
                    setup_stats, tracer.snapshot(divide=traced.rounds)).items():
                metrics[name] = (value, unit)
            metrics["unattributed_ms"] = (
                (sum(traced.walls) * 1e3 - tracer.top_ms) / traced.rounds, "ms")
            metrics["trace_overhead"] = (untraced.ops_per_s() / traced.ops_per_s(), "ratio")
        else:
            # Each set-up rebuilds the same inputs; setup_s is their median.
            setups = []
            for _ in range(SETUP_REPEATS):
                imported = import_seconds()
                start = perf_counter()
                bundle = setup(zg, ROOT, args.seed, work_dir)
                setups.append(imported + perf_counter() - start)
            loop = Loop()
            loop.run(bundle.ops, args.seconds, min_ops, perf_counter() + DEADLINE_S)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            loops = [loop]
            metrics = {
                "ops_per_s": (loop.ops_per_s(), "1/s"),
                "op_p50_ms": (statistics.median(loop.best_wall.values()) * 1e3, "ms"),
                "op_cpu_ms": (statistics.fmean(loop.best_cpu.values()) * 1e3, "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "setup_s": (statistics.median(setups), "s"),
            }

        failed, wrong, messages = count_failures(loops, bundle.check)
        repro_ok = repro_passes(zg)
        attempted = sum(len(loop.walls) for loop in loops)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for line in messages[:20]:
        print(line)
    if not repro_ok:
        print("FAIL zemgame repro did not pass every row")
    print("workload %s, seed %d, trace %d: %s rounds, %d operations attempted, %d failed"
          % (args.workload, args.seed, args.trace, "+".join(str(lp.rounds) for lp in loops),
             attempted, failed))
    for name, (value, unit) in metrics.items():
        print("  %-36s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": wrong == 0 and repro_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
