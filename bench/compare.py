"""Two sets of benchmark runs of the same tree, and whether they agree.

    python3 bench/compare.py [--runs 10] [--workloads a,b] [--seconds S]

Each run is a fresh `bench/run.py` process with its own seed (set one uses
seeds 1..runs, set two the next `runs` seeds). The sets are interleaved:
for i = 1..runs and each workload, run i of set one, then run i of set two,
so that a change of machine speed over minutes falls on both sets alike.
For every workload and end-to-end metric it prints each set's median and
quartiles, the spread (interquartile distance over the median), the shift
of the second median against the first, and whether they agree within the
metric's bound in BENCHMARK.json: both spreads within the bound, the shift
within the bound either way, and the same share of failed operations in
both sets. All run results are written to bench/results/compare-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("run %s seed %d failed:\n%s" % (workload, seed, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    runs = {}  # (set, workload) -> list of results
    for i in range(args.runs):
        for workload in workloads:
            for s in range(2):
                seed = 1 + s * args.runs + i
                started = time.time()
                result = run_once(workload, seed, args.seconds)
                runs.setdefault((s, workload), []).append(dict(seed=seed, **result))
                print("set %d %-10s seed %3d  %5.1f s  %s" % (
                    s + 1, workload, seed, time.time() - started,
                    " ".join("%s=%.5g" % (k, v["value"]) for k, v in result["metrics"].items())),
                    flush=True)

    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / time.strftime("compare-%Y%m%d-%H%M%S.json", time.gmtime())
    path.write_text(json.dumps({"seconds": args.seconds, "runs": [
        dict(set=s + 1, workload=w, results=r) for (s, w), r in runs.items()]}, indent=1))

    agree = True
    print("\n%-10s %-12s %-5s %-36s %-36s %7s %6s  %s" % (
        "workload", "metric", "unit", "set 1 median [q1, q3] spread",
        "set 2 median [q1, q3] spread", "shift", "bound", "verdict"))
    for workload in workloads:
        sets = [runs[(s, workload)] for s in range(2)]
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in rs]) for rs in sets]
            shift = stats[1][0] / stats[0][0] - 1.0
            ok = (all(spread <= bound for _, _, _, spread in stats) and abs(shift) <= bound
                  and shares[0] == shares[1])
            agree &= ok
            cells = ["%.5g [%.5g, %.5g] %.1f%%" % (median, q1, q3, 100 * spread)
                     for median, q1, q3, spread in stats]
            print("%-10s %-12s %-5s %-36s %-36s %+6.1f%% %5.0f%%  %s" % (
                workload, name, metric["unit"], cells[0], cells[1],
                100 * shift, 100 * bound, "ok" if ok else "OUTSIDE BOUND"))
        print("%-10s failed share per set: %s" % (workload, ", ".join("%.6g" % x for x in shares)))
    print("\nresults written to %s" % path.relative_to(ROOT))
    print("all metrics agree within their bounds" if agree else "SOME METRICS DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
