"""The CLI's output on a fixed corpus of scenario documents, pinned.

Nine verb forms (`FORMS`) run in process on the two repository scenario
files and on the 35 documents of the benchmark's `scenarios` workload at
seed 1, which the corpus holds as copies: 333 runs. Each run's stdout,
stderr and exit status must match the corpus exactly. A `solve --csv`
trajectory is compared by its row count, each column's largest magnitude,
and ten fixed rows, each within 1e-11 of the column's largest magnitude.

The corpus (`corpus.json.gz`) records the numpy version it was written
under. After a change that is meant to move printed output, regenerate it
by hand with

    PYTHONPATH=src python tests/test_corpus.py --regenerate

and list every line that moved in CHANGES.md; the regeneration reads the
documents from `bench/workloads.scenario_set`.
"""

from __future__ import annotations

import contextlib
import difflib
import functools
import gzip
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from zemgame import cli

ROOT = Path(__file__).resolve().parents[1]
CORPUS = Path(__file__).resolve().with_name("corpus.json.gz")
REPOSITORY_FILES = ("study.json", "geometry_mixed_orders.json")
SEED = 1
DOC, CSV = "scenario.json", "trajectory.csv"  # written to the working directory
FORMS = (("classify",), ("solve",), ("solve", "--sign", "+"), ("solve", "--sign", "-"),
         ("sweep", "--sign", "+"), ("sweep", "--sign", "-"), ("table1",),
         ("solve", "--probe", "20", "--seed", "3"), ("solve", "--csv", CSV))
CSV_ROWS = 10  # fixed rows kept of each trajectory
CSV_TOL = 1e-11  # of a column's largest magnitude


def run_forms(doc: dict) -> tuple[list, dict | None]:
    """[exit, stdout, stderr] of each form on the document, written to the
    working directory, and the summary of its `--csv` trajectory (None when
    that run wrote none)."""
    Path(DOC).write_text(json.dumps(doc), encoding="utf-8")
    runs, summary = [], None
    for form in FORMS:
        if os.path.exists(CSV):
            os.remove(CSV)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main([form[0], DOC, *form[1:]])
        runs.append([status, out.getvalue(), err.getvalue()])
        if CSV in form and os.path.exists(CSV):
            summary = csv_summary(np.loadtxt(CSV, delimiter=",", skiprows=1, ndmin=2))
    return runs, summary


def csv_summary(rows: np.ndarray) -> dict:
    """Row count, each column's largest magnitude and `CSV_ROWS` rows spread
    evenly from the first to the last, as `float.hex`."""
    picks = sorted(set(np.linspace(0, rows.shape[0] - 1, CSV_ROWS).round().astype(int).tolist()))
    return {"rows": rows.shape[0], "max": [float(m).hex() for m in np.abs(rows).max(axis=0)],
            "picks": {str(i): [float(v).hex() for v in rows[i]] for i in picks}}


def documents(corpus: dict | None = None) -> list[tuple[str, dict]]:
    """The repository files, read from `scenarios/`, then the copied
    workload documents: from the corpus when given, else from
    `bench/workloads.scenario_set`."""
    docs = [(name, json.loads((ROOT / "scenarios" / name).read_text(encoding="utf-8")))
            for name in REPOSITORY_FILES]
    if corpus is not None:
        return docs + [(name, doc) for name, doc in corpus["documents"]]
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import scenario_set
    return docs + [("seed%d/%s" % (SEED, name), doc) for name, doc in scenario_set(ROOT, SEED)]


@functools.cache
def corpus() -> dict:
    with gzip.open(CORPUS, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def regenerate(work_dir: Path) -> None:
    """Write the corpus from the current code. By hand only."""
    docs = documents()
    os.chdir(work_dir)
    record = {"numpy": np.__version__, "python": sys.version.split()[0],
              "seed": SEED, "forms": [list(f) for f in FORMS],
              "documents": docs[len(REPOSITORY_FILES):], "runs": {}, "csv": {}}
    for name, doc in docs:
        record["runs"][name], record["csv"][name] = run_forms(doc)
    with gzip.GzipFile(CORPUS, "wb", mtime=0) as fh:
        fh.write(json.dumps(record, indent=0, sort_keys=True).encode("utf-8"))


def _diff(want: str, got: str) -> str:
    lines = difflib.unified_diff(want.splitlines(), got.splitlines(), "corpus", "now", n=0,
                                 lineterm="")
    return "\n".join(list(lines)[:12])


def _csv_mismatches(want: dict, got: dict | None) -> list[str]:
    if got is None or got["rows"] != want["rows"] or got["picks"].keys() != want["picks"].keys():
        return ["trajectory: %r rows, want %r" % (got and got["rows"], want["rows"])]
    scale = np.array([float.fromhex(m) for m in want["max"]])
    bad = []
    if not (np.abs(np.array([float.fromhex(m) for m in got["max"]]) - scale)
            <= CSV_TOL * scale).all():
        bad.append("trajectory column maxima %s, want %s" % (got["max"], want["max"]))
    for i, row in want["picks"].items():
        now = np.array([float.fromhex(v) for v in got["picks"][i]])
        if not (np.abs(now - [float.fromhex(v) for v in row]) <= CSV_TOL * scale).all():
            bad.append("trajectory row %s: %s, want %s" % (i, got["picks"][i], row))
    return bad


def test_corpus_covers_the_forms():
    """The corpus holds every form on every document: 333 runs."""
    pinned = corpus()
    assert [tuple(f) for f in pinned["forms"]] == list(FORMS)
    assert len(pinned["documents"]) == 35
    names = [name for name, _ in documents(corpus=pinned)]
    assert sorted(pinned["runs"]) == sorted(names)
    assert sum(map(len, pinned["runs"].values())) == 333


@pytest.mark.parametrize("name, doc", documents(corpus=corpus()) if CORPUS.exists() else [],
                         ids=lambda x: x if isinstance(x, str) else "")
def test_output_unchanged(tmp_path, monkeypatch, name, doc):
    """Exit status, stdout and stderr of every form exactly as pinned, and
    the `--csv` trajectory within `CSV_TOL`; a mismatch names the form and
    its first differing lines."""
    pinned = corpus()
    monkeypatch.chdir(tmp_path)
    runs, summary = run_forms(doc)
    problems = []
    for form, (status, out, err), (want_status, want_out, want_err) in zip(
            FORMS, runs, pinned["runs"][name]):
        if (status, out, err) != (want_status, want_out, want_err):
            problems.append("%s: exit %d (want %d)\n%s\n%s" % (
                " ".join(form), status, want_status, _diff(want_out, out), _diff(want_err, err)))
    want_csv = pinned["csv"][name]
    if want_csv is not None:
        problems += _csv_mismatches(want_csv, summary)
    elif summary is not None:
        problems.append("a trajectory was written where the corpus has none")
    assert not problems, "%s (corpus written under numpy %s):\n%s" % (
        name, pinned["numpy"], "\n".join(problems))


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_corpus.py --regenerate")
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
    print("wrote %s" % CORPUS)
