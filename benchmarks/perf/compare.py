"""Gate one set of runs against another, metric by metric.

A *run set* is a JSON file holding a list of the records ``run --out``
appends: any number of runs of any workloads.  For every workload in
both sets and every metric both measured, the gate prints both medians,
their ratio (B over A, the base), the bound ``BENCHMARK.json`` fixes
and a verdict:

``regressed``   B's median is worse than A's by more than the bound;
``unresolved``  the run-to-run spread (inter-quartile range over the
                median, on either side) is wider than the bound, and
                B's runs are not all better than all of A's -- the
                sets cannot tell a change from noise;
``ok``          otherwise.

The wall-clock twins of the gated times (``*_wall_*``) and
``machine_slowdown`` are listed too, for the record, without a verdict.

Exit 1 on any regression, any rise in ``failed_share`` and any
workload whose inputs or answers differ between the sets (they must be
taken with the same seeds); exit 0 otherwise.  This is the gate
``tools/analysis/bench_diff.py`` is not.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any

from benchmarks.perf.metrics import DETAIL, END_TO_END, WALL

__all__ = ["append_record", "load_bounds", "verdict", "main"]

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def append_record(path: Path, record: dict[str, Any]) -> None:
    """Add one run's record to the run set at ``path``."""
    records = json.loads(path.read_text("utf-8")) if path.exists() else []
    records.append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


def load_bounds() -> dict[str, float]:
    """Metric -> bound; a detail metric borrows its gated metric's."""
    spec = json.loads(BENCHMARK_JSON.read_text("utf-8"))
    gated = {m["name"]: float(m["bound"]) for m in spec["end_to_end"]}
    return {**{name: gated[via] for name, (_u, _b, via) in DETAIL.items()},
            **gated}


def _spread(values: list[float]) -> float:
    """Inter-quartile range over the median (0 below four runs)."""
    if len(values) < 4:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[float, float, float, str]:
    """``(median A, median B, B/A, verdict)`` for one metric."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    ratio = med_b / med_a if med_a else float("inf" if med_b else "nan")
    worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if better == "lower":
        b_wins = max(b) < min(a)
    else:
        b_wins = min(b) > max(a)
    if max(_spread(a), _spread(b)) > bound and not b_wins:
        return med_a, med_b, ratio, "unresolved"
    return med_a, med_b, ratio, "regressed" if worse > bound else "ok"


def _by_workload(records: list[dict[str, Any]]
                 ) -> dict[str, list[dict[str, Any]]]:
    out: dict[str, list[dict[str, Any]]] = {}
    for record in records:
        if not record["trace"]:
            out.setdefault(record["workload"], []).append(record)
    return out


def _identity(runs: list[dict[str, Any]]) -> set[tuple]:
    return {(r["stamp"]["seed"], r["stamp"]["workload_digest"],
             r["results_digest"], json.dumps(r["stamp"]["op_counts"]))
            for r in runs}


def main(path_a: Path, path_b: Path) -> int:
    bounds = load_bounds()
    set_a = _by_workload(json.loads(path_a.read_text("utf-8")))
    set_b = _by_workload(json.loads(path_b.read_text("utf-8")))
    directions = {**{k: v[1] for k, v in DETAIL.items()},
                  **{k: v[1] for k, v in END_TO_END.items()}}
    bad = 0
    print(f"A = {path_a}\nB = {path_b}\n")
    print(f"{'workload':<12}{'metric':<30}{'A median':>14}{'B median':>14}"
          f"{'B/A':>8}{'bound':>7}  verdict")
    for workload in sorted(set_a.keys() & set_b.keys()):
        runs_a, runs_b = set_a[workload], set_b[workload]
        same = _identity(runs_a) == _identity(runs_b)
        if not same:
            bad += 1
        names = [n for n in (*END_TO_END, *DETAIL, *WALL)
                 if all(n in r["metrics"] for r in runs_a + runs_b)]
        for name in names:
            a = [r["metrics"][name]["value"] for r in runs_a]
            b = [r["metrics"][name]["value"] for r in runs_b]
            if name in WALL:
                med_a, med_b = statistics.median(a), statistics.median(b)
                print(f"{workload:<12}{name:<30}{med_a:>14.6g}{med_b:>14.6g}"
                      f"{med_b / med_a:>8.3f}{'':>7}  (not gated)")
                continue
            if name == "failed_share":
                med_a, med_b = statistics.median(a), statistics.median(b)
                ratio = float("nan")
                word = "regressed" if max(b) > max(a) else "ok"
            else:
                med_a, med_b, ratio, word = verdict(
                    a, b, directions[name], bounds[name])
            bad += word == "regressed"
            print(f"{workload:<12}{name:<30}{med_a:>14.6g}{med_b:>14.6g}"
                  f"{ratio:>8.3f}{bounds[name]:>7.2f}  {word}")
        print(f"{workload:<12}{'seeds, digests, op counts':<30}"
              f"{'':>43}  {'identical' if same else 'DIFFER'}")
    missing = set_a.keys() ^ set_b.keys()
    if missing:
        print(f"only in one set: {sorted(missing)}")
    print(f"\n{bad} regression(s)" if bad else "\nno regression")
    return 1 if bad else 0
