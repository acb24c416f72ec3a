"""``python -m benchmarks.perf run|compare`` -- the perf ledger's front end.

``run`` generates one workload from ``--seed``, sets the fleet up,
drives the fixed operation stream, verifies the answers, prints every
metric by name and unit, and ends with the one-line JSON result the
benchmark driver reads (``--trace 0``: the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1``: its per-layer metrics, taken from a
second, wrapped pass over the same inputs).  Exit code 0 means every
operation met the generator's expectation and every sampled answer
equalled the oracle's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from benchmarks.perf import compare
from benchmarks.perf.harness import (RunLog, Verdict, build_fleet, calibrate,
                                     results_digest, run_ops, slowdown,
                                     verify)
from benchmarks.perf.layers import (PER_LAYER, expected_counts, layer_metrics,
                                    reconcile, targets)
from benchmarks.perf.metrics import (DETAIL, END_TO_END, WALL, Metric,
                                     peak_rss_mb, resident_mb, run_metrics)
from benchmarks.perf.trace import SpanRecorder, install
from benchmarks.perf.workloads import (N_SHARDS, RUN_SECONDS, WORKLOADS,
                                       Sizing, Workload, build_workload)

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
OUT_DIR = PERF_DIR / "out"


def stamp(seed: int, workload: Workload) -> dict[str, Any]:
    """Where and on what a result was taken (ROADMAP: "on a named CPU")."""
    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(("git", *args), cwd=REPO_ROOT, text=True,
                                  capture_output=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    status = git("status", "--porcelain")
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
        "sizing": vars(workload.sizing),
        "op_counts": workload.op_counts(),
        "workload_digest": workload.digest,
    }


def _traced(workload: Workload, wal_path: str, untraced: RunLog,
            spans_path: Path) -> tuple[Verdict, dict[str, float],
                                       SpanRecorder]:
    """Replay the same stream under the wrappers; derive the waterfall.

    The wrappers go on before set-up so their bookkeeping (which view
    each index last handed out) is warm, the recorder is emptied when
    the measured run starts, and everything is removed before anyone
    verifies answers.
    """
    rec = SpanRecorder()
    with install(rec, targets()) as wrappers, \
            build_fleet(workload, wal_path) as fleet:
        rec.reset()
        log = run_ops(workload, fleet, rec)
        wrappers.remove()
        verdict = verify(workload, fleet, log)
    verdict.check(results_digest(workload, log)
                  == results_digest(workload, untraced),
                  "traced pass ranked differently from the untraced one")
    layer = layer_metrics(
        rec, N_SHARDS, slowdown=log.slowdown,
        overhead_share=(log.wall_seconds() / log.slowdown)
        / (untraced.wall_seconds() / untraced.slowdown) - 1.0)
    kinds = {op.kind for op in workload.ops}
    for note in reconcile(layer, expected_counts(workload, log),
                          reads=bool(kinds & {"query", "video", "sweep"}),
                          writes=workload.writes):
        verdict.check(False, note)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    rec.write_jsonl(str(spans_path))
    return verdict, layer, rec


def _print_metrics(title: str, rows: dict[str, Metric]) -> None:
    print(f"\n{title}")
    for name, (value, unit, n) in rows.items():
        print(f"  {name:<36}{value:>16.6g} {unit:<8} n={n}")


def _print_waterfall(rec: SpanRecorder, layer: dict[str, float]) -> None:
    wall = rec.wall()
    print(f"\nwaterfall (wall-clock self time as a share of the traced "
          f"wall, {wall:.3f} s)")
    times = sorted(rec.self_times().items(), key=lambda kv: -kv[1][0])
    for name, (self_s, calls) in times:
        print(f"  {name:<36}{self_s:>12.4f} s {self_s / wall:>7.1%} "
              f"calls={calls}")
    print("\nper-layer metrics")
    for name, value in layer.items():
        print(f"  {name:<40}{value:>16.6g} {PER_LAYER[name][0]}")


def cmd_run(args: argparse.Namespace) -> int:
    speed = [calibrate()]
    t0 = time.perf_counter()
    workload = build_workload(args.workload, args.seed,
                              Sizing.for_run(args.seconds, args.scale))
    generate_s = time.perf_counter() - t0
    speed.append(calibrate())
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    wal_path = str(OUT_DIR / f"{workload.name}.{os.getpid()}.wal")
    record: dict[str, Any] = {"workload": workload.name,
                              "trace": bool(args.trace),
                              "stamp": stamp(args.seed, workload)}
    print(f"{workload.name}: seed {args.seed}, "
          f"{len(workload.base)} base records, ops {workload.op_counts()}")
    print("load model: in-process, closed loop, one client, one thread; "
          "times are wall-clock / machine_slowdown unless named *_wall_*")

    rss_before = resident_mb()
    t0 = time.perf_counter()
    with build_fleet(workload, wal_path) as fleet:
        setup_wall_s = generate_s + time.perf_counter() - t0
        speed.append(calibrate())
        log = run_ops(workload, fleet)
        # Before verify() builds the oracle: the serving stack's
        # memory, not the checker's.
        rss_mb = peak_rss_mb() - rss_before
        if not args.trace:
            verdict = verify(workload, fleet, log)
    digest = results_digest(workload, log)
    if args.trace:
        verdict, layer, rec = _traced(
            workload, wal_path, log, OUT_DIR / f"{workload.name}.spans.jsonl")
        _print_waterfall(rec, layer)
        reported = {name: {"value": value, "unit": PER_LAYER[name][0]}
                    for name, value in layer.items()}
        record["per_layer"] = reported
    else:
        rows = run_metrics(workload, log, verdict, setup_wall_s=setup_wall_s,
                           setup_slowdown=slowdown(speed), rss_mb=rss_mb)
        _print_metrics("end-to-end (gated by BENCHMARK.json)",
                       {k: rows[k] for k in END_TO_END})
        _print_metrics(f"{workload.name} metrics",
                       {k: rows[k] for k in DETAIL if k in rows})
        _print_metrics("wall-clock (not normalised, not gated)",
                       {k: rows[k] for k in WALL})
        record["metrics"] = {name: {"value": v, "unit": u, "samples": n}
                             for name, (v, u, n) in rows.items()}
        reported = {name: {"value": rows[name][0], "unit": rows[name][1]}
                    for name in END_TO_END}

    record.update(results_digest=digest, attempted=verdict.attempted,
                  failed=verdict.failed, oracle_checks=verdict.oracle_checks)
    print(f"\nworkload digest {workload.digest}\nresults digest  {digest}")
    print(f"verified: {verdict.oracle_checks} answers re-asked of the "
          f"oracle, {verdict.failed} of {verdict.attempted} operations "
          f"failed")
    for note in verdict.notes:
        print(f"  FAILED {note}")
    if args.out:
        compare.append_record(Path(args.out), record)
    print(json.dumps({"correct": verdict.failed == 0,
                      "attempted": verdict.attempted,
                      "failed": verdict.failed, "metrics": reported}))
    return 0 if verdict.failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="City-scale perf ledger (see benchmarks/perf/README.md)")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure one workload")
    run.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=RUN_SECONDS,
                     help="run length the operation counts are scaled to")
    run.add_argument("--scale", type=float, default=1.0,
                     help="shrink corpus and operations (0.01 = smoke)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1), help="1: per-layer waterfall run")
    run.add_argument("--out", help="append this run's record to a JSON file")
    run.set_defaults(func=cmd_run)

    cmp_ = sub.add_parser("compare", help="gate run set B against run set A")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.set_defaults(func=lambda a: compare.main(Path(a.a), Path(a.b)))

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
