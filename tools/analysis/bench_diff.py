#!/usr/bin/env python3
"""Diff freshly-generated ``BENCH_*.json`` summaries against HEAD.

The benchmark suite writes one trajectory file per figure at the repo
root (``benchmarks/conftest.py::bench_export``); CI regenerates them
and this script compares each metric against the committed values,
emitting a GitHub ``::warning`` annotation for any that moved more
than the threshold in the *bad* direction.  The direction comes from
the naming convention the exports already follow:

* keys ending ``_s`` are durations -- lower is better;
* keys ending ``_x`` are speedups/ratios-over-baseline -- higher is
  better;
* keys ending in a rate suffix (``_mb_s``, ``_bundles_s``) are
  throughputs -- higher is better, despite the trailing ``_s``;
* everything else (counts, workload shape, schema stamps) is
  informational and never warned about.

The script is advisory by design: benchmark machines are noisy, so a
regression prints a warning on the PR and **always exits 0** -- the
hard perf gates live inside the benchmarks themselves.  Exit 2 is
reserved for operational errors (not a git checkout, unreadable
JSON), which should fail the step loudly rather than masquerade as a
clean diff.

Usage::

    python tools/analysis/bench_diff.py                  # all BENCH_*.json
    python tools/analysis/bench_diff.py --threshold 0.3 BENCH_foo.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[2]

# Suffix -> (direction, human label).  Longest matching suffix wins,
# independent of table order, so the rate suffixes (whose names still
# end in "_s", units per second) can never be misread as durations by
# a reordered check.  Keys matching no suffix -- bare counters like
# ``faulty_retries`` or ``bundles`` -- are informational and skipped.
SUFFIX_RULES: dict[str, tuple[str, str]] = {
    "_s": ("lower", "slower"),
    "_x": ("higher", "less speedup"),
    "_mb_s": ("higher", "lower throughput"),
    "_bundles_s": ("higher", "lower throughput"),
    "_records_s": ("higher", "lower throughput"),
}


def classify_key(key: str) -> tuple[str, str] | None:
    """``(direction, regression label)`` for a metric key, or ``None``
    when the key carries no perf direction (counts, stamps, strings).

    Precedence is by suffix *length*: ``decode_mb_s`` matches both
    ``_mb_s`` and ``_s``, and the longer, more specific rate suffix
    wins no matter how the table is ordered.
    """
    best: tuple[str, str] | None = None
    best_len = 0
    for suffix, rule in SUFFIX_RULES.items():
        if key.endswith(suffix) and len(suffix) > best_len:
            best, best_len = rule, len(suffix)
    return best


def committed_version(path: Path) -> dict | None:
    """The file's JSON content at HEAD, or None when new/untracked."""
    rel = path.resolve().relative_to(_REPO_ROOT).as_posix()
    proc = subprocess.run(
        ["git", "-C", str(_REPO_ROOT), "show", f"HEAD:{rel}"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def regressions(old: dict, new: dict, threshold: float
                ) -> list[tuple[str, float, float, float]]:
    """``(key, old, new, fractional change for the worse)`` rows."""
    out: list[tuple[str, float, float, float]] = []
    for key, new_value in sorted(new.items()):
        if not isinstance(new_value, (int, float)) or isinstance(
                new_value, bool):
            continue
        old_value = old.get(key)
        if not isinstance(old_value, (int, float)) or isinstance(
                old_value, bool) or old_value == 0:
            continue
        rule = classify_key(key)
        if rule is None:
            continue
        direction, _label = rule
        if direction == "higher":
            worse = (old_value - new_value) / old_value
        else:
            worse = (new_value - old_value) / old_value
        if worse > threshold:
            out.append((key, float(old_value), float(new_value), worse))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_diff",
        description="warn (never fail) on BENCH_*.json perf regressions "
                    "versus the committed values at HEAD")
    parser.add_argument("files", nargs="*", metavar="BENCH_JSON",
                        help="summary files to diff "
                             "(default: BENCH_*.json at the repo root)")
    parser.add_argument("--threshold", type=float, default=0.20,
                        metavar="FRAC",
                        help="fractional change for the worse that "
                             "triggers a warning (default: 0.20)")
    args = parser.parse_args(argv)

    paths = ([Path(f) for f in args.files] if args.files
             else sorted(_REPO_ROOT.glob("BENCH_*.json")))
    if not paths:
        print("bench_diff: no BENCH_*.json summaries found")
        return 0

    warned = 0
    for path in paths:
        try:
            new = json.loads(path.read_text(encoding="utf-8"))
            old = committed_version(path)
        except (OSError, ValueError) as exc:
            print(f"bench_diff: error: {path}: {exc}")
            return 2
        if old is None:
            print(f"bench_diff: {path.name}: no committed baseline "
                  f"(new file?), skipping")
            continue
        rows = regressions(old, new, args.threshold)
        for key, old_value, new_value, worse in rows:
            _direction, label = classify_key(key)
            print(f"::warning file={path.name}::{path.name}: {key} "
                  f"{old_value:.6g} -> {new_value:.6g} "
                  f"({worse * 100.0:.0f}% {label})")
        warned += len(rows)
        if not rows:
            print(f"bench_diff: {path.name}: within "
                  f"{args.threshold * 100.0:.0f}% of HEAD")
    print(f"bench_diff: {warned} metric(s) regressed beyond "
          f"{args.threshold * 100.0:.0f}% across {len(paths)} file(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
