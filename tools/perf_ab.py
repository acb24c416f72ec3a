#!/usr/bin/env python3
"""Alternating A/B runs of the perf ledger: a parent commit against the
working tree.

Usage::

    python3 tools/perf_ab.py --parent REF --workload W --pairs N [--seed S]

Both sides run from fresh ``git archive`` exports in temporary
directories, written the same way: the parent's tree, and the working
tree's -- its tracked files plus the untracked ones git does not
ignore, written as a tree object through a throwaway index.  Neither
side starts with a bytecode cache or a ``.git``, either of which moves
``peak_rss_mb``.  Each pair
runs the ledger's own command (``BENCHMARK.json``: ``python3
benchmarks/perf/run.py --workload W --seed S --seconds <run_seconds>``)
once in each checkout, alternating which side goes first, and reads the
run's last JSON line and its printed workload and results digests.
Nothing under ``benchmarks/perf/`` is touched; each checkout runs its
own copy.

It prints a Markdown table, one row per end-to-end metric of
``BENCHMARK.json``: each side's median and quartiles, the change of the
median, the pairs the working tree won (ties count for neither) and a
verdict, the first of these that holds:

* ``worse``: the median is worse than the parent's by more than the
  metric's bound (the failure rule below);
* ``gain``: the gain is claimable -- at least ten pairs, of which it
  won nine in ten, and medians that differ by more than the parent's
  interquartile range;
* ``unresolved``: the parent's interquartile range is wider than the
  bound's share of its median, so a move within the bound cannot be
  told from noise -- unless every run of the change reads better than
  every run of the parent;
* ``within bound``.

Exit status: 0 when every digest agrees, no operation failed and no
metric's median got worse than the parent's by more than its
``BENCHMARK.json`` bound; 1 otherwise, with the reasons printed; 2 on a
usage error or a run that printed no record.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
#: Fewer pairs than this never make a gain claimable.
MIN_CLAIM_PAIRS = 10


def parse_run(stdout: str) -> dict:
    """A run's record: its last JSON line plus the digests it printed."""
    record: dict | None = None
    digests = {}
    for line in stdout.splitlines():
        line = line.strip()
        for kind in ("workload", "results"):
            prefix = f"{kind} digest"
            if line.startswith(prefix):
                digests[f"{kind}_digest"] = line[len(prefix):].strip()
        if line.startswith("{"):
            record = json.loads(line)
    if record is None:
        raise ValueError("the run printed no JSON record")
    return {**record, **digests}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: list[dict], change: list[dict],
            end_to_end: list[dict]) -> tuple[list[dict], list[str]]:
    """``(rows, failures)`` for pairs of run records, ``parent[i]``
    beside ``change[i]``.

    One row per end-to-end metric; ``failures`` names every reason the
    change is refused: a digest that is not the same on every run, a
    failed operation, or a median worse than the parent's by more than
    the metric's relative ``bound``.
    """
    failures = []
    for key in ("workload_digest", "results_digest"):
        seen = {run.get(key) for run in parent + change}
        if len(seen) != 1:
            failures.append(f"{key} differs across runs: {sorted(map(str, seen))}")
    for side, runs in (("parent", parent), ("change", change)):
        failed = sum(run["failed"] for run in runs)
        if failed:
            failures.append(f"{side}: {failed} operations failed")
    rows = []
    for metric in end_to_end:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        a = [run["metrics"][name]["value"] for run in parent]
        b = [run["metrics"][name]["value"] for run in change]
        qa, qb = quartiles(a), quartiles(b)
        delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        worse = sign * delta > metric["bound"]
        gain = (len(a) >= MIN_CLAIM_PAIRS and wins >= 0.9 * len(a)
                and sign * (qa[1] - qb[1]) > qa[2] - qa[0])
        noisy = qa[2] - qa[0] > metric["bound"] * abs(qa[1])
        every_run_better = max(sign * y for y in b) < min(sign * x for x in a)
        rows.append({
            "name": name, "unit": metric["unit"], "parent": qa, "change": qb,
            "delta": delta, "wins": wins, "pairs": len(a),
            "bound": metric["bound"], "gain": gain,
            "verdict": ("worse" if worse else "gain" if gain
                        else "unresolved" if noisy and not every_run_better
                        else "within bound"),
        })
        if worse:
            failures.append(f"{name}: median {delta:+.1%} against a bound of "
                            f"{metric['bound']:.0%}")
    return rows, failures


def markdown(rows: list[dict], parent: list[dict],
             change: list[dict]) -> str:
    """The comparison as a Markdown table plus the digest line."""
    def cell(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = ["| metric | parent median [q1, q3] | change median [q1, q3] "
             "| Δ median | wins | bound | verdict |",
             "|---|---|---|---|---|---|---|"]
    lines += [f"| `{r['name']}` ({r['unit']}) | {cell(r['parent'])} "
              f"| {cell(r['change'])} | {r['delta']:+.1%} "
              f"| {r['wins']}/{r['pairs']} | {r['bound']:.0%} "
              f"| {r['verdict']} |" for r in rows]
    for key in ("workload_digest", "results_digest"):
        seen = {str(run.get(key))[:12] for run in parent + change}
        verdict = "equal" if len(seen) == 1 else "DIFFER"
        lines.append(f"\n{key}: {verdict} ({', '.join(sorted(seen))})")
    return "\n".join(lines)


def export(ref: str, into: Path, repo: Path = REPO) -> None:
    """Write the tree of ``ref`` into ``into`` with ``git archive``."""
    tar = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar",
                          ref], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def worktree_tree(repo: Path = REPO) -> str:
    """The working tree as a git tree object, for :func:`export`: the
    tracked files as they are on disk plus the untracked ones git does
    not ignore; a tracked file deleted from the tree is left out.  It
    is staged in a throwaway index, so the repository's own index is
    left as it was."""
    with tempfile.TemporaryDirectory(prefix="perf_ab-index-") as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp, "index")))

        def git(*args: str) -> str:
            return subprocess.run(["git", "-C", str(repo), *args], env=env,
                                  check=True, capture_output=True,
                                  text=True).stdout.strip()

        git("read-tree", "HEAD")
        git("add", "-A")
        return git("write-tree")


def run_once(checkout: Path, command: list[str]) -> dict:
    proc = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(command)} in {checkout} exited "
                         f"{proc.returncode}")
    try:
        return parse_run(proc.stdout)
    except ValueError as exc:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git ref to compare to")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    command = [*bench["command"], "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(bench["run_seconds"])]
    parent: list[dict] = []
    change: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="perf_ab-") as tmp:
        old, new = Path(tmp, "parent"), Path(tmp, "change")
        export(args.parent, old)
        export(worktree_tree(), new)
        for pair in range(args.pairs):
            sides = [(old, parent), (new, change)]
            for checkout, runs in sides[::1 if pair % 2 == 0 else -1]:
                runs.append(run_once(checkout, command))
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)
    rows, failures = compare(parent, change, bench["end_to_end"])
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, parent "
          f"{args.parent} against the working tree\n")
    print(markdown(rows, parent, change))
    for reason in failures:
        print(f"FAIL {reason}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
