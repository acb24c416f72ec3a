"""The A/B verdict of ``tools/perf_ab.py`` on canned run records.

No ledger run happens here: ``compare`` and ``parse_run`` are pure
functions of what ``benchmarks/perf/run.py`` prints, and the export
cases run only git.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "perf_ab", REPO / "tools" / "perf_ab.py")
assert _spec is not None and _spec.loader is not None
perf_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ab)

END_TO_END = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]


def run(scale: float = 1.0, *, failed: int = 0, results: str = "r0",
        workload: str = "w0", **metrics: float) -> dict:
    """One run record; every metric is ``scale`` unless named."""
    values = {m["name"]: scale for m in END_TO_END} | metrics
    return {"correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": {k: {"value": v, "unit": "s"}
                        for k, v in values.items()},
            "workload_digest": workload, "results_digest": results}


def verdict(parent: list[dict], change: list[dict]) -> list[str]:
    return perf_ab.compare(parent, change, END_TO_END)[1]


def rows(parent: list[dict], change: list[dict]) -> dict[str, dict]:
    return {r["name"]: r for r in perf_ab.compare(parent, change,
                                                  END_TO_END)[0]}


PARENT = [run(1.0 + 0.01 * i) for i in range(10)]


def test_identical_runs_pass():
    assert verdict(PARENT, PARENT) == []
    assert all(r["wins"] == 0 and not r["gain"]
               for r in rows(PARENT, PARENT).values())


def test_a_clear_gain_is_claimable():
    faster = [run(0.8 + 0.01 * i) for i in range(10)]
    assert verdict(PARENT, faster) == []
    got = rows(PARENT, faster)["op_p50_ms"]
    assert got["wins"] == 10 and got["gain"]
    assert got["delta"] == pytest.approx(-0.2 / 1.045)


def test_fewer_than_ten_pairs_never_claim_a_gain():
    faster = [run(0.8 + 0.01 * i) for i in range(10)]
    assert not any(r["gain"] for r in rows(PARENT[:9], faster[:9]).values())


def test_worse_within_bound_passes_beyond_bound_fails():
    bound = {m["name"]: m["bound"] for m in END_TO_END}["run_s"]
    within = [dict(r, metrics=dict(r["metrics"], run_s={
        "value": r["metrics"]["run_s"]["value"] * (1 + bound / 2),
        "unit": "s"})) for r in PARENT]
    beyond = [dict(r, metrics=dict(r["metrics"], run_s={
        "value": r["metrics"]["run_s"]["value"] * (1 + 2 * bound),
        "unit": "s"})) for r in PARENT]
    assert verdict(PARENT, within) == []
    failures = verdict(PARENT, beyond)
    assert len(failures) == 1 and failures[0].startswith("run_s:")


def test_higher_is_better_metrics_fail_when_they_fall():
    metric = {"name": "throughput", "unit": "op/s", "better": "higher",
              "bound": 0.1}
    parent = [{"failed": 0, "metrics": {"throughput": {"value": 100.0}}}] * 3
    lower = [{"failed": 0, "metrics": {"throughput": {"value": 80.0}}}] * 3
    higher = [{"failed": 0, "metrics": {"throughput": {"value": 120.0}}}] * 3
    assert perf_ab.compare(parent, lower, [metric])[1]
    table, failures = perf_ab.compare(parent, higher, [metric])
    assert failures == [] and table[0]["wins"] == 3


def test_results_digest_mismatch_fails():
    change = [run(1.0, results="r1") for _ in range(10)]
    failures = verdict(PARENT, change)
    assert any(f.startswith("results_digest") for f in failures)


def test_workload_digest_mismatch_fails():
    change = [run(1.0, workload="w1") for _ in range(10)]
    assert any(f.startswith("workload_digest")
               for f in verdict(PARENT, change))


def test_a_failed_operation_fails():
    change = [run(1.0)] * 9 + [run(1.0, failed=1)]
    assert verdict(PARENT, change) == ["change: 1 operations failed"]


def test_ties_count_for_neither_side():
    got = rows(PARENT, PARENT)["run_s"]
    assert got["wins"] == 0 and got["delta"] == 0.0


def test_parse_run_reads_the_last_json_line_and_both_digests():
    stdout = "\n".join([
        "city_batch: seed 7, 450 operations",
        '{"not": "the record"}',
        "workload digest abc123",
        "results digest  def456",
        "verified: 103 answers re-asked of the oracle, 0 of 495 failed",
        json.dumps({"correct": True, "attempted": 495, "failed": 0,
                    "metrics": {"run_s": {"value": 2.0, "unit": "s"}}}),
    ])
    record = perf_ab.parse_run(stdout)
    assert record["attempted"] == 495 and record["failed"] == 0
    assert record["metrics"]["run_s"]["value"] == 2.0
    assert record["workload_digest"] == "abc123"
    assert record["results_digest"] == "def456"


def test_parse_run_refuses_output_without_a_record():
    with pytest.raises(ValueError):
        perf_ab.parse_run("Traceback (most recent call last):\n")


def test_markdown_names_every_metric_and_the_digest_verdict():
    table = perf_ab.markdown(list(rows(PARENT, PARENT).values()),
                             PARENT, PARENT)
    for metric in END_TO_END:
        assert f"`{metric['name']}`" in table
    assert "results_digest: equal" in table
    differ = perf_ab.markdown(list(rows(PARENT, PARENT).values()), PARENT,
                              [run(1.0, results="r1")])
    assert "results_digest: DIFFER" in differ


@pytest.mark.skipif(not (REPO / ".git").exists(), reason="needs git")
def test_both_sides_run_from_fresh_exports(monkeypatch):
    """Neither side runs in the repository itself: the change side is an
    export of the working tree, with no bytecode cache and no ``.git``."""
    seen: dict[str, list[Path]] = {"parent": [], "change": []}

    def fake_run(checkout: Path, command: list[str]) -> dict:
        seen[checkout.name].append(checkout)
        assert checkout != REPO and checkout.parent != REPO
        assert (checkout / "src" / "repro" / "core" / "retrieval.py").is_file()
        assert (checkout / "BENCHMARK.json").is_file()
        assert not (checkout / ".git").exists()
        assert not any(checkout.rglob("__pycache__"))
        return run(1.0)

    monkeypatch.setattr(perf_ab, "run_once", fake_run)
    assert perf_ab.main(["--parent", "HEAD", "--workload", "city_read",
                         "--pairs", "2"]) == 0
    assert len(seen["parent"]) == len(seen["change"]) == 2
    assert seen["parent"][0] != seen["change"][0]
    assert not seen["change"][0].exists()        # the exports are removed


def tree_of(root: Path) -> dict[str, tuple[bytes, int]]:
    """Every file under ``root``: its bytes and its mode bits."""
    return {path.relative_to(root).as_posix():
            (path.read_bytes(), path.stat().st_mode & 0o777)
            for path in root.rglob("*") if path.is_file()}


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_the_working_tree_exports_like_a_commit(tmp_path):
    """Both sides are written by one ``git archive``: at a clean tree
    the working tree's export is the commit's, byte for byte and mode
    for mode; an untracked file is exported, a deleted or ignored one
    is not, and the repository's own index is left as it was."""
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    (repo / "pkg" / "mod.py").write_text("X = 1\n")
    (repo / "run.sh").write_text("#!/bin/sh\n")
    (repo / "run.sh").chmod(0o755)
    (repo / "gone.txt").write_text("deleted later\n")
    (repo / ".gitignore").write_text("*.log\n")

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(repo), "-c", "user.name=t",
             "-c", "user.email=t@example.com", *args],
            check=True, capture_output=True, text=True).stdout

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    committed, worktree = tmp_path / "committed", tmp_path / "worktree"
    perf_ab.export("HEAD", committed, repo)
    perf_ab.export(perf_ab.worktree_tree(repo), worktree, repo)
    assert tree_of(worktree) == tree_of(committed)
    assert tree_of(committed)["run.sh"][1] == 0o755

    (repo / "new.py").write_text("Y = 2\n")
    (repo / "noise.log").write_text("ignored\n")
    (repo / "gone.txt").unlink()
    status = git("status", "--porcelain")
    changed = tmp_path / "changed"
    perf_ab.export(perf_ab.worktree_tree(repo), changed, repo)
    names = set(tree_of(changed))
    assert "new.py" in names
    assert "gone.txt" not in names and "noise.log" not in names
    assert names == set(tree_of(committed)) - {"gone.txt"} | {"new.py"}
    assert git("status", "--porcelain") == status


def scaled(runs: list[dict], name: str, factor: float) -> list[dict]:
    """``runs`` with metric ``name`` multiplied by ``factor``."""
    return [dict(r, metrics=dict(r["metrics"], **{name: {
        "value": r["metrics"][name]["value"] * factor, "unit": "s"}}))
        for r in runs]


#: ``op_tail_ms`` spread like ROADMAP 1(g)'s ``city_ingest`` parent: an
#: interquartile range of about 40 % of the median, against a 25 % bound.
NOISY = [run(1.0, op_tail_ms=v) for v in
         (0.70, 0.75, 0.80, 0.90, 1.00, 1.05, 1.15, 1.25, 1.30, 1.40)]


def test_verdicts_of_quiet_runs():
    assert {r["verdict"] for r in rows(PARENT, PARENT).values()} \
        == {"within bound"}
    faster = [run(0.8 + 0.01 * i) for i in range(10)]
    assert rows(PARENT, faster)["op_p50_ms"]["verdict"] == "gain"
    bound = {m["name"]: m["bound"] for m in END_TO_END}["run_s"]
    beyond = scaled(PARENT, "run_s", 1 + 2 * bound)
    assert rows(PARENT, beyond)["run_s"]["verdict"] == "worse"


def test_a_spread_wider_than_the_bound_is_unresolved():
    got = rows(NOISY, scaled(NOISY, "op_tail_ms", 1.1))["op_tail_ms"]
    q1, median, q3 = got["parent"]
    assert q3 - q1 > got["bound"] * median
    assert got["verdict"] == "unresolved"
    # Unchanged is unresolved too: the spread hides a move either way.
    assert rows(NOISY, NOISY)["op_tail_ms"]["verdict"] == "unresolved"
    # Past the bound is still a failure, whatever the spread.
    worse = scaled(NOISY, "op_tail_ms", 1.5)
    assert rows(NOISY, worse)["op_tail_ms"]["verdict"] == "worse"
    assert verdict(NOISY, worse)[0].startswith("op_tail_ms:")


def test_every_change_run_better_than_every_parent_run_is_resolved():
    better = [run(1.0, op_tail_ms=0.6 - 0.01 * i) for i in range(10)]
    assert rows(NOISY, better)["op_tail_ms"]["verdict"] == "gain"
    # Four pairs are too few to claim a gain, yet the spread hides
    # nothing when no parent run reads as well as any change run.
    got = rows(NOISY[::3], better[:4])["op_tail_ms"]
    q1, median, q3 = got["parent"]
    assert q3 - q1 > got["bound"] * median
    assert got["verdict"] == "within bound"


def test_the_verdict_column_does_not_change_the_exit_rule():
    assert verdict(NOISY, scaled(NOISY, "op_tail_ms", 1.1)) == []


def test_markdown_prints_each_verdict():
    table = perf_ab.markdown(list(rows(NOISY, NOISY).values()), NOISY, NOISY)
    assert "| verdict |" in table
    assert "| unresolved |" in table and "| within bound |" in table
