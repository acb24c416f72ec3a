"""BENCHMARK.json against the driver's contract, and smoke-sized runs
of every workload emitting exactly what it names."""

import json
import re
from pathlib import Path

import pytest

from benchmarks.perf import cli
from benchmarks.perf.layers import PER_LAYER
from benchmarks.perf.metrics import DETAIL, END_TO_END, HEADLINE, WALL
from benchmarks.perf.workloads import RUN_SECONDS, WORKLOADS

ROOT = Path(__file__).resolve().parents[3]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_schema_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert SPEC["run_seconds"] == RUN_SECONDS
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_command_stays_inside_paths():
    assert len(SPEC["command"]) <= 32
    for word in SPEC["command"][1:]:
        assert not word.startswith("/") and ".." not in word
        assert any(word.startswith(p + "/") for p in SPEC["paths"])
        assert (ROOT / word).is_file()


def test_spec_mirrors_the_code_tables():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == WORKLOADS
    assert {m["name"]: (m["unit"], m["better"])
            for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in SPEC["per_layer"]} == PER_LAYER
    assert set(HEADLINE) == set(WORKLOADS)
    assert all(via in END_TO_END for _u, _b, via in DETAIL.values())


def _run(capsys, *argv):
    code = cli.main(["run", "--scale", "0.01", *argv])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_gated_metric_and_repeats(capsys, workload,
                                                        tmp_path):
    out = tmp_path / "set.json"
    argv = ("--workload", workload, "--seed", "7", "--out", str(out))
    code, result, lines = _run(capsys, *argv)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    for name, cell in result["metrics"].items():
        assert cell["unit"] == END_TO_END[name][0]
        # (this process's high-water mark predates the smoke run)
        assert cell["value"] > 0 or name == "peak_rss_mb"
    # every name is printed with its unit
    for name in END_TO_END:
        assert any(line.split()[:1] == [name] for line in lines)

    assert _run(capsys, *argv)[0] == 0
    first, second = json.loads(out.read_text("utf-8"))
    assert first["results_digest"] == second["results_digest"]
    for key in ("workload_digest", "op_counts", "sizing", "seed"):
        assert first["stamp"][key] == second["stamp"][key]
    assert {"commit", "dirty", "python", "numpy", "cpu",
            "nproc"} <= set(first["stamp"])
    metrics = first["metrics"]
    assert metrics["failed_share"]["value"] == 0.0
    assert metrics["op_p50_ms"]["value"] <= metrics["op_tail_ms"]["value"]
    assert set(metrics) - set(END_TO_END) - set(WALL) <= set(DETAIL)
    assert set(WALL) <= set(metrics)

    other = _run(capsys, "--workload", workload, "--seed", "8")[1]
    assert other["correct"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_traced_run_emits_every_layer_metric(capsys, workload):
    code, result, _lines = _run(capsys, "--workload", workload, "--seed",
                                "7", "--trace", "1")
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == set(PER_LAYER)
    layer = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(cell["unit"] == PER_LAYER[name][0]
               for name, cell in result["metrics"].items())
    assert layer["trace.residual_share"] <= 0.10
    assert layer["core.retrieval.execute_many_calls"] == 0  # today
    if workload == "city_read":
        assert layer["core.cache.hit_share"] == 0
        assert layer["core.index.packed_view_rebuilds"] == 0
        assert layer["core.index.insert_many_calls"] == 0
    if workload == "city_ingest":
        assert layer["core.retrieval.execute_calls"] == 0
        assert layer["net.protocol.rejected"] == layer["shard.server.rejected"]
    if workload == "city_mixed":
        assert layer["core.index.packed_view_rebuilds"] > 0
        assert layer["core.cache.hit_share"] > 0
    if workload == "city_batch":
        assert layer["video.scoring.lcv_s"] > 0
        assert layer["video.scoring.dtw_s"] > 0
    spans = cli.OUT_DIR / f"{workload}.spans.jsonl"
    first = json.loads(spans.read_text("utf-8").splitlines()[0])
    assert set(first) == {"id", "name", "start", "end", "parent", "op"}


def test_a_wrong_answer_fails_the_run(capsys, monkeypatch):
    from repro.shard.server import ShardedCloudServer
    honest = ShardedCloudServer.query

    def forgetful(self, query):
        result = honest(self, query)
        return type(result)(result.query, result.ranked[1:],
                            result.candidates, result.after_filter,
                            result.elapsed_s)

    monkeypatch.setattr(ShardedCloudServer, "query", forgetful)
    # enough sampled queries that some have a first row to forget
    code, result, _ = _run(capsys, "--workload", "city_read", "--seed", "7",
                           "--scale", "0.05")
    assert code == 1 and not result["correct"] and result["failed"] > 0


def test_a_call_that_raises_is_counted_and_the_run_still_reports(
        capsys, monkeypatch):
    from repro.shard.server import ShardedCloudServer
    honest = ShardedCloudServer.query
    calls = []

    def flaky(self, query):
        calls.append(query)
        if len(calls) == 5:         # 1 is the warm-up query of set-up
            raise RuntimeError("shard fell over")
        return honest(self, query)

    monkeypatch.setattr(ShardedCloudServer, "query", flaky)
    code, result, lines = _run(capsys, "--workload", "city_read", "--seed",
                               "7")
    assert code == 1 and not result["correct"] and result["failed"] == 1
    assert set(result["metrics"]) == set(END_TO_END)
    assert any("shard fell over" in line for line in lines)
    assert not list(cli.OUT_DIR.glob("*.wal"))
