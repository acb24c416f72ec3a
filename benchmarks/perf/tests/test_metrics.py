"""Run log -> metrics: slowdown normalisation, wall-clock twins and
headline aliases."""

import pytest

from benchmarks.perf.harness import (CALIBRATION_REFERENCE_S, RunLog, Verdict,
                                     calibrate)
from benchmarks.perf.metrics import (HEADLINE, WALL, peak_rss_mb, resident_mb,
                                     run_metrics)
from benchmarks.perf.workloads import Op, Sizing, Workload, build_workload


def _rows(durations, slow):
    ops = tuple(Op("query", "query") for _ in durations)
    w = Workload(name="city_read", sizing=Sizing(), base=(),
                 warmup_group=(), ops=ops, digest="")
    log = RunLog(durations=list(durations),
                 calibration=[CALIBRATION_REFERENCE_S * slow] * 3)
    return run_metrics(w, log, Verdict(attempted=len(ops)),
                       setup_wall_s=1.5 * slow, setup_slowdown=slow,
                       rss_mb=12.0)


def test_times_are_divided_and_rates_multiplied_by_the_slowdown():
    durations = [0.001, 0.002, 0.003, 0.004]
    quiet = _rows(durations, 1.0)
    noisy = _rows([2 * d for d in durations], 2.0)
    for name in ("setup_s", "run_s", "op_p50_ms", "op_tail_ms",
                 "query_p99_ms", "queries_per_s"):
        assert noisy[name][0] == pytest.approx(quiet[name][0])
    assert quiet["run_s"] == (pytest.approx(0.010), "s", 4)
    assert quiet["op_p50_ms"] == quiet["query_p50_ms"]
    assert quiet["op_p50_ms"][0] == pytest.approx(2.5)
    assert quiet["queries_per_s"][0] == pytest.approx(400.0)
    assert quiet["failed_share"][0] == 0.0
    assert quiet["peak_rss_mb"][0] == 12.0


def test_wall_clock_twins_are_what_the_clock_read():
    noisy = _rows([0.002, 0.004, 0.006, 0.008], 2.0)
    assert set(WALL) <= set(noisy)
    assert noisy["machine_slowdown"][0] == pytest.approx(2.0)
    assert noisy["run_wall_s"][0] == pytest.approx(0.020)
    assert noisy["setup_wall_s"][0] == pytest.approx(3.0)
    for name in ("run", "setup"):
        assert noisy[f"{name}_wall_s"][0] == pytest.approx(
            2.0 * noisy[f"{name}_s"][0])
    assert noisy["op_p50_wall_ms"][0] == pytest.approx(5.0)
    assert noisy["op_tail_wall_ms"][0] == pytest.approx(
        2.0 * noisy["op_tail_ms"][0])


def test_headline_roles_exist_in_their_workloads():
    smoke = Sizing.for_run(20.0, scale=0.01)
    for name, (role, q) in HEADLINE.items():
        assert role in build_workload(name, 1, smoke).op_counts()
        assert 50.0 < q < 100.0


def test_calibration_kernel_takes_milliseconds():
    assert 0.0005 < min(calibrate() for _ in range(3)) < 0.1


def test_resident_set_reads_below_its_high_water_mark():
    assert 1.0 < resident_mb() <= peak_rss_mb() + 1.0
