"""The compare gate: verdicts, borrowed bounds, exit codes."""

import json

from benchmarks.perf import compare
from benchmarks.perf.metrics import DETAIL, END_TO_END


def test_every_metric_has_a_bound():
    bounds = compare.load_bounds()
    assert set(bounds) == set(END_TO_END) | set(DETAIL)
    assert all(0.0 < b <= 0.25 for b in bounds.values())


def test_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(steady, [10.4] * 5, "lower", 0.10)[3] == "ok"
    assert compare.verdict(steady, [11.5] * 5, "lower", 0.10)[3] == "regressed"
    assert compare.verdict(steady, [8.0] * 5, "higher", 0.10)[3] == "regressed"
    assert compare.verdict(steady, [12.0] * 5, "higher", 0.10)[3] == "ok"
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, [10.5] * 5, "lower", 0.10)[3] == "unresolved"
    # every run of B better than every run of A: resolved despite spread
    assert compare.verdict(noisy, [7.0] * 5, "lower", 0.10)[3] == "ok"
    med_a, med_b, ratio, _ = compare.verdict([2.0], [3.0], "lower", 0.10)
    assert (med_a, med_b, ratio) == (2.0, 3.0, 1.5)


def _record(run_s, failed_share=0.0, digest="d"):
    cell = lambda v, u: {"value": v, "unit": u, "samples": 1}  # noqa: E731
    return {"workload": "city_read", "trace": False, "results_digest": digest,
            "stamp": {"seed": 1, "workload_digest": "w",
                      "op_counts": {"query": 5}},
            "metrics": {"run_s": cell(run_s, "s"),
                        "run_wall_s": cell(3.0 * run_s, "s"),
                        "failed_share": cell(failed_share, "ratio")}}


def test_exit_codes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    compare.append_record(a, _record(10.0))
    compare.append_record(a, _record(10.2))
    assert len(json.loads(a.read_text("utf-8"))) == 2

    compare.append_record(b, _record(10.5))
    assert compare.main(a, b) == 0
    out = capsys.readouterr().out
    assert "no regression" in out
    # wall-clock twins are listed, never judged
    assert [line.split()[-2:] for line in out.splitlines()
            if "run_wall_s" in line] == [["(not", "gated)"]]

    b.unlink()
    compare.append_record(b, _record(14.0))
    assert compare.main(a, b) == 1
    assert "regressed" in capsys.readouterr().out

    b.unlink()
    compare.append_record(b, _record(10.0, failed_share=0.01))
    assert compare.main(a, b) == 1

    b.unlink()
    compare.append_record(b, _record(10.0, digest="other"))
    assert compare.main(a, b) == 1
    assert "DIFFER" in capsys.readouterr().out
