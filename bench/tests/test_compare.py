import json

import pytest

from bench import compare
from bench.runner import REPORT_ONLY
from bench.stats import summarize

BENCHMARK = {
    "end_to_end": [
        {"name": "throughput_rps", "unit": "req/s", "better": "higher", "bound": 0.1},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    ]
}


def _report(**metrics):
    units = {"throughput_rps": "req/s", "error_rate": "ratio"}
    return {"workloads": {"hot-read": {"metrics": {
        name: {"unit": units.get(name, "ms"), "values": values, **summarize(values)}
        for name, values in metrics.items()
    }}}}


def _verdicts(base, new):
    return {row["metric"]: row["verdict"] for row in compare.compare_reports(base, new, BENCHMARK)}


def test_within_bound_is_same():
    base = _report(throughput_rps=[100, 101, 99, 100, 102], latency_p50_ms=[2.0, 2.1, 2.0, 1.9, 2.0])
    new = _report(throughput_rps=[104, 103, 105, 104, 104], latency_p50_ms=[2.1, 2.0, 2.1, 2.1, 2.0])
    assert _verdicts(base, new) == {"throughput_rps": "same", "latency_p50_ms": "same"}


def test_beyond_bound_is_worse_or_better_by_direction():
    base = _report(throughput_rps=[100, 101, 99, 100, 102], latency_p50_ms=[2.0, 2.1, 2.0, 1.9, 2.0])
    new = _report(throughput_rps=[130, 131, 129, 130, 128], latency_p50_ms=[2.5, 2.4, 2.5, 2.6, 2.5])
    assert _verdicts(base, new) == {"throughput_rps": "better", "latency_p50_ms": "worse"}


def test_spread_wider_than_bound_is_unresolved_unless_separated():
    base = _report(latency_p50_ms=[1.0, 1.5, 2.0, 2.5, 3.0])
    overlapping = _report(latency_p50_ms=[1.4, 1.9, 2.4, 2.9, 3.4])
    separated = _report(latency_p50_ms=[3.1, 3.5, 4.0, 4.5, 5.0])
    assert _verdicts(base, overlapping) == {"latency_p50_ms": "unresolved"}
    assert _verdicts(base, separated) == {"latency_p50_ms": "worse"}


def test_error_rate_compares_absolutely():
    base = _report(error_rate=[0.0])
    assert _verdicts(base, _report(error_rate=[0.001])) == {"error_rate": "worse"}
    assert _verdicts(base, _report(error_rate=[0.0])) == {"error_rate": "same"}


def test_update_latency_uses_its_own_bound():
    base = _report(update_p50_ms=[10.0, 10.1, 9.9])
    new = _report(update_p50_ms=[13.0, 13.1, 12.9])
    rows = compare.compare_reports(base, new, BENCHMARK)
    assert rows[0]["bound"] == REPORT_ONLY["update_p50_ms"][2]
    assert rows[0]["verdict"] == "worse"


@pytest.mark.parametrize("factor, code", [(1.02, 0), (1.5, 1)])
def test_main_exits_nonzero_on_worse(tmp_path, capsys, factor, code):
    base = _report(latency_p50_ms=[2.0, 2.0, 2.1])
    new = _report(latency_p50_ms=[2.0 * factor, 2.0 * factor, 2.1 * factor])
    (tmp_path / "base.json").write_text(json.dumps(base))
    (tmp_path / "new.json").write_text(json.dumps(new))
    assert compare.main(str(tmp_path / "base.json"), str(tmp_path / "new.json"), BENCHMARK) == code
    assert "of 2 ms" in capsys.readouterr().out
