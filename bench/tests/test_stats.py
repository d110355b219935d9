import pytest

from bench.stats import percentile, slice_metrics, summarize


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert percentile(values, 0.95) == 190
    assert percentile(values, 0.50) == 100
    assert percentile(list(reversed(values)), 0.95) == 190


def test_p95_needs_ten_samples_beyond_it():
    assert percentile(list(range(200)), 0.95) == 189
    with pytest.raises(ValueError, match="need 10"):
        percentile(list(range(199)), 0.95)


def test_summarize_gives_median_and_quartile_spread():
    summary = summarize([5.0, 1.0, 4.0, 2.0, 3.0])
    assert summary["median"] == 3.0
    assert summary["iqr"] == pytest.approx(3.0)  # quartiles 1.5 and 4.5
    assert (summary["min"], summary["max"]) == (1.0, 5.0)
    assert summarize([7.0])["iqr"] == 0.0


def test_slice_metrics():
    reads = [0.001] * 190 + [0.010] * 10
    metrics = slice_metrics(2.0, 204, reads, [0.020, 0.030, 0.040, 0.050])
    assert metrics["throughput_rps"] == pytest.approx(102.0)
    assert metrics["latency_p50_ms"] == pytest.approx(1.0)
    assert metrics["latency_p95_ms"] == pytest.approx(1.0)
    assert metrics["update_p50_ms"] == pytest.approx(35.0)
    assert slice_metrics(1.0, 200, [0.002] * 200, [])["update_p50_ms"] is None


def test_slice_with_fewer_than_200_reads_refuses_p95():
    with pytest.raises(ValueError):
        slice_metrics(1.0, 150, [0.001] * 150, [])
