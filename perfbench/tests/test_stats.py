"""The percentile rule and failure accounting the benchmark reports with."""

import pytest

import serve
import stats


def test_percentile_is_nearest_rank_with_count_beyond():
    samples = [float(value) for value in range(1, 101)]
    assert stats.percentile(samples, 50.0) == (50.0, 50)
    assert stats.percentile(samples, 90.0) == (90.0, 10)
    assert stats.percentile(samples, 99.0) == (99.0, 1)


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile([1.0] * 19) is None
    assert stats.tail_percentile([1.0] * 20)[0] == 50.0
    assert stats.tail_percentile([1.0] * 99)[0] == 50.0
    assert stats.tail_percentile([1.0] * 100)[0] == 90.0
    assert stats.tail_percentile([1.0] * 999)[0] == 90.0
    assert stats.tail_percentile([1.0] * 1000)[0] == 99.0
    pct, value, beyond = stats.tail_percentile([float(value) for value in range(250)])
    assert (pct, value, beyond) == (90.0, 224.0, 25)


def test_describe_latency_prints_the_sample_count():
    line = stats.describe_latency("request", [0.1] * 150)
    assert "p90=" in line and "n=150" in line and "15 beyond p90" in line
    assert "too few samples" in stats.describe_latency("request", [0.1] * 5)


def test_error_tally_counts_refused_requests_as_failed_units():
    tally = stats.ErrorTally()
    tally.add_units(10)
    tally.add_units(4, failed=1)
    tally.add_refused(4)
    assert (tally.attempted, tally.failed) == (18, 5)
    assert tally.error_rate == pytest.approx(5 / 18)
    with pytest.raises(ValueError):
        tally.add_units(1, failed=2)


def _request(**fields):
    document = {"matrix": {"simulation.seed": [1, 2, 3, 4]}}
    return serve.Request(client=0, round=0, document=document, **fields)


def test_serve_error_accounting_covers_every_failure_kind():
    ok = {"status": "ok", "failed": 0, "points": [{"jobs": 1, "deadline_misses": 0}] * 4}
    missed = {"status": "ok", "failed": 0,
              "points": [{"jobs": 1, "deadline_misses": 2}] + [{"jobs": 1, "deadline_misses": 0}] * 3}
    failed = {"status": "failed", "failed": 2}
    requests = [
        _request(result=ok),
        _request(result=missed),
        _request(result=failed),
        _request(refused="server rejected the request (503): draining"),
        _request(),  # the stream closed without a result event
    ]
    tally = serve.tally_errors(requests)
    assert tally.attempted == 20
    assert tally.failed == 0 + 1 + 2 + 4 + 4


def test_quartile_spread_is_relative_to_the_median():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    assert stats.quartile_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(3.0 / 10.0)
