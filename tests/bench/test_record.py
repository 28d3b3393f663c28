"""Shared benchmark-record helpers (:mod:`repro.bench.record`)."""

from repro.bench import record


class TestPercentiles:
    def test_nearest_rank_points(self):
        out = record.percentiles([float(v) for v in range(1, 101)])
        assert out["p50"] == 50.0
        assert out["p95"] == 95.0
        assert out["p99"] == 99.0
        assert out["max"] == 100.0

    def test_monotonic_on_any_input(self):
        out = record.percentiles([0.4, 0.1, 0.9, 0.2, 0.7])
        assert out["p50"] <= out["p95"] <= out["p99"] <= out["max"]

    def test_empty_input(self):
        out = record.percentiles([])
        assert out == {"p50": 0.0, "p95": 0.0, "p99": 0.0,
                       "max": 0.0, "n": 0}
