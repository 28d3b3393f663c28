"""End-to-end tracing: one traced (app, build) cell must produce a
schema-valid Chrome Trace document with events from all four layers
(toolchain, runtime, vgpu, bench) plus the runtime-overhead counters —
the same check ``python -m repro.bench trace`` runs.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import trace_cli
from repro.bench.builds import BUILD_ORDER
from repro.trace import validate_chrome_trace
from repro.trace.categories import CATEGORY_NAMES, OVERHEAD_CATEGORIES


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("trace-out")
    out = str(out_dir / "trace.json")
    metrics_out = str(out_dir / "metrics.json")
    result = trace_cli.run_trace(
        "testsnap", BUILD_ORDER[0],
        out=out, metrics_out=metrics_out,
    )
    doc = json.loads(open(out).read())
    metrics = json.loads(open(metrics_out).read())
    return result, doc, metrics


@pytest.mark.trace
class TestTraceSmoke:
    def test_document_is_schema_valid(self, smoke):
        _, doc, _ = smoke
        assert validate_chrome_trace(doc) == []

    def test_all_four_layers_present(self, smoke):
        _, doc, _ = smoke
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert {"toolchain", "runtime", "vgpu", "bench"} <= cats

    def test_runtime_overhead_counter_present(self, smoke):
        _, doc, _ = smoke
        counters = [e for e in doc["traceEvents"]
                    if e["ph"] == "C" and e["name"] == "runtime_overhead"]
        assert counters, "missing runtime_overhead counter event"
        args = counters[0]["args"]
        assert "barriers.total" in args
        assert "shared_stack.high_water_bytes" in args
        assert "global_fallback.mallocs" in args

    def test_expected_span_names(self, smoke):
        _, doc, _ = smoke
        names = {e["name"] for e in doc["traceEvents"]}
        assert "toolchain.compile" in names
        assert "bench.launch" in names
        assert any(n.startswith("kernel ") for n in names)
        assert any(n.startswith("team ") for n in names)
        assert any(n.startswith("phase ") for n in names)

    def test_cache_events_present(self, smoke):
        _, doc, _ = smoke
        names = {e["name"] for e in doc["traceEvents"]}
        assert names & {"cache.hit", "cache.miss"}

    def test_metrics_document(self, smoke):
        result, _, metrics = smoke
        assert metrics["schema"] == "repro.trace.metrics/1"
        assert metrics["kernel"]["kernel_name"]
        assert metrics["kernel"]["cycles"] == result["profile"].cycles
        assert "overhead_counters" in metrics
        assert "compile_cache" in metrics
        assert "pipeline" in metrics

    def test_result_summary(self, smoke):
        result, _, _ = smoke
        assert result["events"] > 0
        assert set(result["categories"]) >= {"toolchain", "runtime", "vgpu", "bench"}


class TestCategories:
    def test_category_vocabulary(self):
        assert set(CATEGORY_NAMES) == {
            "target_init", "parallel_region", "worksharing", "shared_stack",
            "sync", "icv_query", "thread_state",
        }

    def test_both_runtime_flavours_categorized(self):
        names = set(OVERHEAD_CATEGORIES)
        assert "__kmpc_parallel_51" in names
        assert any(n.endswith("_old") for n in names)
