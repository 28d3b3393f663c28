"""Unit tests for the trace collector layer."""

from __future__ import annotations

import threading

import pytest

from repro.trace import (
    NULL_COLLECTOR,
    PID_DEVICE,
    PID_HOST,
    TraceCollector,
    TraceConfig,
)
from repro.trace.collector import (
    active_or_none,
    disable,
    enable,
    get_collector,
    install,
    reset,
    tracing_enabled,
)


def _events(collector, ph=None):
    events = collector.events_snapshot()
    if ph is not None:
        events = [e for e in events if e["ph"] == ph]
    return events


class TestTraceCollector:
    def test_metadata_events_on_construction(self):
        c = TraceCollector()
        meta = _events(c, "M")
        assert {e["pid"] for e in meta} == {PID_HOST, PID_DEVICE}
        assert all(e["name"] == "process_name" for e in meta)

    def test_span_records_complete_event(self):
        c = TraceCollector()
        with c.span("work", cat="bench", detail=42):
            pass
        (x,) = _events(c, "X")
        assert x["name"] == "work"
        assert x["cat"] == "bench"
        assert x["args"] == {"detail": 42}
        assert x["ts"] >= 0 and x["dur"] >= 0

    def test_span_records_on_exception(self):
        c = TraceCollector()
        try:
            with c.span("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        assert len(_events(c, "X")) == 1

    def test_span_at_uses_absolute_timestamps(self):
        c = TraceCollector()
        c.span_at("pass", "toolchain", c.epoch + 0.001, 0.002)
        (x,) = _events(c, "X")
        assert abs(x["ts"] - 1000.0) < 1.0
        assert abs(x["dur"] - 2000.0) < 1.0

    def test_instant_and_counter(self):
        c = TraceCollector()
        c.instant("hit", cat="toolchain", key="abc")
        c.counter("ov", {"a": 1, "b": 2}, cat="runtime", ts_us=7.0)
        (i,) = _events(c, "i")
        assert i["s"] == "t" and i["args"] == {"key": "abc"}
        (k,) = _events(c, "C")
        assert k["args"] == {"a": 1, "b": 2} and k["ts"] == 7.0

    def test_thread_safety_of_emit(self):
        c = TraceCollector()

        def emit_many():
            for i in range(200):
                c.instant(f"e{i}")

        threads = [threading.Thread(target=emit_many) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(_events(c, "i")) == 800

    def test_config_labels(self):
        c = TraceCollector(TraceConfig(labels={"app": "x"}))
        assert c.config.labels == {"app": "x"}

    def test_config_has_only_labels(self):
        for option in ("function_cycles", "host_process_name", "device_process_name"):
            with pytest.raises(TypeError):
                TraceConfig(**{option: False})

    def test_process_names_are_fixed(self):
        names = {e["pid"]: e["args"]["name"] for e in _events(TraceCollector(), "M")}
        assert names == {PID_HOST: "repro host (toolchain/bench)",
                         PID_DEVICE: "repro vgpu (device)"}


class TestNullCollector:
    def test_all_methods_are_noops(self):
        n = NULL_COLLECTOR
        with n.span("x", whatever=1):
            pass
        n.span_at("x", "c", 0.0, 1.0)
        n.complete("x", "c", 0.0, 1.0)
        n.instant("x")
        n.counter("x", {"a": 1})
        assert n.events == []
        assert n.enabled is False

    def test_span_returns_shared_sentinel(self):
        assert NULL_COLLECTOR.span("a") is NULL_COLLECTOR.span("b")


class TestProcessWideState:
    def test_default_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        reset()
        try:
            assert get_collector() is NULL_COLLECTOR
            assert tracing_enabled() is False
            assert active_or_none() is None
        finally:
            reset()

    def test_env_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        reset()
        try:
            c = get_collector()
            assert isinstance(c, TraceCollector)
            assert active_or_none() is c
        finally:
            reset()

    def test_enable_disable(self):
        try:
            c = enable()
            assert get_collector() is c
            disable()
            assert get_collector() is NULL_COLLECTOR
        finally:
            reset()

    def test_install_scopes_and_restores(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        reset()
        try:
            before = get_collector()
            fresh = TraceCollector()
            with install(fresh) as c:
                assert c is fresh
                assert get_collector() is fresh
            assert get_collector() is before
        finally:
            reset()
