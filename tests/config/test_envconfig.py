"""Tests for the centralized REPRO_* environment knob registry."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro import envconfig


class TestFlagParsing:
    @pytest.mark.parametrize("raw", ["0", "off", "false", "no", "", "OFF", "False"])
    def test_falsy_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TRACE", raw)
        assert envconfig.trace_enabled() is False

    @pytest.mark.parametrize("raw", ["1", "on", "true", "yes", "anything"])
    def test_truthy_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TRACE", raw)
        assert envconfig.trace_enabled() is True

    def test_unset_uses_registry_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert envconfig.trace_enabled() is False  # default "0"
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert envconfig.cache_enabled() is True  # default "1"


class TestIntParsing:
    def test_valid(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert envconfig.jobs() == 7

    def test_malformed_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        assert envconfig.jobs() == 1

    def test_unset_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_SIZE", raising=False)
        assert envconfig.cache_size() == 128


class TestStrParsing:
    def test_set(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
        assert envconfig.cache_dir() == "/tmp/somewhere"

    def test_unset_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        assert envconfig.sim_engine() == "decoded"


class TestFloatParsing:
    def test_valid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_DRAIN_S", "2.5")
        assert envconfig.serve_drain_s() == 2.5

    def test_malformed_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_DRAIN_S", "soon")
        assert envconfig.serve_drain_s() == 0.0

    def test_negative_clamped(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_DRAIN_S", "-3")
        assert envconfig.serve_drain_s() == 0.0

    def test_unset_default_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_DRAIN_S", raising=False)
        assert envconfig.serve_drain_s() == 0.0


class TestRobustnessKnobs:
    def test_faults_spec_default_empty(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert envconfig.faults_spec() == ""

    def test_faults_spec_passthrough(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "rt_trap:n=3;seed=9")
        assert envconfig.faults_spec() == "rt_trap:n=3;seed=9"

    def test_sanitize_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert envconfig.sanitize_enabled() is False
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert envconfig.sanitize_enabled() is True


class TestRegistry:
    def test_undocumented_knob_rejected(self):
        with pytest.raises(KeyError):
            envconfig.env_flag("REPRO_UNDOCUMENTED")
        with pytest.raises(KeyError):
            envconfig.env_int("REPRO_NOPE")
        with pytest.raises(KeyError):
            envconfig.env_str("REPRO_NADA")

    def test_expected_knobs_present(self):
        expected = {
            "REPRO_SIM_ENGINE", "REPRO_JOBS",
            "REPRO_CACHE", "REPRO_CACHE_DIR", "REPRO_CACHE_DISK",
            "REPRO_CACHE_SIZE", "REPRO_TRACE",
            "REPRO_FAULTS", "REPRO_SANITIZE",
            "REPRO_SERVE_QUEUE",
            "REPRO_SERVE_BREAKER_THRESHOLD", "REPRO_SERVE_DRAIN_S",
        }
        assert expected == set(envconfig.KNOBS)

    def test_knob_registry_is_pinned(self):
        """The registry's names, kinds and defaults, in table order.
        Adding, removing or re-defaulting a knob must edit this list."""
        assert [(k.name, k.kind, k.default)
                for k in envconfig.KNOBS.values()] == [
            ("REPRO_SIM_ENGINE", "choice", "decoded"),
            ("REPRO_JOBS", "int", "1"),
            ("REPRO_CACHE", "flag", "1"),
            ("REPRO_CACHE_DIR", "str", ".repro-cache"),
            ("REPRO_CACHE_DISK", "flag", "1"),
            ("REPRO_CACHE_SIZE", "int", "128"),
            ("REPRO_TRACE", "flag", "0"),
            ("REPRO_FAULTS", "str", ""),
            ("REPRO_SANITIZE", "flag", "0"),
            ("REPRO_SERVE_QUEUE", "int", "16"),
            ("REPRO_SERVE_BREAKER_THRESHOLD", "int", "5"),
            ("REPRO_SERVE_DRAIN_S", "float", "0"),
        ]

    def test_no_stray_env_reads_outside_registry(self):
        """Every ``REPRO_*`` environment variable mentioned anywhere in
        the source tree must be a documented knob — the point of having
        one config module."""
        src = Path(envconfig.__file__).resolve().parent
        names = set()
        for path in src.rglob("*.py"):
            names |= set(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
        assert names <= set(envconfig.KNOBS), (
            f"undocumented REPRO_* names in src: "
            f"{sorted(names - set(envconfig.KNOBS))}"
        )

    def test_describe_env_mentions_every_knob(self):
        text = envconfig.describe_env()
        for name in envconfig.KNOBS:
            assert name in text

    def test_readme_documents_exactly_the_knobs(self):
        """The README's ``REPRO_*`` names are the registry: a removed
        knob must leave the docs, and a new one must enter them."""
        readme = Path(envconfig.__file__).resolve().parents[2] / "README.md"
        names = set(re.findall(r"REPRO_[A-Z_]*[A-Z]", readme.read_text()))
        assert names == set(envconfig.KNOBS)


class TestServeKnobs:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_QUEUE", raising=False)
        assert envconfig.serve_queue() == 16

    def test_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_QUEUE", "2")
        assert envconfig.serve_queue() == 2

    def test_clamping_and_malformed(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_QUEUE", "-4")
        assert envconfig.serve_queue() == 0
        monkeypatch.setenv("REPRO_SERVE_QUEUE", "many")
        assert envconfig.serve_queue() == 16  # fallback default

    def test_service_resolvers_delegate(self, monkeypatch):
        from repro.serve import resolve_serve_queue

        monkeypatch.setenv("REPRO_SERVE_QUEUE", "7")
        assert resolve_serve_queue() == 7
        # Explicit arguments win over the environment.
        assert resolve_serve_queue(0) == 0


class TestResilienceKnobs:
    def test_defaults(self, monkeypatch):
        for name in ("REPRO_SERVE_BREAKER_THRESHOLD", "REPRO_SERVE_DRAIN_S"):
            monkeypatch.delenv(name, raising=False)
        assert envconfig.serve_breaker_threshold() == 5
        assert envconfig.serve_drain_s() == 0.0  # 0 = unbounded drain

    def test_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_BREAKER_THRESHOLD", "3")
        monkeypatch.setenv("REPRO_SERVE_DRAIN_S", "1.5")
        assert envconfig.serve_breaker_threshold() == 3
        assert envconfig.serve_drain_s() == 1.5

    def test_clamping_and_malformed(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_BREAKER_THRESHOLD", "-2")
        assert envconfig.serve_breaker_threshold() == 0  # 0 = disabled
        monkeypatch.setenv("REPRO_SERVE_DRAIN_S", "soon")
        assert envconfig.serve_drain_s() == 0.0  # fallback default

    def test_policy_resolvers_delegate(self, monkeypatch):
        from repro.serve.resilience import BreakerPolicy
        from repro.serve.service import resolve_serve_drain

        monkeypatch.setenv("REPRO_SERVE_BREAKER_THRESHOLD", "7")
        monkeypatch.setenv("REPRO_SERVE_DRAIN_S", "2.0")
        assert BreakerPolicy.resolve().threshold == 7
        assert resolve_serve_drain() == 2.0
        # Explicit arguments win over the environment.
        assert BreakerPolicy.resolve(BreakerPolicy(threshold=0)).threshold == 0
        assert resolve_serve_drain(0.5) == 0.5
        # 0 / unset means "no drain deadline".
        monkeypatch.setenv("REPRO_SERVE_DRAIN_S", "0")
        assert resolve_serve_drain() is None


class TestWarpKnobs:
    def test_warp_engine_accepted(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "warp")
        assert envconfig.sim_engine() == "warp"

    def test_engine_knob_documents_exactly_the_engines(self):
        from repro.vgpu.config import ENGINES

        assert envconfig.KNOBS["REPRO_SIM_ENGINE"].choices == ENGINES


class TestDelegation:
    """The legacy per-subsystem resolvers now route through envconfig."""

    def test_sim_engine_resolver(self, monkeypatch):
        from repro.vgpu.config import resolve_sim_engine

        monkeypatch.setenv("REPRO_SIM_ENGINE", "decoded")
        assert resolve_sim_engine() == "decoded"
        monkeypatch.setenv("REPRO_SIM_ENGINE", "warp")
        assert resolve_sim_engine() == "warp"
        # "legacy" named the deleted tree-walker: now an unknown engine.
        for name in ("legacy", "bogus"):
            monkeypatch.setenv("REPRO_SIM_ENGINE", name)
            with pytest.raises(ValueError, match="unknown simulation engine"):
                resolve_sim_engine()

    def test_jobs_resolver(self, monkeypatch):
        from repro.bench.harness import resolve_jobs

        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3
        assert resolve_jobs(cells=2) == 2

    def test_cache_construction(self, monkeypatch):
        from repro.toolchain import cache as toolchain_cache

        monkeypatch.setenv("REPRO_CACHE", "0")
        toolchain_cache.reset_compile_cache()
        try:
            assert toolchain_cache.get_compile_cache() is None
            monkeypatch.setenv("REPRO_CACHE", "1")
            monkeypatch.setenv("REPRO_CACHE_DISK", "0")
            monkeypatch.setenv("REPRO_CACHE_SIZE", "5")
            toolchain_cache.reset_compile_cache()
            cache = toolchain_cache.get_compile_cache()
            assert cache is not None
            assert cache.disk_dir is None
            assert cache.max_entries == 5
        finally:
            toolchain_cache.reset_compile_cache()
