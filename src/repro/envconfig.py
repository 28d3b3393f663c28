"""One place for every ``REPRO_*`` environment knob.

Historically each subsystem parsed its own environment variables
(``repro.vgpu.config``, ``repro.toolchain.service``,
``repro.toolchain.cache``), each with slightly different flag grammar.
This module centralizes the parsing and keeps a registry of every knob
so ``describe_env()`` can render the authoritative table (surfaced in
the README "Observability" section).

Knobs
-----

``REPRO_SIM_ENGINE``
    Simulator execution engine: ``decoded`` (default) or ``warp``
    (lane-batched NumPy execution of whole warps).
``REPRO_JOBS``
    Worker processes for independent (app, build) cells of a bench
    matrix (default 1 = serial).
``REPRO_CACHE``
    Set to ``0``/``off``/``false``/``no`` to disable the compile cache.
``REPRO_CACHE_DIR``
    Location of the on-disk compile cache (default ``.repro-cache``).
``REPRO_CACHE_DISK``
    Set falsy to keep the compile cache in-memory only.
``REPRO_CACHE_SIZE``
    In-memory compile-cache LRU capacity (default 128).
``REPRO_TRACE``
    Set truthy to enable the :mod:`repro.trace` event collector for
    the whole process (off by default; see README "Observability").
``REPRO_FAULTS``
    Fault-injection plan for the simulator (default empty = no
    injection).  Grammar: ``site(:key=value)*`` entries joined by
    ``;`` plus an optional bare ``seed=N`` entry; see README
    "Robustness" and :mod:`repro.faults.plan`.
``REPRO_SANITIZE``
    Set truthy to run the vgpu memory/divergence sanitizer
    (``VirtualGPU(sanitize=True)``); off by default.
``REPRO_WATCHDOG_S``
    Wall-clock watchdog (seconds, float) for team simulation; ``0``
    (the default) disables it.
``REPRO_SERVE_WORKERS``
    Worker threads of a :class:`repro.serve.SimulationService`
    (default 4).
``REPRO_SERVE_QUEUE``
    Admitted-but-not-yet-running requests a service will hold beyond
    its workers (default 16).
``REPRO_SERVE_MAX_INFLIGHT``
    Hard cap on unfinished requests per service; ``0`` (the default)
    derives the cap as workers + queue depth.
``REPRO_SERVE_RETRIES``
    Total launch attempts per served request (default 2 = one run on
    the requested engine plus one retry on a fresh per-op decoded
    device after an internal engine fault; 1 disables retries).
``REPRO_SERVE_BACKOFF_S``
    Base of the exponential retry backoff in seconds (default 0 = no
    sleep between attempts); each attempt waits
    ``base * 2**(attempt-1)`` with deterministic jitter, capped.
``REPRO_SERVE_BREAKER_THRESHOLD``
    Consecutive *internal* failures of one (program, options) after
    which its circuit breaker opens (default 5; 0 disables breaking).
``REPRO_SERVE_DRAIN_S``
    Default drain budget for ``SimulationService.close()`` in seconds;
    ``0`` (the default) drains without a deadline (the pre-resilience
    behaviour).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Values that read as "off" for boolean knobs (case-insensitive).
_FALSY = ("0", "off", "false", "no", "")


@dataclass(frozen=True)
class EnvKnob:
    """One documented environment variable."""

    name: str
    kind: str  # "flag" | "int" | "float" | "str" | "choice"
    default: str
    help: str
    choices: Tuple[str, ...] = ()


#: The authoritative registry.  Every ``REPRO_*`` variable the code
#: reads must appear here (enforced by tests/config/test_envconfig.py).
KNOBS: Dict[str, EnvKnob] = {
    knob.name: knob
    for knob in (
        EnvKnob("REPRO_SIM_ENGINE", "choice", "decoded",
                "simulator execution engine", ("decoded", "warp")),
        EnvKnob("REPRO_JOBS", "int", "1",
                "worker processes for independent bench cells"),
        EnvKnob("REPRO_CACHE", "flag", "1",
                "enable the compile cache"),
        EnvKnob("REPRO_CACHE_DIR", "str", ".repro-cache",
                "on-disk compile cache directory"),
        EnvKnob("REPRO_CACHE_DISK", "flag", "1",
                "persist the compile cache to disk"),
        EnvKnob("REPRO_CACHE_SIZE", "int", "128",
                "in-memory compile-cache LRU capacity"),
        EnvKnob("REPRO_TRACE", "flag", "0",
                "enable the repro.trace event collector"),
        EnvKnob("REPRO_FAULTS", "str", "",
                "fault-injection plan (site:key=value;... grammar)"),
        EnvKnob("REPRO_SANITIZE", "flag", "0",
                "enable the vgpu memory/divergence sanitizer"),
        EnvKnob("REPRO_WATCHDOG_S", "float", "0",
                "wall-clock watchdog for team simulation (s)"),
        EnvKnob("REPRO_SERVE_WORKERS", "int", "4",
                "worker threads of a repro.serve SimulationService"),
        EnvKnob("REPRO_SERVE_QUEUE", "int", "16",
                "queued requests a service holds beyond its workers"),
        EnvKnob("REPRO_SERVE_MAX_INFLIGHT", "int", "0",
                "hard cap on unfinished served requests (0 = derived)"),
        EnvKnob("REPRO_SERVE_RETRIES", "int", "2",
                "total launch attempts per served request (1 = no retry)"),
        EnvKnob("REPRO_SERVE_BACKOFF_S", "float", "0",
                "retry backoff base in seconds (0 = immediate retry)"),
        EnvKnob("REPRO_SERVE_BREAKER_THRESHOLD", "int", "5",
                "consecutive internal failures that open a circuit "
                "breaker (0 = disabled)"),
        EnvKnob("REPRO_SERVE_DRAIN_S", "float", "0",
                "default SimulationService.close() drain budget (s; "
                "0 = unbounded)"),
    )
}


def _raw(name: str) -> Optional[str]:
    if name not in KNOBS:  # guard against undocumented knobs creeping in
        raise KeyError(f"undocumented environment knob {name!r}")
    return os.environ.get(name)


def env_flag(name: str, default: Optional[bool] = None) -> bool:
    """Boolean knob: anything but ``0/off/false/no`` (or empty) is True."""
    raw = _raw(name)
    if raw is None:
        if default is not None:
            return default
        raw = KNOBS[name].default
    return raw.strip().lower() not in _FALSY


def env_int(name: str, default: Optional[int] = None) -> int:
    """Integer knob; malformed values fall back to the default."""
    raw = _raw(name)
    fallback = default if default is not None else int(KNOBS[name].default)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        return fallback


def env_float(name: str, default: Optional[float] = None) -> float:
    """Float knob; malformed values fall back to the default."""
    raw = _raw(name)
    fallback = default if default is not None else float(KNOBS[name].default)
    if raw is None:
        return fallback
    try:
        return float(raw)
    except ValueError:
        return fallback


def env_str(name: str, default: Optional[str] = None) -> str:
    raw = _raw(name)
    if raw is not None:
        return raw
    return default if default is not None else KNOBS[name].default


# ------------------------------------------------------- typed accessors --


def sim_engine() -> str:
    """Raw ``REPRO_SIM_ENGINE`` value (validated by the vgpu layer)."""
    return env_str("REPRO_SIM_ENGINE")


def jobs() -> int:
    return env_int("REPRO_JOBS")


def cache_enabled() -> bool:
    return env_flag("REPRO_CACHE")


def cache_disk() -> bool:
    return env_flag("REPRO_CACHE_DISK")


def cache_dir() -> str:
    return env_str("REPRO_CACHE_DIR")


def cache_size() -> int:
    return env_int("REPRO_CACHE_SIZE")


def trace_enabled() -> bool:
    return env_flag("REPRO_TRACE")


def faults_spec() -> str:
    """Raw ``REPRO_FAULTS`` plan text ('' = no injection)."""
    return env_str("REPRO_FAULTS")


def sanitize_enabled() -> bool:
    return env_flag("REPRO_SANITIZE")


def watchdog_s() -> float:
    """Team-simulation watchdog in seconds (0 = disabled)."""
    return max(0.0, env_float("REPRO_WATCHDOG_S"))


def serve_workers() -> int:
    return max(1, env_int("REPRO_SERVE_WORKERS"))


def serve_queue() -> int:
    return max(0, env_int("REPRO_SERVE_QUEUE"))


def serve_max_in_flight() -> int:
    """0 means "derive from workers + queue depth"."""
    return max(0, env_int("REPRO_SERVE_MAX_INFLIGHT"))


def serve_retries() -> int:
    """Total launch attempts per served request (minimum 1)."""
    return max(1, env_int("REPRO_SERVE_RETRIES"))


def serve_backoff_s() -> float:
    """Retry backoff base in seconds (0 = immediate retry)."""
    return max(0.0, env_float("REPRO_SERVE_BACKOFF_S"))


def serve_breaker_threshold() -> int:
    """Consecutive internal failures that open a breaker (0 = off)."""
    return max(0, env_int("REPRO_SERVE_BREAKER_THRESHOLD"))


def serve_drain_s() -> float:
    """Default ``close()`` drain budget in seconds (0 = unbounded)."""
    return max(0.0, env_float("REPRO_SERVE_DRAIN_S"))


def describe_env() -> str:
    """Render the knob registry as the documentation table."""
    width = max(len(k) for k in KNOBS)
    lines = []
    for knob in KNOBS.values():
        extra = f" (one of {', '.join(knob.choices)})" if knob.choices else ""
        lines.append(
            f"{knob.name:<{width}}  default={knob.default!r:<16} "
            f"{knob.help}{extra}"
        )
    return "\n".join(lines)
