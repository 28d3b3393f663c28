"""Toolchain service layer.

Sits between the frontend driver and the bench harness (ROADMAP:
caching, parallelism, observability):

* :mod:`repro.toolchain.fingerprint` — content addressing: stable
  fingerprints of DSL programs, compile options and lowered modules;
* :mod:`repro.toolchain.cache` — the content-addressed compile cache
  (in-memory LRU of shared, frozen programs + optional on-disk pickle
  store);
* :mod:`repro.toolchain.service` — ``ToolchainSession``/``RunRequest``,
  the single entry point apps, benches and examples construct runs
  through, including parallel build-matrix execution.
"""

from repro.toolchain.cache import (
    CacheStats,
    CompileCache,
    configure_compile_cache,
    get_compile_cache,
    reset_compile_cache,
)
from repro.toolchain.fingerprint import (
    compile_fingerprint,
    fingerprint_options,
    fingerprint_program,
    module_fingerprint,
)
from repro.toolchain.service import (
    RunRequest,
    ToolchainSession,
    resolve_jobs,
)

__all__ = [
    "CacheStats",
    "CompileCache",
    "RunRequest",
    "ToolchainSession",
    "compile_fingerprint",
    "configure_compile_cache",
    "fingerprint_options",
    "fingerprint_program",
    "get_compile_cache",
    "module_fingerprint",
    "reset_compile_cache",
    "resolve_jobs",
]
