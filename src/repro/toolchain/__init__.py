"""Toolchain service layer: compile and cache.

Sits between the frontend driver and the layers that run programs
(``repro.apps``, ``repro.bench``, ``repro.serve``), none of which it
imports:

* :mod:`repro.toolchain.fingerprint` — content addressing: stable
  fingerprints of DSL programs, compile options and lowered modules;
* :mod:`repro.toolchain.cache` — the content-addressed compile cache
  (in-memory LRU of shared, frozen programs + optional on-disk pickle
  store);
* :mod:`repro.toolchain.service` — ``ToolchainSession``, the compile
  entry point of apps, benches, the serve layer and the examples.
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
from repro.toolchain.service import ToolchainSession

__all__ = [
    "CacheStats",
    "CompileCache",
    "ToolchainSession",
    "compile_fingerprint",
    "configure_compile_cache",
    "fingerprint_options",
    "fingerprint_program",
    "get_compile_cache",
    "module_fingerprint",
    "reset_compile_cache",
]
