"""Content-addressed compile cache.

``CompileCache`` memoizes :func:`repro.frontend.driver.
compile_program` results keyed on the :mod:`~repro.toolchain.
fingerprint` of ``(program, options)``:

* an in-memory LRU of live, frozen compiled programs — every
  hit returns the same shared program with nothing unpickled.  It is
  frozen once, on the miss or disk restore that made it: any in-place
  edit of its module raises, so a caller cannot poison later hits, and
  launch-time analyses of its content (resource measurement, static
  decode) are computed once on the module.  A caller that needs to edit
  the module takes :meth:`CompiledProgram.mutable_copy`;
* an optional on-disk pickle store (default ``.repro-cache/`` in the
  working directory) shared across processes, which is what lets the
  parallel build-matrix workers and repeated CLI invocations skip the
  openmp-opt pipeline entirely.  Entry files carry
  :data:`~repro.toolchain.fingerprint.CACHE_FORMAT_VERSION` in their
  name, so a store written by another layout is never read.

Environment knobs (read by :func:`get_compile_cache`):

* ``REPRO_CACHE=0`` — disable caching entirely;
* ``REPRO_CACHE_DIR=<path>`` — relocate the on-disk store;
* ``REPRO_CACHE_DISK=0`` — keep the cache in-memory only;
* ``REPRO_CACHE_SIZE=<n>`` — in-memory LRU capacity (default 128).

Hit/miss counters are surfaced in the metrics JSON of
``python -m repro.bench trace`` (``compile_cache``).
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.toolchain.fingerprint import (
    CACHE_FORMAT_VERSION,
    compile_fingerprint,
    deep_recursion,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.frontend import ast as A
    from repro.frontend.driver import CompiledProgram, CompileOptions

#: Default location of the on-disk store, relative to the working dir.
DEFAULT_DISK_DIR = ".repro-cache"


@dataclass
class CacheStats:
    """Counters for one :class:`CompileCache`."""

    hits: int = 0
    misses: int = 0
    #: Subset of *hits* that were restored from the on-disk store.
    disk_hits: int = 0
    #: Entries written to the on-disk store.
    disk_stores: int = 0
    #: In-memory entries dropped to respect ``max_entries``.
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out["hit_rate"] = self.hit_rate
        return out


class CompileCache:
    """LRU + disk-backed memo table for compiled programs."""

    def __init__(
        self,
        max_entries: int = 128,
        disk_dir: Optional[os.PathLike] = None,
    ) -> None:
        self.max_entries = max(1, int(max_entries))
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        # key -> frozen CompiledProgram, shared by every hit
        self._entries: "OrderedDict[str, CompiledProgram]" = OrderedDict()
        self.stats = CacheStats()

    # ------------------------------------------------------------- lookup --

    def get_or_compile(
        self, program: "A.Program", options: "CompileOptions"
    ) -> "CompiledProgram":
        """Return the compilation of ``(program, options)``, compiling at
        most once per distinct fingerprint."""
        from repro.frontend.driver import compile_program_uncached

        from repro.trace.collector import active_or_none

        trace = active_or_none()
        key = compile_fingerprint(program, options)
        compiled = self._entries.get(key)
        if compiled is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            if trace is not None:
                trace.instant("cache.hit", cat="toolchain",
                              source="memory", key=key[:12])
            return compiled
        compiled = self._disk_load(key)
        if compiled is not None:
            self.stats.hits += 1
            self.stats.disk_hits += 1
            self._remember(key, compiled)
            if trace is not None:
                trace.instant("cache.hit", cat="toolchain",
                              source="disk", key=key[:12])
            return compiled
        self.stats.misses += 1
        if trace is not None:
            trace.instant("cache.miss", cat="toolchain", key=key[:12])
        compiled = compile_program_uncached(program, options).freeze()
        self._remember(key, compiled)
        self._disk_store(key, compiled)
        return compiled

    def __len__(self) -> int:
        return len(self._entries)

    def __getstate__(self) -> Dict[str, Any]:
        # A copy sent to another process (a pool worker) shares the
        # on-disk store only: entries and counters stay with the
        # process that made them.
        return {"max_entries": self.max_entries, "disk_dir": self.disk_dir}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(**state)

    def clear(self, disk: bool = False) -> None:
        """Drop every in-memory entry (and the disk store with ``disk=True``)."""
        self._entries.clear()
        if disk and self.disk_dir is not None and self.disk_dir.is_dir():
            for path in self.disk_dir.glob("*.pkl"):
                try:
                    path.unlink()
                except OSError:
                    pass

    # ---------------------------------------------------------- internals --

    def _remember(self, key: str, compiled: "CompiledProgram") -> None:
        self._entries[key] = compiled
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def _disk_path(self, key: str) -> Optional[Path]:
        if self.disk_dir is None:
            return None
        return self.disk_dir / f"{key}.v{CACHE_FORMAT_VERSION}.pkl"

    def _disk_load(self, key: str) -> Optional["CompiledProgram"]:
        """The frozen program stored under *key*, or None.  A corrupt
        file is deleted, never remembered."""
        path = self._disk_path(key)
        if path is None or not path.is_file():
            return None
        try:
            with deep_recursion():
                return pickle.loads(path.read_bytes()).freeze()
        except Exception:
            # Corrupt or stale entry: drop it and recompile.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _disk_store(self, key: str, compiled: "CompiledProgram") -> None:
        path = self._disk_path(key)
        if path is None:
            return
        try:
            with deep_recursion():
                blob = pickle.dumps(compiled)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
            self.stats.disk_stores += 1
        except Exception:
            # Caching is an optimization; never fail a compile over it.
            pass


# --------------------------------------------------------- global instance --

_global_cache: Optional[CompileCache] = None
_configured = False


def get_compile_cache() -> Optional[CompileCache]:
    """The process-wide cache ``compile_program`` routes through, built
    from the ``REPRO_CACHE*`` environment on first use (None = disabled)."""
    from repro import envconfig

    global _global_cache, _configured
    if _configured:
        return _global_cache
    if not envconfig.cache_enabled():
        cache: Optional[CompileCache] = None
    else:
        disk_dir: Optional[str] = (
            envconfig.cache_dir() if envconfig.cache_disk() else None
        )
        cache = CompileCache(
            max_entries=envconfig.cache_size(),
            disk_dir=disk_dir,
        )
    _global_cache = cache
    _configured = True
    return _global_cache


def configure_compile_cache(cache: Optional[CompileCache]) -> Optional[CompileCache]:
    """Install *cache* (or None to disable) as the process-wide cache."""
    global _global_cache, _configured
    _global_cache = cache
    _configured = True
    return cache


def reset_compile_cache() -> None:
    """Forget the process-wide cache; the next use re-reads the env."""
    global _global_cache, _configured
    _global_cache = None
    _configured = False
