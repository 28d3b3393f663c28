"""Content-addressed compile cache.

``CompileCache`` memoizes :func:`repro.frontend.driver.
compile_program` results keyed on the :mod:`~repro.toolchain.
fingerprint` of ``(program, options)``:

* an in-memory LRU of pristine pickled snapshots — every hit returns a
  freshly unpickled, independent :class:`CompiledProgram`, so callers
  can mutate the module they got back without poisoning later hits
  (``pickle.loads`` is also an order of magnitude cheaper than
  ``copy.deepcopy`` on these module graphs);
* an optional on-disk pickle store (default ``.repro-cache/`` in the
  working directory) shared across processes, which is what lets the
  parallel build-matrix workers and repeated CLI invocations skip the
  openmp-opt pipeline entirely.

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
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.toolchain.fingerprint import compile_fingerprint, deep_recursion

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
        # key -> pickled CompiledProgram snapshot
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
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
        blob = self._entries.get(key)
        if blob is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            if trace is not None:
                trace.instant("cache.hit", cat="toolchain",
                              source="memory", key=key[:12])
            return self._loads(blob)
        restored = self._disk_load(key)
        if restored is not None:
            blob, compiled = restored
            self.stats.hits += 1
            self.stats.disk_hits += 1
            self._remember(key, blob)
            if trace is not None:
                trace.instant("cache.hit", cat="toolchain",
                              source="disk", key=key[:12])
            return compiled
        self.stats.misses += 1
        if trace is not None:
            trace.instant("cache.miss", cat="toolchain", key=key[:12])
        compiled = compile_program_uncached(program, options)
        blob = self._dumps(compiled)
        if blob is not None:
            self._remember(key, blob)
            self._disk_store(key, blob)
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

    def _remember(self, key: str, blob: bytes) -> None:
        self._entries[key] = blob
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    @staticmethod
    def _loads(blob: bytes) -> "CompiledProgram":
        with deep_recursion():
            return pickle.loads(blob)

    @staticmethod
    def _dumps(compiled: "CompiledProgram") -> Optional[bytes]:
        try:
            with deep_recursion():
                return pickle.dumps(compiled)
        except Exception:
            # Caching is an optimization; never fail a compile over it.
            return None

    def _disk_path(self, key: str) -> Optional[Path]:
        return self.disk_dir / f"{key}.pkl" if self.disk_dir is not None else None

    def _disk_load(self, key: str) -> Optional[tuple]:
        """Return ``(blob, compiled)`` or None.  Unpickling here both
        validates the entry and produces the object handed to the
        caller, so a corrupt file is detected before it is remembered."""
        path = self._disk_path(key)
        if path is None or not path.is_file():
            return None
        try:
            blob = path.read_bytes()
            with deep_recursion():
                return blob, pickle.loads(blob)
        except Exception:
            # Corrupt or stale entry: drop it and recompile.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _disk_store(self, key: str, blob: bytes) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        try:
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
