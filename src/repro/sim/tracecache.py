"""Trace materialization cache for the simulation hot path.

Workload traces are deterministic in ``(workload, seed, input_set)``
(see :mod:`repro.workloads.base`), yet every scheme comparison used to
regenerate the same event stream once per scheme: a four-scheme
comparison walked the same generator pipeline — phase factories, page
bounds checks, instruction checks — four times.  This module
materializes a trace once into three compact ``array`` columns, each
in the narrowest signed typecode that holds its values, and replays it
for every subsequent run of the same key.

Replay is exact: :class:`MaterializedTrace` yields the identical
``(instruction, page, compute_cycles)`` tuples the generator would
have produced, so cached and uncached simulations are equal
result-for-result (asserted in ``tests/sim/test_tracecache.py``).

The cache is a bounded LRU measured in *bytes* of column storage, not
entries, because trace lengths vary by orders of magnitude between a
microbenchmark and a paper-scale SPEC model.  A trace larger than the
whole budget is materialized and returned but never stored.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.errors import ConfigError
from repro.units import MIB
from repro.workloads.base import TraceEvent, Workload

__all__ = [
    "CacheKey",
    "MaterializedTrace",
    "TraceCache",
    "DEFAULT_TRACE_CACHE_BYTES",
    "materialize",
    "trace_key",
    "shared_trace_cache",
]

#: Default byte budget of the process-wide shared cache.  One seed of
#: every registry workload takes 2.5 MiB at scale 16 (489,301 events,
#: 5.35 bytes each) and 51.4 MiB at paper scale (7,828,464 events, 6.89
#: bytes each), so four paper-scale sets fit.
DEFAULT_TRACE_CACHE_BYTES = 256 * MIB

#: Signed ``array`` typecodes, narrowest first, each with the bound of
#: the range ``[-bound, bound)`` it holds.
_SIGNED = tuple((code, 1 << (8 * array(code).itemsize - 1)) for code in "bhiq")

#: Identity of one materialized trace: ``(name, scale, footprint_pages,
#: seed, input_set)``.  Workload *names* do not encode the build scale,
#: and the footprint cannot stand in for it: registry footprints are
#: floored at 192 pages, so ``leela`` at scales 32 and 64 share one
#: footprint but not one trace.  The registry stamps the scale; the
#: footprint still tells apart workloads built outside it (scale None).
CacheKey = Tuple[str, Optional[int], int, int, str]


@dataclass(frozen=True)
class MaterializedTrace:
    """One workload trace, stored as three parallel ``array`` columns.

    Each column has the narrowest signed typecode that holds its values.
    Iterating yields the same :data:`~repro.workloads.base.TraceEvent`
    tuples as the originating generator, in the same order.
    """

    key: CacheKey
    instructions: array
    pages: array
    cycles: array

    def __iter__(self) -> Iterator[TraceEvent]:
        return zip(self.instructions, self.pages, self.cycles)

    def __len__(self) -> int:
        return len(self.pages)

    @property
    def nbytes(self) -> int:
        """Bytes of column storage this trace occupies."""
        return sum(
            column.itemsize * len(column)
            for column in (self.instructions, self.pages, self.cycles)
        )


def materialize(workload: Workload, *, seed: int, input_set: str) -> MaterializedTrace:
    """Walk one trace generator to completion into compact columns.

    Every column starts one byte wide and is widened, in the same walk,
    by the first value it cannot hold.
    """
    instructions = array("b")
    pages = array("b")
    cycles = array("b")
    for instr, page, compute in workload.trace(seed=seed, input_set=input_set):
        try:
            instructions.append(instr)
        except OverflowError:
            instructions = _widened(instructions, instr)
        try:
            pages.append(page)
        except OverflowError:
            pages = _widened(pages, page)
        try:
            cycles.append(compute)
        except OverflowError:
            cycles = _widened(cycles, compute)
    return MaterializedTrace(
        key=trace_key(workload, seed, input_set),
        instructions=instructions,
        pages=pages,
        cycles=cycles,
    )


def _widened(column: array, value: int) -> array:
    """``column`` copied into the narrowest typecode that holds ``value``, then
    ``value`` appended; past int64 the append raises :class:`OverflowError`."""
    code = next((code for code, bound in _SIGNED if -bound <= value < bound), "q")
    column = array(code, column)
    column.append(value)
    return column


def trace_key(workload: Workload, seed: int, input_set: str) -> CacheKey:
    """The cache identity of one ``(workload, seed, input_set)`` trace."""
    return (workload.name, workload.scale, workload.footprint_pages, seed, input_set)


class TraceCache:
    """A bounded, byte-budgeted LRU of materialized traces."""

    def __init__(self, max_bytes: int = DEFAULT_TRACE_CACHE_BYTES) -> None:
        if max_bytes <= 0:
            raise ConfigError(f"trace cache budget must be positive, got {max_bytes}")
        self._max_bytes = max_bytes
        self._entries: "OrderedDict[CacheKey, MaterializedTrace]" = OrderedDict()
        self._current_bytes = 0
        #: Lifetime counters, exposed for tests and the perf harness.
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def max_bytes(self) -> int:
        """The byte budget entries are evicted to stay under."""
        return self._max_bytes

    @property
    def current_bytes(self) -> int:
        """Bytes of column storage currently held."""
        return self._current_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def get(
        self, workload: Workload, *, seed: int = 0, input_set: str = "ref"
    ) -> MaterializedTrace:
        """The materialized trace for ``(workload, seed, input_set)``.

        A hit refreshes the entry's recency; a miss walks the generator
        once, stores the columns (evicting least-recently-used entries
        past the byte budget) and returns them.
        """
        key = trace_key(workload, seed, input_set)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        entry = materialize(workload, seed=seed, input_set=input_set)
        self._store(key, entry)
        return entry

    def _store(self, key: CacheKey, entry: MaterializedTrace) -> None:
        size = entry.nbytes
        if size > self._max_bytes:
            # Larger than the whole budget: serve it, never store it —
            # caching it would evict everything else for a single entry.
            return
        self._entries[key] = entry
        self._current_bytes += size
        while self._current_bytes > self._max_bytes:
            _old_key, old = self._entries.popitem(last=False)
            self._current_bytes -= old.nbytes
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()
        self._current_bytes = 0

    def stats(self) -> dict:
        """JSON-ready snapshot of the cache's state and counters."""
        return {
            "entries": len(self._entries),
            "current_bytes": self._current_bytes,
            "max_bytes": self._max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: Process-wide shared cache (lazily built).  Workers of the parallel
#: runner each get their own copy-on-fork instance, so no locking is
#: needed anywhere.
_SHARED: Optional[TraceCache] = None


def shared_trace_cache() -> TraceCache:
    """The process-wide :class:`TraceCache` the experiment drivers use."""
    global _SHARED
    if _SHARED is None:
        _SHARED = TraceCache()
    return _SHARED
