"""Trace materialization cache: exact replay and bounded memory."""

import pytest

from repro.core.config import SimConfig
from repro.errors import ConfigError
from repro.sim.engine import simulate
from repro.sim.tracecache import (
    MaterializedTrace,
    TraceCache,
    materialize,
    shared_trace_cache,
    trace_key,
)
from repro.workloads.registry import WORKLOAD_NAMES, build_workload

from tests.conftest import ScriptedWorkload

SCALE = 64

#: Values on each side of every signed typecode edge, with the least
#: ``array`` itemsize that holds each.
EDGES = [
    (127, 1), (128, 2), (-128, 1), (-129, 2),
    (32_767, 2), (32_768, 4), (2**31 - 1, 4), (2**31, 8),
]


class TestMaterializedTrace:
    def test_replay_equals_generator_walk(self):
        workload = build_workload("microbenchmark", scale=SCALE)
        trace = materialize(workload, seed=0, input_set="ref")
        assert list(trace) == list(workload.trace(seed=0, input_set="ref"))
        assert len(trace) == len(trace.pages)

    def test_nbytes_counts_all_columns(self):
        workload = build_workload("microbenchmark", scale=SCALE)
        trace = materialize(workload, seed=0, input_set="ref")
        columns = (trace.instructions, trace.pages, trace.cycles)
        assert trace.nbytes == sum(column.itemsize for column in columns) * len(trace)

    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize(("value", "itemsize"), EDGES)
    def test_column_widens_to_the_least_itemsize(self, column, value, itemsize):
        """A value past a column's typecode, first seen after 1,000
        events, widens only that column, and replay stays exact."""
        events = [(i % 100, i % 90, i % 80) for i in range(1_000)]
        edge = [1, 1, 1]
        edge[column] = value
        events += [tuple(edge), (5, 6, 7), tuple(edge)]
        trace = materialize(
            ScriptedWorkload(events, footprint_pages=100), seed=0, input_set="ref"
        )
        assert list(trace) == events
        columns = (trace.instructions, trace.pages, trace.cycles)
        assert [c.itemsize for c in columns] == [
            itemsize if i == column else 1 for i in range(3)
        ]

    def test_value_past_int64_still_raises(self):
        events = [(0, 0, 1)] * 10 + [(0, 0, 2**63)]
        with pytest.raises(OverflowError):
            materialize(ScriptedWorkload(events), seed=0, input_set="ref")

    def test_registry_traces_take_at_most_eight_bytes_per_event(self):
        for name in WORKLOAD_NAMES:
            trace = materialize(build_workload(name, scale=32), seed=0, input_set="ref")
            assert trace.nbytes <= 8 * len(trace), name


class TestTraceCache:
    def test_hit_returns_same_object(self):
        cache = TraceCache()
        workload = build_workload("microbenchmark", scale=SCALE)
        first = cache.get(workload, seed=0, input_set="ref")
        second = cache.get(workload, seed=0, input_set="ref")
        assert first is second
        assert cache.hits == 1
        assert cache.misses == 1

    def test_key_includes_scale_via_footprint(self):
        cache = TraceCache()
        small = build_workload("microbenchmark", scale=128)
        large = build_workload("microbenchmark", scale=SCALE)
        assert trace_key(small, 0, "ref") != trace_key(large, 0, "ref")
        a = cache.get(small, seed=0, input_set="ref")
        b = cache.get(large, seed=0, input_set="ref")
        assert len(cache) == 2
        assert len(a) != len(b)

    def test_key_includes_the_registry_scale(self):
        """Footprints floored at 192 pages cannot tell leela's scales apart."""
        small, large = build_workload("leela", scale=64), build_workload("leela", scale=32)
        assert small.footprint_pages == large.footprint_pages
        assert (small.scale, large.scale) == (64, 32)
        assert trace_key(small, 0, "ref") != trace_key(large, 0, "ref")

    def test_key_includes_seed_and_input_set(self):
        cache = TraceCache()
        workload = build_workload("microbenchmark", scale=SCALE)
        cache.get(workload, seed=0, input_set="ref")
        cache.get(workload, seed=1, input_set="ref")
        cache.get(workload, seed=0, input_set="train")
        assert cache.misses == 3

    def test_lru_evicts_under_byte_budget(self):
        workload = build_workload("microbenchmark", scale=SCALE)
        one_trace = materialize(workload, seed=0, input_set="ref")
        # Room for roughly two of these traces, not three.
        cache = TraceCache(max_bytes=int(one_trace.nbytes * 2.5))
        cache.get(workload, seed=0, input_set="ref")
        cache.get(workload, seed=1, input_set="ref")
        assert cache.evictions == 0
        cache.get(workload, seed=2, input_set="ref")
        assert cache.evictions == 1
        assert cache.current_bytes <= cache.max_bytes
        # The least recently used entry (seed=0) is the one that left.
        assert trace_key(workload, 0, "ref") not in cache
        assert trace_key(workload, 2, "ref") in cache

    def test_recency_refresh_protects_hot_entries(self):
        workload = build_workload("microbenchmark", scale=SCALE)
        one_trace = materialize(workload, seed=0, input_set="ref")
        cache = TraceCache(max_bytes=int(one_trace.nbytes * 2.5))
        cache.get(workload, seed=0, input_set="ref")
        cache.get(workload, seed=1, input_set="ref")
        cache.get(workload, seed=0, input_set="ref")  # refresh seed=0
        cache.get(workload, seed=2, input_set="ref")  # evicts seed=1
        assert trace_key(workload, 0, "ref") in cache
        assert trace_key(workload, 1, "ref") not in cache

    def test_oversized_trace_served_but_not_stored(self):
        cache = TraceCache(max_bytes=16)
        workload = build_workload("microbenchmark", scale=SCALE)
        trace = cache.get(workload, seed=0, input_set="ref")
        assert isinstance(trace, MaterializedTrace)
        assert len(trace) > 0
        assert len(cache) == 0
        assert cache.current_bytes == 0

    def test_stats_snapshot_is_json_ready(self):
        import json

        cache = TraceCache()
        cache.get(build_workload("microbenchmark", scale=SCALE), seed=0)
        snapshot = cache.stats()
        json.dumps(snapshot)
        assert snapshot["entries"] == 1
        assert snapshot["misses"] == 1

    def test_invalid_budget_rejected(self):
        with pytest.raises(ConfigError):
            TraceCache(max_bytes=0)

    def test_shared_cache_is_a_singleton(self):
        assert shared_trace_cache() is shared_trace_cache()


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_cached_and_uncached_simulations_agree(name):
    """Replaying a materialized trace is invisible to the simulation:
    every registered workload yields an equal RunResult either way."""
    config = SimConfig.scaled(SCALE)
    workload = build_workload(name, scale=SCALE)
    trace = TraceCache().get(workload, seed=0, input_set="ref")
    cached = simulate(
        workload, config, "dfp-stop", seed=0, max_accesses=2_000, trace=trace
    )
    uncached = simulate(workload, config, "dfp-stop", seed=0, max_accesses=2_000)
    assert cached == uncached
