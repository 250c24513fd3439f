"""Unit contract of :class:`repro.enclave.sanitizer.SimSanitizer`.

These tests drive the hooks directly against stub EPC/channel state so
each invariant can be violated in isolation; the end-to-end injection
tests live in ``tests/integration/test_sanitizer_end_to_end.py``.
"""

import pytest

from repro.enclave.events import EventKind
from repro.enclave.loader import LoadKind
from repro.enclave.sanitizer import TRACE_TAIL_LENGTH, SimSanitizer
from repro.enclave.stats import RunStats
from repro.errors import ReproError, SanitizerError, SimulationError


class StubEpc:
    """Just enough EPC surface for the sanitizer: residency + capacity."""

    def __init__(self, capacity=4, resident=()):
        self.capacity = capacity
        self.resident = set(resident)

    @property
    def resident_count(self):
        return len(self.resident)

    def is_resident(self, page):
        return page in self.resident


class StubChannel:
    """Just enough channel surface: the in-flight page and the queue."""

    def __init__(self, current=None, queued=()):
        self.current_page = current
        self.queued = set(queued)

    def is_queued(self, page):
        return page in self.queued


def make_sanitizer(epc=None, channel=None, **kwargs):
    return SimSanitizer(
        epc if epc is not None else StubEpc(),
        channel if channel is not None else StubChannel(),
        **kwargs,
    )


class TestErrorType:
    def test_sanitizer_error_is_a_simulation_error(self):
        assert issubclass(SanitizerError, SimulationError)
        assert issubclass(SanitizerError, ReproError)

    def test_error_carries_and_formats_the_trace(self):
        exc = SanitizerError("boom", trace=["[1] aex", "[2] scan"])
        assert exc.trace == ("[1] aex", "[2] scan")
        assert "event trace" in str(exc)
        assert "[2] scan" in str(exc)

    def test_error_without_trace_is_plain(self):
        exc = SanitizerError("boom")
        assert exc.trace == ()
        assert str(exc) == "boom"


class TestLoadChecks:
    def test_clean_load_passes_and_counts_checks(self):
        san = make_sanitizer(StubEpc(capacity=4, resident={7}))
        san.check_load(7, LoadKind.DEMAND, finish=100)
        assert san.checks == 3
        assert san.violations == 0

    def test_overcommitted_epc_is_caught(self):
        san = make_sanitizer(StubEpc(capacity=2, resident={1, 2, 3}))
        with pytest.raises(SanitizerError, match="over-committed"):
            san.check_load(3, LoadKind.PRELOAD, finish=100)
        assert san.violations == 1

    def test_load_that_did_not_land_is_caught(self):
        san = make_sanitizer(StubEpc(capacity=4, resident=()))
        with pytest.raises(SanitizerError, match="not resident"):
            san.check_load(9, LoadKind.DEMAND, finish=100)

    def test_resident_page_still_queued_is_caught(self):
        san = make_sanitizer(
            StubEpc(capacity=4, resident={5}), StubChannel(queued={5})
        )
        with pytest.raises(SanitizerError, match="still queued"):
            san.check_load(5, LoadKind.DEMAND, finish=100)

    def test_redundant_preload_always_fails(self):
        san = make_sanitizer()
        with pytest.raises(SanitizerError, match="already resident"):
            san.check_redundant_preload(5, finish=100)


class TestEnqueueAndAbortChecks:
    def test_enqueueing_resident_page_is_caught(self):
        san = make_sanitizer(StubEpc(capacity=4, resident={3}))
        with pytest.raises(SanitizerError, match="already\\s+resident"):
            san.check_enqueue([2, 3], now=50)

    def test_enqueueing_inflight_page_is_caught(self):
        san = make_sanitizer(channel=StubChannel(current=8))
        with pytest.raises(SanitizerError, match="in flight"):
            san.check_enqueue([8], now=50)

    def test_enqueueing_queued_page_is_caught(self):
        san = make_sanitizer(channel=StubChannel(queued={4}))
        with pytest.raises(SanitizerError, match="already\\s+queued"):
            san.check_enqueue([4], now=50)

    def test_abort_of_loaded_page_is_caught(self):
        san = make_sanitizer(StubEpc(capacity=4, resident={6}))
        with pytest.raises(SanitizerError, match="already loaded"):
            san.check_abort([6], now=70)

    def test_abort_of_queued_only_pages_passes(self):
        san = make_sanitizer(StubEpc(capacity=4, resident={1}))
        san.check_abort([2, 3], now=70)
        assert san.violations == 0

    def test_enqueue_is_recorded_in_the_trace(self):
        san = make_sanitizer(StubEpc(capacity=4, resident={3}))
        with pytest.raises(SanitizerError) as excinfo:
            san.check_enqueue([3], now=50)
        assert any("enqueue burst" in entry for entry in excinfo.value.trace)


class TestCounterChecks:
    def test_monotone_counters_pass(self):
        san = make_sanitizer()
        san.check_counters(10, 4, now=100)
        san.check_counters(12, 6, now=200)
        assert san.violations == 0

    def test_acc_exceeding_preload_is_caught(self):
        san = make_sanitizer()
        with pytest.raises(SanitizerError, match="exceeds PreloadCounter"):
            san.check_counters(5, 6, now=100)

    def test_preload_counter_decrease_is_caught(self):
        san = make_sanitizer()
        san.check_counters(10, 4, now=100)
        with pytest.raises(SanitizerError, match="PreloadCounter decreased"):
            san.check_counters(9, 4, now=200)

    def test_acc_counter_decrease_is_caught(self):
        san = make_sanitizer()
        san.check_counters(10, 4, now=100)
        with pytest.raises(SanitizerError, match="AccPreloadCounter decreased"):
            san.check_counters(11, 3, now=200)

    def test_scan_is_recorded_in_the_trace(self):
        san = make_sanitizer()
        san.check_counters(10, 4, now=100)
        assert any("PreloadCounter=10" in entry for entry in san.trace_tail)


class TestTickChecks:
    def test_matching_accounting_passes(self):
        stats = RunStats()
        stats.time.compute = 700
        stats.time.aex = 300
        san = make_sanitizer()
        san.check_tick(stats, clock=1000, now=900)
        assert san.violations == 0

    def test_drifted_accounting_is_caught_with_delta(self):
        stats = RunStats()
        stats.time.compute = 999
        san = make_sanitizer()
        with pytest.raises(SanitizerError, match=r"drifted.*-1"):
            san.check_tick(stats, clock=1000, now=900)

    def test_final_check_covers_abort_accounting(self):
        stats = RunStats()
        stats.preloads_enqueued = 3
        stats.preloads_aborted = 5
        san = make_sanitizer()
        with pytest.raises(SanitizerError, match="more preloads aborted"):
            san.check_final(stats, clock=0)


class TestTrace:
    def test_ring_buffer_is_bounded(self):
        san = make_sanitizer()
        for i in range(TRACE_TAIL_LENGTH * 3):
            san.record_event(EventKind.AEX, i, i + 1)
        assert len(san.trace_tail) == TRACE_TAIL_LENGTH

    def test_events_format_with_kind_and_page(self):
        san = make_sanitizer()
        san.record_event(EventKind.PRELOAD, 10, 54, page=42)
        assert san.trace_tail[-1] == "[10..54] preload page=42"

    def test_notes_format_with_their_values(self):
        san = make_sanitizer()
        san.check_enqueue([2, 3], now=50)
        san.check_abort([2], now=60)
        san.check_counters(1, 0, now=70)
        san.check_final(RunStats(), clock=0)
        assert san.trace_tail == (
            "[50] enqueue burst [2, 3]",
            "[60] abort drops [2]",
            "[70] scan: PreloadCounter=1 AccPreloadCounter=0",
            "[0] run end",
        )

    def test_label_prefixes_failures(self):
        san = make_sanitizer(StubEpc(capacity=1, resident={1, 2}), label="lbm")
        with pytest.raises(SanitizerError, match="^lbm:"):
            san.check_load(1, LoadKind.DEMAND, finish=5)
