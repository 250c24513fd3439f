"""Unit tests for the exclusive, non-preemptible load channel."""

import pytest

from repro.enclave.loader import LoadChannel, LoadKind
from repro.errors import ChannelError

LOAD = 44_000


class Recorder:
    """Collects (page, kind, finish) applications in order."""

    def __init__(self, evict_pages=()):
        self.applied = []
        self._evict_pages = set(evict_pages)

    def __call__(self, page, kind, finish):
        self.applied.append((page, kind, finish))
        return page in self._evict_pages

    @property
    def pages(self):
        return [p for p, _k, _f in self.applied]


def make(evict_cycles=0, evict_pages=()):
    rec = Recorder(evict_pages)
    chan = LoadChannel(LOAD, rec, evict_cycles=evict_cycles)
    return chan, rec


class TestConstruction:
    def test_zero_load_cycles_rejected(self):
        with pytest.raises(ChannelError):
            LoadChannel(0, lambda *a: False)

    def test_negative_evict_cycles_rejected(self):
        with pytest.raises(ChannelError):
            LoadChannel(LOAD, lambda *a: False, evict_cycles=-1)


class TestSynchronousLoads:
    def test_demand_load_takes_load_cycles(self):
        chan, rec = make()
        finish = chan.load_sync(5, LoadKind.DEMAND, 1000)
        assert finish == 1000 + LOAD
        assert rec.applied == [(5, LoadKind.DEMAND, 1000 + LOAD)]
        assert chan.demand_loads == 1

    def test_back_to_back_demands_serialize(self):
        chan, _ = make()
        f1 = chan.load_sync(1, LoadKind.DEMAND, 0)
        f2 = chan.load_sync(2, LoadKind.DEMAND, f1)
        assert f2 == 2 * LOAD

    def test_eviction_housekeeping_delays_next_load_not_this_one(self):
        """EWB runs after the landing page is usable: the faulting
        thread sees 44k, but a load right behind it sees the extra."""
        chan, _ = make(evict_cycles=12_000, evict_pages={1})
        f1 = chan.load_sync(1, LoadKind.DEMAND, 0)
        assert f1 == LOAD  # latency unchanged
        f2 = chan.load_sync(2, LoadKind.DEMAND, f1)
        assert f2 == f1 + 12_000 + LOAD  # throughput pays the EWB

    def test_preload_kind_rejected_on_sync_path(self):
        chan, _ = make()
        with pytest.raises(ChannelError):
            chan.load_sync(1, LoadKind.PRELOAD, 0)

    def test_sip_load_counted_separately(self):
        chan, _ = make()
        chan.load_sync(1, LoadKind.SIP, 0)
        assert chan.sip_loads == 1
        assert chan.demand_loads == 0


class TestBackgroundPreloads:
    def test_preloads_complete_at_natural_times(self):
        chan, rec = make()
        chan.enqueue_preloads([10, 11, 12], 1000)
        chan.advance_to(1000 + 3 * LOAD)
        assert rec.applied == [
            (10, LoadKind.PRELOAD, 1000 + LOAD),
            (11, LoadKind.PRELOAD, 1000 + 2 * LOAD),
            (12, LoadKind.PRELOAD, 1000 + 3 * LOAD),
        ]
        assert chan.preloads_completed == 3

    def test_advance_is_partial(self):
        chan, rec = make()
        chan.enqueue_preloads([10, 11], 0)
        chan.advance_to(LOAD)
        assert rec.pages == [10]
        assert chan.current_page == 11

    def test_idle_channel_starts_at_enqueue_time(self):
        """A long-idle channel must not backdate preload starts."""
        chan, rec = make()
        chan.load_sync(1, LoadKind.DEMAND, 0)  # free_at = 44k
        chan.enqueue_preloads([2], 500_000)
        chan.advance_to(500_000 + LOAD)
        assert rec.applied[-1] == (2, LoadKind.PRELOAD, 500_000 + LOAD)

    def test_duplicate_queued_page_rejected(self):
        chan, _ = make()
        chan.enqueue_preloads([5, 6], 0)  # 5 goes in flight, 6 queues
        with pytest.raises(ChannelError):
            chan.enqueue_preloads([6], 0)

    def test_is_queued_and_tags(self):
        chan, _ = make()
        tag_a = chan.enqueue_preloads([1, 2], 0)
        tag_b = chan.enqueue_preloads([3], 0)
        # Page 1 starts immediately (in flight), 2 and 3 stay queued.
        assert chan.current_page == 1 or chan.is_queued(1)
        assert chan.queued_tag(2) == tag_a
        assert chan.queued_tag(3) == tag_b
        assert chan.queued_tag(99) is None


class TestAborts:
    def test_abort_tag_drops_only_that_burst(self):
        chan, rec = make()
        tag_a = chan.enqueue_preloads([1, 2, 3], 0)
        tag_b = chan.enqueue_preloads([4, 5], 0)
        # Page 1 is in flight; abort burst A's remainder (2, 3).
        dropped = chan.abort_tag(tag_a, 0)
        assert dropped == 2
        chan.advance_to(10 * LOAD)
        # 1 (in flight, non-preemptible) and burst B complete.
        assert rec.pages == [1, 4, 5]
        assert chan.preloads_aborted == 2

    def test_abort_never_cancels_in_flight(self):
        """Non-preemptible: the in-flight load always completes."""
        chan, rec = make()
        tag = chan.enqueue_preloads([7], 0)
        chan.abort_tag(tag, 0)
        chan.advance_to(LOAD)
        assert rec.pages == [7]

    def test_abort_unknown_tag_is_noop(self):
        chan, _ = make()
        chan.enqueue_preloads([1, 2], 0)
        assert chan.abort_tag(12345, 0) == 0
        assert chan.is_queued(2)


class TestDrainSemantics:
    def test_demand_waits_for_whole_queue(self):
        """Section 5.6: the load-in path is exclusive — a demand load
        issued behind a 3-page burst waits for all of it."""
        chan, rec = make()
        chan.enqueue_preloads([1, 2, 3], 0)
        finish = chan.load_sync(9, LoadKind.DEMAND, 100)
        assert finish == 4 * LOAD
        assert rec.pages == [1, 2, 3, 9]

    def test_drain_on_idle_channel_returns_now(self):
        chan, _ = make()
        assert chan.drain(777) == 777

    def test_wait_for_current_rides_in_flight(self):
        chan, rec = make()
        chan.enqueue_preloads([5, 6], 0)
        t = chan.wait_for_current(10_000)
        assert t == LOAD
        assert rec.pages == [5]
        # The queued page 6 is untouched (still pending).
        assert chan.is_queued(6)

    def test_wait_for_current_idle_is_noop(self):
        chan, _ = make()
        assert chan.wait_for_current(123) == 123


class TestIsIdle:
    def test_idle_after_drain(self):
        chan, _ = make()
        chan.enqueue_preloads([1], 0)
        assert not chan.is_idle(100)
        assert chan.is_idle(LOAD)
