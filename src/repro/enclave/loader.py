"""The EPC page-load channel.

Two hardware/OS constraints drive the paper's whole cost analysis
(Sections 3.1 and 5.6):

* the EPC load path is **exclusive** — it moves one page at a time
  between untrusted memory and the EPC;
* an individual page load (ELDU/ELDB, ~44,000 cycles) is
  **non-preemptible** — once started it must run to completion, so a
  demand fault arriving mid-preload waits for the in-flight load even
  when the preload turns out to be useless.

:class:`LoadChannel` models that channel on a virtual-cycle timeline.
Demand loads (faults and SIP ``page_loadin`` requests) run
synchronously from the application's point of view; DFP preloads are
queued and drained asynchronously in the background, overlapping with
enclave execution.  ``advance_to(now)`` retires every background load
that completed by ``now``, applying it to the EPC via the callback the
driver installs — so eviction decisions happen in correct time order.

Queued preloads are grouped into **bursts** (one burst per predictor
hit), each identified by a tag.  The driver uses tags to implement the
paper's in-stream abort: a fault inside one stream's queued burst
cancels that burst's remainder without disturbing the bursts of other,
still-healthy streams.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Deque, Dict, Optional, Sequence, Tuple

from repro.errors import ChannelError

__all__ = ["LoadChannel", "LoadKind"]


class LoadKind(enum.Enum):
    """Why a page is being loaded into the EPC."""

    #: Synchronous load servicing a demand page fault.
    DEMAND = "demand"
    #: Asynchronous speculative load issued by the DFP preloader.
    PRELOAD = "preload"
    #: Synchronous load issued by a SIP preload notification.
    SIP = "sip"


#: Signature of the driver callback invoked when a load lands:
#: ``apply_load(page, kind, finish_time) -> eviction_performed``.
#: The boolean drives the channel's post-load housekeeping: evicting
#: the victim (EWB) occupies the same exclusive channel *after* the
#: landing page is usable, so eviction is hidden from a lone demand
#: fault's latency but limits back-to-back load throughput.
ApplyLoad = Callable[[int, "LoadKind", int], bool]


class LoadChannel:
    """Single-lane, non-preemptible EPC load channel.

    All methods take ``now`` (virtual cycles) and require time to be
    monotonically non-decreasing across calls, which the simulation
    engine guarantees.
    """

    def __init__(
        self,
        load_cycles: int,
        apply_load: ApplyLoad,
        *,
        evict_cycles: int = 0,
    ) -> None:
        if load_cycles <= 0:
            raise ChannelError(f"load_cycles must be positive, got {load_cycles}")
        if evict_cycles < 0:
            raise ChannelError(f"evict_cycles must be non-negative, got {evict_cycles}")
        self._load_cycles = load_cycles
        self._evict_cycles = evict_cycles
        self._apply = apply_load
        # Time the channel becomes free of the *current* load.  When
        # idle this lags behind `now` until the next use.
        self._free_at = 0
        self._current: Optional[Tuple[int, LoadKind, int]] = None
        self._queue: Deque[Tuple[int, int]] = deque()  # (page, burst tag)
        self._queued_tag: Dict[int, int] = {}
        self._next_tag = 0
        # Lifetime counters (stats/invariants).
        self.demand_loads = 0
        self.sip_loads = 0
        self.preloads_enqueued = 0
        self.preloads_completed = 0
        self.preloads_aborted = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def load_cycles(self) -> int:
        """Duration of one page load on this channel."""
        return self._load_cycles

    @property
    def current_page(self) -> Optional[int]:
        """Page of the in-flight load, or None when idle."""
        return self._current[0] if self._current else None

    @property
    def current_finish(self) -> Optional[int]:
        """Finish time of the in-flight load, or None when idle."""
        return self._current[2] if self._current else None

    @property
    def queued_pages(self) -> Tuple[int, ...]:
        """Snapshot of the pending (not yet started) preload queue."""
        return tuple(page for page, _tag in self._queue)

    def is_queued(self, page: int) -> bool:
        """True if ``page`` is waiting in the preload queue."""
        return page in self._queued_tag

    def queued_tag(self, page: int) -> Optional[int]:
        """Burst tag of a queued page, or None if not queued."""
        return self._queued_tag.get(page)

    def is_idle(self, now: int) -> bool:
        """True when nothing is in flight or queued as of ``now``."""
        self.advance_to(now)
        return self._current is None and not self._queue

    # ------------------------------------------------------------------
    # Background (preload) path
    # ------------------------------------------------------------------

    def advance_to(self, now: int) -> None:
        """Retire every background load that completed by ``now``.

        Completions are applied in order at their true finish times, so
        the EPC (and its eviction clock) sees the same sequence it
        would have seen in continuous time.
        """
        while True:
            if self._current is not None:
                page, kind, finish = self._current
                if finish > now:
                    return
                self._current = None
                if kind is LoadKind.PRELOAD:
                    self.preloads_completed += 1
                evicted = self._apply(page, kind, finish)
                self._free_at = finish + (self._evict_cycles if evicted else 0)
            elif self._queue:
                page, _tag = self._queue.popleft()
                del self._queued_tag[page]
                finish = self._free_at + self._load_cycles
                self._current = (page, LoadKind.PRELOAD, finish)
            else:
                return

    def enqueue_preloads(self, pages: Sequence[int], now: int) -> int:
        """Queue one burst of speculative loads; return its tag.

        The first queued load starts as soon as the channel is free
        (immediately, if idle at ``now``).  The caller must have
        de-duplicated ``pages`` against residency, the in-flight load
        and the existing queue (the driver's ``_filter_burst``).
        """
        self.advance_to(now)
        tag = self._next_tag
        self._next_tag += 1
        if not pages:
            return tag
        for page in pages:
            if page in self._queued_tag:
                raise ChannelError(f"page {page} is already queued")
        if self._current is None and not self._queue:
            # Channel idle: background work starts now, not at the
            # stale _free_at left over from the previous load.
            self._free_at = max(self._free_at, now)
        for page in pages:
            self._queue.append((page, tag))
            self._queued_tag[page] = tag
        self.preloads_enqueued += len(pages)
        return tag

    def abort_tag(self, tag: int, now: int) -> int:
        """Drop every queued load of one burst; return how many.

        The in-flight load, if any, is *not* cancelled — it is
        non-preemptible.  This is the in-stream abort of Section 4.1:
        a demand fault inside a burst invalidates its remainder.
        """
        self.advance_to(now)
        if not self._queue:
            return 0
        keep = [(page, t) for page, t in self._queue if t != tag]
        aborted = len(self._queue) - len(keep)
        if aborted:
            self._queue = deque(keep)
            self._queued_tag = {page: t for page, t in keep}
            self.preloads_aborted += aborted
        return aborted

    def abort_pages_in_range(self, lo: int, hi: int, now: int) -> int:
        """Drop every queued preload whose page is in ``[lo, hi)``.

        Used when one enclave's valve fires on a shared platform: its
        speculative work is cancelled without touching the queued
        bursts of other enclaves.
        """
        self.advance_to(now)
        if not self._queue:
            return 0
        keep = [(page, t) for page, t in self._queue if not lo <= page < hi]
        aborted = len(self._queue) - len(keep)
        if aborted:
            self._queue = deque(keep)
            self._queued_tag = {page: t for page, t in keep}
            self.preloads_aborted += aborted
        return aborted

    def abort_all(self, now: int) -> int:
        """Drop every queued preload (used when the valve fires)."""
        self.advance_to(now)
        aborted = len(self._queue)
        self._queue.clear()
        self._queued_tag.clear()
        self.preloads_aborted += aborted
        return aborted

    # ------------------------------------------------------------------
    # Synchronous (demand / SIP) path
    # ------------------------------------------------------------------

    def wait_for_current(self, now: int) -> int:
        """Block until the in-flight load lands; return that time.

        Used when the faulting page is the one already being loaded:
        no second load is issued, the fault simply rides the in-flight
        preload to completion.  Returns ``now`` unchanged if idle.
        """
        self.advance_to(now)
        if self._current is None:
            return now
        page, kind, finish = self._current
        self._current = None
        if kind is LoadKind.PRELOAD:
            self.preloads_completed += 1
        evicted = self._apply(page, kind, finish)
        self._free_at = finish + (self._evict_cycles if evicted else 0)
        return finish

    def drain(self, now: int) -> int:
        """Run the channel until idle; return the time that happens.

        Queued preloads complete at their natural times; nothing is
        cancelled.  Returns ``now`` when already idle.
        """
        self.advance_to(now)
        t = now
        while self._current is not None:
            t = self.wait_for_current(t)
            # Promote the next queued preload (if any) to in-flight so
            # the loop drains it too.
            self.advance_to(t)
        return t

    def load_sync(self, page: int, kind: LoadKind, now: int) -> int:
        """Perform a synchronous load of ``page``; return its finish time.

        The kernel's page load-in path is exclusive and non-preemptible
        (Section 5.6): a demand load issued while the preload thread is
        working waits for the *whole* outstanding queue, not just the
        in-flight page — this is exactly why mispredicted preloading is
        so expensive and why the paper needs its abort mechanisms (the
        caller aborts the relevant burst *before* calling this).
        """
        if kind is LoadKind.PRELOAD:
            raise ChannelError("preloads must go through enqueue_preloads")
        if self._current is None and not self._queue:
            # Idle channel (the overwhelmingly common demand-fault
            # case): skip the drain machinery, start as soon as the
            # previous load's housekeeping is done.
            start = self._free_at if self._free_at > now else now
        else:
            start = self.drain(now)
            start = max(start, self._free_at, now)
        finish = start + self._load_cycles
        if kind is LoadKind.DEMAND:
            self.demand_loads += 1
        else:
            self.sip_loads += 1
        evicted = self._apply(page, kind, finish)
        self._free_at = finish + (self._evict_cycles if evicted else 0)
        return finish
