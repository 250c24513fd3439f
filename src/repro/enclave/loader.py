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
platform installs — so eviction decisions happen in correct time order.

Queued preloads are grouped into **bursts** (one burst per predictor
hit), each identified by a tag.  The driver uses tags to implement the
paper's in-stream abort: a fault inside one stream's queued burst
cancels that burst's remainder without disturbing the bursts of other,
still-healthy streams.
"""

from __future__ import annotations

import enum
import sys
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.errors import ChannelError

__all__ = ["IDLE_DUE", "LoadChannel", "LoadKind"]

#: :attr:`LoadChannel.due` of an idle channel: later than any simulated
#: time, so nothing is ever due on it.
IDLE_DUE = sys.maxsize


class LoadKind(enum.Enum):
    """Why a page is being loaded into the EPC."""

    #: Synchronous load servicing a demand page fault.
    DEMAND = "demand"
    #: Asynchronous speculative load issued by the DFP preloader.
    PRELOAD = "preload"
    #: Synchronous load issued by a SIP preload notification.
    SIP = "sip"


# Read on every load: through the class, an enum member costs a
# descriptor call on Python 3.11; a module global does not.
_DEMAND, _PRELOAD = LoadKind.DEMAND, LoadKind.PRELOAD


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

    :attr:`due` is the earliest time at which :meth:`advance_to` can
    change anything: the in-flight load's finish, ``0`` while a queued
    load waits to be promoted to in-flight, or :data:`IDLE_DUE` when
    nothing is in flight or queued.  Every mutator keeps it current, so
    callers skip ``advance_to(now)`` whenever ``now < due``.
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
        #: The landing callback; the owning platform may rewire it.
        self.apply_load = apply_load
        # Time the channel becomes free of the *current* load.  When
        # idle this lags behind `now` until the next use.
        self._free_at = 0
        #: Page in flight, or None; only queued preloads fly (a synchronous
        #: load lands within its own call).
        self.current_page: Optional[int] = None
        self._finish = 0  # the in-flight preload's finish time
        #: The queue of not-yet-started preloads, in order: page → burst tag.
        self.queued_tags: Dict[int, int] = {}
        self._next_tag = 0
        self.due = IDLE_DUE
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
    def queued_pages(self) -> Tuple[int, ...]:
        """Snapshot of the pending (not yet started) preload queue."""
        return tuple(self.queued_tags)

    def is_queued(self, page: int) -> bool:
        """True if ``page`` is waiting in the preload queue."""
        return page in self.queued_tags

    def queued_tag(self, page: int) -> Optional[int]:
        """Burst tag of a queued page, or None if not queued."""
        return self.queued_tags.get(page)

    def is_idle(self, now: int) -> bool:
        """True when nothing is in flight or queued as of ``now``."""
        self.advance_to(now)
        return self.current_page is None and not self.queued_tags

    # ------------------------------------------------------------------
    # Background (preload) path
    # ------------------------------------------------------------------

    def advance_to(self, now: int) -> int:
        """Retire every background load that completed by ``now``.

        Completions are applied in order at their true finish times, so
        the EPC (and its eviction clock) sees the same sequence it
        would have seen in continuous time.  Returns the finish time of
        the last load retired, or ``now`` when none was.
        """
        last = now
        while True:
            page = self.current_page
            if page is not None:
                finish = self._finish
                if finish > now:
                    self.due = finish
                    return last
                self.current_page = None
                self.preloads_completed += 1
                evicted = self.apply_load(page, _PRELOAD, finish)
                self._free_at = finish + (self._evict_cycles if evicted else 0)
                last = finish
            elif self.queued_tags:
                page = next(iter(self.queued_tags))
                del self.queued_tags[page]
                self.current_page = page
                self._finish = self._free_at + self._load_cycles
            else:
                self.due = IDLE_DUE
                return last

    def enqueue_preloads(self, pages: Sequence[int], now: int) -> int:
        """Queue one burst of speculative loads; return its tag.

        The first queued load starts as soon as the channel is free
        (immediately, if idle at ``now``).  The caller must have
        de-duplicated ``pages`` against residency, the in-flight load
        and the existing queue (the driver's ``_filter_burst``).
        """
        if now >= self.due:
            self.advance_to(now)
        tag = self._next_tag
        self._next_tag += 1
        if not pages:
            return tag
        queued_tags = self.queued_tags
        for page in pages:
            if page in queued_tags:
                raise ChannelError(f"page {page} is already queued")
        if self.current_page is None and not queued_tags:
            # Channel idle: background work starts now, not at the
            # stale _free_at left over from the previous load.  The
            # first page waits for the next advance_to to promote it.
            self._free_at = max(self._free_at, now)
            self.due = 0
        for page in pages:
            queued_tags[page] = tag
        self.preloads_enqueued += len(pages)
        return tag

    def abort_tag(self, tag: int, now: int) -> int:
        """Drop every queued load of one burst; return how many.

        The in-flight load, if any, is *not* cancelled — it is
        non-preemptible.  This is the in-stream abort of Section 4.1:
        a demand fault inside a burst invalidates its remainder.
        """
        if now >= self.due:
            self.advance_to(now)
        return self._keep_queued({p: t for p, t in self.queued_tags.items() if t != tag})

    def abort_pages_in_range(self, lo: int, hi: int, now: int) -> int:
        """Drop every queued preload whose page is in ``[lo, hi)``.

        Used when one enclave's valve fires on a shared platform: its
        speculative work is cancelled without touching the queued
        bursts of other enclaves.
        """
        if now >= self.due:
            self.advance_to(now)
        return self._keep_queued(
            {p: t for p, t in self.queued_tags.items() if not lo <= p < hi}
        )

    def _keep_queued(self, keep: Dict[int, int]) -> int:
        """Shrink the queue to ``keep``; return how many were aborted."""
        aborted = len(self.queued_tags) - len(keep)
        if aborted:
            self.queued_tags = keep
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
        if now >= self.due:
            self.advance_to(now)
        page = self.current_page
        if page is None:
            return now
        finish = self._finish
        self.current_page = None
        self.due = 0 if self.queued_tags else IDLE_DUE
        self.preloads_completed += 1
        evicted = self.apply_load(page, _PRELOAD, finish)
        self._free_at = finish + (self._evict_cycles if evicted else 0)
        return finish

    def drain(self, now: int) -> int:
        """Run the channel until idle; return the time that happens.

        Queued preloads complete at their natural times; nothing is
        cancelled.  Returns ``now`` when already idle.
        """
        if now >= self.due:
            self.advance_to(now)
        if self.current_page is None:
            return now
        return self.advance_to(IDLE_DUE)

    def load_sync(self, page: int, kind: LoadKind, now: int) -> int:
        """Perform a synchronous load of ``page``; return its finish time.

        The kernel's page load-in path is exclusive and non-preemptible
        (Section 5.6): a demand load issued while the preload thread is
        working waits for the *whole* outstanding queue, not just the
        in-flight page — this is exactly why mispredicted preloading is
        so expensive and why the paper needs its abort mechanisms (the
        caller aborts the relevant burst *before* calling this).
        """
        if kind is _PRELOAD:
            raise ChannelError("preloads must go through enqueue_preloads")
        if self.current_page is not None or self.queued_tags:
            now = self.drain(now)  # an idle channel (most faults) skips this
        start = self._free_at if self._free_at > now else now
        finish = start + self._load_cycles
        if kind is _DEMAND:
            self.demand_loads += 1
        else:
            self.sip_loads += 1
        evicted = self.apply_load(page, kind, finish)
        self._free_at = finish + (self._evict_cycles if evicted else 0)
        return finish
