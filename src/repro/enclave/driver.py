"""The SGX driver: enclave page-fault handling plus preloading hooks.

This is the simulation counterpart of the paper's modified Intel Linux
SGX driver.  Physical resources (EPC, CLOCK evictor, load channel,
service-thread schedule) live on a
:class:`~repro.enclave.platform.SharedPlatform` — private to this
driver in the common single-enclave case, shared between drivers in
the Section 5.6 multi-enclave configuration.  The driver exposes the
two entry points the engine drives:

* :meth:`SgxDriver.access` — one enclave page touch.  Resident pages
  just set their accessed bit; non-resident pages take the full demand
  fault path (AEX → wait on the non-preemptible channel → ELDU →
  ERESUME) with the DFP hooks of Section 4.1/4.2 applied.
* :meth:`SgxDriver.sip_prefetch` — one SIP preloading notification
  (``BIT_MAP_CHECK`` + ``page_loadin_function``), Section 4.3: when the
  page is absent it is loaded synchronously *without* leaving the
  enclave, so the AEX/ERESUME pair is saved at the cost of the
  notification round trip.

Abort semantics (Section 4.1's in-stream abort): each predicted burst
is queued under its own tag.  A demand fault that lands on a page still
*queued* in some burst is proof the preloader fell behind or predicted
wrong — that burst's remainder is dropped and the page is demand
loaded.  Faults unrelated to any queued burst leave other streams'
bursts alone; with up to ``stream_list_length`` concurrent streams,
one stream's miss must not cancel another stream's correct work.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import SimConfig
from repro.core.dfp import DfpEngine
from repro.enclave.enclave import Enclave
from repro.enclave.events import EventKind, TimelineEvent
from repro.enclave.epc import PAGE_ACCESSED, PAGE_PRELOADED
from repro.enclave.loader import LoadKind
from repro.enclave.page_table import SharedBitmap
from repro.enclave.platform import SharedPlatform
from repro.enclave.sanitizer import SimSanitizer
from repro.enclave.stats import RunStats
from repro.errors import SimulationError
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.paging import PagingProfiler
from repro.obs.trace import DEFAULT_EVENT_CAPACITY, RingBufferSink, TraceSink

__all__ = ["SgxDriver"]


class SgxDriver:
    """Untrusted-OS side of the simulated SGX stack, for one enclave."""

    def __init__(
        self,
        config: SimConfig,
        enclave: Enclave,
        *,
        dfp: Optional[DfpEngine] = None,
        record_events: bool = False,
        platform: Optional[SharedPlatform] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[TraceSink] = None,
        event_capacity: Optional[int] = None,
        profiler: Optional[PagingProfiler] = None,
    ) -> None:
        self._config = config
        self._cost = config.cost
        self._enclave = enclave
        # ELRANGE bounds, hoisted for the per-access fast path.
        self._base_page = enclave.base_page
        self._limit_page = enclave.base_page + enclave.elrange_pages
        self._dfp = dfp
        self._platform = platform if platform is not None else SharedPlatform(config)
        self._platform.register(self)
        self.epc = self._platform.epc
        # Per-page status byte table (registration above guaranteed it
        # spans this enclave's ELRANGE, so after the bounds check the
        # hot paths index it unconditionally).
        self._status_table = self.epc.status_table
        self.evictor = self._platform.evictor
        self.channel = self._platform.channel
        self.bitmap = SharedBitmap(
            self.epc, enclave.elrange_pages, base_page=enclave.base_page
        )
        self.stats = RunStats()
        # Event recording goes through trace sinks (repro.obs.trace):
        # ``record_events`` keeps a bounded ring buffer for .events,
        # and an external ``tracer`` sink (JSONL stream, fan-out, ...)
        # receives every event as it happens.
        self._ring: Optional[RingBufferSink] = (
            RingBufferSink(
                event_capacity if event_capacity is not None else DEFAULT_EVENT_CAPACITY
            )
            if record_events
            else None
        )
        self._sinks: List[TraceSink] = []
        if self._ring is not None:
            self._sinks.append(self._ring)
        if tracer is not None:
            self._sinks.append(tracer)
        self._register_metrics(metrics if metrics is not None else NULL_REGISTRY)
        # Paging-decision ledger (repro.obs.paging): strictly passive,
        # reads state it is handed and writes only profiler-private
        # structures.  ``_profiling`` is hoisted so the disabled hot
        # path pays a single falsy attribute test per hook site.
        self._profiler = profiler
        self._profiling = profiler is not None
        if profiler is not None:
            profiler.ledger_bind(enclave.base_page, enclave.elrange_pages)
        self._last_now = 0
        # Application-clock high-water mark, updated only at the entry
        # and exit of the application-visible calls — the points where
        # the time buckets provably equal the clock.  The sanitizer's
        # per-tick accounting check compares against this (a scan fired
        # from another enclave's poll, or from finish(), runs at a time
        # this driver's buckets never saw).
        self._clock_hw = 0
        #: Runtime invariant checker; None unless ``config.sanitize``.
        self.sanitizer: Optional[SimSanitizer] = (
            SimSanitizer(self.epc, self.channel, label=enclave.name)
            if config.sanitize
            else None
        )
        # "Is anything watching?" — sinks and the sanitizer are fixed
        # at construction, so the fault path guards its ``_emit`` calls
        # with one attribute test instead of paying the call.
        self._observing = bool(self._sinks) or self.sanitizer is not None

    @property
    def enclave(self) -> Enclave:
        """The enclave this driver serves."""
        return self._enclave

    @property
    def platform(self) -> SharedPlatform:
        """The (possibly shared) physical platform."""
        return self._platform

    @property
    def events(self) -> List[TimelineEvent]:
        """Recorded timeline events (most recent ``event_capacity``)."""
        return self._ring.events if self._ring is not None else []

    @property
    def events_dropped(self) -> int:
        """Events the bounded recorder had to evict (0 with room)."""
        return self._ring.dropped if self._ring is not None else 0

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _register_metrics(self, metrics: MetricsRegistry) -> None:
        """Publish this driver's layers into ``metrics``.

        Quantities another layer already counts (``RunStats`` fields,
        EPC occupancy, channel counters) are exposed as callback
        gauges — sampled at dump time, zero hot-path cost, reconciled
        with their source by construction.  Quantities no other layer
        tracks (aborts by cause, wait-latency distributions, scan
        credits, recorder drops) get true counters and histograms.
        With the shared NULL registry all of these are no-op
        singletons, so the disabled path costs one dead method call.
        """
        self._metrics = metrics
        stats = self.stats
        time = stats.time
        if metrics.enabled:
            for name, fn in (
                ("app.accesses", lambda: stats.accesses),
                ("app.epc_hits", lambda: stats.epc_hits),
                ("fault.count", lambda: stats.faults),
                ("fault.absorbed_by_inflight", lambda: stats.faults_absorbed_by_inflight),
                ("preload.hits", lambda: stats.preload_hits),
                ("preload.enqueued", lambda: stats.preloads_enqueued),
                ("preload.completed", lambda: stats.preloads_completed),
                ("preload.aborted", lambda: stats.preloads_aborted),
                ("preload.accessed", lambda: stats.preloads_accessed),
                ("preload.redundant", lambda: stats.preloads_redundant),
                ("preload.evicted_unused", lambda: stats.preloads_evicted_unused),
                ("epc.evictions", lambda: stats.evictions),
                ("epc.resident_pages", lambda: self.epc.resident_count),
                ("epc.capacity_pages", lambda: self.epc.capacity),
                ("sip.checks", lambda: stats.sip_checks),
                ("sip.check_hits", lambda: stats.sip_check_hits),
                ("sip.loads", lambda: stats.sip_loads),
                ("valve.stops", lambda: stats.valve_stops),
                ("scan.count", lambda: stats.scans),
                ("time.compute_cycles", lambda: time.compute),
                ("time.aex_cycles", lambda: time.aex),
                ("time.eresume_cycles", lambda: time.eresume),
                ("time.fault_wait_cycles", lambda: time.fault_wait),
                ("time.sip_check_cycles", lambda: time.sip_check),
                ("time.sip_wait_cycles", lambda: time.sip_wait),
                ("time.total_cycles", lambda: time.total),
                ("time.overhead_cycles", lambda: time.overhead),
                ("trace.events_dropped", lambda: self.events_dropped),
            ):
                metrics.gauge(name, fn=fn)
        self._m_abort_instream = metrics.counter(
            "abort.in_stream", "in-stream aborts taken on a queued-burst fault"
        )
        self._m_abort_instream_pages = metrics.counter(
            "abort.in_stream_pages", "queued pages dropped by in-stream aborts"
        )
        self._m_abort_valve = metrics.counter(
            "abort.valve", "safety-valve aborts (preload thread stops)"
        )
        self._m_abort_valve_pages = metrics.counter(
            "abort.valve_pages", "queued pages dropped when the valve fired"
        )
        self._m_scan_credited = metrics.counter(
            "scan.credited_pages", "preloaded pages credited as accessed by scans"
        )
        self._m_fault_wait_hist = metrics.histogram(
            "fault.wait_hist", "per-fault channel wait, virtual cycles"
        )
        self._m_sip_wait_hist = metrics.histogram(
            "sip.wait_hist", "per-notification synchronous wait, virtual cycles"
        )

    def _emit(self, kind: EventKind, start: int, end: int, page: int = -1) -> None:
        if self._sinks:
            event = TimelineEvent(kind, start, end, page)
            for sink in self._sinks:
                sink.emit(event)
        if self.sanitizer is not None:
            self.sanitizer.record_event(kind, start, end, page)

    def _note_eviction(self, state) -> None:
        """Account an eviction of one of *this* enclave's pages."""
        self.stats.evictions += 1
        if state.preloaded:
            if state.accessed:
                # Correct preload caught at eviction before a scan
                # could credit it.
                self.stats.preloads_accessed += 1
                if self._dfp is not None:
                    self._dfp.credit_accessed(1)
            else:
                self.stats.preloads_evicted_unused += 1

    def _apply_load(self, page: int, kind: LoadKind, finish: int) -> bool:
        """Land one page of this enclave in the EPC at ``finish``.

        Chooses a CLOCK victim when the EPC is full — possibly another
        enclave's page, whose owner gets the eviction bookkeeping.
        Returns True when a victim was evicted, so the channel can
        charge the EWB housekeeping time.
        """
        evicted = False
        epc = self.epc
        if self._status_table[page]:
            # Already resident (the table spans this enclave's ELRANGE,
            # and loads are routed to the owning driver).
            if kind is LoadKind.PRELOAD:
                self.stats.preloads_redundant += 1
                if self.sanitizer is not None:
                    self.sanitizer.check_redundant_preload(page, finish)
                if self._profiling:
                    self._profiler.ledger_redundant(page, finish)
            return evicted
        frames = self._platform.frames
        if frames is not None:
            # Per-tenant frame policy (fleet scenarios): the manager
            # decides when a frame must be freed and from whose
            # partition the CLOCK victim comes.  A quota shrink can
            # leave this tenant several pages over, so this loops until
            # the insert is within policy, not just until a frame is
            # free.
            while frames.needs_victim(self):
                victim = frames.select_victim(self)
                state = epc.evict(victim)
                frames.note_evict(victim)
                evicted = True
                victim_owner = self._platform.owner_of(victim) or self
                victim_owner._note_eviction(state)
            epc.insert(page, preloaded=(kind is LoadKind.PRELOAD))
            frames.note_insert(self, page)
            if self.sanitizer is not None:
                self.sanitizer.check_load(page, kind, finish)
            if kind is LoadKind.PRELOAD:
                self.stats.preloads_completed += 1
                if self._dfp is not None:
                    self._dfp.note_preload_completed()
                if self._observing:
                    self._emit(
                        EventKind.PRELOAD,
                        finish - self.channel.load_cycles,
                        finish,
                        page,
                    )
            return evicted
        if epc.is_full:
            evictor = self.evictor
            chances_before = evictor.second_chances
            victim = evictor.select_victim()
            state = epc.evict(victim)
            evictor.note_evict(victim)
            evicted = True
            platform = self._platform
            if len(platform._owners) == 1:
                victim_owner = self
            else:
                victim_owner = platform.owner_of(victim) or self
            victim_owner._note_eviction(state)
            if victim_owner._profiling:
                victim_owner._profiler.ledger_evict(
                    victim,
                    finish,
                    accessed=state.accessed,
                    preloaded=state.preloaded,
                    second_chances=self.evictor.second_chances - chances_before,
                    for_page=page,
                    for_kind=kind.value,
                )
        epc.insert(page, preloaded=(kind is LoadKind.PRELOAD))
        self.evictor.note_insert(page)
        if self._profiling:
            self._profiler.ledger_insert(page, kind.value, finish)
        if self.sanitizer is not None:
            self.sanitizer.check_load(page, kind, finish)
        if kind is LoadKind.PRELOAD:
            self.stats.preloads_completed += 1
            if self._dfp is not None:
                self._dfp.note_preload_completed()
            if self._observing:
                self._emit(
                    EventKind.PRELOAD,
                    finish - self.channel.load_cycles,
                    finish,
                    page,
                )
        return evicted

    def _queued_pages_of_tag(self, tag: int) -> List[int]:
        """Snapshot of the queued pages belonging to one burst."""
        channel = self.channel
        return [p for p in channel.queued_pages if channel.queued_tag(p) == tag]

    def _after_scan(self, now: int, credited: int) -> None:
        """Platform hook: the global service-thread scan just ran."""
        self.stats.scans += 1
        if self._observing:
            self._emit(EventKind.SCAN, now, now)
        if self._profiling:
            self._profiler.ledger_scan(now, credited)
        if credited:
            self.stats.preloads_accessed += credited
            self._m_scan_credited.inc(credited)
        if self._dfp is not None:
            if credited:
                self._dfp.credit_accessed(credited)
            if self._dfp.check_valve():
                self.stats.valve_stops += 1
                base = self._enclave.base_page
                limit = base + self._enclave.elrange_pages
                if self.sanitizer is not None or self._profiling:
                    doomed = [
                        p for p in self.channel.queued_pages if base <= p < limit
                    ]
                    if self.sanitizer is not None:
                        self.sanitizer.check_abort(doomed, now)
                    if self._profiling:
                        self._profiler.ledger_abort(doomed, now, "valve")
                dropped = self.channel.abort_pages_in_range(base, limit, now)
                self._m_abort_valve.inc()
                self._m_abort_valve_pages.inc(dropped)
                if dropped:
                    self._dfp.note_aborted(dropped)
        if self.sanitizer is not None:
            # Per-tick cross-checks: valve-counter sanity and the
            # bucket-sum-equals-clock accounting identity (the engine
            # checks the latter only once, at run end).
            if self._dfp is not None:
                self.sanitizer.check_counters(
                    self._dfp.preload_counter, self._dfp.acc_preload_counter, now
                )
            else:
                self.sanitizer.check_counters(
                    self.stats.preloads_completed, self.stats.preloads_accessed, now
                )
            self.sanitizer.check_tick(self.stats, self._clock_hw, now)

    def poll(self, now: int) -> None:
        """Advance background machinery (channel + scans) to ``now``."""
        if now < self._last_now:
            raise SimulationError(
                f"time went backwards: {now} < {self._last_now}"
            )
        self._last_now = now
        self._platform.poll(now)

    def _filter_burst(self, burst: List[int]) -> List[int]:
        """Drop burst pages that need no load: outside the ELRANGE,
        already resident, in flight, or already queued.

        Runs on every fault with a prediction, so the ELRANGE bounds,
        the residency table and the channel lookups are hoisted out of
        the per-page loop instead of being re-read per burst page.
        """
        base = self._base_page
        limit = self._limit_page
        resident = self.epc.resident_map
        channel = self.channel
        current = channel.current_page
        queued = channel.is_queued
        return [
            page
            for page in burst
            if base <= page < limit
            and page not in resident
            and page != current
            and not queued(page)
        ]

    def _touch(self, page: int, *, hit: bool) -> None:
        """Set the accessed bit; account preload hits on first touch."""
        status = self._status_table
        code = status[page]
        if not code:
            self.epc.state_of(page)  # raises EpcError: not resident
        if not code & PAGE_ACCESSED:
            if code & PAGE_PRELOADED:
                self.stats.preload_hits += 1
            status[page] = code | PAGE_ACCESSED
        if hit:
            self.stats.epc_hits += 1

    # ------------------------------------------------------------------
    # Application-visible entry points
    # ------------------------------------------------------------------

    def access(self, page: int, now: int) -> int:
        """Simulate one enclave page touch at ``now``; return end time."""
        if page < self._base_page or page >= self._limit_page:
            raise SimulationError(
                f"access to page {page} outside ELRANGE "
                f"[{self._base_page}, {self._limit_page})"
            )
        self._clock_hw = now
        # Inlined poll(): this runs once per simulated event, and the
        # background machinery must still advance *before* residency is
        # read — a completion landing at or before ``now`` can insert
        # this very page (or evict it as a CLOCK victim).
        if now < self._last_now:
            raise SimulationError(
                f"time went backwards: {now} < {self._last_now}"
            )
        self._last_now = now
        self._platform.poll(now)
        stats = self.stats
        stats.accesses += 1
        status = self._status_table
        code = status[page]
        if code:
            # Resident fast path: one status-byte probe, set the A bit,
            # done — no fault machinery, no event emission (a plain EPC
            # hit has no timeline extent).
            if not code & PAGE_ACCESSED:
                if code & PAGE_PRELOADED:
                    stats.preload_hits += 1
                status[page] = code | PAGE_ACCESSED
            stats.epc_hits += 1
            if self._profiling:
                self._profiler.ledger_hit(page, now)
            return now

        # Demand fault: AEX out of the enclave.
        cost = self._cost
        stats.faults += 1
        t = now + cost.aex_cycles
        stats.time.aex += cost.aex_cycles
        observing = self._observing
        if observing:
            self._emit(EventKind.AEX, now, t)
        self.channel.advance_to(t)

        if self.epc.is_resident(page):
            # A preload landed during the AEX itself.
            stats.faults_absorbed_by_inflight += 1
            if self._profiling:
                self._profiler.ledger_fault(page, t, "absorbed")
        elif self.channel.current_page == page:
            # The page is mid-load on the non-preemptible channel:
            # ride the in-flight preload to completion.
            finish = self.channel.wait_for_current(t)
            stats.faults_absorbed_by_inflight += 1
            stats.time.fault_wait += finish - t
            self._m_fault_wait_hist.observe(finish - t)
            if observing:
                self._emit(EventKind.FAULT_WAIT, t, finish, page)
            t = finish
            if self._profiling:
                self._profiler.ledger_fault(page, t, "absorbed")
        else:
            burst_tag = self.channel.queued_tag(page)
            if burst_tag is not None:
                # Fault inside a queued burst: the preloader fell
                # behind — abort that burst's remainder (in-stream
                # abort, Section 4.1).
                if self.sanitizer is not None or self._profiling:
                    doomed = self._queued_pages_of_tag(burst_tag)
                    if self.sanitizer is not None:
                        self.sanitizer.check_abort(doomed, t)
                    if self._profiling:
                        self._profiler.ledger_abort(
                            doomed, t, "in_stream", trigger=page
                        )
                dropped = self.channel.abort_tag(burst_tag, t)
                self._m_abort_instream.inc()
                self._m_abort_instream_pages.inc(dropped)
                if self._dfp is not None and dropped:
                    self._dfp.note_aborted(dropped)
                if observing:
                    self._emit(EventKind.ABORT, t, t, page)
            finish = self.channel.load_sync(page, LoadKind.DEMAND, t)
            stats.time.fault_wait += finish - t
            self._m_fault_wait_hist.observe(finish - t)
            if observing:
                self._emit(
                    EventKind.DEMAND_LOAD,
                    finish - self.channel.load_cycles,
                    finish,
                    page,
                )
            t = finish
            if self._profiling:
                self._profiler.ledger_fault(
                    page,
                    t,
                    "queued" if burst_tag is not None else "miss",
                    preloader_active=(
                        self._dfp is not None and self._dfp.active
                    ),
                )

        # The OS observed the fault: feed the predictor and schedule
        # the predicted burst (it starts loading during the ERESUME).
        if self._dfp is not None:
            burst = self._dfp.on_fault(page)
            if burst:
                pages = self._filter_burst(burst)
                if pages:
                    if self.sanitizer is not None:
                        self.sanitizer.check_enqueue(pages, t)
                    self.channel.enqueue_preloads(pages, t)
                    if self._profiling:
                        self._profiler.ledger_enqueue(pages, t)

        end = t + cost.eresume_cycles
        stats.time.eresume += cost.eresume_cycles
        if observing:
            self._emit(EventKind.ERESUME, t, end)
        self._touch(page, hit=False)
        self._clock_hw = end
        return end

    def sip_prefetch(self, page: int, now: int) -> int:
        """Simulate one SIP preloading notification at ``now``.

        The instrumented code checks the shared residency bitmap; when
        the page is absent it sends a load request to the kernel thread
        and waits inside the enclave for completion.  Returns the time
        at which the application continues (the following real access
        will then hit).
        """
        if not self._enclave.contains_page(page):
            raise SimulationError(
                f"SIP notification for page {page} outside ELRANGE"
            )
        self._clock_hw = now
        self.poll(now)
        cost = self._cost
        stats = self.stats
        stats.sip_checks += 1
        t = now + cost.bitmap_check_cycles
        stats.time.sip_check += cost.bitmap_check_cycles
        if self._observing:
            self._emit(EventKind.SIP_CHECK, now, t, page)
        self.channel.advance_to(t)
        if self.bitmap.check(page):
            stats.sip_check_hits += 1
            self._clock_hw = t
            return t
        if self.channel.current_page == page:
            finish = self.channel.wait_for_current(t)
            stats.time.sip_wait += finish - t
            self._m_sip_wait_hist.observe(finish - t)
            if self._observing:
                self._emit(EventKind.SIP_LOAD, t, finish, page)
            self._clock_hw = finish
            return finish
        stats.sip_loads += 1
        finish = self.channel.load_sync(page, LoadKind.SIP, t)
        finish += cost.notification_cycles
        stats.time.sip_wait += finish - t
        self._m_sip_wait_hist.observe(finish - t)
        if self._observing:
            self._emit(EventKind.SIP_LOAD, t, finish, page)
        self._clock_hw = finish
        return finish

    def account_idle(self, cycles: int, now: int) -> None:
        """Charge application-thread idle time ending at ``now``.

        A fleet tenant spends real virtual time outside the enclave —
        waiting for the next open-loop request, for an admission slot,
        or for enclave spin-up.  The fleet loop charges those cycles
        here so the ``time.total == clock`` identity the sanitizer and
        the end-of-run accounting check enforce keeps holding with no
        special cases.  ``now`` is the clock after the idle interval;
        the sanitizer's notion of hardware time advances with it even
        when ``cycles`` is zero (e.g. a tenant that departs without
        ever touching a page).
        """
        if cycles < 0:
            raise SimulationError(f"idle interval cannot be negative: {cycles}")
        if cycles:
            self.stats.time.idle += cycles
        self._clock_hw = now

    def finish(self, now: int) -> None:
        """Drain background work at the end of a run."""
        self.poll(now)
        # Propagate channel counters into the run stats.  On a shared
        # platform the channel counters are global; per-driver counts
        # are kept in the DFP engine instead.
        if self._dfp is not None and len(self._platform.drivers) > 1:
            self.stats.preloads_enqueued = (
                self._dfp.preload_counter + self._dfp.aborted_preloads
            )
            self.stats.preloads_aborted = self._dfp.aborted_preloads
        else:
            self.stats.preloads_enqueued = self.channel.preloads_enqueued
            self.stats.preloads_aborted = self.channel.preloads_aborted
        if self._profiling:
            self._profiler.ledger_finish(now)
