"""Shared SGX hardware: one EPC serving multiple enclaves.

Section 5.6 of the paper: the EPC can be shared among multiple
processes (or VMs), the total EPC size stays the same, each enclave
effectively receives a smaller portion, and "EPC contention becomes a
serious issue"; the preloading schemes still work because "each
enclave can handle its preloading independently" (per-process fault
streams, Algorithm 1's ``find_stream_list(ID)``).

:class:`SharedPlatform` owns the physical resources every enclave
contends for — the EPC frame pool, the CLOCK evictor, the exclusive
load channel, and the service-thread schedule — and routes hardware
events back to the owning enclave's driver:

* completed loads are applied by the *loading* enclave's driver;
* eviction bookkeeping (preload credits, evicted-unused counts) goes
  to the *victim page's* owner — under contention the CLOCK victim is
  frequently another enclave's page;
* the periodic scan runs once globally (it is one kernel thread), and
  credits/valve checks are routed per enclave.

A single-enclave driver constructs a private platform transparently,
so the common case is unchanged.  Page numbering is global: each
registered enclave occupies the disjoint range
``[base_page, base_page + elrange_pages)``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.config import SimConfig
from repro.enclave.epc import (
    PAGE_ACCESSED,
    PAGE_PRELOADED,
    PAGE_RESIDENT,
    Epc,
)
from repro.enclave.eviction import ClockEvictor
from repro.enclave.loader import LoadChannel, LoadKind
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.enclave.driver import SgxDriver

__all__ = [
    "AdaptiveQuotaFrames",
    "FrameManager",
    "SharedPlatform",
    "StaticPartitionFrames",
]

#: An accessed page with a pending preload credit: the byte the scan
#: counts per owner range to credit correct preloads.
_PAGE_CREDITED = PAGE_RESIDENT | PAGE_ACCESSED | PAGE_PRELOADED

#: Scan-aging byte translation: one C-level pass over the status table
#: clears every accessed bit, and for accessed+preloaded pages the
#: preloaded bit too (the credit was just taken); absent, clean and
#: untouched-preloaded pages pass through unchanged.
_SCAN_AGING = bytes(
    PAGE_RESIDENT if code & PAGE_ACCESSED else code for code in range(8)
) + bytes(range(8, 256))


class SharedPlatform:
    """The physical SGX resources shared by one or more enclaves."""

    def __init__(self, config: SimConfig) -> None:
        self._config = config
        self.epc = Epc(config.epc_pages)
        self.evictor = ClockEvictor(self.epc)
        self.channel = LoadChannel(
            config.cost.page_load_cycles,
            self._on_load,
            evict_cycles=config.cost.ewb_cycles,
        )
        # (base, limit, driver), sorted by base; ``_bases`` is the
        # parallel sorted key array ``owner_of`` bisects over — the
        # lookup runs on every cross-enclave eviction and every load
        # completion, so it must not scan linearly over the fleet.
        self._owners: List[Tuple[int, int, "SgxDriver"]] = []
        self._bases: List[int] = []
        self._next_scan = config.scan_period_cycles
        self._last_now = 0
        #: Optional per-tenant frame policy (:class:`FrameManager`).
        #: ``None`` — the default for every solo run and the legacy
        #: shared path — keeps the single shared CLOCK over the whole
        #: EPC, and the driver's eviction fast path stays byte-for-byte
        #: what it was.  The fleet simulator installs a partitioned or
        #: adaptive manager before admitting tenants.
        self.frames: Optional["FrameManager"] = None

    # ------------------------------------------------------------------
    # Registration and routing
    # ------------------------------------------------------------------

    def register(self, driver: "SgxDriver") -> None:
        """Attach a driver; its enclave's page range must be disjoint."""
        enclave = driver.enclave
        base = enclave.base_page
        limit = base + enclave.elrange_pages
        for lo, hi, _d in self._owners:
            if base < hi and lo < limit:
                raise SimulationError(
                    f"enclave {enclave.name!r} pages [{base}, {limit}) overlap "
                    f"an already-registered enclave's [{lo}, {hi})"
                )
        self._owners.append((base, limit, driver))
        self._owners.sort(key=lambda item: item[0])
        self._bases = [lo for lo, _hi, _d in self._owners]
        # Cover the enclave's page range in the status table up front
        # so the per-access hot paths can index it unconditionally.
        self.epc.ensure_page_span(limit)

    def owner_of(self, page: int) -> Optional["SgxDriver"]:
        """The driver whose enclave owns ``page`` (None if unowned).

        Ranges are disjoint and sorted, so the candidate is the last
        range starting at or below ``page`` — one bisect, not a scan
        over every registered enclave.
        """
        index = bisect_right(self._bases, page) - 1
        if index >= 0:
            lo, hi, driver = self._owners[index]
            if lo <= page < hi:
                return driver
        return None

    @property
    def drivers(self) -> Tuple["SgxDriver", ...]:
        """Registered drivers, in page-range order."""
        return tuple(driver for _lo, _hi, driver in self._owners)

    # ------------------------------------------------------------------
    # Hardware callbacks
    # ------------------------------------------------------------------

    def _on_load(self, page: int, kind: LoadKind, finish: int) -> bool:
        """Channel callback: route the landing to the owning driver."""
        owner = self.owner_of(page)
        if owner is None:
            raise SimulationError(f"load completed for unowned page {page}")
        return owner._apply_load(page, kind, finish)

    # ------------------------------------------------------------------
    # The service thread (one kernel thread, global schedule)
    # ------------------------------------------------------------------

    def next_wakeup(self) -> int:
        """Next scan or channel landing; kept because ``perfbench/layers.py`` wraps it."""
        horizon = self._next_scan
        channel = self.channel
        current = channel._current
        if current is not None:
            if current[2] < horizon:
                return current[2]
        elif channel._queue:
            completion = channel._free_at + channel._load_cycles
            if completion < horizon:
                return completion
        return horizon

    def poll(self, now: int) -> None:
        """Advance scans and the channel to ``now`` (global time)."""
        if now < self._last_now:
            # Multi-enclave simulation processes apps by event start
            # time; an app can observe the platform slightly behind
            # another app's completion.  The platform itself only ever
            # moves forward.
            now = self._last_now
        self._last_now = now
        while self._next_scan <= now:
            scan_time = self._next_scan
            self.channel.advance_to(scan_time)
            self._scan(scan_time)
            self._next_scan += self._config.scan_period_cycles
        self.channel.advance_to(now)

    def _scan(self, now: int) -> None:
        """One global scan: age access bits, credit preloads per owner,
        then let each enclave's valve react.

        Runs at C speed over the status table: each owner's credit is
        a byte count over its page range (an accessed+preloaded page is
        exactly one ``RESIDENT|ACCESSED|PRELOADED`` byte), then a
        single translation pass clears every accessed bit.  Ranges are
        disjoint and non-resident bytes are ``PAGE_ABSENT``, so this
        is equivalent to the per-resident-page walk it replaces.
        """
        status = self.epc.status_table
        owners = self._owners
        if len(owners) == 1:
            credits = (status.count(_PAGE_CREDITED),)
        else:
            credits = tuple(
                status.count(_PAGE_CREDITED, lo, hi)
                for lo, hi, _driver in owners
            )
        status[:] = status.translate(_SCAN_AGING)
        for (_lo, _hi, driver), credited in zip(owners, credits):
            driver._after_scan(now, credited)


class _TenantFrames:
    """Per-tenant frame-accounting record kept by a :class:`FrameManager`.

    One CLOCK ring per tenant (sized to its ELRANGE — the most of its
    pages that can ever be resident), the live resident count, the
    current quota, and the admission state.  The record outlives the
    tenant: a departed enclave's pages stay resident until demand
    reclaims them, so the ring and count must keep tracking them.
    """

    __slots__ = ("driver", "evictor", "resident", "quota", "active", "fault_mark")

    def __init__(self, driver: "SgxDriver", evictor: ClockEvictor) -> None:
        self.driver = driver
        self.evictor = evictor
        self.resident = 0
        self.quota = 0
        self.active = False
        # Fault count at the last adaptive rebalance (signal baseline).
        self.fault_mark = 0


class FrameManager:
    """Pluggable per-tenant EPC frame policy for a shared platform.

    The paper's shared-EPC experiment (§5.6) runs one global CLOCK over
    the whole frame pool — any enclave's load can evict any enclave's
    page.  A fleet operator has two other classic options: *static
    partitioning* (every admitted tenant gets an equal, private slice)
    and *adaptive quotas* (slices resized from live fault-rate
    signals).  Both need per-tenant frame accounting, which is what
    this hierarchy provides; the shared-CLOCK default needs none and is
    represented by ``platform.frames is None``.

    The driver consults the installed manager at its one eviction
    decision point (``SgxDriver._apply_load``):

    * :meth:`needs_victim` — must a frame be freed before ``driver``
      may insert a page?
    * :meth:`select_victim` — choose the victim page (CLOCK within the
      chosen tenant's own ring);
    * :meth:`note_insert` / :meth:`note_evict` — keep the rings and
      resident counts consistent with the EPC.

    The fleet loop drives the admission side: :meth:`on_admit` /
    :meth:`on_depart` recompute quotas as tenants come and go.
    """

    def __init__(self, platform: SharedPlatform) -> None:
        self._platform = platform
        self._epc = platform.epc
        self._tenants: Dict[int, _TenantFrames] = {}  # keyed by base page
        self._order: List[int] = []  # admission-stable base order

    # -- policy identity -------------------------------------------------

    name = "frame-manager"

    # -- admission lifecycle --------------------------------------------

    def on_admit(self, driver: "SgxDriver") -> None:
        """Register an admitted tenant and recompute quotas."""
        base = driver.enclave.base_page
        state = self._tenants.get(base)
        if state is None:
            state = _TenantFrames(
                driver,
                ClockEvictor(self._epc, capacity=driver.enclave.elrange_pages),
            )
            self._tenants[base] = state
            self._order.append(base)
            self._order.sort()
        state.active = True
        self._rebalance_quotas()

    def on_depart(self, driver: "SgxDriver") -> None:
        """Mark a tenant departed; its pages drain under demand.

        The record is kept (resident pages of a dead enclave remain in
        the EPC until reclaimed), but its quota drops to zero so the
        most-over-quota victim search drains it first.
        """
        state = self._tenants[driver.enclave.base_page]
        state.active = False
        state.quota = 0
        self._rebalance_quotas()

    # -- eviction decision point (driver hot path) ----------------------

    def needs_victim(self, driver: "SgxDriver") -> bool:
        """Must a frame be freed before ``driver`` inserts a page?

        A tenant at quota zero with nothing resident (a departed
        enclave whose in-flight preload completes late) cannot free a
        frame of its own; with spare EPC capacity its insert proceeds
        and the page drains through the over-quota search later.
        """
        if self._epc.is_full:
            return True
        state = self._tenants[driver.enclave.base_page]
        return state.resident >= state.quota and state.resident > 0

    def select_victim(self, driver: "SgxDriver") -> int:
        """Choose the victim page for an insert by ``driver``.

        A globally full EPC reclaims from the most-over-quota tenant
        (departed tenants, at quota zero, drain first; ties break on
        the lowest base page).  Otherwise the inserting tenant is over
        its own quota and evicts within its own partition — the whole
        point of partitioning: one tenant's thrashing cannot disturb a
        neighbour's resident set.
        """
        state = self._tenants[driver.enclave.base_page]
        if self._epc.is_full:
            worst = None
            worst_over = None
            for base in self._order:
                candidate = self._tenants[base]
                if candidate.resident <= 0:
                    continue
                over = candidate.resident - candidate.quota
                if worst_over is None or over > worst_over:
                    worst = candidate
                    worst_over = over
            if worst is None:
                raise SimulationError(
                    "EPC full but no tenant has resident pages to reclaim"
                )
            return worst.evictor.select_victim()
        return state.evictor.select_victim()

    def note_insert(self, driver: "SgxDriver", page: int) -> None:
        """A page of ``driver`` just landed in the EPC."""
        state = self._tenants[driver.enclave.base_page]
        state.evictor.note_insert(page)
        state.resident += 1

    def note_evict(self, page: int) -> None:
        """A page was just evicted; route bookkeeping to its owner."""
        owner = self._platform.owner_of(page)
        if owner is None:
            raise SimulationError(f"evicted unowned page {page}")
        state = self._tenants[owner.enclave.base_page]
        state.evictor.note_evict(page)
        state.resident -= 1

    @property
    def second_chances(self) -> int:
        """Total CLOCK second chances granted across all tenant rings."""
        return sum(self._tenants[b].evictor.second_chances for b in self._order)

    # -- introspection ---------------------------------------------------

    def quota_of(self, driver: "SgxDriver") -> int:
        """Current frame quota of one tenant (0 if never admitted)."""
        state = self._tenants.get(driver.enclave.base_page)
        return state.quota if state is not None else 0

    def resident_of(self, driver: "SgxDriver") -> int:
        """Current resident frame count of one tenant."""
        state = self._tenants.get(driver.enclave.base_page)
        return state.resident if state is not None else 0

    # -- quota computation ----------------------------------------------

    def _active_states(self) -> List[_TenantFrames]:
        return [
            self._tenants[base]
            for base in self._order
            if self._tenants[base].active
        ]

    def _rebalance_quotas(self) -> None:
        raise NotImplementedError

    def _distribute(
        self, states: List[_TenantFrames], weights: List[int], floor: int
    ) -> None:
        """Assign ``capacity`` frames by weight with a per-tenant floor.

        Largest-remainder apportionment with ties broken by position —
        pure integer arithmetic, so the same signals always produce the
        same quotas.  Quotas never exceed a tenant's ELRANGE (frames it
        could never use are left to the others).
        """
        if not states:
            return
        capacity = self._epc.capacity
        if len(states) > capacity:
            raise SimulationError(
                f"{len(states)} admitted tenants exceed the {capacity}-frame "
                "EPC: a partitioned policy cannot give everyone a frame"
            )
        floor = max(1, min(floor, capacity // len(states)))
        spare = capacity - floor * len(states)
        total_weight = sum(weights)
        shares = [
            floor + (spare * weight) // total_weight if total_weight else floor
            for weight in weights
        ]
        leftover = capacity - sum(shares)
        if total_weight and leftover:
            remainders = sorted(
                range(len(states)),
                key=lambda i: (-((spare * weights[i]) % total_weight), i),
            )
            for i in remainders[:leftover]:
                shares[i] += 1
        for state, share in zip(states, shares):
            state.quota = min(share, state.driver.enclave.elrange_pages)


class StaticPartitionFrames(FrameManager):
    """Equal static partition: the EPC is split evenly among admitted
    tenants, recomputed only at admission and departure."""

    name = "static-partition"

    def _rebalance_quotas(self) -> None:
        states = self._active_states()
        self._distribute(states, [1] * len(states), self._epc.capacity)


class AdaptiveQuotaFrames(FrameManager):
    """Adaptive per-tenant quotas resized from live fault-rate signals.

    Between rebalances the policy behaves like a static partition.  At
    each :meth:`rebalance` tick (the fleet loop schedules them on a
    fixed virtual-cycle period) every tenant's demand-fault count since
    the previous tick becomes its weight — plus one, so an idle tenant
    keeps a floor share — and the frame pool is re-apportioned
    proportionally.  Tenants thrashing hardest get more frames; quiet
    tenants shrink toward the floor and their surplus pages drain
    through the most-over-quota victim search.
    """

    name = "adaptive-quota"

    def __init__(self, platform: SharedPlatform, *, min_quota: int = 8) -> None:
        super().__init__(platform)
        if min_quota < 1:
            raise SimulationError(f"min_quota must be >= 1, got {min_quota}")
        self._min_quota = min_quota
        #: Rebalance passes performed (fleet telemetry).
        self.rebalances = 0

    def _rebalance_quotas(self) -> None:
        # Admission/departure: equal shares with the configured floor;
        # fault signals only apply at explicit rebalance() ticks.
        states = self._active_states()
        self._distribute(states, [1] * len(states), self._min_quota)

    def rebalance(self, now: int) -> None:
        """Re-apportion quotas from each tenant's recent fault count."""
        del now  # deterministic virtual-time tick; kept for symmetry
        states = self._active_states()
        if not states:
            return
        weights = []
        for state in states:
            faults = state.driver.stats.faults
            weights.append(faults - state.fault_mark + 1)
            state.fault_mark = faults
        self._distribute(states, weights, self._min_quota)
        self.rebalances += 1
