"""Fleet time-series telemetry: cycle-windowed sampling of a fleet run.

PR 9's :func:`~repro.sim.fleet.simulate_fleet` reports end-of-run QoS
aggregates — means and percentiles over a whole tenancy.  Those hide
exactly what a multi-tenant EPC story is about: *when* a tenant
thrashed, how occupancy shifted as neighbours churned, and whether the
adaptive-quota policy's rebalances tracked demand or lagged it.  This
module is the missing time axis:

* :class:`FleetTelemetry` — a passive sampler the fleet event loop
  feeds through ``series_*`` hooks (lint rule RL012 confines those
  calls to ``repro.sim.fleet``, the sole sanctioned emitter).  It
  slices virtual time into fixed windows and records, per window,
  per-tenant and fleet-wide series: demand faults, preload
  completions, accesses, channel wait (sum, samples and a per-window
  p99 from bucket deltas of the driver's ``fault.wait_hist``), EPC
  frames held vs quota, load-channel utilization, admission-queue
  depth, active/truncated tenant counts — plus every adaptive-quota
  rebalance decision with its before/after quotas.
* :data:`FLEET_TIMESERIES_SCHEMA` — the deterministic, wall-clock-free
  ``repro.fleet-timeseries/1`` block (:meth:`FleetTelemetry.block`),
  embedded digest-excluded in the fleet manifest so an observed run's
  integrity digest equals the blind run's.
* :func:`validate_fleet_timeseries` — structural checks plus the exact
  reconciliation identities: window deltas cross-foot to the fleet
  series, and totals equal the ``repro.fleet-manifest/1`` QoS
  aggregates field for field.
* :class:`SloSpec` / :func:`evaluate_slo` / :func:`detect_thrash` —
  the SLO layer: per-window breach evaluation (max p99 fault wait,
  max fault rate, min residency ratio) merged into breach intervals,
  and a thrash-window detector flagging windows whose fault rate runs
  far above the tenant's own run mean.

Passivity is the contract everything above rests on: the sampler only
*reads* driver counters, histogram buckets, frame-manager quotas and
channel state — it never calls into the simulation.  The determinism
tests prove a ``--timeseries`` fleet run's manifest block stays
byte-identical to a blind one's under every frame policy.

Windowing semantics: windows are half-open ``[k*W, (k+1)*W)`` spans of
virtual time.  A window closes when the event loop first processes an
event at or past its end, so a window's deltas cover exactly the
events *started* inside it (a fault whose channel wait straddles the
boundary is attributed to the window it began in).  The run's tail —
including the channel drain performed by ``driver.finish`` — lands in
one final window closing at ``end_cycles``, which is what makes the
per-window sums reconcile exactly with the end-of-run aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ObsError
from repro.obs.metrics import histogram_quantile

__all__ = [
    "FLEET_TIMESERIES_SCHEMA",
    "FLEET_SLO_SCHEMA",
    "FleetTelemetry",
    "SloSpec",
    "evaluate_slo",
    "detect_thrash",
    "validate_fleet_timeseries",
]

#: Schema identifier of the fleet time-series manifest block.
FLEET_TIMESERIES_SCHEMA = "repro.fleet-timeseries/1"

#: Schema identifier of an SLO evaluation document.
FLEET_SLO_SCHEMA = "repro.fleet-slo/1"

#: Export cap: coarsen (pairwise-merge) windows until at most this
#: many remain, so the embedded block stays readable and bounded no
#: matter how long the scenario ran.  Merging sums the delta series
#: and keeps the later window's sampled gauges, so every
#: reconciliation identity survives coarsening.
_MAX_EXPORT_WINDOWS = 128


@dataclass(frozen=True)
class SloSpec:
    """A per-window service-level objective over the fleet series.

    Every field is optional; ``None`` disables that objective.  All
    thresholds are evaluated per tenant per window:

    * ``max_fault_wait_p99`` — upper bound (virtual cycles) on the
      window's p99 demand-fault channel wait (windows with no faults
      pass trivially);
    * ``max_fault_rate`` — upper bound on ``faults / accesses`` within
      the window (windows with no accesses pass trivially);
    * ``min_residency_ratio`` — lower bound on ``resident / quota`` at
      the window close; only meaningful under the partitioned frame
      policies (windows where the tenant holds no quota pass).
    """

    max_fault_wait_p99: Optional[float] = None
    max_fault_rate: Optional[float] = None
    min_residency_ratio: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_fault_wait_p99 is not None and not (
            math.isfinite(self.max_fault_wait_p99) and self.max_fault_wait_p99 > 0
        ):
            raise ObsError(
                "max_fault_wait_p99 must be positive and finite, got "
                f"{self.max_fault_wait_p99}"
            )
        if self.max_fault_rate is not None and not 0 < self.max_fault_rate <= 1:
            raise ObsError(
                f"max_fault_rate must be in (0, 1], got {self.max_fault_rate}"
            )
        if self.min_residency_ratio is not None and not (
            0 < self.min_residency_ratio <= 1
        ):
            raise ObsError(
                "min_residency_ratio must be in (0, 1], got "
                f"{self.min_residency_ratio}"
            )

    @property
    def enabled(self) -> bool:
        """Whether any objective is set."""
        return (
            self.max_fault_wait_p99 is not None
            or self.max_fault_rate is not None
            or self.min_residency_ratio is not None
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "max_fault_wait_p99": self.max_fault_wait_p99,
            "max_fault_rate": self.max_fault_rate,
            "min_residency_ratio": self.min_residency_ratio,
        }

    _KEYS = {
        "wait_p99": "max_fault_wait_p99",
        "fault_rate": "max_fault_rate",
        "residency": "min_residency_ratio",
    }

    @classmethod
    def parse(cls, text: str) -> "SloSpec":
        """Parse the CLI form: ``wait_p99=80000,fault_rate=0.2,residency=0.5``."""
        values: Dict[str, float] = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            key, sep, raw = item.partition("=")
            key = key.strip()
            if not sep or key not in cls._KEYS:
                raise ObsError(
                    f"bad SLO term {item!r} "
                    f"(use key=value with keys {', '.join(sorted(cls._KEYS))})"
                )
            try:
                values[cls._KEYS[key]] = float(raw)
            except ValueError:
                raise ObsError(f"SLO term {item!r} has a non-numeric value") from None
        if not values:
            raise ObsError("empty SLO spec (no key=value terms)")
        return cls(**values)


class _TenantSeries:
    """One tenant's lifecycle record plus per-window accumulation."""

    __slots__ = (
        "index", "name", "scheme", "workload", "arrival",
        "queued_at", "admitted_at", "started_at", "departed_at", "truncated",
        "port", "frames_state",
        "last_accesses", "last_faults", "last_preloads",
        "last_wait_sum", "last_wait_count", "last_buckets", "last_overflow",
        "accesses", "faults", "preloads", "wait_cycles", "wait_count",
        "buckets", "overflow", "resident", "quota",
    )

    def __init__(
        self, index: int, name: str, scheme: str, workload: str, arrival: int
    ) -> None:
        self.index = index
        self.name = name
        self.scheme = scheme
        self.workload = workload
        self.arrival = arrival
        self.queued_at: Optional[int] = None
        self.admitted_at: Optional[int] = None
        self.started_at: Optional[int] = None
        self.departed_at: Optional[int] = None
        self.truncated = False
        # Live references, set at admission: (stats, wait_hist, driver).
        self.port = None
        self.frames_state = None
        # Cumulative snapshot at the last window close.
        self.last_accesses = 0
        self.last_faults = 0
        self.last_preloads = 0
        self.last_wait_sum = 0
        self.last_wait_count = 0
        self.last_buckets: Optional[List[int]] = None
        self.last_overflow = 0
        # Per-window series (parallel arrays, one entry per window).
        self.accesses: List[int] = []
        self.faults: List[int] = []
        self.preloads: List[int] = []
        self.wait_cycles: List[int] = []
        self.wait_count: List[int] = []
        self.buckets: List[List[int]] = []
        self.overflow: List[int] = []
        self.resident: List[int] = []
        self.quota: List[int] = []


class FleetTelemetry:
    """Passive, cycle-windowed sampler over one fleet run.

    Construct one per :func:`~repro.sim.fleet.simulate_fleet` call and
    pass it as the ``telemetry`` argument; the fleet loop drives every
    ``series_*`` hook.  ``window_cycles`` defaults to the scenario
    config's scan period — the natural cadence of the simulated
    platform — when left ``None``.
    """

    def __init__(self, *, window_cycles: Optional[int] = None) -> None:
        if window_cycles is not None and window_cycles <= 0:
            raise ObsError(
                f"window_cycles must be positive, got {window_cycles}"
            )
        self._window_cycles = window_cycles
        self._bounds: Optional[Tuple[int, ...]] = None
        self._platform = None
        self._frames = None
        self._config = None
        self._cost_load = 0
        self._cost_evict = 0
        self._tenants: List[_TenantSeries] = []
        self._waiting: set = set()
        self._active = 0
        self._truncated = 0
        self._next_boundary = 0
        self._end: Optional[int] = None
        # Fleet-wide per-window series.
        self._w_start: List[int] = []
        self._w_end: List[int] = []
        self._f_epc: List[int] = []
        self._f_queue: List[int] = []
        self._f_active: List[int] = []
        self._f_truncated: List[int] = []
        self._f_loads: List[int] = []
        self._f_evictions: List[int] = []
        # Channel cumulative snapshot at the last window close.
        self._last_loads = 0
        self._last_evictions = 0
        self._rebalances: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    # Hooks (fed exclusively by repro.sim.fleet — lint rule RL012)
    # ------------------------------------------------------------------

    def series_begin(self, config, platform, frames) -> None:
        """Bind the run: resolve the window width, hold platform refs."""
        if self._platform is not None:
            raise ObsError("FleetTelemetry is single-use; make a fresh one")
        self._config = config
        self._platform = platform
        self._frames = frames
        self._cost_load = platform.channel.load_cycles
        self._cost_evict = config.cost.ewb_cycles
        if self._window_cycles is None:
            self._window_cycles = config.scan_period_cycles
        self._next_boundary = self._window_cycles

    def series_tenant(
        self, index: int, name: str, scheme: str, workload: str, arrival: int
    ) -> None:
        """Register one tenant of the scenario (admitted or not)."""
        if index != len(self._tenants):
            raise ObsError(
                f"tenants must register in index order; got {index}, "
                f"expected {len(self._tenants)}"
            )
        self._tenants.append(
            _TenantSeries(index, name, scheme, workload, arrival)
        )

    def series_queued(self, index: int, t: int) -> None:
        """The admission controller parked this tenant in the FIFO."""
        tenant = self._tenants[index]
        tenant.queued_at = t
        self._waiting.add(index)

    def series_admit(self, index: int, t: int, driver, registry) -> None:
        """The tenant was admitted: wire up its passive read ports."""
        tenant = self._tenants[index]
        tenant.admitted_at = t
        self._waiting.discard(index)
        self._active += 1
        hist = registry.get("fault.wait_hist")
        tenant.port = (driver.stats, hist, driver)
        if self._bounds is None:
            self._bounds = tuple(hist.bounds)
        tenant.last_buckets = list(hist.counts)
        tenant.last_overflow = hist.overflow

    def series_started(self, index: int, t: int) -> None:
        """Spin-up finished; the tenant's trace starts at ``t``."""
        self._tenants[index].started_at = t

    def series_tick(self, t: int) -> None:
        """Called at every event-loop pop; closes any elapsed windows."""
        while t >= self._next_boundary:
            self._close_window(self._next_boundary)
            self._next_boundary += self._window_cycles

    def series_rebalance(
        self, t: int, before: Mapping[str, int], after: Mapping[str, int]
    ) -> None:
        """Record one adaptive-quota rebalance with before/after quotas."""
        self._rebalances.append(
            {
                "cycle": t,
                "quotas_before": dict(before),
                "quotas_after": dict(after),
            }
        )

    def series_depart(self, index: int, t: int, *, truncated: bool) -> None:
        """The tenant left (completed its trace, or was truncated)."""
        tenant = self._tenants[index]
        tenant.departed_at = t
        tenant.truncated = truncated
        self._active -= 1
        if truncated:
            self._truncated += 1

    def series_truncated(self, index: int) -> None:
        """Duration cutoff hit while the tenant was still running."""
        tenant = self._tenants[index]
        tenant.truncated = True
        self._active -= 1
        self._truncated += 1

    def series_finish(self, end: int) -> None:
        """Close the run at ``end`` (after every driver drained)."""
        if self._end is not None:
            raise ObsError("series_finish called twice")
        while self._next_boundary < end:
            self._close_window(self._next_boundary)
            self._next_boundary += self._window_cycles
        # The tail window absorbs everything up to the true end —
        # including channel drain done by driver.finish — so the
        # per-window sums equal the end-of-run aggregates exactly.
        last_closed = self._w_end[-1] if self._w_end else 0
        if not self._w_end:
            self._close_window(max(end, 1))
        elif end > last_closed:
            self._close_window(end)
        else:
            # ``end`` fell exactly on an already-closed boundary: fold
            # the drain residue into that final window so nothing the
            # run counted escapes the series.
            self._merge_residuals_into_last()
        self._end = end

    # ------------------------------------------------------------------
    # Sampling internals
    # ------------------------------------------------------------------

    def _close_window(self, boundary: int) -> None:
        start = self._w_end[-1] if self._w_end else 0
        self._w_start.append(start)
        self._w_end.append(boundary)
        frames = self._frames
        for tenant in self._tenants:
            port = tenant.port
            if port is None:
                tenant.accesses.append(0)
                tenant.faults.append(0)
                tenant.preloads.append(0)
                tenant.wait_cycles.append(0)
                tenant.wait_count.append(0)
                tenant.buckets.append([])
                tenant.overflow.append(0)
                tenant.resident.append(0)
                tenant.quota.append(0)
                continue
            stats, hist, driver = port
            tenant.accesses.append(stats.accesses - tenant.last_accesses)
            tenant.faults.append(stats.faults - tenant.last_faults)
            tenant.preloads.append(
                stats.preloads_completed - tenant.last_preloads
            )
            tenant.wait_cycles.append(hist.sum - tenant.last_wait_sum)
            tenant.wait_count.append(hist.count - tenant.last_wait_count)
            tenant.buckets.append(
                [
                    now - last
                    for now, last in zip(hist.counts, tenant.last_buckets)
                ]
            )
            tenant.overflow.append(hist.overflow - tenant.last_overflow)
            tenant.last_accesses = stats.accesses
            tenant.last_faults = stats.faults
            tenant.last_preloads = stats.preloads_completed
            tenant.last_wait_sum = hist.sum
            tenant.last_wait_count = hist.count
            tenant.last_buckets = list(hist.counts)
            tenant.last_overflow = hist.overflow
            if frames is not None:
                tenant.resident.append(frames.resident_of(driver))
                tenant.quota.append(frames.quota_of(driver))
            else:
                tenant.resident.append(0)
                tenant.quota.append(0)
        platform = self._platform
        channel = platform.channel
        loads = (
            channel.demand_loads + channel.sip_loads + channel.preloads_completed
        )
        evictions = sum(
            t.port[0].evictions for t in self._tenants if t.port is not None
        )
        self._f_epc.append(platform.epc.resident_count)
        self._f_queue.append(len(self._waiting))
        self._f_active.append(self._active)
        self._f_truncated.append(self._truncated)
        self._f_loads.append(loads - self._last_loads)
        self._f_evictions.append(evictions - self._last_evictions)
        self._last_loads = loads
        self._last_evictions = evictions

    def _merge_residuals_into_last(self) -> None:
        """Fold post-close counter movement into the final window."""
        frames = self._frames
        for tenant in self._tenants:
            port = tenant.port
            if port is None:
                continue
            stats, hist, driver = port
            tenant.accesses[-1] += stats.accesses - tenant.last_accesses
            tenant.faults[-1] += stats.faults - tenant.last_faults
            tenant.preloads[-1] += (
                stats.preloads_completed - tenant.last_preloads
            )
            tenant.wait_cycles[-1] += hist.sum - tenant.last_wait_sum
            tenant.wait_count[-1] += hist.count - tenant.last_wait_count
            delta = [
                now - last
                for now, last in zip(hist.counts, tenant.last_buckets)
            ]
            if tenant.buckets[-1]:
                tenant.buckets[-1] = [
                    a + b for a, b in zip(tenant.buckets[-1], delta)
                ]
            elif any(delta):
                tenant.buckets[-1] = delta
            tenant.overflow[-1] += hist.overflow - tenant.last_overflow
            tenant.last_accesses = stats.accesses
            tenant.last_faults = stats.faults
            tenant.last_preloads = stats.preloads_completed
            tenant.last_wait_sum = hist.sum
            tenant.last_wait_count = hist.count
            tenant.last_buckets = list(hist.counts)
            tenant.last_overflow = hist.overflow
            if frames is not None:
                tenant.resident[-1] = frames.resident_of(driver)
                tenant.quota[-1] = frames.quota_of(driver)
        platform = self._platform
        channel = platform.channel
        loads = (
            channel.demand_loads + channel.sip_loads + channel.preloads_completed
        )
        evictions = sum(
            t.port[0].evictions for t in self._tenants if t.port is not None
        )
        self._f_loads[-1] += loads - self._last_loads
        self._f_evictions[-1] += evictions - self._last_evictions
        self._last_loads = loads
        self._last_evictions = evictions
        self._f_epc[-1] = platform.epc.resident_count
        self._f_queue[-1] = len(self._waiting)
        self._f_active[-1] = self._active
        self._f_truncated[-1] = self._truncated

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def _coarsen(self) -> int:
        """Pairwise-merge windows in place until under the export cap.

        Returns the number of merge passes performed.  Delta series
        sum; sampled gauges keep the *later* window's value (the state
        at the merged window's close); wait-histogram bucket deltas
        sum, so per-window quantiles stay well defined.
        """

        def merge_sum(series: List[int]) -> List[int]:
            return [
                sum(series[i : i + 2]) for i in range(0, len(series), 2)
            ]

        def merge_last(series: List[int]) -> List[int]:
            return [
                series[min(i + 1, len(series) - 1)]
                for i in range(0, len(series), 2)
            ]

        passes = 0
        while len(self._w_end) > _MAX_EXPORT_WINDOWS:
            passes += 1
            self._w_start = [
                self._w_start[i] for i in range(0, len(self._w_start), 2)
            ]
            self._w_end = merge_last(self._w_end)
            self._f_epc = merge_last(self._f_epc)
            self._f_queue = merge_last(self._f_queue)
            self._f_active = merge_last(self._f_active)
            self._f_truncated = merge_last(self._f_truncated)
            self._f_loads = merge_sum(self._f_loads)
            self._f_evictions = merge_sum(self._f_evictions)
            for tenant in self._tenants:
                tenant.accesses = merge_sum(tenant.accesses)
                tenant.faults = merge_sum(tenant.faults)
                tenant.preloads = merge_sum(tenant.preloads)
                tenant.wait_cycles = merge_sum(tenant.wait_cycles)
                tenant.wait_count = merge_sum(tenant.wait_count)
                tenant.overflow = merge_sum(tenant.overflow)
                tenant.resident = merge_last(tenant.resident)
                tenant.quota = merge_last(tenant.quota)
                merged: List[List[int]] = []
                for i in range(0, len(tenant.buckets), 2):
                    pair = tenant.buckets[i : i + 2]
                    if len(pair) == 1 or not pair[1]:
                        merged.append(pair[0])
                    elif not pair[0]:
                        merged.append(pair[1])
                    else:
                        merged.append(
                            [a + b for a, b in zip(pair[0], pair[1])]
                        )
                tenant.buckets = merged
        return passes

    def _window_p99(
        self, buckets: Sequence[int], overflow: int, count: int, total: int
    ) -> float:
        if count <= 0 or self._bounds is None:
            return 0.0
        dump = {
            "count": count,
            "sum": total,
            "buckets": [
                {"le": bound, "count": n}
                for bound, n in zip(self._bounds, buckets)
            ],
            "overflow": overflow,
        }
        return round(histogram_quantile(dump, 0.99), 3)

    def block(self) -> Dict[str, object]:
        """The deterministic ``repro.fleet-timeseries/1`` block."""
        if self._end is None:
            raise ObsError(
                "fleet telemetry is incomplete: series_finish never ran"
            )
        coarsen_passes = self._coarsen()
        n = len(self._w_end)
        fleet_accesses = [0] * n
        fleet_faults = [0] * n
        fleet_preloads = [0] * n
        fleet_wait = [0] * n
        fleet_wait_count = [0] * n
        fleet_buckets: List[List[int]] = [[] for _ in range(n)]
        fleet_overflow = [0] * n
        tenants_out: List[Dict[str, object]] = []
        partitioned = self._frames is not None
        for tenant in self._tenants:
            for i in range(n):
                fleet_accesses[i] += tenant.accesses[i]
                fleet_faults[i] += tenant.faults[i]
                fleet_preloads[i] += tenant.preloads[i]
                fleet_wait[i] += tenant.wait_cycles[i]
                fleet_wait_count[i] += tenant.wait_count[i]
                fleet_overflow[i] += tenant.overflow[i]
                if tenant.buckets[i]:
                    if fleet_buckets[i]:
                        fleet_buckets[i] = [
                            a + b
                            for a, b in zip(fleet_buckets[i], tenant.buckets[i])
                        ]
                    else:
                        fleet_buckets[i] = list(tenant.buckets[i])
            entry: Dict[str, object] = {
                "name": tenant.name,
                "index": tenant.index,
                "scheme": tenant.scheme,
                "workload": tenant.workload,
                "arrival": tenant.arrival,
                "queued_at": tenant.queued_at,
                "admitted_at": tenant.admitted_at,
                "started_at": tenant.started_at,
                "departed_at": tenant.departed_at,
                "truncated": tenant.truncated,
                "accesses": tenant.accesses,
                "faults": tenant.faults,
                "preloads_completed": tenant.preloads,
                "wait_cycles": tenant.wait_cycles,
                "wait_count": tenant.wait_count,
                "fault_wait_p99": [
                    self._window_p99(
                        tenant.buckets[i],
                        tenant.overflow[i],
                        tenant.wait_count[i],
                        tenant.wait_cycles[i],
                    )
                    for i in range(n)
                ],
            }
            if partitioned:
                entry["resident"] = tenant.resident
                entry["quota"] = tenant.quota
            tenants_out.append(entry)
        busy = [
            loads * self._cost_load + evictions * self._cost_evict
            for loads, evictions in zip(self._f_loads, self._f_evictions)
        ]
        utilization = [
            round(min(b / (end - start), 1.0), 4) if end > start else 0.0
            for b, start, end in zip(busy, self._w_start, self._w_end)
        ]
        return {
            "schema": FLEET_TIMESERIES_SCHEMA,
            "window_cycles": self._window_cycles,
            "coarsen_passes": coarsen_passes,
            "end_cycles": self._w_end[-1],
            "window_start": list(self._w_start),
            "window_end": list(self._w_end),
            "fleet": {
                "accesses": fleet_accesses,
                "faults": fleet_faults,
                "preloads_completed": fleet_preloads,
                "channel_wait_cycles": fleet_wait,
                "fault_wait_p99": [
                    self._window_p99(
                        fleet_buckets[i],
                        fleet_overflow[i],
                        fleet_wait_count[i],
                        fleet_wait[i],
                    )
                    for i in range(n)
                ],
                "channel_loads": list(self._f_loads),
                "channel_busy_cycles": busy,
                "channel_utilization": utilization,
                "epc_resident": list(self._f_epc),
                "queue_depth": list(self._f_queue),
                "active_tenants": list(self._f_active),
                "truncated_tenants": list(self._f_truncated),
            },
            "tenants": tenants_out,
            "rebalances": self._rebalances,
            "totals": {
                "accesses": sum(fleet_accesses),
                "faults": sum(fleet_faults),
                "preloads_completed": sum(fleet_preloads),
                "channel_wait_cycles": sum(fleet_wait),
                "channel_wait_samples": sum(fleet_wait_count),
            },
        }


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------

_FLEET_SERIES_KEYS = (
    "accesses",
    "faults",
    "preloads_completed",
    "channel_wait_cycles",
    "fault_wait_p99",
    "channel_loads",
    "channel_busy_cycles",
    "channel_utilization",
    "epc_resident",
    "queue_depth",
    "active_tenants",
    "truncated_tenants",
)

_TENANT_SERIES_KEYS = (
    "accesses",
    "faults",
    "preloads_completed",
    "wait_cycles",
    "wait_count",
    "fault_wait_p99",
)

#: (timeseries totals key → per-tenant QoS key) pairs that must agree
#: exactly when a fleet block is supplied for cross-checking.
_QOS_IDENTITIES = (
    ("accesses", "accesses"),
    ("faults", "faults"),
    ("wait_cycles", "channel_wait_cycles"),
    ("wait_count", "channel_wait_samples"),
)


def validate_fleet_timeseries(
    block: Mapping[str, object],
    *,
    fleet_block: Optional[Mapping[str, object]] = None,
) -> Dict[str, int]:
    """Check a ``repro.fleet-timeseries/1`` block, raising on violation.

    Structural checks: schema tag, equal-length contiguous windows,
    every series array exactly one entry per window.  Accounting
    checks: the fleet series cross-foot to the per-tenant series in
    every window, and the ``totals`` section equals the series sums.
    When ``fleet_block`` (the ``repro.fleet-manifest/1`` block of the
    same run) is given, per-tenant and fleet totals must reconcile
    *exactly* with its QoS aggregates.  Returns summary counts.
    """
    if not isinstance(block, Mapping):
        raise ObsError("fleet timeseries must be a mapping")
    schema = block.get("schema")
    if schema != FLEET_TIMESERIES_SCHEMA:
        raise ObsError(
            f"not a fleet timeseries block: schema {schema!r} "
            f"(expected {FLEET_TIMESERIES_SCHEMA})"
        )
    starts = block.get("window_start")
    ends = block.get("window_end")
    if not isinstance(starts, list) or not isinstance(ends, list):
        raise ObsError("fleet timeseries lacks window_start/window_end arrays")
    n = len(ends)
    if len(starts) != n or n == 0:
        raise ObsError(
            f"window arrays disagree: {len(starts)} starts vs {n} ends"
        )
    if starts[0] != 0:
        raise ObsError(f"first window must start at cycle 0, got {starts[0]}")
    for i in range(n):
        if ends[i] <= starts[i]:
            raise ObsError(
                f"window {i} is empty or inverted: "
                f"[{starts[i]}, {ends[i]})"
            )
        if i and starts[i] != ends[i - 1]:
            raise ObsError(
                f"window {i} is not contiguous: starts at {starts[i]}, "
                f"previous ended at {ends[i - 1]}"
            )
    if ends[-1] != block.get("end_cycles"):
        raise ObsError(
            f"last window ends at {ends[-1]} but the block records "
            f"end_cycles={block.get('end_cycles')}"
        )
    fleet = block.get("fleet")
    if not isinstance(fleet, Mapping):
        raise ObsError("fleet timeseries lacks the fleet series section")
    for key in _FLEET_SERIES_KEYS:
        series = fleet.get(key)
        if not isinstance(series, list) or len(series) != n:
            raise ObsError(
                f"fleet series {key!r} must have one entry per window "
                f"({n}), got {len(series) if isinstance(series, list) else series!r}"
            )
    tenants = block.get("tenants")
    if not isinstance(tenants, list):
        raise ObsError("fleet timeseries lacks the tenants section")
    for tenant in tenants:
        for key in _TENANT_SERIES_KEYS:
            series = tenant.get(key)
            if not isinstance(series, list) or len(series) != n:
                raise ObsError(
                    f"tenant {tenant.get('name')!r} series {key!r} must "
                    f"have one entry per window ({n})"
                )
    # Cross-foot: the fleet delta series are the per-tenant sums.
    for fleet_key, tenant_key in (
        ("accesses", "accesses"),
        ("faults", "faults"),
        ("preloads_completed", "preloads_completed"),
        ("channel_wait_cycles", "wait_cycles"),
    ):
        for i in range(n):
            total = sum(t[tenant_key][i] for t in tenants)
            if total != fleet[fleet_key][i]:
                raise ObsError(
                    f"window {i} does not cross-foot: tenant "
                    f"{tenant_key} sums to {total}, fleet records "
                    f"{fleet[fleet_key][i]}"
                )
    totals = block.get("totals")
    if not isinstance(totals, Mapping):
        raise ObsError("fleet timeseries lacks the totals section")
    for key in ("accesses", "faults", "preloads_completed", "channel_wait_cycles"):
        if totals.get(key) != sum(fleet[key]):
            raise ObsError(
                f"totals[{key!r}] = {totals.get(key)} does not equal the "
                f"series sum {sum(fleet[key])}"
            )
    rebalances = block.get("rebalances")
    if not isinstance(rebalances, list):
        raise ObsError("fleet timeseries lacks the rebalances section")
    for decision in rebalances:
        for key in ("cycle", "quotas_before", "quotas_after"):
            if key not in decision:
                raise ObsError(f"rebalance decision lacks {key!r}: {decision!r}")
    if fleet_block is not None:
        _reconcile_with_fleet_block(block, fleet_block)
    return {
        "windows": n,
        "tenants": len(tenants),
        "faults": int(totals["faults"]),
        "preloads_completed": int(totals["preloads_completed"]),
        "rebalances": len(rebalances),
    }


def _reconcile_with_fleet_block(
    block: Mapping[str, object], fleet_block: Mapping[str, object]
) -> None:
    """Exact identities against the ``repro.fleet-manifest/1`` block."""
    summary = fleet_block.get("summary") or {}
    totals = block["totals"]
    if totals["faults"] != summary.get("faults"):
        raise ObsError(
            f"timeseries faults total {totals['faults']} != fleet "
            f"summary faults {summary.get('faults')}"
        )
    if len(block["rebalances"]) != summary.get("rebalances"):
        raise ObsError(
            f"timeseries records {len(block['rebalances'])} rebalances, "
            f"fleet summary says {summary.get('rebalances')}"
        )
    qos_by_name = {t.get("name"): t for t in fleet_block.get("tenants", [])}
    for tenant in block["tenants"]:
        qos = qos_by_name.get(tenant["name"])
        if qos is None:
            raise ObsError(
                f"timeseries tenant {tenant['name']!r} missing from the "
                "fleet block"
            )
        if not qos.get("admitted"):
            if any(tenant["accesses"]):
                raise ObsError(
                    f"never-admitted tenant {tenant['name']!r} has "
                    "non-zero access deltas"
                )
            continue
        for series_key, qos_key in _QOS_IDENTITIES:
            expected = qos.get(qos_key)
            got = sum(tenant[series_key])
            if got != expected:
                raise ObsError(
                    f"tenant {tenant['name']!r}: timeseries "
                    f"{series_key} sums to {got}, QoS {qos_key} "
                    f"records {expected}"
                )


# ----------------------------------------------------------------------
# SLO evaluation and thrash detection
# ----------------------------------------------------------------------


def evaluate_slo(
    block: Mapping[str, object], slo: SloSpec
) -> Dict[str, object]:
    """Evaluate ``slo`` per tenant per window; merge breach intervals.

    Returns a ``repro.fleet-slo/1`` document: one interval per maximal
    run of consecutive breaching windows, annotated with which
    objectives were violated and the worst observed value of each.
    """
    if not slo.enabled:
        raise ObsError("SLO spec has no objectives set")
    validate_fleet_timeseries(block)
    starts = block["window_start"]
    ends = block["window_end"]
    n = len(ends)
    breaches: List[Dict[str, object]] = []
    for tenant in block["tenants"]:
        open_interval: Optional[Dict[str, object]] = None
        for i in range(n):
            violated: List[str] = []
            worst: Dict[str, float] = {}
            if (
                slo.max_fault_wait_p99 is not None
                and tenant["wait_count"][i] > 0
                and tenant["fault_wait_p99"][i] > slo.max_fault_wait_p99
            ):
                violated.append("fault_wait_p99")
                worst["fault_wait_p99"] = tenant["fault_wait_p99"][i]
            if slo.max_fault_rate is not None and tenant["accesses"][i] > 0:
                rate = tenant["faults"][i] / tenant["accesses"][i]
                if rate > slo.max_fault_rate:
                    violated.append("fault_rate")
                    worst["fault_rate"] = round(rate, 4)
            if (
                slo.min_residency_ratio is not None
                and tenant.get("quota") is not None
                and tenant["quota"][i] > 0
            ):
                ratio = tenant["resident"][i] / tenant["quota"][i]
                if ratio < slo.min_residency_ratio:
                    violated.append("residency_ratio")
                    worst["residency_ratio"] = round(ratio, 4)
            if violated:
                if open_interval is None:
                    open_interval = {
                        "tenant": tenant["name"],
                        "start_window": i,
                        "end_window": i,
                        "start_cycle": starts[i],
                        "end_cycle": ends[i],
                        "windows": 1,
                        "violated": list(violated),
                        "worst": dict(worst),
                    }
                else:
                    open_interval["end_window"] = i
                    open_interval["end_cycle"] = ends[i]
                    open_interval["windows"] += 1
                    merged = set(open_interval["violated"]) | set(violated)
                    open_interval["violated"] = sorted(merged)
                    for key, value in worst.items():
                        prior = open_interval["worst"].get(key)
                        if key == "residency_ratio":
                            keep = value if prior is None else min(prior, value)
                        else:
                            keep = value if prior is None else max(prior, value)
                        open_interval["worst"][key] = keep
            elif open_interval is not None:
                breaches.append(open_interval)
                open_interval = None
        if open_interval is not None:
            breaches.append(open_interval)
    return {
        "schema": FLEET_SLO_SCHEMA,
        "spec": slo.as_dict(),
        "windows_evaluated": n,
        "tenants": len(block["tenants"]),
        "breaches": breaches,
    }


def detect_thrash(
    block: Mapping[str, object],
    *,
    factor: float = 2.0,
    min_faults: int = 8,
) -> List[Dict[str, object]]:
    """Flag windows where a tenant faults far above its own run mean.

    A window *thrashes* when the tenant's fault rate (faults per cycle
    of window width) exceeds ``factor`` times its mean rate over the
    windows it was active in, and the window holds at least
    ``min_faults`` faults (so near-idle tenants never flag).  Returns
    merged intervals, one per maximal consecutive run, sorted by
    tenant index then window.
    """
    if factor <= 1.0:
        raise ObsError(f"thrash factor must exceed 1, got {factor}")
    if min_faults < 1:
        raise ObsError(f"min_faults must be >= 1, got {min_faults}")
    validate_fleet_timeseries(block)
    starts = block["window_start"]
    ends = block["window_end"]
    n = len(ends)
    intervals: List[Dict[str, object]] = []
    for tenant in block["tenants"]:
        active = [i for i in range(n) if tenant["accesses"][i] > 0]
        total_faults = sum(tenant["faults"][i] for i in active)
        total_span = sum(ends[i] - starts[i] for i in active)
        if total_faults < min_faults or total_span <= 0:
            continue
        mean_rate = total_faults / total_span
        open_interval: Optional[Dict[str, object]] = None
        for i in range(n):
            width = ends[i] - starts[i]
            rate = tenant["faults"][i] / width if width else 0.0
            hot = (
                tenant["faults"][i] >= min_faults
                and rate > factor * mean_rate
            )
            if hot:
                if open_interval is None:
                    open_interval = {
                        "tenant": tenant["name"],
                        "start_window": i,
                        "end_window": i,
                        "start_cycle": starts[i],
                        "end_cycle": ends[i],
                        "windows": 1,
                        "faults": tenant["faults"][i],
                        "peak_rate_vs_mean": round(rate / mean_rate, 2),
                    }
                else:
                    open_interval["end_window"] = i
                    open_interval["end_cycle"] = ends[i]
                    open_interval["windows"] += 1
                    open_interval["faults"] += tenant["faults"][i]
                    open_interval["peak_rate_vs_mean"] = max(
                        open_interval["peak_rate_vs_mean"],
                        round(rate / mean_rate, 2),
                    )
            elif open_interval is not None:
                intervals.append(open_interval)
                open_interval = None
        if open_interval is not None:
            intervals.append(open_interval)
    return intervals
