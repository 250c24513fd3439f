"""Fleet time-series telemetry: cycle-windowed sampling of a fleet run.

PR 9's :func:`~repro.sim.fleet.simulate_fleet` reports end-of-run QoS
aggregates — means and percentiles over a whole tenancy.  Those hide
exactly what a multi-tenant EPC story is about: *when* a tenant
thrashed, how occupancy shifted as neighbours churned, and whether the
adaptive-quota policy's rebalances tracked demand or lagged it.  This
module is the missing time axis:

* :class:`FleetTelemetry` — a passive sampler the fleet event loop
  feeds through ``series_*`` hooks (lint rule RL010 confines those
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

The sampler defers its work to export, and holds only what the export
can show.  A window close takes one cumulative snapshot per tenant and
one fleet-wide snapshot.  The export coarsens the run to at most 128
windows by keeping every ``2**k``-th close and the last, so the sampler
keeps only the closes some ``k`` can still select (:class:`_Thinned`):
a run of any length holds at most 129 closes, and
:meth:`FleetTelemetry.block` differences only the ones it exports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from repro.errors import ObsError
from repro.obs.metrics import histogram_quantile
from repro.obs.series import runs

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

#: Export cap: coarsen windows until at most this many remain, so the
#: embedded block stays readable and bounded no matter how long the
#: scenario ran.
_MAX_EXPORT_WINDOWS = 128


def _add_buckets(first: List[int], later: List[int]) -> List[int]:
    """Sum two bucket-delta lists (``[]``: no histogram bound yet)."""
    if first and later:
        return [a + b for a, b in zip(first, later)]
    return first or later


class _Thinned:
    """What halving a growing sequence to at most ``cap`` items can keep.

    Halving pairwise, keeping the later item of each pair, ``k`` times
    keeps the items ``i`` with ``(i + 1) % 2**k == 0`` and the last one.
    The newest item is held aside; the others are stored when
    ``(i + 1) % stride == 0``, and past ``cap`` stored items the stride
    doubles and every other one goes.  The stride never passes the
    ``2**k`` that :meth:`kept` needs, so nothing it keeps is lost.
    """

    __slots__ = ("cap", "count", "stride", "stored", "newest")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.count = 0
        self.stride = 1
        self.stored: list = []
        #: The last item; replacing it changes no other item's fate.
        self.newest = None

    def append(self, item) -> None:
        if self.count and self.count % self.stride == 0:
            self.stored.append(self.newest)
            if len(self.stored) > self.cap:
                self.stride *= 2
                self.stored = self.stored[1::2]
        self.newest = item
        self.count += 1

    def kept(self) -> Tuple[int, list]:
        """The halving passes that bring the items within ``cap``, and
        the items they keep."""
        passes, count = 0, self.count
        while count > self.cap:
            passes, count = passes + 1, (count + 1) // 2
        step = (1 << passes) // self.stride
        return passes, [*self.stored[step - 1 :: step], self.newest]


class _Close(NamedTuple):
    """Cumulative snapshots taken when one window closed.

    ``fleet`` is ``(epc_resident, queue_depth, active, truncated,
    channel_loads, evictions)``.  ``tenants`` holds one snapshot per
    tenant — ``None`` before its admission, else ``(resident, quota,
    accesses, faults, preloads_completed, wait_sum, wait_count,
    overflow, *bucket_counts)`` — whose first two entries are gauges
    and the rest running totals.
    """

    end: int
    fleet: Tuple[int, ...]
    tenants: List[Optional[Tuple[int, ...]]]


def _tenant_window(
    origin: Tuple[int, ...],
    before: Optional[Tuple[int, ...]],
    after: Optional[Tuple[int, ...]],
) -> tuple:
    """One tenant's exported window between two of its snapshots.

    Running totals are differenced and gauges read at the close, as
    ``(resident, quota, accesses, faults, preloads, wait_cycles,
    wait_count, overflow, buckets)``.  ``origin`` stands in for a
    snapshot from before admission.
    """
    if after is None:
        return (0, 0, 0, 0, 0, 0, 0, 0, [])
    delta = [a - b for a, b in zip(after, before or origin)]
    return (after[0], after[1], *delta[2:8], delta[8:])


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
    """One tenant's lifecycle record and its read ports."""

    __slots__ = (
        "index", "name", "scheme", "workload", "arrival",
        "queued_at", "admitted_at", "started_at", "departed_at", "truncated",
        "port", "origin", "latest",
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
        # Live references, set at admission: (stats, wait_hist, frame
        # record or None under the shared CLOCK).
        self.port = None
        # The snapshot a first window after admission is differenced
        # against (the wait histogram may not start empty).
        self.origin: Tuple[int, ...] = ()
        # The latest snapshot, reused while it still holds.
        self.latest: Optional[Tuple[int, ...]] = None


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
        # Window closes the export can keep; differenced only there.
        self._closes = _Thinned(_MAX_EXPORT_WINDOWS)
        self._rebalances: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    # Hooks (fed exclusively by repro.sim.fleet — lint rule RL010)
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
        frames = self._frames
        tenant.port = (
            driver.stats, hist, frames.tenant(driver) if frames is not None else None
        )
        if self._bounds is None:
            self._bounds = tuple(hist.bounds)
        tenant.origin = (0, 0, 0, 0, 0, 0, 0, hist.overflow, *hist.counts)

    def series_started(self, index: int, t: int) -> None:
        """Spin-up finished; the tenant's trace starts at ``t``."""
        self._tenants[index].started_at = t

    def series_tick(self, t: int) -> None:
        """Called at every event-loop pop; closes any elapsed windows."""
        while t >= self._next_boundary:
            self._closes.append(self._close_window(self._next_boundary))
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
            self._closes.append(self._close_window(self._next_boundary))
            self._next_boundary += self._window_cycles
        # The tail window absorbs everything up to the true end —
        # including channel drain done by driver.finish — so the
        # per-window sums equal the end-of-run aggregates exactly.
        # When ``end`` is not past the last closed boundary, the tail
        # would have zero width: its snapshot replaces that boundary's,
        # which folds it into the window before it.  A run that ends at
        # cycle 0 has no boundary to fold into and gets one 1-cycle
        # window, as no window is empty.
        closes = self._closes
        tail = max(end, closes.newest.end if closes.count else 1)
        if closes.count and closes.newest.end == tail:
            closes.newest = self._close_window(tail)
        else:
            closes.append(self._close_window(tail))
        self._end = end

    # ------------------------------------------------------------------
    # Sampling internals
    # ------------------------------------------------------------------

    def _close_window(self, boundary: int) -> _Close:
        """Snapshot every running total and gauge at ``boundary``.

        A tenant's previous snapshot is reused while its resident
        count, quota, accesses, faults and completed preloads hold:
        with no access there is no fault and so no wait-histogram
        change either.
        """
        evictions = 0
        snapshots: List[Optional[Tuple[int, ...]]] = []
        for tenant in self._tenants:
            port = tenant.port
            if port is None:
                snapshots.append(None)
                continue
            stats, hist, frame = port
            evictions += stats.evictions
            resident, quota = (frame.resident, frame.quota) if frame is not None else (0, 0)
            snapshot = tenant.latest
            if (
                snapshot is None
                or snapshot[0] != resident
                or snapshot[1] != quota
                or snapshot[2] != stats.accesses
                or snapshot[3] != stats.faults
                or snapshot[4] != stats.preloads_completed
            ):
                snapshot = (
                    resident,
                    quota,
                    stats.accesses,
                    stats.faults,
                    stats.preloads_completed,
                    hist.sum,
                    hist.count,
                    hist.overflow,
                    *hist.counts,
                )
                tenant.latest = snapshot
            snapshots.append(snapshot)
        platform = self._platform
        channel = platform.channel
        fleet = (
            platform.epc.resident_count,
            len(self._waiting),
            self._active,
            self._truncated,
            channel.demand_loads + channel.sip_loads + channel.preloads_completed,
            evictions,
        )
        return _Close(boundary, fleet, snapshots)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

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
        """The deterministic ``repro.fleet-timeseries/1`` block.

        Long runs are coarsened to at most ``_MAX_EXPORT_WINDOWS``
        windows by keeping every ``2**coarsen_passes``-th close (and
        the last): halving the close indices pairwise, keeping the
        later of each pair, groups exactly the windows a pairwise merge
        of per-window deltas would.  The sampler held only the closes
        some number of passes can keep, and only the kept snapshots
        are differenced.
        """
        if self._end is None:
            raise ObsError(
                "fleet telemetry is incomplete: series_finish never ran"
            )
        coarsen_passes, closes = self._closes.kept()
        run_start = _Close(0, (0,) * 6, [None] * len(self._tenants))
        opens = [run_start, *closes[:-1]]
        n = len(closes)
        fleet_accesses = [0] * n
        fleet_faults = [0] * n
        fleet_preloads = [0] * n
        fleet_wait = [0] * n
        fleet_wait_count = [0] * n
        fleet_buckets: List[List[int]] = [[] for _ in range(n)]
        fleet_overflow = [0] * n
        tenants_out: List[Dict[str, object]] = []
        partitioned = self._frames is not None
        for k, tenant in enumerate(self._tenants):
            windows = [
                _tenant_window(tenant.origin, opened.tenants[k], closed.tenants[k])
                for opened, closed in zip(opens, closes)
            ]
            (
                resident, quota, accesses, faults, preloads,
                wait_cycles, wait_count, overflow, buckets,
            ) = [list(column) for column in zip(*windows)]
            for i in range(n):
                fleet_accesses[i] += accesses[i]
                fleet_faults[i] += faults[i]
                fleet_preloads[i] += preloads[i]
                fleet_wait[i] += wait_cycles[i]
                fleet_wait_count[i] += wait_count[i]
                fleet_overflow[i] += overflow[i]
                fleet_buckets[i] = _add_buckets(fleet_buckets[i], buckets[i])
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
                "accesses": accesses,
                "faults": faults,
                "preloads_completed": preloads,
                "wait_cycles": wait_cycles,
                "wait_count": wait_count,
                "fault_wait_p99": [
                    self._window_p99(
                        buckets[i], overflow[i], wait_count[i], wait_cycles[i]
                    )
                    for i in range(n)
                ],
            }
            if partitioned:
                entry["resident"] = resident
                entry["quota"] = quota
            tenants_out.append(entry)
        window_start = [close.end for close in opens]
        window_end = [close.end for close in closes]
        loads = [c.fleet[4] - o.fleet[4] for o, c in zip(opens, closes)]
        evictions = [c.fleet[5] - o.fleet[5] for o, c in zip(opens, closes)]
        busy = [
            count * self._cost_load + evicted * self._cost_evict
            for count, evicted in zip(loads, evictions)
        ]
        utilization = [
            round(min(b / (end - start), 1.0), 4) if end > start else 0.0
            for b, start, end in zip(busy, window_start, window_end)
        ]
        return {
            "schema": FLEET_TIMESERIES_SCHEMA,
            "window_cycles": self._window_cycles,
            "coarsen_passes": coarsen_passes,
            "end_cycles": window_end[-1],
            "window_start": window_start,
            "window_end": window_end,
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
                "channel_loads": loads,
                "channel_busy_cycles": busy,
                "channel_utilization": utilization,
                "epc_resident": [close.fleet[0] for close in closes],
                "queue_depth": [close.fleet[1] for close in closes],
                "active_tenants": [close.fleet[2] for close in closes],
                "truncated_tenants": [close.fleet[3] for close in closes],
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
    same run) is given, the block must end at its ``end_cycles`` (at
    cycle 1 when that is 0: the one window of a run that ends at cycle
    0 is 1 cycle wide) and per-tenant and fleet totals must reconcile
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
    end = summary.get("end_cycles")
    if block["end_cycles"] != (1 if end == 0 else end):
        raise ObsError(
            f"timeseries ends at cycle {block['end_cycles']}, fleet "
            f"summary end_cycles is {summary.get('end_cycles')}"
        )
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


def _flagged_intervals(
    name: object, flags: Sequence[bool], starts: Sequence[int], ends: Sequence[int]
) -> Iterator[Tuple[int, int, Dict[str, object]]]:
    """One ``(start, stop, interval)`` per maximal run of flagged windows."""
    for flagged, start, stop in runs(flags):
        if flagged:
            yield start, stop, {
                "tenant": name,
                "start_window": start,
                "end_window": stop - 1,
                "start_cycle": starts[start],
                "end_cycle": ends[stop - 1],
                "windows": stop - start,
            }


def _window_breaches(
    tenant: Mapping[str, object], i: int, slo: SloSpec
) -> Dict[str, float]:
    """The objectives ``tenant`` violates in window ``i``, with values."""
    worst: Dict[str, float] = {}
    if (
        slo.max_fault_wait_p99 is not None
        and tenant["wait_count"][i] > 0
        and tenant["fault_wait_p99"][i] > slo.max_fault_wait_p99
    ):
        worst["fault_wait_p99"] = tenant["fault_wait_p99"][i]
    if slo.max_fault_rate is not None and tenant["accesses"][i] > 0:
        rate = tenant["faults"][i] / tenant["accesses"][i]
        if rate > slo.max_fault_rate:
            worst["fault_rate"] = round(rate, 4)
    if (
        slo.min_residency_ratio is not None
        and tenant.get("quota") is not None
        and tenant["quota"][i] > 0
    ):
        ratio = tenant["resident"][i] / tenant["quota"][i]
        if ratio < slo.min_residency_ratio:
            worst["residency_ratio"] = round(ratio, 4)
    return worst


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
        per_window = [_window_breaches(tenant, i, slo) for i in range(n)]
        flags = [bool(found) for found in per_window]
        for start, stop, interval in _flagged_intervals(
            tenant["name"], flags, starts, ends
        ):
            worst: Dict[str, float] = {}
            for found in per_window[start:stop]:
                for key, value in found.items():
                    prior = worst.get(key, value)
                    low = key == "residency_ratio"
                    worst[key] = min(prior, value) if low else max(prior, value)
            # A one-window interval lists its objectives in check order.
            interval["violated"] = list(worst) if stop - start == 1 else sorted(worst)
            interval["worst"] = worst
            breaches.append(interval)
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
        faults = tenant["faults"]
        active = [i for i in range(n) if tenant["accesses"][i] > 0]
        total_faults = sum(faults[i] for i in active)
        total_span = sum(ends[i] - starts[i] for i in active)
        if total_faults < min_faults or total_span <= 0:
            continue
        mean_rate = total_faults / total_span
        rates = [
            faults[i] / (ends[i] - starts[i]) if ends[i] > starts[i] else 0.0
            for i in range(n)
        ]
        flags = [
            faults[i] >= min_faults and rates[i] > factor * mean_rate
            for i in range(n)
        ]
        for start, stop, interval in _flagged_intervals(
            tenant["name"], flags, starts, ends
        ):
            interval["faults"] = sum(faults[start:stop])
            interval["peak_rate_vs_mean"] = max(
                round(rate / mean_rate, 2) for rate in rates[start:stop]
            )
            intervals.append(interval)
    return intervals
