"""Fleet-scale multi-tenant EPC simulation.

The paper's shared-EPC experiment (§5.6) runs a handful of workloads
started together and left alone.  A real SGX host looks different:
tens to hundreds of tenants arrive and depart over time, an admission
controller bounds how many run at once, each enclave pays a spin-up
cost (its initial pages stream through the same exclusive load channel
every demand fault uses), and server tenants are driven by *open-loop*
request streams rather than a free-running trace.  This module grows
the §5.6 setup into that fleet:

* :class:`TenantSpec` — one tenant: workload, scheme, arrival time,
  optional open-loop request profile
  (:class:`~repro.workloads.requests.RequestProfile`);
* :class:`FleetScenario` — the whole experiment: tenants, EPC frame
  policy, EPC size, duration, admission cap, spin-up cost, seed;
* :func:`simulate_fleet` — the deterministic event loop; returns a
  :class:`FleetResult` with one :class:`~repro.sim.results.RunResult`
  per tenant plus per-tenant QoS (p50/p99 demand-fault latency and
  channel wait, request queueing lag) computed from the driver's cycle
  histograms (:mod:`repro.obs.metrics`);
* :data:`SCENARIOS` / :func:`build_scenario` — named, reproducible
  scenarios for the ``repro fleet`` CLI.

Three EPC frame policies are pluggable via ``FleetScenario.policy``:

* ``"shared-clock"`` — the paper's behaviour: one global CLOCK hand
  over the whole frame pool (``platform.frames is None``);
* ``"static-partition"`` — every admitted tenant gets an equal private
  slice (:class:`~repro.enclave.platform.StaticPartitionFrames`);
* ``"adaptive-quota"`` — slices resized on a fixed virtual-time period
  from live per-tenant fault counts
  (:class:`~repro.enclave.platform.AdaptiveQuotaFrames`).

Determinism: the global event heap is keyed ``(time, rank, tenant
index)`` — rank 0 for control events (adaptive rebalance ticks, then
arrivals), rank 1 for trace events — so simultaneous events always
process in the same order and a scenario's manifest is byte-identical
across runs at the same seed.  Tenant time spent *outside* the enclave
(waiting for admission, spin-up, open-loop request gaps) is charged to
the ``idle`` bucket of :class:`~repro.enclave.stats.TimeBreakdown`, so
the ``time.total == clock`` identity every solo run is checked against
holds for every tenant here too.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.config import SimConfig
from repro.core.instrumentation import SipPlan
from repro.core.schemes import SCHEME_NAMES, make_scheme
from repro.enclave.driver import SgxDriver
from repro.enclave.enclave import Enclave
from repro.enclave.loader import LoadKind
from repro.enclave.platform import (
    AdaptiveQuotaFrames,
    FrameManager,
    SharedPlatform,
    StaticPartitionFrames,
)
from repro.errors import ConfigError, SimulationError
from repro.obs.fleet_telemetry import FleetTelemetry
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    histogram_quantile,
)
from repro.sim.engine import prepare_sip_plan
from repro.sim.results import RunResult
from repro.workloads.base import SyntheticWorkload, Workload
from repro.workloads.registry import build_workload
from repro.workloads.requests import RequestProfile, memcached_profile, request_gaps
from repro.workloads.synthetic import sequential, uniform_random, zipf_random

__all__ = [
    "EPC_POLICIES",
    "FLEET_MANIFEST_SCHEMA",
    "FleetResult",
    "FleetScenario",
    "SCENARIO_NAMES",
    "TenantRecord",
    "TenantSpec",
    "build_scenario",
    "simulate_fleet",
]

#: Schema tag of the fleet block embedded in the aggregate manifest.
FLEET_MANIFEST_SCHEMA = "repro.fleet-manifest/1"

#: Pluggable EPC frame policies (see the module docstring).
EPC_POLICIES = ("shared-clock", "static-partition", "adaptive-quota")

# Heap ranks: control events (arrival/admission, adaptive rebalance
# ticks) run before trace events that share their timestamp — a tenant
# cannot touch a page in the same instant it is still being admitted,
# and a quota resize dated t must be visible to every access at t.
_RANK_CONTROL = 0
_RANK_TRACE = 1
#: Pseudo tenant index of the adaptive rebalance tick (sorts before
#: every real arrival sharing its timestamp; there is at most one).
_REBALANCE = -1


def _require_ints(spec, names: Tuple[str, ...], optional: Tuple[str, ...] = ()) -> None:
    """Reject a cycle or count field of ``spec`` that is not an ``int``;
    ``None`` passes in the ``optional`` ones, and a bool is no count."""
    for name in names + optional:
        value = getattr(spec, name)
        if type(value) is not int and not (name in optional and value is None):
            raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a fleet scenario.

    * ``workload`` — a :class:`~repro.workloads.base.Workload` or a
      registry name (resolved via ``build_workload(name, scale=...)``);
    * ``scheme`` — preloading scheme name (``baseline``, ``dfp``, ...);
    * ``arrival`` — virtual cycle at which the tenant asks to be
      admitted;
    * ``requests`` — optional open-loop request profile; ``None`` runs
      the trace closed-loop, exactly like the paper's experiments;
    * ``name`` — display/manifest label (defaults to
      ``"<workload>#<index>"``);
    * ``scale`` — registry scale factor when ``workload`` is a name;
    * ``sip_plan`` — pre-compiled SIP plan; auto-profiled for the
      ``sip``/``hybrid`` schemes when absent.
    """

    workload: Union[str, Workload]
    scheme: str = "baseline"
    arrival: int = 0
    requests: Optional[RequestProfile] = None
    name: Optional[str] = None
    scale: int = 1
    sip_plan: Optional[SipPlan] = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEME_NAMES:
            raise ConfigError(
                f"unknown scheme {self.scheme!r} "
                f"(choose from {', '.join(SCHEME_NAMES)})"
            )
        _require_ints(self, ("arrival", "scale"))
        if self.arrival < 0:
            raise ConfigError(f"arrival must be >= 0, got {self.arrival}")
        if self.scale < 1:
            raise ConfigError(f"scale must be >= 1, got {self.scale}")


@dataclass(frozen=True)
class FleetScenario:
    """A complete, reproducible fleet experiment.

    * ``policy`` — one of :data:`EPC_POLICIES`;
    * ``epc_pages`` — overrides ``config.epc_pages`` when set;
    * ``duration`` — hard virtual-cycle cutoff; events past it never
      run and still-running tenants are reported as truncated;
    * ``max_admitted`` — admission-control slot count (``None`` admits
      everyone immediately); waiting tenants queue FIFO by arrival;
    * ``spinup_pages`` — pages streamed through the load channel at
      admission, modelling enclave build (EADD/EEXTEND) traffic;
    * ``rebalance_period_cycles`` — adaptive-quota resize period
      (required by, and only meaningful for, ``adaptive-quota``);
    * ``min_quota_pages`` — adaptive policy's per-tenant frame floor.
    """

    name: str
    tenants: Tuple[TenantSpec, ...]
    policy: str = "shared-clock"
    epc_pages: Optional[int] = None
    duration: Optional[int] = None
    seed: int = 0
    input_set: str = "ref"
    config: Optional[SimConfig] = None
    max_admitted: Optional[int] = None
    spinup_pages: int = 0
    rebalance_period_cycles: Optional[int] = None
    min_quota_pages: int = 8

    def __post_init__(self) -> None:
        if self.policy not in EPC_POLICIES:
            raise ConfigError(
                f"unknown EPC policy {self.policy!r} "
                f"(choose from {', '.join(EPC_POLICIES)})"
            )
        if not self.tenants:
            raise ConfigError(f"scenario {self.name!r} has no tenants")
        _require_ints(
            self,
            ("seed", "spinup_pages", "min_quota_pages"),
            ("epc_pages", "duration", "max_admitted", "rebalance_period_cycles"),
        )
        if self.epc_pages is not None and self.epc_pages <= 0:
            raise ConfigError(f"epc_pages must be positive, got {self.epc_pages}")
        if self.input_set not in Workload.INPUT_SETS:
            raise ConfigError(
                f"unknown input set {self.input_set!r} "
                f"(choose from {', '.join(Workload.INPUT_SETS)})"
            )
        if self.min_quota_pages < 1:
            raise ConfigError(
                f"min_quota_pages must be >= 1, got {self.min_quota_pages}"
            )
        if self.max_admitted is not None and self.max_admitted < 1:
            raise ConfigError(
                f"max_admitted must be >= 1, got {self.max_admitted}"
            )
        if self.spinup_pages < 0:
            raise ConfigError(
                f"spinup_pages must be >= 0, got {self.spinup_pages}"
            )
        if self.duration is not None and self.duration <= 0:
            raise ConfigError(f"duration must be positive, got {self.duration}")
        if (
            self.rebalance_period_cycles is not None
            and self.rebalance_period_cycles <= 0
        ):
            raise ConfigError(
                "rebalance_period_cycles must be positive, got "
                f"{self.rebalance_period_cycles}"
            )
        if self.policy == "adaptive-quota" and self.rebalance_period_cycles is None:
            raise ConfigError(
                "policy 'adaptive-quota' requires rebalance_period_cycles"
            )


@dataclass
class TenantRecord:
    """Per-tenant outcome: lifecycle timestamps plus the QoS block."""

    name: str
    index: int
    spec: TenantSpec
    result: RunResult
    admitted: bool = False
    completed: bool = False
    admitted_at: Optional[int] = None
    started_at: Optional[int] = None
    departed_at: Optional[int] = None
    requests_served: int = 0
    #: Deterministic QoS block (the manifest's ``tenants[i]`` entry).
    qos: Dict[str, object] = field(default_factory=dict)


@dataclass
class FleetResult:
    """Outcome of one fleet scenario."""

    scenario: FleetScenario
    config: SimConfig
    results: List[RunResult]
    tenants: List[TenantRecord]
    end_cycles: int
    rebalances: int = 0
    #: The ``repro.fleet-timeseries/1`` block of an observed run
    #: (``None`` for blind runs).  Embedded digest-excluded in the
    #: manifest, so attaching it never changes the run's identity.
    timeseries: Optional[Dict[str, object]] = None

    def fleet_block(self) -> Dict[str, object]:
        """The deterministic ``repro.fleet-manifest/1`` block."""
        scenario = self.scenario
        admitted = [t for t in self.tenants if t.admitted]
        completed = [t for t in self.tenants if t.completed]
        return {
            "schema": FLEET_MANIFEST_SCHEMA,
            "scenario": {
                "name": scenario.name,
                "policy": scenario.policy,
                "seed": scenario.seed,
                "input_set": scenario.input_set,
                "epc_pages": self.config.epc_pages,
                "duration": scenario.duration,
                "tenants": len(scenario.tenants),
                "max_admitted": scenario.max_admitted,
                "spinup_pages": scenario.spinup_pages,
                "rebalance_period_cycles": scenario.rebalance_period_cycles,
            },
            "summary": {
                "end_cycles": self.end_cycles,
                "admitted": len(admitted),
                "completed": len(completed),
                "truncated": len(admitted) - len(completed),
                "never_admitted": len(self.tenants) - len(admitted),
                "rebalances": self.rebalances,
                "faults": sum(r.stats.faults for r in self.results),
                "idle_cycles": sum(r.stats.time.idle for r in self.results),
                "requests_served": sum(t.requests_served for t in self.tenants),
            },
            "tenants": [t.qos for t in self.tenants],
        }

    def manifest(self) -> Dict[str, object]:
        """Aggregate run manifest with the fleet block under ``extra``.

        An observed run additionally embeds the time-series block as
        the top-level ``fleet_timeseries`` section, which the manifest
        digest excludes — so the digest (and every digest-included
        byte) of an observed manifest equals the blind run's.
        """
        from repro.obs.exec_telemetry import build_fleet_manifest

        manifest = build_fleet_manifest(
            self.results,
            labels=[t.name for t in self.tenants],
            extra={"fleet": self.fleet_block()},
        )
        if self.timeseries is not None:
            manifest["fleet_timeseries"] = dict(self.timeseries)
        return manifest


class _Tenant:
    """One tenant's runtime state inside the fleet loop."""

    __slots__ = (
        "index", "spec", "name", "workload", "base_page", "sip_plan",
        "driver", "registry", "instrumented", "trace",
        "now", "pending", "pending_idle", "done",
        "gaps", "next_arrival", "events_left", "requests_served", "lag_hist",
        "record",
    )

    def __init__(
        self, index: int, spec: TenantSpec, workload: Workload, base_page: int
    ) -> None:
        self.index = index
        self.spec = spec
        self.name = spec.name if spec.name is not None else f"{workload.name}#{index}"
        self.workload = workload
        self.base_page = base_page
        self.sip_plan: Optional[SipPlan] = None
        self.driver: Optional[SgxDriver] = None
        self.registry: Optional[MetricsRegistry] = None
        self.instrumented = None
        self.trace: Optional[Iterator] = None
        self.now = 0
        self.pending: Optional[Tuple[int, int, int]] = None
        # Outside-the-enclave cycles accumulated since the last event
        # was charged; flushed into ``stats.time.idle`` when the next
        # event pops (or at departure) so the accounting identity holds.
        self.pending_idle = 0
        self.done = False
        self.gaps: Optional[Iterator[int]] = None
        self.next_arrival = 0
        self.events_left = 0
        self.requests_served = 0
        self.lag_hist = Histogram(f"tenant{index}.request_lag")
        self.record: Optional[TenantRecord] = None

    def next_event(self) -> Optional[Tuple[int, int, int]]:
        """Pull the next trace event, or None at end of trace."""
        try:
            return next(self.trace)
        except StopIteration:
            return None

    def schedule(self, heap: List[Tuple[int, int, int]]) -> bool:
        """Queue the tenant's next trace event; False when it is done.

        At an open-loop request boundary the tenant either idles until
        the request's scheduled arrival (charged to ``idle``) or starts
        late — the lag is its queueing delay, recorded per request
        (on-time requests record zero so the histogram covers every
        request, not just the late ones).
        """
        profile = self.spec.requests
        boundary = profile is not None and self.events_left == 0
        if (
            boundary
            and profile.max_requests is not None
            and self.requests_served >= profile.max_requests
        ):
            return False
        event = self.next_event()
        if event is None:
            return False
        if boundary:
            arrival = self.next_arrival
            if arrival > self.now:
                self.pending_idle += arrival - self.now
                self.now = arrival
                self.lag_hist.observe(0)
            else:
                self.lag_hist.observe(self.now - arrival)
            self.next_arrival = arrival + next(self.gaps)
            self.events_left = profile.events_per_request
            self.requests_served += 1
        if profile is not None:
            self.events_left -= 1
        self.pending = event
        heapq.heappush(heap, (self.now + event[2], _RANK_TRACE, self.index))
        return True


def _resolve_workload(spec: TenantSpec) -> Workload:
    if isinstance(spec.workload, Workload):
        return spec.workload
    return build_workload(spec.workload, scale=spec.scale)


def _make_frames(
    scenario: FleetScenario, platform: SharedPlatform
) -> Optional[FrameManager]:
    if scenario.policy == "shared-clock":
        return None
    if scenario.policy == "static-partition":
        return StaticPartitionFrames(platform)
    return AdaptiveQuotaFrames(platform, min_quota=scenario.min_quota_pages)


def simulate_fleet(
    scenario: FleetScenario, *, telemetry: Optional[FleetTelemetry] = None
) -> FleetResult:
    """Run a fleet scenario; returns one result per tenant, in order.

    The loop is a single global event heap keyed ``(time, rank,
    tenant)``: arrivals admit tenants (or queue them behind the
    admission cap), departures hand their slot to the queue head, and
    trace events run the admitted tenants' accesses against the shared
    platform.

    ``telemetry`` attaches a :class:`~repro.obs.fleet_telemetry.
    FleetTelemetry` sampler.  This function is the *sole sanctioned
    emitter* of its ``series_*`` hooks (lint rule RL010): every hook
    is a passive read of driver counters and platform state, so an
    observed run's results — and its fleet-manifest bytes — are
    identical to a blind run's.
    """
    config = scenario.config if scenario.config is not None else SimConfig()
    if scenario.epc_pages is not None:
        config = replace(config, epc_pages=scenario.epc_pages)
    seed = scenario.seed
    input_set = scenario.input_set

    platform = SharedPlatform(config)
    try:
        frames = _make_frames(scenario, platform)
        platform.frames = frames
        channel = platform.channel
        if telemetry is not None:
            telemetry.series_begin(config, platform, frames)

        tenants: List[_Tenant] = []
        base = 0
        names_seen: Dict[str, int] = {}
        for index, spec in enumerate(scenario.tenants):
            workload = _resolve_workload(spec)
            tenant = _Tenant(index, spec, workload, base)
            if tenant.name in names_seen:
                raise ConfigError(
                    f"duplicate tenant name {tenant.name!r} "
                    f"(tenants {names_seen[tenant.name]} and {index})"
                )
            names_seen[tenant.name] = index
            if spec.scheme in ("sip", "hybrid") and spec.sip_plan is None:
                tenant.sip_plan = prepare_sip_plan(workload, config, seed=seed)
            else:
                tenant.sip_plan = spec.sip_plan
            tenants.append(tenant)
            base += workload.elrange_pages
            if telemetry is not None:
                telemetry.series_tenant(
                    index, tenant.name, spec.scheme, workload.name, spec.arrival
                )

        heap: List[Tuple[int, int, int]] = []
        queue: List[int] = []  # FIFO admission queue of tenant indices
        active = 0
        live = len(tenants)  # tenants not yet departed (or never admitted)
        rebalance_period = (
            scenario.rebalance_period_cycles
            if scenario.policy == "adaptive-quota"
            else None
        )

        def admit(tenant: _Tenant, t: int) -> None:
            nonlocal active
            scheme = make_scheme(tenant.spec.scheme, config, sip_plan=tenant.sip_plan)
            plan = scheme.sip_plan
            enclave = Enclave(
                name=tenant.name,
                elrange_pages=tenant.workload.elrange_pages,
                pid=tenant.index,
                instrumentation_points=(
                    plan.instrumentation_points if plan is not None else 0
                ),
                base_page=tenant.base_page,
            )
            registry = MetricsRegistry(enabled=True)
            driver = SgxDriver(
                config,
                enclave,
                dfp=scheme.build_dfp(),
                platform=platform,
                metrics=registry,
            )
            tenant.driver = driver
            tenant.registry = registry
            if plan is not None:
                tenant.instrumented = plan.instrumented
            if frames is not None:
                frames.on_admit(driver)
            active += 1
            record = tenant.record
            record.admitted = True
            record.admitted_at = t
            if telemetry is not None:
                telemetry.series_admit(tenant.index, t, driver, registry)
            start = t
            spinup = min(scenario.spinup_pages, enclave.elrange_pages)
            if spinup:
                # Enclave build: the initial pages stream through the same
                # exclusive channel as everyone's demand faults, so a big
                # spin-up visibly delays the neighbours.
                platform.poll(start)
                for offset in range(spinup):
                    start = channel.load_sync(
                        tenant.base_page + offset, LoadKind.DEMAND, start
                    )
            record.started_at = start
            if telemetry is not None:
                telemetry.series_started(tenant.index, start)
            tenant.now = start
            # Everything before the first trace event — pre-arrival time,
            # admission wait, spin-up — is outside-the-enclave idle time.
            tenant.pending_idle = start
            tenant.next_arrival = start
            tenant.trace = iter(tenant.workload.trace(seed=seed, input_set=input_set))
            if tenant.spec.requests is not None:
                tenant.gaps = request_gaps(
                    tenant.spec.requests, seed=seed, salt=tenant.index
                )
            if not tenant.schedule(heap):
                depart(tenant, truncated=False)

        def depart(tenant: _Tenant, *, truncated: bool) -> None:
            nonlocal active, live
            tenant.done = True
            tenant.record.completed = not truncated
            tenant.record.departed_at = tenant.now
            if telemetry is not None:
                telemetry.series_depart(
                    tenant.index, tenant.now, truncated=truncated
                )
            # Flush residual idle (a tenant can depart without ever running
            # an event) and pin the driver's hardware clock to now.
            tenant.driver.account_idle(tenant.pending_idle, tenant.now)
            tenant.pending_idle = 0
            if frames is not None:
                frames.on_depart(tenant.driver)
            active -= 1
            live -= 1
            while queue and (
                scenario.max_admitted is None or active < scenario.max_admitted
            ):
                admit(tenants[queue.pop(0)], tenant.now)

        for tenant in tenants:
            tenant.record = TenantRecord(
                name=tenant.name,
                index=tenant.index,
                spec=tenant.spec,
                result=None,  # filled in below
            )
            heapq.heappush(heap, (tenant.spec.arrival, _RANK_CONTROL, tenant.index))
        if rebalance_period is not None:
            heapq.heappush(heap, (rebalance_period, _RANK_CONTROL, _REBALANCE))

        truncated_at: Optional[int] = None
        while heap:
            time, rank, index = heapq.heappop(heap)
            if scenario.duration is not None and time > scenario.duration:
                truncated_at = scenario.duration
                break
            if index == _REBALANCE and live == 0:
                # The tick queued before the last departure: no tenant is
                # left to rebalance, and closing windows up to it would run
                # the time series past the end of the fleet run.
                continue
            if telemetry is not None:
                telemetry.series_tick(time)
            if rank == _RANK_CONTROL:
                if index == _REBALANCE:
                    if telemetry is not None:
                        passes = frames.rebalances
                        before = {
                            t.name: frames.quota_of(t.driver)
                            for t in tenants
                            if t.driver is not None
                        }
                        frames.rebalance(time)
                        # A tick with no active tenants re-apportions
                        # nothing and is not counted by the policy; record
                        # only decisions that actually ran.
                        if frames.rebalances != passes:
                            after = {
                                t.name: frames.quota_of(t.driver)
                                for t in tenants
                                if t.driver is not None
                            }
                            telemetry.series_rebalance(time, before, after)
                    else:
                        frames.rebalance(time)
                    if live > 0:
                        heapq.heappush(
                            heap, (time + rebalance_period, _RANK_CONTROL, _REBALANCE)
                        )
                    continue
                tenant = tenants[index]
                if scenario.max_admitted is not None and active >= scenario.max_admitted:
                    queue.append(index)
                    if telemetry is not None:
                        telemetry.series_queued(index, time)
                else:
                    admit(tenant, time)
                continue
            tenant = tenants[index]
            instr, page, cycles = tenant.pending
            driver = tenant.driver
            driver.account_idle(tenant.pending_idle, time)
            tenant.pending_idle = 0
            driver.stats.time.compute += cycles
            tenant.now = time
            global_page = page + tenant.base_page
            if tenant.instrumented is not None and instr in tenant.instrumented:
                tenant.now = driver.sip_prefetch(global_page, tenant.now)
            tenant.now = driver.access(global_page, tenant.now)
            if not tenant.schedule(heap):
                depart(tenant, truncated=False)

        admitted = [t for t in tenants if t.record.admitted]
        end = max((t.now for t in admitted), default=0)
        if truncated_at is not None:
            end = max(end, truncated_at)
        for tenant in admitted:
            if not tenant.done:
                # Duration cutoff: the tenant was still running.  Flush the
                # idle it had accrued toward its never-run next event
                # (admission wait, spin-up, or an open-loop gap) so the
                # time-accounting identity below holds, mirroring depart().
                tenant.record.departed_at = None
                tenant.driver.account_idle(tenant.pending_idle, tenant.now)
                tenant.pending_idle = 0
            tenant.driver.finish(end)
            stats = tenant.driver.stats
            if stats.time.total != tenant.now:
                raise SimulationError(
                    f"time accounting mismatch for tenant {tenant.name!r}: "
                    f"buckets sum to {stats.time.total}, clock reads {tenant.now}"
                )
            if tenant.driver.sanitizer is not None:
                tenant.driver.sanitizer.check_final(stats, tenant.now)

        if telemetry is not None:
            for tenant in admitted:
                if not tenant.done:
                    telemetry.series_truncated(tenant.index)
            telemetry.series_finish(end)

        results: List[RunResult] = []
        for tenant in tenants:
            driver = tenant.driver
            result = RunResult(
                workload=tenant.workload.name,
                scheme=tenant.spec.scheme,
                input_set=input_set,
                seed=seed,
                total_cycles=tenant.now,
                stats=driver.stats if driver is not None else _empty_stats(),
                config=config,
                sip_points=(
                    driver.enclave.instrumentation_points if driver is not None else 0
                ),
            )
            tenant.record.result = result
            tenant.record.requests_served = tenant.requests_served
            tenant.record.qos = _tenant_qos(tenant, config, frames)
            results.append(result)

        rebalances = frames.rebalances if isinstance(frames, AdaptiveQuotaFrames) else 0
        return FleetResult(
            scenario=scenario,
            config=config,
            results=results,
            tenants=[t.record for t in tenants],
            end_cycles=end,
            rebalances=rebalances,
            timeseries=telemetry.block() if telemetry is not None else None,
        )
    finally:
        # Leave the run's state to reference counting: the platform
        # drops its drivers, and the two closures, which call each
        # other, are unbound.
        platform.release()
        admit = depart = None


def _empty_stats():
    from repro.enclave.stats import RunStats

    return RunStats()


def _tenant_qos(
    tenant: _Tenant, config: SimConfig, frames: Optional[FrameManager]
) -> Dict[str, object]:
    """Deterministic per-tenant QoS block for the fleet manifest.

    Demand-fault latency percentiles come from the driver's
    ``fault.wait_hist`` cycle histogram: a fault's latency is the AEX
    exit plus its channel wait plus the ERESUME re-entry, and the two
    constants are configuration, so only the wait is distributional.
    """
    record = tenant.record
    spec = tenant.spec
    block: Dict[str, object] = {
        "name": tenant.name,
        "index": tenant.index,
        "workload": tenant.workload.name,
        "scheme": spec.scheme,
        "arrival": spec.arrival,
        "admitted": record.admitted,
        "completed": record.completed,
        "admitted_at": record.admitted_at,
        "started_at": record.started_at,
        "departed_at": record.departed_at,
    }
    if not record.admitted:
        return block
    stats = tenant.driver.stats
    wait_dump = tenant.registry.get("fault.wait_hist").dump()
    fixed = config.cost.aex_cycles + config.cost.eresume_cycles
    wait_p50 = histogram_quantile(wait_dump, 0.5)
    wait_p99 = histogram_quantile(wait_dump, 0.99)
    block.update(
        {
            "total_cycles": tenant.now,
            "service_cycles": tenant.now - record.started_at,
            "idle_cycles": stats.time.idle,
            "faults": stats.faults,
            "accesses": stats.accesses,
            # Exact totals (reconcile with the TimeBreakdown bucket).
            "channel_wait_cycles": wait_dump["sum"],
            "channel_wait_samples": wait_dump["count"],
            "channel_wait_p50": round(wait_p50, 3),
            "channel_wait_p99": round(wait_p99, 3),
            "fault_latency_p50": round(fixed + wait_p50, 3),
            "fault_latency_p99": round(fixed + wait_p99, 3),
        }
    )
    if spec.requests is not None:
        lag_dump = tenant.lag_hist.dump()
        block["requests"] = {
            "served": tenant.requests_served,
            "lag_p50": round(histogram_quantile(lag_dump, 0.5), 3),
            "lag_p99": round(histogram_quantile(lag_dump, 0.99), 3),
        }
    if frames is not None:
        block["quota_pages"] = frames.quota_of(tenant.driver)
        block["resident_pages"] = frames.resident_of(tenant.driver)
    return block


# ----------------------------------------------------------------------
# Named scenarios
# ----------------------------------------------------------------------

_ARCHETYPE_INSTRS = {0: "stream", 1: "scatter", 2: "zipf"}


def _stream_workload(name: str, pages: int, passes: int, compute: int) -> Workload:
    return SyntheticWorkload(
        name, pages, _ARCHETYPE_INSTRS,
        [sequential(0, 0, pages, compute=compute, passes=passes)],
    )


def _scatter_workload(name: str, pages: int, count: int, compute: int) -> Workload:
    return SyntheticWorkload(
        name, pages, _ARCHETYPE_INSTRS,
        [uniform_random([1], 0, pages, count, compute=compute)],
    )


def _zipf_workload(name: str, pages: int, count: int, compute: int) -> Workload:
    return SyntheticWorkload(
        name, pages, _ARCHETYPE_INSTRS,
        [zipf_random([2], 0, pages, count, compute=compute)],
    )


def _smoke(seed: int) -> FleetScenario:
    """Six tenants, one admission wave, CI-fast (<1s)."""
    config = SimConfig(epc_pages=96, scan_period_cycles=200_000, valve_slack=16)
    tenants = []
    for i in range(6):
        if i % 3 == 0:
            workload = _stream_workload(f"stream-{i}", 40, 4, 3_000)
        elif i % 3 == 1:
            workload = _scatter_workload(f"scatter-{i}", 48, 220, 3_000)
        else:
            workload = _zipf_workload(f"zipf-{i}", 48, 220, 3_000)
        tenants.append(
            TenantSpec(
                workload=workload,
                scheme="dfp" if i % 2 == 0 else "baseline",
                arrival=i * 40_000,
                requests=(
                    memcached_profile(60_000, events_per_request=16)
                    if i % 3 == 1
                    else None
                ),
            )
        )
    return FleetScenario(
        name="smoke",
        tenants=tuple(tenants),
        config=config,
        seed=seed,
        max_admitted=4,
        spinup_pages=4,
        rebalance_period_cycles=400_000,
        min_quota_pages=4,
    )


def _steady8(seed: int) -> FleetScenario:
    """Eight tenants, no churn — the policy-comparison workhorse."""
    config = SimConfig(epc_pages=128, scan_period_cycles=300_000, valve_slack=16)
    tenants = []
    for i in range(8):
        if i % 4 in (0, 1):
            workload = _stream_workload(f"stream-{i}", 56, 4, 3_000)
        elif i % 4 == 2:
            workload = _scatter_workload(f"scatter-{i}", 64, 320, 3_000)
        else:
            workload = _zipf_workload(f"zipf-{i}", 64, 320, 3_000)
        tenants.append(
            TenantSpec(
                workload=workload,
                scheme=("baseline", "dfp-stop", "dfp", "baseline")[i % 4],
                requests=(
                    memcached_profile(120_000, events_per_request=32)
                    if i % 2 == 0
                    else None
                ),
            )
        )
    return FleetScenario(
        name="steady-8",
        tenants=tuple(tenants),
        config=config,
        seed=seed,
        rebalance_period_cycles=500_000,
    )


def _churn50(seed: int) -> FleetScenario:
    """56 tenants arriving in waves behind a 24-slot admission cap."""
    config = SimConfig(epc_pages=192, scan_period_cycles=400_000, valve_slack=16)
    tenants = []
    for i in range(56):
        kind = i % 3
        if kind == 0:
            workload = _stream_workload(f"stream-{i}", 40, 3, 2_500)
        elif kind == 1:
            workload = _scatter_workload(f"scatter-{i}", 44, 180, 2_500)
        else:
            workload = _zipf_workload(f"zipf-{i}", 44, 180, 2_500)
        tenants.append(
            TenantSpec(
                workload=workload,
                scheme=("baseline", "dfp-stop", "dfp")[i % 3],
                # First wave at t=0, then staggered arrivals: churn.
                arrival=0 if i < 8 else (i - 7) * 120_000,
                requests=(
                    memcached_profile(90_000, events_per_request=20)
                    if i % 4 == 0
                    else None
                ),
            )
        )
    return FleetScenario(
        name="churn-50",
        tenants=tuple(tenants),
        config=config,
        seed=seed,
        max_admitted=24,
        spinup_pages=8,
        rebalance_period_cycles=1_000_000,
        min_quota_pages=4,
    )


SCENARIOS = {
    "smoke": _smoke,
    "steady-8": _steady8,
    "churn-50": _churn50,
}

#: Stable, sorted scenario names for CLI help and listings.
SCENARIO_NAMES = tuple(sorted(SCENARIOS))


def build_scenario(
    name: str, *, seed: int = 0, policy: Optional[str] = None
) -> FleetScenario:
    """Materialize a named scenario, optionally overriding its policy."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown fleet scenario {name!r} "
            f"(choose from {', '.join(SCENARIO_NAMES)})"
        ) from None
    scenario = factory(seed)
    if policy is not None:
        if policy not in EPC_POLICIES:
            raise ConfigError(
                f"unknown EPC policy {policy!r} "
                f"(choose from {', '.join(EPC_POLICIES)})"
            )
        scenario = replace(scenario, policy=policy)
    return scenario
