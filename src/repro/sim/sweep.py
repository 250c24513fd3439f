"""Parameter sweeps and scheme comparisons.

These are the experiment drivers: every figure of the evaluation is
either a scheme comparison over workloads (Figures 8, 10–13) or a
sweep of one configuration parameter (Figure 6: ``stream_list``
length; Figure 7: ``LOADLENGTH``; Figure 9: the SIP threshold).

Both drivers take ``policy=`` — an
:class:`~repro.robust.ExecutionPolicy` — and route their independent
simulations through :func:`repro.sim.parallel.run_jobs` whenever the
policy asks for anything beyond plain serial execution: worker
processes, retries, per-job timeouts, checkpoint/resume, or fault
injection.  The default policy is the serial in-process path.  Two
caches keep the hot path from repeating work the determinism contract
makes repeatable:

* traces are materialized once per ``(workload, seed, input_set)`` and
  replayed for every scheme (:mod:`repro.sim.tracecache`);
* SIP plans are compile-time artifacts — one binary serves every run
  in the paper — so profiling runs are memoized per trace identity
  ``(workload, footprint, seed)`` and plan compilation per profile +
  threshold.  A Figure 6/7 sweep profiles once for all points and a
  Figure 9 threshold sweep re-decides instrumentation from one shared
  profile.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.config import SimConfig
from repro.core.instrumentation import SipPlan, build_sip_plan
from repro.core.profiler import WorkloadProfile, profile_workload
from repro.errors import ConfigError
from repro.obs.exec_telemetry import ExecTelemetry
from repro.robust import ExecutionPolicy
from repro.sim.engine import simulate
from repro.sim.parallel import JobSpec, WorkloadSpec, run_jobs
from repro.sim.results import RunResult
from repro.sim.tracecache import shared_trace_cache
from repro.workloads.base import Workload

__all__ = [
    "compare_schemes",
    "sweep_config",
    "SweepPoint",
    "SweepProgress",
    "SIP_SCHEMES",
]

#: Scheme names that execute under a compiled SIP plan.
SIP_SCHEMES = ("sip", "hybrid")

#: Progress-math guard: a sweep point that completes faster than the
#: clock's resolution must not extrapolate a zero ETA for the points
#: still to run.
_MIN_ELAPSED_S = 1e-9


@dataclass(frozen=True)
class SweepProgress:
    """One progress tick of a sweep, delivered after each point.

    ``elapsed_s``/``eta_s`` are wall-clock (the only wall-clock in the
    simulator — progress reporting is about the operator's time, not
    virtual cycles).  ``eta_s`` extrapolates linearly from the points
    done so far.
    """

    completed: int
    total: int
    label: object
    elapsed_s: float
    eta_s: float
    #: Fleet-health tallies so far (cumulative across the sweep) —
    #: populated when execution routes through the job runner, zero on
    #: the plain serial path where none of them can occur.
    retries: int = 0
    timeouts: int = 0
    faults: int = 0

    @classmethod
    def tick(
        cls,
        *,
        completed: int,
        total: int,
        label: object,
        elapsed_s: float,
        retries: int = 0,
        timeouts: int = 0,
        faults: int = 0,
    ) -> "SweepProgress":
        """Build a tick, deriving the ETA with the zero-duration guard.

        A first point finishing within the clock's resolution would
        otherwise extrapolate ``eta_s == 0.0`` with the whole sweep
        still ahead; clamping ``elapsed_s`` keeps the estimate a tiny
        positive number instead of a lie, and a tick with nothing
        completed yet reports the only honest estimate: none.
        """
        if completed <= 0:
            eta = float("inf") if total else 0.0
        elif completed >= total:
            eta = 0.0
        else:
            eta = max(elapsed_s, _MIN_ELAPSED_S) / completed * (total - completed)
        return cls(
            completed=completed,
            total=total,
            label=label,
            elapsed_s=elapsed_s,
            eta_s=eta,
            retries=retries,
            timeouts=timeouts,
            faults=faults,
        )

    @property
    def fraction(self) -> float:
        """Completed share of the sweep, in [0, 1]."""
        return self.completed / self.total if self.total else 1.0

    def render(self) -> str:
        """One-line human-readable progress report.

        A healthy fleet renders exactly as before PR 5; the health
        segment appears only once something went wrong, so the common
        case stays scannable.
        """
        line = (
            f"[{self.completed}/{self.total}] {self.label} done "
            f"({self.fraction:.0%}, {self.elapsed_s:.1f}s elapsed, "
            f"~{self.eta_s:.1f}s left)"
        )
        if self.retries or self.timeouts or self.faults:
            line += (
                f" [health: {self.retries} retr{'y' if self.retries == 1 else 'ies'}, "
                f"{self.timeouts} timeout(s), {self.faults} fault(s)]"
            )
        return line


class SweepPoint:
    """One point of a parameter sweep: the value and its runs."""

    def __init__(self, value: object, results: Dict[str, RunResult]) -> None:
        self.value = value
        self.results = results

    def __repr__(self) -> str:
        names = ", ".join(self.results)
        return f"SweepPoint(value={self.value!r}, runs=[{names}])"


#: What the drivers accept as "the workload": a live object (serial
#: only), a picklable registry spec, or a zero-argument factory.
WorkloadSource = Union[Workload, WorkloadSpec, Callable[[], Workload]]


def _build_workload(source: WorkloadSource) -> Workload:
    """Materialize a live workload from any accepted source form."""
    if isinstance(source, Workload):
        return source
    if isinstance(source, WorkloadSpec):
        return source.build()
    return source()


def _require_spec(source: WorkloadSource, caller: str) -> WorkloadSpec:
    """The :class:`WorkloadSpec` behind ``source``, or a clear error.

    Parallel execution ships jobs to worker processes, so the workload
    must be a picklable registry recipe — live workloads and closures
    cannot cross the boundary (and silently pickling a stateful
    generator would be worse than refusing).
    """
    if isinstance(source, WorkloadSpec):
        return source
    raise ConfigError(
        f"{caller} with a resilient ExecutionPolicy (worker processes, "
        f"retries, timeouts, checkpointing or fault injection) or with "
        f"execution telemetry needs a repro.sim.parallel.WorkloadSpec "
        f"(registry name + scale) so jobs can be re-run and shipped to "
        f"worker processes; got {type(source).__name__}"
    )


class _SipPlanCache:
    """Two-level memo: profiling runs, then plan compilation.

    A SIP plan is a *compile-time* artifact: one compiled binary
    serves all of the paper's runs, no matter which kernel-side knob
    (LOADLENGTH, ``stream_list`` length, EPC share) an experiment
    varies.  The profile is therefore memoized per trace identity
    ``(workload, footprint, seed)`` — the first point needing a plan
    supplies the profiling environment — and the plan per profile +
    threshold, so a Figure 6/7 sweep profiles and compiles exactly
    once, and a Figure 9 threshold sweep re-runs only the (cheap)
    threshold decision over one shared profiling run.
    """

    def __init__(self) -> None:
        self._profiles: Dict[Tuple, WorkloadProfile] = {}
        self._plans: Dict[Tuple, SipPlan] = {}

    @staticmethod
    def _profile_key(workload: Workload, seed: int) -> Tuple:
        return (workload.name, workload.footprint_pages, seed)

    def plan_for(
        self, workload: Workload, config: SimConfig, seed: int
    ) -> SipPlan:
        """The compiled plan for one sweep point's SIP coordinates."""
        profile_key = self._profile_key(workload, seed)
        plan_key = profile_key + (config.sip_threshold,)
        plan = self._plans.get(plan_key)
        if plan is None:
            profile = self._profiles.get(profile_key)
            if profile is None:
                profile = profile_workload(
                    workload, config, input_set="train", seed=seed
                )
                self._profiles[profile_key] = profile
            plan = build_sip_plan(profile, config.sip_threshold)
            self._plans[plan_key] = plan
        return plan


def _needs_sip(schemes: Sequence[str]) -> bool:
    return any(name in SIP_SCHEMES for name in schemes)


def compare_schemes(
    workload: WorkloadSource,
    config: SimConfig,
    schemes: Sequence[str],
    *,
    seed: int = 0,
    input_set: str = "ref",
    sip_plan: Optional[SipPlan] = None,
    policy: Optional[ExecutionPolicy] = None,
    telemetry: Optional[ExecTelemetry] = None,
) -> Dict[str, RunResult]:
    """Run the workload under each scheme; return results by name.

    A single SIP plan is compiled once (from the train input) and
    shared across the SIP-bearing schemes, exactly as one compiled
    binary serves all the paper's runs; schemes without SIP never
    touch the profiler.  The workload trace is materialized once and
    replayed per scheme.

    ``policy`` (:class:`~repro.robust.ExecutionPolicy`) is the single
    execution-configuration path: when it asks for anything beyond
    plain serial execution — worker processes, retries, timeouts,
    checkpointing, fault injection — the schemes route through the
    resilient job runner (``workload`` must then be a
    :class:`~repro.sim.parallel.WorkloadSpec`); results are identical
    to the serial path.

    ``telemetry`` (an :class:`~repro.obs.exec_telemetry.ExecTelemetry`)
    makes the comparison an observed one: execution routes through the
    runner even under the default serial policy, the runner narrates
    its schedule into the collector, and — when the collector's config
    enables it — each scheme's run ships its metric/trace dumps back
    for deterministic merging.  Results are unchanged (passivity).
    """
    resolved = policy if policy is not None else ExecutionPolicy()
    if resolved.is_resilient or telemetry is not None:
        spec = _require_spec(workload, "compare_schemes")
        if _needs_sip(schemes) and sip_plan is None:
            built = spec.build()
            sip_plan = _SipPlanCache().plan_for(built, config, seed)
        specs = [
            JobSpec(
                workload=spec,
                config=config,
                scheme=name,
                seed=seed,
                input_set=input_set,
                sip_plan=sip_plan if name in SIP_SCHEMES else None,
            )
            for name in schemes
        ]
        runs = run_jobs(specs, policy=resolved, telemetry=telemetry)
        return dict(zip(schemes, runs))

    built = _build_workload(workload)
    if _needs_sip(schemes) and sip_plan is None:
        sip_plan = _SipPlanCache().plan_for(built, config, seed)
    trace = shared_trace_cache().get(built, seed=seed, input_set=input_set)
    results: Dict[str, RunResult] = {}
    for name in schemes:
        results[name] = simulate(
            built,
            config,
            name,
            seed=seed,
            input_set=input_set,
            sip_plan=sip_plan if name in SIP_SCHEMES else None,
            trace=trace,
        )
    return results


def sweep_config(
    workload_factory: WorkloadSource,
    configs: Iterable[SimConfig],
    schemes: Sequence[str],
    *,
    values: Optional[Sequence[object]] = None,
    seed: int = 0,
    input_set: str = "ref",
    progress: Optional[Callable[[SweepProgress], None]] = None,
    policy: Optional[ExecutionPolicy] = None,
    telemetry: Optional[ExecTelemetry] = None,
) -> List[SweepPoint]:
    """Run a scheme comparison at each configuration.

    ``values`` labels the sweep points (defaults to their index).  The
    workload is rebuilt per point via ``workload_factory`` so traces
    never share generator state (a :class:`~repro.sim.parallel.WorkloadSpec`
    serves as the factory, and is required whenever the policy is
    resilient).

    SIP plans are compiled here, once per (workload, seed, threshold),
    and shared by every point whose coordinates match — a sweep that
    varies a non-SIP parameter profiles exactly once, and a sweep
    whose schemes carry no SIP at all never touches the profiler.

    ``policy`` (:class:`~repro.robust.ExecutionPolicy`) configures
    execution: worker count, retry/timeout, checkpoint/resume (each
    completed run is persisted and skipped on a ``resume=True``
    restart), and fault injection.

    ``progress`` is called after each completed point with a
    :class:`SweepProgress` tick (sweeps are the slow path — minutes at
    paper scale — so the CLI surfaces an ETA through this hook); the
    ``policy.progress`` callback serves the same role when the kwarg
    is not given.  Under parallel execution ticks fire as points
    complete, which may be out of label order; on a resumed sweep,
    checkpoint-restored points tick instantly.  Ticks of a
    runner-routed sweep carry the cumulative retry/timeout/fault
    tallies so a progress line shows fleet health, not just ETA.

    ``telemetry`` (an :class:`~repro.obs.exec_telemetry.ExecTelemetry`)
    makes this an observed sweep: execution routes through the runner
    even under the default serial policy and the collector accumulates
    execution spans, tallies, and (when its config enables it) each
    job's shipped metric/trace dumps.  Results are unchanged.
    """
    resolved = policy if policy is not None else ExecutionPolicy()
    report = progress if progress is not None else resolved.progress
    config_list = list(configs)
    if values is None:
        labels: List[object] = list(range(len(config_list)))
    else:
        labels = list(values)
    if len(labels) != len(config_list):
        raise ConfigError(
            f"{len(config_list)} configs but {len(labels)} labels"
        )
    needs_sip = _needs_sip(schemes)
    plan_cache = _SipPlanCache() if needs_sip else None
    total = len(config_list)
    started = time.monotonic()

    def point_plan(workload: Workload, config: SimConfig) -> Optional[SipPlan]:
        if plan_cache is None:
            return None
        return plan_cache.plan_for(workload, config, seed)

    if resolved.is_resilient or telemetry is not None:
        spec = _require_spec(workload_factory, "sweep_config")
        # Health counts ride the progress ticks even when the caller
        # did not ask for telemetry: a private collector costs nothing
        # and keeps the progress line honest about retries/faults.
        collector = (
            telemetry
            if telemetry is not None
            else (ExecTelemetry() if report is not None else None)
        )
        plan_probe = spec.build() if needs_sip else None
        specs: List[JobSpec] = []
        for config in config_list:
            plan = point_plan(plan_probe, config) if plan_probe is not None else None
            for name in schemes:
                specs.append(
                    JobSpec(
                        workload=spec,
                        config=config,
                        scheme=name,
                        seed=seed,
                        input_set=input_set,
                        sip_plan=plan if name in SIP_SCHEMES else None,
                    )
                )
        per_point = len(schemes)
        remaining = [per_point] * total
        points_done = 0

        def on_result(index: int, _spec: JobSpec) -> None:
            nonlocal points_done
            point = index // per_point
            remaining[point] -= 1
            if remaining[point] == 0 and report is not None:
                points_done += 1
                retries, timeouts, faults = (
                    collector.health_counts()
                    if collector is not None
                    else (0, 0, 0)
                )
                report(
                    SweepProgress.tick(
                        completed=points_done,
                        total=total,
                        label=labels[point],
                        elapsed_s=time.monotonic() - started,
                        retries=retries,
                        timeouts=timeouts,
                        faults=faults,
                    )
                )

        runs = run_jobs(
            specs, policy=resolved, on_result=on_result, telemetry=collector
        )
        points: List[SweepPoint] = []
        for point_index, label in enumerate(labels):
            base = point_index * per_point
            points.append(
                SweepPoint(
                    label,
                    dict(zip(schemes, runs[base : base + per_point])),
                )
            )
        return points

    points = []
    for label, config in zip(labels, config_list):
        workload = _build_workload(workload_factory)
        results = compare_schemes(
            workload,
            config,
            schemes,
            seed=seed,
            input_set=input_set,
            sip_plan=point_plan(workload, config),
        )
        points.append(SweepPoint(label, results))
        if report is not None:
            report(
                SweepProgress.tick(
                    completed=len(points),
                    total=total,
                    label=label,
                    elapsed_s=time.monotonic() - started,
                )
            )
    return points
