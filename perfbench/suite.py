"""The benchmark's three workloads: inputs derived from a seed, one pass of runs.

:func:`setup` builds a workload's inputs (workload and scenario
construction, trace materialization, SIP profiling and plan
compilation) and returns the runs of one pass.  The timed phase issues
the pass again and again, closed loop: each run starts after the
previous one returned.  A run is one ``simulate``, ``simulate_fleet`` or
``sweep_config`` call, plus whatever observers and manifest building an
observed run carries.

Every input derives from the benchmark seed: the ``i``-th instance of
an input (a trace and its SIP profile, the fleet scenario, the sweep)
runs at :func:`input_seed` ``(seed, i)``.

Public functions are called through their module attribute at call time
(``engine.simulate``, never a name bound at import), so the wrappers of
the traced run (:mod:`perfbench.layers`) also see the benchmark's calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional

from repro.core import instrumentation, profiler
from repro.core.config import SimConfig
from repro.core.schemes import SCHEME_NAMES
from repro.obs import manifest as obs_manifest
from repro.obs.exec_telemetry import ExecTelemetry, TelemetryConfig
from repro.obs.fleet_telemetry import FleetTelemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.paging import PagingProfiler
from repro.obs.trace import RingBufferSink
from repro.robust import ExecutionPolicy
from repro.sim import engine, fleet, sweep, tracecache
from repro.sim.parallel import WorkloadSpec
from repro.sim.results import RunResult
from repro.workloads.registry import WORKLOAD_NAMES, build_workload

__all__ = [
    "DROPPED",
    "INPUTS",
    "OBSERVERS",
    "Run",
    "RunOutput",
    "SCALES",
    "Setup",
    "WHY",
    "WORKLOADS",
    "input_seed",
    "setup",
]

#: Build scale of the registry workloads in the solo workloads.
SOLO_SCALE = 32
#: Trace seeds per registry workload in a solo pass: two halve how far
#: one seed's traces move the pass's percentiles.
SOLO_TRACES = 2
#: Build scale of the observed workload's solo runs and sweep.
OBSERVED_SCALE = 128

DEMAND_SCHEMES = ("baseline", "sip")
PRELOAD_SCHEMES = ("dfp", "dfp-stop", "hybrid")
SIP_SCHEMES = ("sip", "hybrid")

OBSERVED_WORKLOADS = ("mcf", "deepsjeng", "lbm")
#: Trace seeds per observed workload: two keep the median run of a pass
#: from resting on one short trace.
OBSERVED_TRACES = 2
#: The observed fleet run: a churning scenario under adaptive quotas, so
#: admission, churn, every frame-policy hook and the rebalances run.
OBSERVED_FLEET = ("churn-50", "adaptive-quota")
SWEEP_WORKLOAD = "leela"
SWEEP_VALUES = (1, 2, 4, 6, 8)
SWEEP_SCHEMES = ("dfp", "dfp-stop")


def input_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th instance of an input under benchmark ``seed``."""
    return seed * 16 + index


@dataclass
class RunOutput:
    """What one run produced, until the output check has reduced it."""

    #: Every :class:`RunResult` the run produced (fleet: one per tenant).
    results: List[RunResult]
    fleet_result: Optional[fleet.FleetResult] = None
    paging_profile: Optional[dict] = None

    @property
    def accesses(self) -> int:
        return sum(r.stats.accesses for r in self.results)


@dataclass(frozen=True)
class Run:
    """One run of a pass.

    ``twin`` replays the same inputs the other way round: a blind run's
    twin is sanitized, an observed run's twin is blind.  The check uses
    it only on seeds with no pinned references.
    """

    label: str
    call: Callable[[], RunOutput]
    twin: Callable[[], RunOutput]


@dataclass
class Setup:
    """One workload's inputs and the runs of one pass."""

    runs: List[Run] = field(default_factory=list)
    #: Materialized traces, SIP profiles and plans built by the set-up.
    traces: list = field(default_factory=list)
    profiles: list = field(default_factory=list)
    plans: list = field(default_factory=list)

    def add(self, label: str, call: Callable, twin: Callable) -> None:
        self.runs.append(Run(label, call, twin))

    def prepare(self, workload, config: SimConfig, seed: int):
        """Materialize the trace and compile the SIP plan of one workload."""
        trace = tracecache.materialize(workload, seed=seed, input_set="ref")
        profile = profiler.profile_workload(
            workload, config, input_set="train", seed=seed
        )
        plan = instrumentation.build_sip_plan(profile, config.sip_threshold)
        self.traces.append(trace)
        self.profiles.append(profile)
        self.plans.append(plan)
        return trace, plan


def _solo(workload, config, scheme, seed, trace, plan) -> RunOutput:
    result = engine.simulate(
        workload, config, scheme, seed=seed, trace=trace, sip_plan=plan
    )
    return RunOutput([result])


def _observed_solo(workload, config, scheme, seed, trace, plan) -> RunOutput:
    paging = PagingProfiler()
    result = engine.simulate(
        workload,
        config,
        scheme,
        seed=seed,
        trace=trace,
        sip_plan=plan,
        metrics=MetricsRegistry(),
        tracer=RingBufferSink(),
        profiler=paging,
    )
    profile = paging.profile()
    obs_manifest.build_manifest(result, workload=workload, paging_profile=profile)
    return RunOutput([result], paging_profile=profile)


def _fleet(scenario) -> RunOutput:
    result = fleet.simulate_fleet(scenario)
    return RunOutput(result.results, fleet_result=result)


def _observed_fleet(scenario) -> RunOutput:
    result = fleet.simulate_fleet(scenario, telemetry=FleetTelemetry())
    result.manifest()
    return RunOutput(result.results, fleet_result=result)


def _sweep(spec, configs, seed, telemetry_config) -> RunOutput:
    telemetry = ExecTelemetry(telemetry_config) if telemetry_config else None
    points = sweep.sweep_config(
        spec,
        configs,
        SWEEP_SCHEMES,
        values=list(SWEEP_VALUES),
        seed=seed,
        policy=ExecutionPolicy(),
        telemetry=telemetry,
    )
    if telemetry is not None:
        telemetry.merged_metrics()
    return RunOutput([p.results[s] for p in points for s in SWEEP_SCHEMES])


def _solo_setup(schemes, seed: int) -> Setup:
    config = SimConfig.scaled(SOLO_SCALE)
    sanitized = config.replace(sanitize=True)
    setup = Setup()
    for name in WORKLOAD_NAMES:
        workload = build_workload(name, scale=SOLO_SCALE)
        for index in range(SOLO_TRACES):
            trace_seed = input_seed(seed, index)
            trace, plan = setup.prepare(workload, config, trace_seed)
            for scheme in schemes:
                plan_if_sip = plan if scheme in SIP_SCHEMES else None
                args = (scheme, trace_seed, trace, plan_if_sip)
                setup.add(
                    f"{name}/{scheme}/{index}",
                    partial(_solo, workload, config, *args),
                    partial(_solo, workload, sanitized, *args),
                )
    return setup


def _observed_setup(seed: int) -> Setup:
    config = SimConfig.scaled(OBSERVED_SCALE)
    observed = config.replace(sanitize=True)
    setup = Setup()
    for name in OBSERVED_WORKLOADS:
        workload = build_workload(name, scale=OBSERVED_SCALE)
        for index in range(OBSERVED_TRACES):
            trace_seed = input_seed(seed, index)
            trace, plan = setup.prepare(workload, config, trace_seed)
            for scheme in SCHEME_NAMES:
                plan_if_sip = plan if scheme in SIP_SCHEMES else None
                args = (scheme, trace_seed, trace, plan_if_sip)
                setup.add(
                    f"{name}/{scheme}/{index}",
                    partial(_observed_solo, workload, observed, *args),
                    partial(_solo, workload, config, *args),
                )
    name, policy = OBSERVED_FLEET
    scenario = fleet.build_scenario(name, seed=input_seed(seed, 0), policy=policy)
    setup.add(
        f"{name}/{policy}/telemetry",
        partial(_observed_fleet, scenario),
        partial(_fleet, scenario),
    )
    # The sweep replays its traces from the process-wide cache; walking
    # them here keeps trace generation out of the timed phase.
    spec = WorkloadSpec(SWEEP_WORKLOAD, OBSERVED_SCALE)
    cache = tracecache.shared_trace_cache()
    cache.clear()
    sweep_seed = input_seed(seed, 0)
    setup.traces.append(cache.get(spec.build(), seed=sweep_seed, input_set="ref"))
    configs = [config.replace(load_length=value) for value in SWEEP_VALUES]
    telemetry = TelemetryConfig(metrics=True, trace=True)
    setup.add(
        f"{SWEEP_WORKLOAD}/sweep",
        partial(_sweep, spec, configs, sweep_seed, telemetry),
        partial(_sweep, spec, configs, sweep_seed, None),
    )
    return setup


#: Workload name → set-up function of one seed.
WORKLOADS = {
    "solo-demand": partial(_solo_setup, DEMAND_SCHEMES),
    "solo-preload": partial(_solo_setup, PRELOAD_SCHEMES),
    "observed": _observed_setup,
}

#: Why each workload exists (one line each; also in ``BENCHMARK.json``).
WHY = {
    "solo-demand": (
        "18 registry workloads x 2 traces (scale 32, seed 16*seed+i) x {baseline, "
        "sip}, blind: demand faults, fast path, batched retirement, SIP; bypasses "
        "DFP and preloads"
    ),
    "solo-preload": (
        "Same traces x {dfp, dfp-stop, hybrid}, blind: adds the DFP predictor, "
        "queued preloads, aborts, valve and scan credits to the demand path"
    ),
    "observed": (
        "Scale 128: mcf, deepsjeng, lbm (2 seeds) x 5 schemes with every observer; "
        "churn-50 adaptive-quota fleet under FleetTelemetry; LOADLENGTH sweep under "
        "ExecTelemetry: hook cost"
    ),
}

#: How each workload's inputs derive from the benchmark seed.
INPUTS = {
    "solo-demand": {
        "seed": "trace and SIP-profile seed of instance i = 16 * seed + i",
        "pass": (
            f"{len(WORKLOAD_NAMES)} registry workloads x {SOLO_TRACES} seeds x "
            f"{list(DEMAND_SCHEMES)}"
        ),
    },
    "solo-preload": {
        "seed": "trace and SIP-profile seed of instance i = 16 * seed + i",
        "pass": (
            f"{len(WORKLOAD_NAMES)} registry workloads x {SOLO_TRACES} seeds x "
            f"{list(PRELOAD_SCHEMES)}"
        ),
    },
    "observed": {
        "seed": (
            "trace and SIP-profile seed of instance i = 16 * seed + i; "
            "churn-50 scenario and sweep seed = 16 * seed"
        ),
        "pass": [
            f"{list(OBSERVED_WORKLOADS)} x {OBSERVED_TRACES} seeds x "
            f"{list(SCHEME_NAMES)}, observed",
            f"{OBSERVED_FLEET[0]} ({OBSERVED_FLEET[1]}) under FleetTelemetry, "
            "manifest exported",
            f"sweep_config {SWEEP_WORKLOAD} load_length={list(SWEEP_VALUES)} x "
            f"{list(SWEEP_SCHEMES)} under ExecTelemetry(metrics, trace), serial",
        ],
    },
}

#: Workloads left out of the benchmark, and why.
DROPPED = {
    "fleet": (
        "steady-8 and churn-50 under all three frame policies, blind: on a 2-vCPU "
        "shared VM, ten seeds' ns_per_access_p50 and _p90 spread 0.26-0.30 of their "
        "median (interquartile range) in each of two sets of 20 s runs, past the "
        "0.25 bound; its 18 runs a pass are 6 scenario draws, so both the host's "
        "speed phases and the draw move its percentiles.  simulate_fleet, "
        "admission, churn, per-tenant frames and adaptive-quota rebalances still "
        "run in observed's churn-50 run."
    ),
}

#: What every observed solo run carries.
OBSERVERS = (
    "MetricsRegistry",
    "RingBufferSink tracer",
    "PagingProfiler",
    "sanitizer (config.sanitize)",
    "build_manifest with the paging-profile block",
)

#: Registry build scale per workload (the fleet scenario of ``observed``
#: carries its own unscaled configuration).
SCALES = {
    "solo-demand": SOLO_SCALE,
    "solo-preload": SOLO_SCALE,
    "observed": OBSERVED_SCALE,
}


def setup(workload: str, seed: int) -> Setup:
    """Build ``workload``'s inputs for ``seed`` and its runs of one pass."""
    return WORKLOADS[workload](seed)
