"""repro — reproduction of *Regaining Lost Seconds: Efficient Page
Preloading for SGX Enclaves* (Liu et al., Middleware '20).

The library provides:

* a cycle-accounted simulation of SGX EPC paging
  (:mod:`repro.enclave`): the 96 MB usable EPC, the
  AEX/ELDU/ERESUME fault cost model, CLOCK eviction, and the
  exclusive non-preemptible page-load channel;
* the paper's two preloading schemes (:mod:`repro.core`): DFP
  (dynamic fault-history based preloading with the multiple-stream
  predictor and abort valve) and SIP (profile-guided source
  instrumentation with the shared residency bitmap), plus their
  hybrid;
* deterministic workload models of the paper's benchmarks
  (:mod:`repro.workloads`);
* the experiment drivers and analysis helpers that regenerate every
  table and figure of the evaluation (:mod:`repro.sim`,
  :mod:`repro.analysis`, and the ``benchmarks/`` tree);
* a passive observability layer (:mod:`repro.obs`): metrics
  registries, timeline trace sinks with Chrome ``trace_event``
  export, and self-describing run manifests with a cycle-attribution
  diff (``repro report``);
* a resilience layer (:mod:`repro.robust`): one
  :class:`ExecutionPolicy` object configuring worker count, retry
  with backoff, per-job timeouts, checkpoint/resume, and
  deterministic fault injection for the experiment drivers.

Quickstart::

    from repro import SimConfig, build_workload, simulate, improvement_pct

    config = SimConfig.scaled(16)
    lbm = build_workload("lbm", scale=16)
    base = simulate(lbm, config, "baseline")
    dfp = simulate(lbm, config, "dfp-stop")
    print(f"DFP improves lbm by {improvement_pct(dfp, base):.1f}%")
"""

from repro.core.config import CostModel, SimConfig
from repro.core.instrumentation import SipPlan, build_sip_plan
from repro.core.profiler import profile_workload
from repro.core.schemes import SCHEME_NAMES, Scheme, make_scheme
from repro.errors import (
    ChannelError,
    ConfigError,
    EpcError,
    InstrumentationError,
    ObsError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from repro.obs.manifest import build_manifest
from repro.obs.metrics import MetricsRegistry
from repro.robust import ExecutionPolicy, FaultPlan, RetryPolicy
from repro.obs.trace import RingBufferSink, TraceSink
from repro.sim.engine import prepare_sip_plan, simulate, simulate_native
from repro.sim.fleet import (
    EPC_POLICIES,
    FleetResult,
    FleetScenario,
    TenantSpec,
    build_scenario,
    simulate_fleet,
)
from repro.sim.results import RunResult, improvement_pct, normalized_time
from repro.sim.sweep import compare_schemes, sweep_config
from repro.workloads.base import Access, Workload
from repro.workloads.registry import (
    CPP_BENCHMARKS,
    LARGE_IRREGULAR,
    LARGE_REGULAR,
    SMALL_WORKING_SET,
    WORKLOAD_NAMES,
    build_workload,
)

__version__ = "1.0.0"

__all__ = [
    "CostModel",
    "SimConfig",
    "SipPlan",
    "build_sip_plan",
    "profile_workload",
    "prepare_sip_plan",
    "Scheme",
    "make_scheme",
    "SCHEME_NAMES",
    "simulate",
    "simulate_native",
    "simulate_fleet",
    "build_scenario",
    "TenantSpec",
    "FleetScenario",
    "FleetResult",
    "EPC_POLICIES",
    "RunResult",
    "improvement_pct",
    "normalized_time",
    "compare_schemes",
    "sweep_config",
    "ExecutionPolicy",
    "RetryPolicy",
    "FaultPlan",
    "Access",
    "Workload",
    "build_workload",
    "WORKLOAD_NAMES",
    "LARGE_REGULAR",
    "LARGE_IRREGULAR",
    "SMALL_WORKING_SET",
    "CPP_BENCHMARKS",
    "MetricsRegistry",
    "TraceSink",
    "RingBufferSink",
    "build_manifest",
    "ReproError",
    "ConfigError",
    "ObsError",
    "EpcError",
    "ChannelError",
    "WorkloadError",
    "InstrumentationError",
    "SimulationError",
]
