"""Simulation engine and experiment drivers.

* :mod:`repro.sim.engine` — runs one workload under one scheme on the
  enclave substrate, producing a :class:`~repro.sim.results.RunResult`.
* :mod:`repro.sim.fleet` — fleet-scale multi-tenant EPC simulation:
  typed :class:`TenantSpec`/:class:`FleetScenario` specs, admission
  control, churn, open-loop requests, pluggable EPC frame policies.
* :mod:`repro.sim.results` — run results and comparisons.
* :mod:`repro.sim.sweep` — parameter sweeps and scheme comparisons,
  the building blocks of every figure in the evaluation.
* :mod:`repro.sim.parallel` — the resilient process-pool job runner
  behind the drivers' ``policy=`` parameter (retry, timeout,
  checkpoint/resume, fault injection — see :mod:`repro.robust`).
* :mod:`repro.sim.tracecache` — byte-budgeted LRU of materialized
  workload traces, shared by every scheme replay of one trace.
"""

from repro.robust import ExecutionPolicy, FaultPlan, RetryPolicy
from repro.sim.engine import simulate, simulate_native, prepare_sip_plan
from repro.sim.fleet import (
    EPC_POLICIES,
    FleetResult,
    FleetScenario,
    SCENARIO_NAMES,
    TenantSpec,
    build_scenario,
    simulate_fleet,
)
from repro.sim.parallel import JobSpec, WorkloadSpec, run_jobs
from repro.sim.results import RunResult, improvement_pct, normalized_time
from repro.sim.sweep import compare_schemes, sweep_config
from repro.sim.tracecache import TraceCache, shared_trace_cache

__all__ = [
    "simulate",
    "simulate_native",
    "simulate_fleet",
    "build_scenario",
    "TenantSpec",
    "FleetScenario",
    "FleetResult",
    "EPC_POLICIES",
    "SCENARIO_NAMES",
    "prepare_sip_plan",
    "RunResult",
    "improvement_pct",
    "normalized_time",
    "compare_schemes",
    "sweep_config",
    "JobSpec",
    "WorkloadSpec",
    "run_jobs",
    "ExecutionPolicy",
    "RetryPolicy",
    "FaultPlan",
    "TraceCache",
    "shared_trace_cache",
]
