"""Run lifetime: a finished run is freed by reference counting alone.

Drivers and their platform point at each other while a run is live;
``SharedPlatform.release`` drops the platform's side when the run ends,
so nothing a run built is left for the cyclic collector.
"""

import gc

import pytest

from repro.core.config import SimConfig
from repro.core.schemes import SCHEME_NAMES
from repro.enclave.driver import SgxDriver
from repro.enclave.enclave import Enclave
from repro.enclave.loader import LoadKind
from repro.errors import SimulationError
from repro.obs.exec_telemetry import ExecTelemetry, TelemetryConfig
from repro.obs.fleet_telemetry import FleetTelemetry
from repro.obs.manifest import build_manifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.paging import PagingProfiler
from repro.obs.trace import RingBufferSink
from repro.robust import ExecutionPolicy
from repro.sim.engine import prepare_sip_plan, simulate
from repro.sim.fleet import (
    EPC_POLICIES,
    FleetScenario,
    TenantSpec,
    build_scenario,
    simulate_fleet,
)
from repro.sim.parallel import WorkloadSpec
from repro.sim.sweep import sweep_config
from repro.sim.tracecache import materialize, shared_trace_cache
from repro.workloads.registry import build_workload

from tests.conftest import ScriptedWorkload, make_sequential_events

SCALE = 64


def run_everything(workload, config, trace, plan, scenarios, sweep_spec, sweep_configs):
    """One run of every kind, each result dropped as soon as it returns."""
    observed = config.replace(sanitize=True)
    for scheme in SCHEME_NAMES:
        simulate(workload, config, scheme, trace=trace, sip_plan=plan)
        paging = PagingProfiler()
        result = simulate(
            workload,
            observed,
            scheme,
            trace=trace,
            sip_plan=plan,
            metrics=MetricsRegistry(),
            tracer=RingBufferSink(),
            profiler=paging,
            record_events=True,
        )
        build_manifest(result, workload=workload, paging_profile=paging.profile())
    for scenario in scenarios:
        simulate_fleet(scenario)
        simulate_fleet(scenario, telemetry=FleetTelemetry()).manifest()
    for telemetry in (None, ExecTelemetry(TelemetryConfig(metrics=True, trace=True))):
        sweep_config(
            sweep_spec,
            sweep_configs,
            ("dfp", "dfp-stop"),
            values=[1, 4],
            policy=ExecutionPolicy(),
            telemetry=telemetry,
        )


def test_finished_runs_leave_no_cyclic_garbage():
    config = SimConfig.scaled(SCALE)
    workload = build_workload("mcf", scale=SCALE)
    trace = materialize(workload, seed=0, input_set="ref")
    plan = prepare_sip_plan(workload, config)
    scenarios = [build_scenario("smoke", seed=0, policy=p) for p in EPC_POLICIES]
    sweep_spec = WorkloadSpec("microbenchmark", SCALE)
    shared_trace_cache().get(sweep_spec.build(), seed=0, input_set="ref")
    sweep_configs = [config.replace(load_length=v) for v in (1, 4)]
    gc.collect()
    gc.disable()
    try:
        run_everything(workload, config, trace, plan, scenarios, sweep_spec, sweep_configs)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_runs_that_raise_leave_no_cyclic_garbage():
    config = SimConfig.scaled(SCALE)
    # Page 500 lies past the 72-page ELRANGE of an 8-page footprint.
    stray = ScriptedWorkload([(0, 1, 10), (0, 2, 10), (0, 500, 10)], footprint_pages=8)
    scenario = FleetScenario(
        name="stray",
        tenants=(
            TenantSpec(workload=ScriptedWorkload(make_sequential_events(8)), scheme="dfp"),
            TenantSpec(workload=stray, scheme="dfp"),
        ),
    )
    runs = (lambda: simulate(stray, config, "dfp"), lambda: simulate_fleet(scenario))
    gc.collect()
    gc.disable()
    try:
        for run in runs:
            with pytest.raises(SimulationError, match="outside ELRANGE"):
                run()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_landing_on_a_released_platform_raises():
    config = SimConfig.scaled(SCALE)
    driver = SgxDriver(config, Enclave(name="solo", elrange_pages=16))
    platform = driver.platform
    platform.release()
    assert platform.drivers == ()
    with pytest.raises(SimulationError, match="no driver"):
        platform.channel.load_sync(3, LoadKind.DEMAND, 0)
