"""Simulation engine tests: accounting, schemes, determinism."""

import pytest

from repro.core.config import SimConfig
from repro.errors import ConfigError, SimulationError
from repro.sim.engine import prepare_sip_plan, simulate, simulate_native
from repro.sim.tracecache import materialize
from repro.workloads.base import SyntheticWorkload
from repro.workloads.synthetic import sequential, uniform_random

from tests.conftest import ScriptedWorkload


@pytest.fixture
def config():
    return SimConfig(epc_pages=64, scan_period_cycles=500_000, valve_slack=16)


@pytest.fixture
def seq_workload():
    return SyntheticWorkload(
        "seq", 256, {0: "scan"}, [sequential(0, 0, 256, compute=5_000, passes=2)]
    )


@pytest.fixture
def rand_workload():
    return SyntheticWorkload(
        "rand",
        512,
        {0: "probe"},
        [uniform_random([0], 0, 512, 2_000, compute=5_000)],
    )


class TestAccountingInvariant:
    @pytest.mark.parametrize("scheme", ["baseline", "dfp", "dfp-stop", "sip", "hybrid"])
    def test_buckets_reconstruct_total(self, config, seq_workload, scheme):
        result = simulate(seq_workload, config, scheme)
        assert result.stats.time.total == result.total_cycles

    def test_compute_bucket_matches_trace(self, config):
        events = [(0, 0, 1_000), (0, 1, 2_000), (0, 0, 3_000)]
        wl = ScriptedWorkload(events)
        result = simulate(wl, config)
        assert result.stats.time.compute == 6_000

    def test_access_count_matches_trace_length(self, config, seq_workload):
        result = simulate(seq_workload, config)
        assert result.stats.accesses == 512


class TestBaselineBehaviour:
    def test_working_set_within_epc_faults_once_per_page(self, config):
        wl = SyntheticWorkload(
            "small", 32, {0: "scan"}, [sequential(0, 0, 32, compute=100, passes=5)]
        )
        result = simulate(wl, config)
        assert result.stats.faults == 32  # warm-up only

    def test_working_set_beyond_epc_faults_every_pass(self, config, seq_workload):
        result = simulate(seq_workload, config)
        # 256 pages over a 64-frame EPC: no reuse survives a pass.
        assert result.stats.faults == 512

    def test_fault_cost_dominates_when_memory_bound(self, config, seq_workload):
        result = simulate(seq_workload, config)
        assert result.fault_overhead_fraction > 0.5


class TestSchemes:
    def test_dfp_reduces_time_on_sequential(self, config, seq_workload):
        base = simulate(seq_workload, config, "baseline")
        dfp = simulate(seq_workload, config, "dfp-stop")
        assert dfp.total_cycles < base.total_cycles

    def test_sip_requires_or_builds_plan(self, config, rand_workload):
        result = simulate(rand_workload, config, "sip")
        assert result.sip_points > 0
        assert result.stats.sip_checks > 0

    def test_explicit_plan_used(self, config, rand_workload):
        plan = prepare_sip_plan(rand_workload, config)
        result = simulate(rand_workload, config, "sip", sip_plan=plan)
        assert result.sip_points == plan.instrumentation_points

    def test_sip_on_random_beats_baseline(self, config, rand_workload):
        base = simulate(rand_workload, config, "baseline")
        sip = simulate(rand_workload, config, "sip")
        assert sip.total_cycles < base.total_cycles
        assert sip.stats.faults < base.stats.faults

    def test_max_accesses_truncates(self, config, seq_workload):
        result = simulate(seq_workload, config, max_accesses=10)
        assert result.stats.accesses == 10

    def test_record_events(self, config):
        wl = ScriptedWorkload([(0, 0, 100), (0, 1, 100)])
        result = simulate(wl, config, record_events=True)
        assert result.events
        assert simulate(wl, config).events is None


class TestScalarLoop:
    @pytest.mark.parametrize("materialized", [False, True], ids=["generator", "materialized"])
    def test_negative_page_is_outside_elrange(self, config, materialized):
        workload = ScriptedWorkload([(0, 2, 100), (0, -5, 100)])
        trace = materialize(workload, seed=0, input_set="ref") if materialized else None
        with pytest.raises(SimulationError, match="outside ELRANGE"):
            simulate(workload, config, trace=trace)

    def test_every_run_reports_the_scalar_engine(self, config, seq_workload):
        trace = materialize(seq_workload, seed=0, input_set="ref")
        assert simulate(seq_workload, config, trace=trace).engine == "scalar"
        assert simulate(seq_workload, config, engine="scalar").engine == "scalar"

    @pytest.mark.parametrize("engine", ["auto", "batched", "vectorized"])
    def test_unknown_engine_rejected(self, config, seq_workload, engine):
        with pytest.raises(ConfigError, match="unknown engine"):
            simulate(seq_workload, config, engine=engine)


class TestDeterminism:
    @pytest.mark.parametrize("scheme", ["baseline", "dfp-stop", "sip", "hybrid"])
    def test_same_seed_same_result(self, config, rand_workload, scheme):
        a = simulate(rand_workload, config, scheme, seed=7)
        b = simulate(rand_workload, config, scheme, seed=7)
        assert a.total_cycles == b.total_cycles
        assert a.stats.faults == b.stats.faults

    def test_different_seed_different_result(self, config, rand_workload):
        a = simulate(rand_workload, config, seed=1)
        b = simulate(rand_workload, config, seed=2)
        assert a.total_cycles != b.total_cycles


class TestNative:
    def test_native_faults_once_per_page(self, config, seq_workload):
        result = simulate_native(seq_workload, config)
        assert result.stats.faults == 256
        assert result.scheme == "native"

    def test_native_fault_cost_is_regular(self, config):
        wl = ScriptedWorkload([(0, 0, 1_000)])
        result = simulate_native(wl, config)
        assert result.total_cycles == 1_000 + config.cost.regular_fault_cycles

    def test_enclave_much_slower_than_native_when_thrashing(
        self, config, seq_workload
    ):
        """The motivation observation (Sections 1-2): an order of
        magnitude or more for memory-bound sequential code."""
        native = simulate_native(seq_workload, config)
        enclave = simulate(seq_workload, config, "baseline")
        assert enclave.total_cycles > 5 * native.total_cycles
