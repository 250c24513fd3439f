"""Fleet simulator tests: determinism, QoS accounting, churn edges."""

import json

import pytest

from repro.core.config import SimConfig
from repro.errors import ConfigError
from repro.sim.fleet import (
    EPC_POLICIES,
    FleetScenario,
    SCENARIO_NAMES,
    TenantSpec,
    build_scenario,
    simulate_fleet,
)
from repro.workloads.base import SyntheticWorkload
from repro.workloads.requests import RequestProfile
from repro.workloads.synthetic import sequential, uniform_random

from tests.conftest import ScriptedWorkload


def small_config(**overrides):
    defaults = dict(epc_pages=64, scan_period_cycles=200_000, valve_slack=16)
    defaults.update(overrides)
    return SimConfig(**defaults)


def stream(name, pages=40, passes=3, compute=3_000):
    return SyntheticWorkload(
        name, pages, {0: "s"},
        [sequential(0, 0, pages, compute=compute, passes=passes)],
    )


def scatter(name, pages=48, count=150, compute=3_000):
    return SyntheticWorkload(
        name, pages, {0: "r"},
        [uniform_random([0], 0, pages, count, compute=compute)],
    )


def canonical(manifest):
    return json.dumps(manifest, indent=2, sort_keys=True)


class TestDeterminism:
    def test_same_scenario_and_seed_is_byte_identical(self):
        """The acceptance bar: two runs of the same named scenario at
        the same seed produce byte-identical aggregate manifests,
        fleet block included."""
        a = simulate_fleet(build_scenario("smoke", seed=7))
        b = simulate_fleet(build_scenario("smoke", seed=7))
        assert canonical(a.manifest()) == canonical(b.manifest())

    def test_different_seed_changes_the_run(self):
        a = simulate_fleet(build_scenario("smoke", seed=0))
        b = simulate_fleet(build_scenario("smoke", seed=1))
        assert canonical(a.manifest()) != canonical(b.manifest())

    @pytest.mark.parametrize("policy", EPC_POLICIES)
    def test_every_policy_is_deterministic(self, policy):
        a = simulate_fleet(build_scenario("smoke", seed=2, policy=policy))
        b = simulate_fleet(build_scenario("smoke", seed=2, policy=policy))
        assert canonical(a.fleet_block()) == canonical(b.fleet_block())

    def test_named_scenarios_cover_the_registry(self):
        assert SCENARIO_NAMES == ("churn-50", "smoke", "steady-8")
        with pytest.raises(ConfigError):
            build_scenario("no-such-scenario")


class TestHeapTieBreak:
    """Simultaneous events must resolve by tenant index, explicitly."""

    def _twins(self):
        # Identical traces: every event of tenant 0 and tenant 1 is
        # scheduled for the same virtual instant — maximal tie stress.
        events = [(0, page, 4_000) for page in range(30)] * 2
        instructions = {0: "i"}
        return (
            ScriptedWorkload(events, name="twin-a", footprint_pages=30,
                             instructions=instructions),
            ScriptedWorkload(events, name="twin-b", footprint_pages=30,
                             instructions=instructions),
        )

    def test_lower_index_wins_every_tie(self):
        """With byte-identical twin tenants, tenant 0 reaches the
        exclusive load channel first at every tied fault, so its waits
        can never exceed its twin's."""
        a, b = self._twins()
        scenario = FleetScenario(
            name="ties",
            tenants=(TenantSpec(workload=a), TenantSpec(workload=b)),
            config=small_config(epc_pages=24),
        )
        results = simulate_fleet(scenario).results
        assert results[0].stats.time.fault_wait <= results[1].stats.time.fault_wait
        assert results[0].total_cycles <= results[1].total_cycles

    def test_tied_ordering_is_pinned(self):
        """Regression pin: the tie-broken interleaving is stable —
        repeated runs agree on every per-tenant counter."""
        a, b = self._twins()
        scenario = FleetScenario(
            name="ties",
            tenants=(TenantSpec(workload=a), TenantSpec(workload=b)),
            config=small_config(epc_pages=24),
        )
        first = simulate_fleet(scenario).results
        a2, b2 = self._twins()
        second = simulate_fleet(
            FleetScenario(
                name="ties",
                tenants=(TenantSpec(workload=a2), TenantSpec(workload=b2)),
                config=small_config(epc_pages=24),
            )
        ).results
        assert [r.stats.as_dict() for r in first] == [
            r.stats.as_dict() for r in second
        ]


class TestQoS:
    def _run(self, **scenario_kwargs):
        scenario = FleetScenario(
            name="qos",
            tenants=(
                TenantSpec(workload=stream("s0")),
                TenantSpec(
                    workload=scatter("r1"),
                    requests=RequestProfile(
                        kind="poisson", mean_gap_cycles=50_000,
                        events_per_request=16,
                    ),
                ),
            ),
            config=small_config(epc_pages=48),
            **scenario_kwargs,
        )
        return simulate_fleet(scenario)

    def test_wait_histogram_reconciles_with_time_breakdown(self):
        """The QoS percentiles come from ``fault.wait_hist``; its exact
        sum must equal the ``fault_wait`` bucket of the same tenant's
        :class:`TimeBreakdown` — the histogram observes every charged
        wait and nothing else."""
        fleet = self._run()
        for record, result in zip(fleet.tenants, fleet.results):
            assert record.admitted
            # Exact reconciliation: histogram sum == TimeBreakdown bucket.
            assert (
                record.qos["channel_wait_cycles"]
                == result.stats.time.fault_wait
            )
            p99 = record.qos["channel_wait_p99"]
            if record.qos["channel_wait_samples"] == 0:
                assert p99 == 0.0
            else:
                # A single observation can never exceed the total.
                assert 0.0 <= p99 <= result.stats.time.fault_wait + 1

    def test_time_identity_includes_idle(self):
        """Per-tenant buckets (idle included) sum exactly to the
        tenant's clock — the solo-run identity survives churn."""
        fleet = self._run()
        for result in fleet.results:
            assert result.stats.time.total == result.total_cycles

    def test_open_loop_tenant_records_requests(self):
        fleet = self._run()
        record = fleet.tenants[1]
        assert record.requests_served > 1
        requests = record.qos["requests"]
        assert requests["served"] == record.requests_served
        assert requests["lag_p99"] >= requests["lag_p50"] >= 0.0

    def test_fault_latency_is_wait_plus_constants(self):
        fleet = self._run()
        cost = fleet.config.cost
        fixed = cost.aex_cycles + cost.eresume_cycles
        for record in fleet.tenants:
            assert record.qos["fault_latency_p50"] == pytest.approx(
                fixed + record.qos["channel_wait_p50"]
            )
            assert record.qos["fault_latency_p99"] == pytest.approx(
                fixed + record.qos["channel_wait_p99"]
            )


class TestChurn:
    def test_admission_queue_fifo_under_cap(self):
        """With one slot, tenants serialize: each admission waits for
        the previous departure, in arrival order."""
        scenario = FleetScenario(
            name="serialized",
            tenants=(
                TenantSpec(workload=stream("s0", passes=1)),
                TenantSpec(workload=stream("s1", passes=1), arrival=1_000),
                TenantSpec(workload=stream("s2", passes=1), arrival=2_000),
            ),
            config=small_config(),
            max_admitted=1,
        )
        fleet = simulate_fleet(scenario)
        records = fleet.tenants
        assert all(r.admitted and r.completed for r in records)
        # FIFO: each tenant is admitted exactly when its predecessor
        # departs (arrival order == admission order).
        assert records[1].admitted_at == records[0].departed_at
        assert records[2].admitted_at == records[1].departed_at
        # Admission wait is charged to idle, keeping accounting exact.
        assert fleet.results[1].stats.time.idle >= records[1].admitted_at
        assert fleet.results[1].stats.time.total == fleet.results[1].total_cycles

    def test_arrival_when_epc_is_full_still_works(self):
        """A tenant spinning up against a full EPC evicts its way in
        through the shared frame pool."""
        hog = stream("hog", pages=64, passes=2)  # fills the whole EPC
        late = scatter("late", pages=32, count=60)
        scenario = FleetScenario(
            name="full-epc",
            tenants=(
                TenantSpec(workload=hog),
                TenantSpec(workload=late, arrival=500_000),
            ),
            config=small_config(epc_pages=64),
            spinup_pages=16,
        )
        fleet = simulate_fleet(scenario)
        assert all(r.admitted and r.completed for r in fleet.tenants)
        late_result = fleet.results[1]
        assert late_result.stats.accesses == 60
        assert late_result.stats.time.total == late_result.total_cycles

    def test_last_tenant_departing_drains_the_queue(self):
        """The final departure admits everyone still waiting — nobody
        is stranded when the loop runs out of events."""
        scenario = FleetScenario(
            name="drain",
            tenants=tuple(
                TenantSpec(workload=stream(f"s{i}", passes=1)) for i in range(5)
            ),
            config=small_config(),
            max_admitted=2,
        )
        fleet = simulate_fleet(scenario)
        assert all(r.admitted and r.completed for r in fleet.tenants)
        summary = fleet.fleet_block()["summary"]
        assert summary["admitted"] == 5
        assert summary["never_admitted"] == 0

    def test_duration_cutoff_leaves_tenants_unadmitted(self):
        """A tenant whose arrival lies past the duration never runs
        and reports a zero result — not an error."""
        scenario = FleetScenario(
            name="cutoff",
            tenants=(
                TenantSpec(workload=stream("s0", passes=1)),
                TenantSpec(workload=stream("s1", passes=1), arrival=10**9),
            ),
            config=small_config(),
            duration=50_000_000,
        )
        fleet = simulate_fleet(scenario)
        records = fleet.tenants
        assert records[0].admitted
        assert not records[1].admitted
        assert fleet.results[1].total_cycles == 0
        assert fleet.results[1].stats.accesses == 0
        assert fleet.fleet_block()["summary"]["never_admitted"] == 1

    def test_duration_cutoff_flushes_truncated_tenants_idle(self):
        """Regression: a tenant admitted just before the cutoff — whose
        first event therefore never runs — carries unflushed pending
        idle into finalization.  It must be reported as truncated, not
        crash the time-accounting identity check."""
        scenario = FleetScenario(
            name="cutoff-midwait",
            tenants=(
                TenantSpec(workload=stream("s0", passes=1)),
                TenantSpec(workload=stream("s1", passes=1), arrival=49_999_000),
            ),
            config=small_config(),
            duration=50_000_000,
        )
        fleet = simulate_fleet(scenario)
        record = fleet.tenants[1]
        assert record.admitted and not record.completed
        assert record.departed_at is None
        result = fleet.results[1]
        assert result.stats.time.total == result.total_cycles
        assert result.stats.time.idle >= 49_999_000

    def test_duration_cutoff_flushes_open_loop_request_wait(self):
        """Regression: an open-loop tenant idling toward its next
        request arrival at the cutoff has accrued gap idle that was
        never charged; truncation must flush it."""
        scenario = FleetScenario(
            name="cutoff-openloop",
            tenants=(
                TenantSpec(
                    workload=scatter("r0"),
                    requests=RequestProfile(
                        kind="poisson", mean_gap_cycles=400_000,
                        events_per_request=4,
                    ),
                ),
            ),
            config=small_config(),
            duration=2_000_000,
        )
        fleet = simulate_fleet(scenario)
        result = fleet.results[0]
        assert result.stats.time.total == result.total_cycles

    def test_empty_trace_tenant_departs_cleanly(self):
        """A tenant with zero trace events is admitted, departs on the
        spot, and its pre-start time is all idle."""
        empty = ScriptedWorkload(
            [], name="empty", footprint_pages=4, instructions={0: "i"}
        )
        scenario = FleetScenario(
            name="empty-trace",
            tenants=(
                TenantSpec(workload=stream("s0", passes=1)),
                TenantSpec(workload=empty, arrival=5_000),
            ),
            config=small_config(),
        )
        fleet = simulate_fleet(scenario)
        record = fleet.tenants[1]
        assert record.admitted and record.completed
        result = fleet.results[1]
        assert result.stats.accesses == 0
        assert result.stats.time.total == result.total_cycles

    def test_duplicate_tenant_names_rejected(self):
        scenario = FleetScenario(
            name="dupes",
            tenants=(
                TenantSpec(workload=stream("s0"), name="same"),
                TenantSpec(workload=stream("s1"), name="same"),
            ),
            config=small_config(),
        )
        with pytest.raises(ConfigError):
            simulate_fleet(scenario)


class TestPolicies:
    def test_partitioning_isolates_the_victim_tenant(self):
        """A thrashing neighbour evicts a small tenant's pages under
        the shared CLOCK; a static partition shields them."""
        small = SyntheticWorkload(
            "small", 12, {0: "h"},
            [sequential(0, 0, 12, compute=2_000, passes=20)],
        )
        thrasher = scatter("thrasher", pages=96, count=600, compute=2_000)
        def run(policy):
            scenario = FleetScenario(
                name="isolation",
                tenants=(
                    TenantSpec(workload=small),
                    TenantSpec(workload=thrasher),
                ),
                policy=policy,
                config=small_config(epc_pages=48),
            )
            return simulate_fleet(scenario)
        shared = run("shared-clock")
        partitioned = run("static-partition")
        assert (
            partitioned.results[0].stats.faults
            <= shared.results[0].stats.faults
        )

    def test_adaptive_quota_requires_rebalance_period(self):
        """adaptive-quota without a rebalance period would silently be
        a static partition; the scenario must refuse to build."""
        with pytest.raises(ConfigError, match="rebalance_period_cycles"):
            FleetScenario(
                name="bad-adaptive",
                tenants=(TenantSpec(workload=stream("s0")),),
                policy="adaptive-quota",
                config=small_config(),
            )

    def test_adaptive_rebalances_and_reports_quotas(self):
        fleet = simulate_fleet(
            build_scenario("smoke", seed=1, policy="adaptive-quota")
        )
        assert fleet.rebalances > 0
        block = fleet.fleet_block()
        assert block["summary"]["rebalances"] == fleet.rebalances
        for tenant in block["tenants"]:
            if tenant["admitted"]:
                assert "quota_pages" in tenant

    def test_three_policies_share_one_scenario_identity(self):
        blocks = [
            simulate_fleet(build_scenario("smoke", seed=5, policy=p)).fleet_block()
            for p in EPC_POLICIES
        ]
        names = {b["scenario"]["name"] for b in blocks}
        assert names == {"smoke"}
        assert [b["scenario"]["policy"] for b in blocks] == list(EPC_POLICIES)


class TestSharedPlatform:
    """Multi-enclave runs lean on ``SharedPlatform.owner_of`` for every
    eviction attribution; cross-enclave pressure must keep them exact."""

    def _workloads(self):
        return [
            SyntheticWorkload(
                "a", 96, {0: "s"}, [sequential(0, 0, 96, compute=4_000, passes=2)]
            ),
            scatter("b", pages=128, count=600, compute=5_000),
            SyntheticWorkload(
                "c", 64, {0: "s"}, [sequential(0, 0, 64, compute=3_000, passes=3)]
            ),
        ]

    def _run(self, schemes):
        config = small_config(
            epc_pages=96,
            stream_list_length=12,
            load_length=4,
            scan_period_cycles=400_000,
            valve_slack=32,
        )
        scenario = FleetScenario(
            name="shared-platform",
            tenants=tuple(
                TenantSpec(workload=w, scheme=s)
                for w, s in zip(self._workloads(), schemes)
            ),
            config=config,
        )
        return simulate_fleet(scenario).results

    def test_shared_run_is_deterministic(self):
        first = self._run(["dfp", "baseline", "dfp-stop"])
        second = self._run(["dfp", "baseline", "dfp-stop"])
        assert [r.total_cycles for r in first] == [r.total_cycles for r in second]
        assert [r.stats.as_dict() for r in first] == [
            r.stats.as_dict() for r in second
        ]

    def test_cross_enclave_pressure_keeps_invariants(self):
        results = self._run(["dfp", "dfp", "dfp"])
        assert sum(r.stats.evictions for r in results) > 0
        for result in results:
            assert result.stats.epc_hits + result.stats.faults == result.stats.accesses
            assert result.stats.time.total == result.total_cycles
