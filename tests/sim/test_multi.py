"""Multi-enclave simulation tests (Section 5.6 contention).

The shared-EPC runs are expressed through the typed fleet API
(:class:`TenantSpec` / :class:`FleetScenario`).
"""

import pytest

from repro.core.config import SimConfig
from repro.errors import ConfigError
from repro.sim.engine import simulate
from repro.sim.fleet import FleetScenario, TenantSpec, simulate_fleet
from repro.workloads.base import SyntheticWorkload
from repro.workloads.synthetic import sequential, uniform_random


@pytest.fixture
def config():
    return SimConfig(epc_pages=128, scan_period_cycles=500_000, valve_slack=16)


def seq_workload(name="seq-a"):
    return SyntheticWorkload(
        name, 256, {0: "scan"}, [sequential(0, 0, 256, compute=5_000, passes=2)]
    )


def rand_workload(name="rand-b"):
    return SyntheticWorkload(
        name,
        512,
        {0: "probe"},
        [uniform_random([0], 0, 512, 1_500, compute=5_000)],
    )


def run_shared(workloads, config, schemes, *, seed=0):
    """Shared-EPC run through the typed fleet API (no churn)."""
    scenario = FleetScenario(
        name="test-shared",
        tenants=tuple(
            TenantSpec(workload=w, scheme=s) for w, s in zip(workloads, schemes)
        ),
        config=config,
        seed=seed,
    )
    return simulate_fleet(scenario).results


class TestValidation:
    def test_empty_rejected(self, config):
        with pytest.raises(ConfigError):
            FleetScenario(name="empty", tenants=(), config=config)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            TenantSpec(workload=seq_workload(), scheme="warp-drive")

    def test_unknown_policy_rejected(self, config):
        with pytest.raises(ConfigError):
            FleetScenario(
                name="bad",
                tenants=(TenantSpec(workload=seq_workload()),),
                policy="round-robin",
                config=config,
            )

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("epc_pages", 0, "epc_pages"),
            ("epc_pages", -64, "epc_pages"),
            ("min_quota_pages", 0, "min_quota_pages"),
            ("input_set", "test", "input set"),
        ],
    )
    @pytest.mark.parametrize("policy", ["shared-clock", "adaptive-quota"])
    def test_bad_value_rejected_at_construction(
        self, config, field, value, match, policy
    ):
        """Rejected when the scenario is built, not mid-run, under every
        policy (a quota floor matters only to adaptive-quota)."""
        with pytest.raises(ConfigError, match=match):
            FleetScenario(
                name="bad",
                tenants=(TenantSpec(workload=seq_workload()),),
                policy=policy,
                rebalance_period_cycles=1_000_000,
                config=config,
                **{field: value},
            )


class TestAccounting:
    def test_one_result_per_workload_in_order(self, config):
        results = run_shared(
            [seq_workload("a"), rand_workload("b")],
            config,
            ["baseline", "baseline"],
        )
        assert [r.workload for r in results] == ["a", "b"]

    def test_time_accounting_exact_per_enclave(self, config):
        results = run_shared(
            [seq_workload(), rand_workload()],
            config,
            ["dfp-stop", "baseline"],
        )
        for result in results:
            assert result.stats.time.total == result.total_cycles

    def test_single_app_shared_equals_solo(self, config):
        """One workload through the shared path must reproduce the
        single-enclave engine exactly."""
        wl = seq_workload()
        solo = simulate(wl, config, "baseline")
        shared = run_shared([wl], config, ["baseline"])[0]
        assert shared.total_cycles == solo.total_cycles
        assert shared.stats.faults == solo.stats.faults

    def test_deterministic(self, config):
        workloads = [seq_workload(), rand_workload()]
        a = run_shared(workloads, config, ["dfp-stop", "baseline"])
        b = run_shared(workloads, config, ["dfp-stop", "baseline"])
        assert [r.total_cycles for r in a] == [r.total_cycles for r in b]

    def test_deterministic_down_to_per_enclave_stats(self, config):
        """Two identical shared runs agree on *every* counter of every
        enclave, not just the headline cycle totals."""
        schemes = ["dfp-stop", "sip"]
        a = run_shared([seq_workload(), rand_workload()], config, schemes)
        b = run_shared([seq_workload(), rand_workload()], config, schemes)
        for first, second in zip(a, b):
            assert first.stats.as_dict() == second.stats.as_dict()
            assert first == second

    def test_sanitized_shared_run_matches_unsanitized(self, config):
        """The runtime sanitizer is passive for the multi-enclave path
        too: same workloads, same schemes, same per-enclave stats."""
        schemes = ["dfp-stop", "baseline"]
        plain = run_shared([seq_workload(), rand_workload()], config, schemes)
        sanitized = run_shared(
            [seq_workload(), rand_workload()],
            config.replace(sanitize=True),
            schemes,
        )
        for a, b in zip(plain, sanitized):
            assert a.stats.as_dict() == b.stats.as_dict()
            assert a.total_cycles == b.total_cycles


class TestContention:
    def test_sharing_slows_everyone_down(self, config):
        """Two working sets that individually fit but jointly exceed
        the EPC thrash each other (Section 5.6)."""
        a = SyntheticWorkload(
            "a", 96, {0: "x"}, [sequential(0, 0, 96, compute=5_000, passes=6)]
        )
        b = SyntheticWorkload(
            "b", 96, {0: "x"}, [sequential(0, 0, 96, compute=5_000, passes=6)]
        )
        solo = simulate(a, config, "baseline")
        shared = run_shared([a, b], config, ["baseline", "baseline"])
        assert shared[0].total_cycles > solo.total_cycles
        assert shared[0].stats.faults > solo.stats.faults

    def test_dfp_still_helps_its_own_enclave(self, config):
        """Per-enclave preloading keeps working under sharing."""
        workloads = [seq_workload(), rand_workload()]
        base = run_shared(workloads, config, ["baseline", "baseline"])
        dfp = run_shared(workloads, config, ["dfp-stop", "baseline"])
        assert dfp[0].total_cycles < base[0].total_cycles
        assert dfp[0].stats.preloads_completed > 0

    def test_preloading_can_hurt_the_neighbour(self, config):
        """The streaming enclave's bursts occupy the exclusive channel;
        the co-runner's demand faults wait behind them."""
        workloads = [seq_workload(), rand_workload()]
        base = run_shared(workloads, config, ["baseline", "baseline"])
        dfp = run_shared(workloads, config, ["dfp-stop", "baseline"])
        assert (
            dfp[1].stats.time.fault_wait > base[1].stats.time.fault_wait
        )

    def test_sip_plans_isolated_per_enclave(self, config):
        workloads = [seq_workload(), rand_workload()]
        results = run_shared(workloads, config, ["sip", "sip"])
        # The pure stream gets no instrumentation; the scatter does.
        assert results[0].sip_points == 0
        assert results[1].sip_points > 0
