"""Fleet time-series telemetry: passivity, reconciliation, SLO layer.

The two contracts the sampler lives by, straight from the acceptance
criteria:

* **passivity** — attaching :class:`FleetTelemetry` changes nothing
  the fleet computes: the ``repro.fleet-manifest/1`` block (and the
  whole manifest minus the digest-excluded timeseries section) stays
  byte-identical to a blind run, under every frame policy;
* **reconciliation** — per-window deltas sum exactly to the
  end-of-run QoS aggregates for every built-in scenario and policy
  (``validate_fleet_timeseries`` with the fleet block attached).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import ObsError
from repro.obs.fleet_telemetry import (
    _MAX_EXPORT_WINDOWS,
    FLEET_SLO_SCHEMA,
    FLEET_TIMESERIES_SCHEMA,
    FleetTelemetry,
    SloSpec,
    _Thinned,
    detect_thrash,
    evaluate_slo,
    validate_fleet_timeseries,
)
from repro.obs.manifest import manifest_digest
from repro.obs.series import pairwise
from repro.sim.fleet import (
    EPC_POLICIES,
    SCENARIO_NAMES,
    FleetScenario,
    TenantSpec,
    build_scenario,
    simulate_fleet,
)

from tests.conftest import ScriptedWorkload

GOLDEN_FLEET_TRACE = Path(__file__).parent / "golden_fleet_chrome_trace.json"

#: ``(scenario, policy, window_cycles) -> (coarsen_passes, sha256 of
#: json.dumps(block, sort_keys=True))`` at seed 0, recorded when the
#: sampler still kept per-window deltas and merged them pairwise.  The
#: grid coarsens 0-8 times; the last run ends exactly on a window
#: boundary, so its zero-width tail folds into the window before it.
PINNED_BLOCKS = {
    ("smoke", "shared-clock", None):
        (1, "cd9ac046b036449b03960abaeec2268101b173712a04e25c8931fcbb96c82071"),
    ("smoke", "shared-clock", 50_000):
        (3, "45b71f1e68b06307c7a8a68d6b5ef28860bf19f143f90cc0e1e7057d47276351"),
    ("smoke", "shared-clock", 7_919):
        (6, "ced5a82c1ddee7fe97bf2e450355db7e44623618ea87568c17dc59f8a7d12428"),
    ("smoke", "static-partition", None):
        (2, "e45b4550b4c3eef42abf1929f742890d85040249e257328bf2ff1c4222207add"),
    ("smoke", "static-partition", 50_000):
        (4, "08f4242a005ce212b94d4297ffa85070a92b0f5cc2e0af4ad4bc42b1faf007e2"),
    ("smoke", "static-partition", 7_919):
        (6, "fb041cd97aa18b7eb275aa738b22dd0f7ca49043c6b855580af2b4cdbd855727"),
    ("smoke", "adaptive-quota", None):
        (2, "14220ab14b5e0e366ed1b53b77a9e5fed9e315ca68977ffba92f5fb22a146e94"),
    ("smoke", "adaptive-quota", 50_000):
        (4, "5b8bd692762d43977b255f02b5e4cc01e645b104e204160d076b33aaef0cf62d"),
    ("smoke", "adaptive-quota", 7_919):
        (6, "fae9ba56ce00e35e83ec5f6596cf7fb7d945c0f758617ebc9c085730151fe6ac"),
    ("steady-8", "shared-clock", None):
        (2, "22b4e672bfff74f462a956d52ed96eba9766e3f781ddb15542051130cb136ca0"),
    ("steady-8", "shared-clock", 50_000):
        (5, "d423442953f30f6b371a550aa0af1773b55a4e274e54b85fe250044375b531ee"),
    ("steady-8", "shared-clock", 7_919):
        (7, "6208c7a906ac71f87d9e4528f3c40e1006fb39e563fa8ee96a38520fc45d4a87"),
    ("steady-8", "static-partition", None):
        (2, "958051e2004bdd09f3c1764c968f2093f89821894b7a07ad6bf546914068b82f"),
    ("steady-8", "static-partition", 50_000):
        (5, "8c2026415fad6d864b8ec5fd3094e00b4fa983f7a720e71a8785b83c10cc5e83"),
    ("steady-8", "static-partition", 7_919):
        (8, "48ac41e1b6a53e2f4c0690a7cd907d3349167875f969167903ce37a42c949dac"),
    ("steady-8", "adaptive-quota", None):
        (2, "1cca4c952143b8dea6443cd874985f057f7868b108c3e12a30f75309601f0857"),
    ("steady-8", "adaptive-quota", 50_000):
        (5, "df5a008e8498a53d0aebf1a9a07c0f259ceb52d6e0e14a7fa50fd652f48d7d87"),
    ("steady-8", "adaptive-quota", 7_919):
        (8, "f6b8c929516f800dfb3b58f770e904e1499d94f3894c906203a1a41e6af44aca"),
    ("churn-50", "shared-clock", None):
        (4, "40f67f283f33d27d93e4d696673dc99b75983e802634c193dd1e46014464420a"),
    ("churn-50", "shared-clock", 50_000):
        (7, "cdcf5fdee5c9e197251a69b544d0648dc261f6764afd70d5a04389a3195d942e"),
    ("churn-50", "static-partition", None):
        (4, "eb2e0d7223aaa7f6b862cebe62ba40afd013f6b4714a4950d234dc4def1ff472"),
    ("churn-50", "static-partition", 50_000):
        (7, "7c4a8f8255b9cc3f4d50cd5f3ea4bcd657ec29a16b9aa8e01ac661c85e4a1437"),
    ("churn-50", "adaptive-quota", None):
        (4, "a287b361fa0493e529399a317b2452126e68a34112c6694f2e5902334db5417c"),
    ("churn-50", "adaptive-quota", 50_000):
        (7, "cc2924109c19ecec28062f006eabb93586f7b1c340046b48c2326675b24074e5"),
    ("smoke", "shared-clock", 20_785_500):
        (0, "64e41291ca62caf8fde353173d6cfafaad9de3afb778fdadcf1177f250684818"),
}


def canonical(document):
    return json.dumps(document, indent=2, sort_keys=True)


def observed_run(scenario_name="smoke", seed=7, policy=None, **telemetry_kwargs):
    scenario = build_scenario(scenario_name, seed=seed, policy=policy)
    telemetry = FleetTelemetry(**telemetry_kwargs)
    return simulate_fleet(scenario, telemetry=telemetry)


def synthetic_block(
    *,
    faults=((0, 4), (10, 2)),
    accesses=((20, 20), (20, 20)),
    wait_p99=((0.0, 900.0), (100.0, 100.0)),
    quota=((8, 8), (8, 8)),
    resident=((8, 2), (8, 8)),
    window=1_000,
):
    """A hand-built two-tenant block that passes the validator.

    Each per-tenant argument is one tuple per tenant, one value per
    window; the fleet section is derived so the cross-foot holds.
    """
    n = len(faults[0])
    tenants = []
    for idx, name in enumerate(("alpha", "beta")):
        tenants.append(
            {
                "index": idx,
                "name": name,
                "scheme": "baseline",
                "workload": name,
                "arrival": 0,
                "queued_at": 0,
                "admitted_at": 0,
                "started_at": 0,
                "departed_at": n * window,
                "truncated": False,
                "accesses": list(accesses[idx]),
                "faults": list(faults[idx]),
                "preloads_completed": [0] * n,
                "wait_cycles": [f * 100 for f in faults[idx]],
                "wait_count": list(faults[idx]),
                "fault_wait_p99": list(wait_p99[idx]),
                "resident": list(resident[idx]),
                "quota": list(quota[idx]),
            }
        )
    fleet_faults = [sum(t["faults"][i] for t in tenants) for i in range(n)]
    fleet_accesses = [sum(t["accesses"][i] for t in tenants) for i in range(n)]
    fleet_wait = [sum(t["wait_cycles"][i] for t in tenants) for i in range(n)]
    return {
        "schema": FLEET_TIMESERIES_SCHEMA,
        "window_cycles": window,
        "coarsen_passes": 0,
        "end_cycles": n * window,
        "window_start": [i * window for i in range(n)],
        "window_end": [(i + 1) * window for i in range(n)],
        "fleet": {
            "accesses": fleet_accesses,
            "faults": fleet_faults,
            "preloads_completed": [0] * n,
            "channel_wait_cycles": fleet_wait,
            "fault_wait_p99": [max(t["fault_wait_p99"][i] for t in tenants) for i in range(n)],
            "channel_loads": fleet_faults,
            "channel_busy_cycles": fleet_wait,
            "channel_utilization": [0.5] * n,
            "epc_resident": [sum(t["resident"][i] for t in tenants) for i in range(n)],
            "queue_depth": [0] * n,
            "active_tenants": [2] * n,
            "truncated_tenants": [0] * n,
        },
        "tenants": tenants,
        "rebalances": [],
        "totals": {
            "accesses": sum(fleet_accesses),
            "faults": sum(fleet_faults),
            "preloads_completed": 0,
            "channel_wait_cycles": sum(fleet_wait),
        },
    }


def lifecycle_block():
    """``synthetic_block`` plus one rebalance decision, one tenant still
    queued at the end and one truncated tenant that spun up first."""
    block = synthetic_block()
    zeros = [0] * len(block["window_end"])
    lifecycles = (
        {"queued_at": 500, "admitted_at": None, "started_at": None},
        {"queued_at": None, "admitted_at": 300, "started_at": 700, "truncated": True},
    )
    for index, (name, lifecycle) in enumerate(zip(("gamma", "delta"), lifecycles), 2):
        tenant = {
            key: list(zeros) if isinstance(value, list) else value
            for key, value in block["tenants"][0].items()
        }
        tenant.update(index=index, name=name, departed_at=None, **lifecycle)
        block["tenants"].append(tenant)
    block["rebalances"] = [
        {
            "cycle": 1_000,
            "quotas_before": {"alpha": 8, "beta": 8, "delta": 8},
            "quotas_after": {"alpha": 12, "beta": 6, "delta": 6},
        }
    ]
    return block


class TestPassivity:
    """Observation must not perturb the run: the acceptance bar."""

    @pytest.mark.parametrize("policy", sorted(EPC_POLICIES))
    def test_fleet_block_byte_identical_with_and_without_sampler(self, policy):
        blind = simulate_fleet(build_scenario("smoke", seed=7, policy=policy))
        observed = observed_run(policy=policy)
        assert canonical(blind.fleet_block()) == canonical(observed.fleet_block())

    @pytest.mark.parametrize("policy", sorted(EPC_POLICIES))
    def test_manifest_minus_timeseries_is_byte_identical(self, policy):
        blind = simulate_fleet(build_scenario("smoke", seed=7, policy=policy))
        observed = observed_run(policy=policy)
        stripped = dict(observed.manifest())
        block = stripped.pop("fleet_timeseries")
        assert block is not None
        assert canonical(blind.manifest()) == canonical(stripped)

    def test_digest_ignores_the_timeseries_block(self):
        blind = simulate_fleet(build_scenario("smoke", seed=7))
        observed = observed_run()
        assert manifest_digest(observed.manifest()) == manifest_digest(
            blind.manifest()
        )

    def test_blind_run_has_no_timeseries(self):
        blind = simulate_fleet(build_scenario("smoke", seed=7))
        assert blind.timeseries is None
        assert "fleet_timeseries" not in blind.manifest()


class TestDeterminism:
    def test_same_seed_same_timeseries_bytes(self):
        a = observed_run(seed=11)
        b = observed_run(seed=11)
        assert canonical(a.timeseries) == canonical(b.timeseries)

    def test_different_seed_changes_the_series(self):
        a = observed_run(seed=0)
        b = observed_run(seed=1)
        assert canonical(a.timeseries) != canonical(b.timeseries)


class TestReconciliation:
    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    @pytest.mark.parametrize("policy", sorted(EPC_POLICIES))
    def test_every_scenario_and_policy_reconciles_exactly(self, scenario, policy):
        """Per-window totals equal the QoS aggregates — the tentpole's
        accounting identity, for every built-in scenario and policy."""
        result = observed_run(scenario, seed=0, policy=policy)
        counts = validate_fleet_timeseries(
            result.timeseries, fleet_block=result.fleet_block()
        )
        assert counts["windows"] >= 1
        assert counts["tenants"] == len(result.fleet_block()["tenants"])

    def test_a_run_that_ends_at_cycle_0_reconciles(self):
        """One empty-trace tenant arriving at 0: the fleet ends at cycle
        0, and its one window is 1 cycle wide."""
        empty = ScriptedWorkload([], name="empty", footprint_pages=4)
        scenario = FleetScenario(name="empty", tenants=(TenantSpec(workload=empty),))
        result = simulate_fleet(scenario, telemetry=FleetTelemetry())
        fleet_block = result.fleet_block()
        assert fleet_block["summary"]["end_cycles"] == 0
        assert result.timeseries["window_end"] == [1]
        validate_fleet_timeseries(result.timeseries, fleet_block=fleet_block)
        fleet_block["summary"]["end_cycles"] = 2
        with pytest.raises(ObsError, match="ends at cycle 1"):
            validate_fleet_timeseries(result.timeseries, fleet_block=fleet_block)

    def test_rebalance_records_match_the_summary_count(self):
        result = observed_run(policy="adaptive-quota")
        block = result.fleet_block()
        assert len(result.timeseries["rebalances"]) == block["summary"]["rebalances"]
        first = result.timeseries["rebalances"][0]
        assert set(first) == {"cycle", "quotas_before", "quotas_after"}
        assert first["quotas_before"] and first["quotas_after"]

    def test_loaded_manifest_validates_the_embedded_block(self, tmp_path):
        from repro.obs.manifest import load_manifest, write_manifest

        result = observed_run()
        path = write_manifest(tmp_path / "m.json", result.manifest())
        document = load_manifest(path)
        assert document["fleet_timeseries"]["schema"] == FLEET_TIMESERIES_SCHEMA


class TestWindowing:
    def test_window_cycles_defaults_to_the_scan_period(self):
        scenario = build_scenario("smoke", seed=0)
        result = observed_run()
        assert (
            result.timeseries["window_cycles"]
            == scenario.config.scan_period_cycles
        )

    def test_custom_window_width_is_honored(self):
        result = observed_run(window_cycles=1_000_000)
        ts = result.timeseries
        assert ts["window_cycles"] == 1_000_000
        assert ts["window_start"][0] == 0
        validate_fleet_timeseries(ts, fleet_block=result.fleet_block())

    def test_tiny_windows_coarsen_but_still_reconcile(self):
        """A window far below the run length forces coarsening, which
        must preserve every reconciliation identity."""
        result = observed_run(window_cycles=50_000)
        ts = result.timeseries
        assert ts["coarsen_passes"] >= 1
        assert len(ts["window_end"]) <= 128
        validate_fleet_timeseries(ts, fleet_block=result.fleet_block())

    def test_invalid_window_width_rejected(self):
        with pytest.raises(ObsError):
            FleetTelemetry(window_cycles=0)

    def test_sampler_keeps_what_pairwise_coarsening_keeps(self):
        """The closes the sampler keeps are the ones halving every close
        pairwise, keeping the later of each pair, would keep; also when
        the tail fold replaces the newest close."""

        def coarsened(rows):
            passes = 0
            while len(rows) > _MAX_EXPORT_WINDOWS:
                rows, passes = pairwise(rows, lambda _first, later: later), passes + 1
            return passes, rows

        closes = _Thinned(_MAX_EXPORT_WINDOWS)
        for n in range(1, 4_101):
            closes.append(n - 1)
            assert closes.kept() == coarsened(list(range(n)))
            closes.newest = "tail"
            assert closes.kept() == coarsened([*range(n - 1), "tail"])
            closes.newest = n - 1
            assert len(closes.stored) <= _MAX_EXPORT_WINDOWS

    def test_long_run_holds_a_bounded_number_of_closes(self):
        scenario = build_scenario("smoke", seed=0)
        telemetry = FleetTelemetry(window_cycles=5_000)
        result = simulate_fleet(scenario, telemetry=telemetry)
        closes = telemetry._closes
        assert closes.count > 1_000
        assert len(closes.stored) + 1 <= 2 * _MAX_EXPORT_WINDOWS + 1
        ts = result.timeseries
        assert len(ts["window_end"]) <= _MAX_EXPORT_WINDOWS
        validate_fleet_timeseries(ts, fleet_block=result.fleet_block())


class TestPinnedBytes:
    @pytest.mark.parametrize(("scenario", "policy", "window"), list(PINNED_BLOCKS))
    def test_block_bytes_match_the_pinned_digest(self, scenario, policy, window):
        block = observed_run(
            scenario, seed=0, policy=policy, window_cycles=window
        ).timeseries
        text = json.dumps(block, sort_keys=True)
        assert (
            block["coarsen_passes"],
            hashlib.sha256(text.encode()).hexdigest(),
        ) == PINNED_BLOCKS[(scenario, policy, window)]

    def test_pinned_boundary_run_ends_on_its_second_boundary(self):
        """The fold case really is one: without it the run would need a
        zero-width third window."""
        block = observed_run(
            "smoke", seed=0, policy="shared-clock", window_cycles=20_785_500
        ).timeseries
        assert block["window_end"] == [20_785_500, 41_571_000]
        assert block["end_cycles"] == 41_571_000


class TestValidatorErrors:
    def test_rejects_wrong_schema(self):
        with pytest.raises(ObsError, match="schema"):
            validate_fleet_timeseries({"schema": "nope/1"})

    def test_rejects_non_contiguous_windows(self):
        block = synthetic_block()
        block["window_start"][1] += 1
        with pytest.raises(ObsError, match="contiguous"):
            validate_fleet_timeseries(block)

    def test_rejects_cross_foot_violation(self):
        block = synthetic_block()
        block["fleet"]["faults"][0] += 1
        with pytest.raises(ObsError, match="cross-foot"):
            validate_fleet_timeseries(block)

    def test_rejects_totals_drift(self):
        block = synthetic_block()
        block["totals"]["faults"] += 1
        with pytest.raises(ObsError, match="totals"):
            validate_fleet_timeseries(block)

    def test_rejects_qos_mismatch_against_fleet_block(self):
        result = observed_run()
        fleet_block = json.loads(canonical(result.fleet_block()))
        fleet_block["summary"]["faults"] += 1
        with pytest.raises(ObsError):
            validate_fleet_timeseries(result.timeseries, fleet_block=fleet_block)

    def test_rejects_end_cycles_mismatch_against_fleet_block(self):
        result = observed_run()
        fleet_block = json.loads(canonical(result.fleet_block()))
        fleet_block["summary"]["end_cycles"] += 1
        with pytest.raises(ObsError, match="end_cycles"):
            validate_fleet_timeseries(result.timeseries, fleet_block=fleet_block)


class TestSloSpec:
    def test_parse_full_spec(self):
        spec = SloSpec.parse("wait_p99=80000,fault_rate=0.2,residency=0.5")
        assert spec.max_fault_wait_p99 == 80000.0
        assert spec.max_fault_rate == 0.2
        assert spec.min_residency_ratio == 0.5
        assert spec.enabled

    def test_parse_partial_spec(self):
        spec = SloSpec.parse("fault_rate=0.1")
        assert spec.max_fault_wait_p99 is None
        assert spec.max_fault_rate == 0.1

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "bogus=1",
            "fault_rate=2.0",
            "residency=0",
            "wait_p99=-5",
            "wait_p99=nan",
            "wait_p99=inf",
        ],
    )
    def test_parse_rejects_bad_specs(self, text):
        with pytest.raises(ObsError):
            SloSpec.parse(text)

    def test_disabled_spec_refuses_evaluation(self):
        with pytest.raises(ObsError, match="objectives"):
            evaluate_slo(synthetic_block(), SloSpec())


class TestSloEvaluation:
    def test_breach_intervals_merge_consecutive_windows(self):
        block = synthetic_block(
            faults=((10, 10), (0, 0)),
            accesses=((20, 20), (20, 20)),
        )
        doc = evaluate_slo(block, SloSpec(max_fault_rate=0.25))
        assert doc["schema"] == FLEET_SLO_SCHEMA
        assert len(doc["breaches"]) == 1
        breach = doc["breaches"][0]
        assert breach["tenant"] == "alpha"
        assert breach["windows"] == 2
        assert breach["violated"] == ["fault_rate"]
        assert breach["worst"]["fault_rate"] == 0.5

    def test_wait_p99_objective_skips_fault_free_windows(self):
        block = synthetic_block(wait_p99=((0.0, 900.0), (100.0, 100.0)),
                                faults=((0, 4), (1, 1)))
        doc = evaluate_slo(block, SloSpec(max_fault_wait_p99=500.0))
        breaches = [b for b in doc["breaches"] if b["tenant"] == "alpha"]
        assert len(breaches) == 1
        assert breaches[0]["start_window"] == 1

    def test_residency_objective_flags_starved_quota(self):
        block = synthetic_block(resident=((8, 2), (8, 8)))
        doc = evaluate_slo(block, SloSpec(min_residency_ratio=0.5))
        assert [b["tenant"] for b in doc["breaches"]] == ["alpha"]
        assert doc["breaches"][0]["worst"]["residency_ratio"] == 0.25

    def test_clean_run_reports_no_breaches(self):
        block = synthetic_block(faults=((0, 0), (0, 0)),
                                wait_p99=((0.0, 0.0), (0.0, 0.0)))
        doc = evaluate_slo(block, SloSpec(max_fault_rate=0.9))
        assert doc["breaches"] == []


class TestThrashDetection:
    def test_spike_above_mean_is_flagged(self):
        block = synthetic_block(
            faults=((1, 1, 1, 40), (1, 1, 1, 1)),
            accesses=((20, 20, 20, 60), (20, 20, 20, 20)),
            wait_p99=((0.0,) * 4, (0.0,) * 4),
            quota=((8,) * 4, (8,) * 4),
            resident=((8,) * 4, (8,) * 4),
        )
        intervals = detect_thrash(block, factor=2.0, min_faults=8)
        assert len(intervals) == 1
        assert intervals[0]["tenant"] == "alpha"
        assert intervals[0]["start_window"] == 3
        assert intervals[0]["peak_rate_vs_mean"] > 2.0

    def test_quiet_tenants_never_flag(self):
        block = synthetic_block(faults=((1, 2), (0, 1)))
        assert detect_thrash(block, min_faults=8) == []

    def test_bad_parameters_rejected(self):
        block = synthetic_block()
        with pytest.raises(ObsError):
            detect_thrash(block, factor=1.0)
        with pytest.raises(ObsError):
            detect_thrash(block, min_faults=0)


class TestExports:
    def test_chrome_trace_validates_and_carries_fleet_tracks(self):
        from repro.obs.chrome import fleet_chrome_trace, validate_chrome_trace

        result = observed_run(policy="adaptive-quota")
        document = fleet_chrome_trace(result.timeseries)
        counts = validate_chrome_trace(document)
        assert counts["counter"] > 0
        assert counts["complete"] > 0  # lifecycle spans
        assert counts["instant"] == len(result.timeseries["rebalances"])
        names = {e["name"] for e in document["traceEvents"]}
        assert {"fleet-faults", "epc-resident", "queue-depth", "run"} <= names

    def test_chrome_trace_golden_file(self, tmp_path):
        """Counter, rebalance and lifecycle tracks are pinned byte for byte."""
        from repro.obs.chrome import write_fleet_chrome_trace

        out = tmp_path / "fleet.trace.json"
        write_fleet_chrome_trace(out, lifecycle_block())
        assert out.read_text(encoding="utf-8") == GOLDEN_FLEET_TRACE.read_text(
            encoding="utf-8"
        )

    def test_chrome_trace_rejects_non_timeseries_input(self):
        from repro.obs.chrome import fleet_chrome_trace

        with pytest.raises(ObsError, match="schema"):
            fleet_chrome_trace({"schema": "bogus"})

    def test_write_fleet_chrome_trace_round_trips(self, tmp_path):
        from repro.obs.chrome import validate_chrome_trace, write_fleet_chrome_trace

        result = observed_run()
        path = tmp_path / "fleet.trace.json"
        count = write_fleet_chrome_trace(path, result.timeseries)
        document = json.loads(path.read_text())
        assert len(document["traceEvents"]) == count
        validate_chrome_trace(document)

    def test_openmetrics_is_labeled_deterministic_and_terminated(self):
        from repro.obs.openmetrics import render_fleet_openmetrics

        result = observed_run()
        text = render_fleet_openmetrics(result.timeseries)
        assert text == render_fleet_openmetrics(result.timeseries)
        assert text.endswith("# EOF\n")
        assert 'repro_tenant_faults{tenant="' in text
        assert 'window="' in text

    def test_openmetrics_escapes_label_values(self):
        from repro.obs.openmetrics import _escape_label

        assert _escape_label('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_openmetrics_rejects_non_timeseries_input(self):
        from repro.obs.openmetrics import render_fleet_openmetrics

        with pytest.raises(ValueError):
            render_fleet_openmetrics({"schema": "bogus"})
