"""Run manifests: roundtrip, reconciliation, and obs-passivity.

The reconciliation test is the ISSUE's acceptance criterion: a
sanitized DFP run observed with metrics and a trace must produce a
manifest whose counters agree with ``RunStats`` and whose histogram
sums agree with the ``TimeBreakdown`` buckets — mechanically, not by
eyeballing.
"""

import json

import pytest

from repro.core.config import SimConfig
from repro.errors import ObsError
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    git_sha,
    load_manifest,
    write_manifest,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import RingBufferSink
from repro.sim.engine import simulate
from repro.workloads.base import SyntheticWorkload
from repro.workloads.synthetic import sequential, uniform_random


@pytest.fixture
def config():
    return SimConfig(
        epc_pages=64,
        scan_period_cycles=200_000,
        valve_slack=16,
        sanitize=True,
    )


@pytest.fixture
def workload():
    return SyntheticWorkload(
        "mixed",
        256,
        {0: "scan", 1: "probe"},
        [
            sequential(0, 0, 192, compute=5_000, passes=2),
            uniform_random([1], 0, 256, 400, compute=5_000),
        ],
    )


def observed_run(workload, config, **kwargs):
    metrics = MetricsRegistry()
    capture = RingBufferSink(1 << 16)
    result = simulate(
        workload,
        config,
        "dfp-stop",
        metrics=metrics,
        tracer=capture,
        **kwargs,
    )
    return result, metrics, capture


class TestRoundtrip:
    def test_write_then_load(self, tmp_path, workload, config):
        result, _metrics, _capture = observed_run(workload, config)
        manifest = build_manifest(result, workload=workload, extra={"fig": "08"})
        path = write_manifest(tmp_path / "run.json", manifest)
        loaded = load_manifest(path)
        assert loaded == json.loads(json.dumps(manifest))
        assert loaded["schema"] == MANIFEST_SCHEMA
        assert loaded["run"]["scheme"] == "dfp-stop"
        assert loaded["run"]["total_cycles"] == result.total_cycles
        assert loaded["workload"]["footprint_pages"] == 256
        assert loaded["extra"] == {"fig": "08"}
        assert loaded["config"]["epc_pages"] == 64

    def test_manifest_is_deterministic(self, tmp_path, workload, config):
        a, _m, _c = observed_run(workload, config)
        b, _m, _c = observed_run(workload, config)
        pa = write_manifest(tmp_path / "a.json", build_manifest(a))
        pb = write_manifest(tmp_path / "b.json", build_manifest(b))
        assert pa.read_bytes() == pb.read_bytes()

    def test_provenance_fields_present(self, workload, config):
        result, _m, _c = observed_run(workload, config)
        generator = build_manifest(result)["generator"]
        assert generator["repro_version"]
        assert generator["git_sha"] == git_sha()
        assert git_sha() != ""


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ObsError):
            load_manifest(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ObsError):
            load_manifest(bad)

    def test_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other/9"}))
        with pytest.raises(ObsError):
            load_manifest(bad)

    def test_missing_section(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": MANIFEST_SCHEMA, "run": {}}))
        with pytest.raises(ObsError):
            load_manifest(bad)

    def test_non_object_document(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ObsError):
            load_manifest(bad)


class TestReconciliation:
    """Acceptance: manifest counters reconcile with RunStats exactly."""

    def test_metrics_reconcile_with_stats(self, workload, config):
        result, _metrics, capture = observed_run(workload, config)
        manifest = build_manifest(result, workload=workload)
        stats = manifest["stats"]
        time = manifest["time_breakdown"]
        metrics = manifest["metrics"]

        # Callback gauges mirror their RunStats sources one to one.
        for gauge, stat in (
            ("app.accesses", "accesses"),
            ("app.epc_hits", "epc_hits"),
            ("fault.count", "faults"),
            ("fault.absorbed_by_inflight", "faults_absorbed_by_inflight"),
            ("preload.hits", "preload_hits"),
            ("preload.enqueued", "preloads_enqueued"),
            ("preload.completed", "preloads_completed"),
            ("preload.aborted", "preloads_aborted"),
            ("preload.accessed", "preloads_accessed"),
            ("preload.redundant", "preloads_redundant"),
            ("preload.evicted_unused", "preloads_evicted_unused"),
            ("epc.evictions", "evictions"),
            ("sip.checks", "sip_checks"),
            ("sip.check_hits", "sip_check_hits"),
            ("sip.loads", "sip_loads"),
            ("valve.stops", "valve_stops"),
            ("scan.count", "scans"),
        ):
            assert metrics[gauge] == stats[stat], gauge

        # Time gauges mirror the breakdown; buckets sum to the clock.
        for gauge, bucket in (
            ("time.compute_cycles", "compute"),
            ("time.aex_cycles", "aex"),
            ("time.eresume_cycles", "eresume"),
            ("time.fault_wait_cycles", "fault_wait"),
            ("time.sip_check_cycles", "sip_check"),
            ("time.sip_wait_cycles", "sip_wait"),
            ("time.total_cycles", "total"),
            ("time.overhead_cycles", "overhead"),
        ):
            assert metrics[gauge] == time[bucket], gauge
        assert metrics["time.total_cycles"] == result.total_cycles

        # Histogram sums reconcile with their time buckets exactly,
        # and their counts bracket the fault count (faults whose page
        # landed during the AEX itself never waited on the channel).
        fault_hist = metrics["fault.wait_hist"]
        assert fault_hist["sum"] == time["fault_wait"]
        assert fault_hist["count"] <= stats["faults"]
        assert (
            fault_hist["count"]
            >= stats["faults"] - stats["faults_absorbed_by_inflight"]
        )
        bucket_total = sum(b["count"] for b in fault_hist["buckets"])
        assert bucket_total + fault_hist["overflow"] == fault_hist["count"]
        sip_hist = metrics["sip.wait_hist"]
        assert sip_hist["sum"] == time["sip_wait"]

        # DFP layer: engine counters and abort attribution.
        assert metrics["dfp.preload_counter"] == stats["preloads_completed"]
        assert metrics["dfp.valve_trips"] == stats["valve_stops"]
        assert (
            metrics["abort.in_stream_pages"] + metrics["abort.valve_pages"]
            == stats["preloads_aborted"]
        )
        assert metrics["scan.credited_pages"] <= stats["preloads_accessed"]
        assert metrics["epc.capacity_pages"] == 64
        assert capture.dropped == 0
        assert len(capture.events) > 0

    def test_a_run_actually_exercised_the_machinery(self, workload, config):
        result, _m, _c = observed_run(workload, config)
        assert result.stats.faults > 0
        assert result.stats.preloads_completed > 0
        assert result.metrics["fault.wait_hist"]["count"] > 0


class TestObservabilityIsPassive:
    """Enabling metrics/tracing changes no simulation outcome."""

    def test_observed_run_is_bit_identical_to_blind_run(self, workload, config):
        blind = simulate(workload, config, "dfp-stop")
        observed, _metrics, _capture = observed_run(workload, config)
        assert observed == blind  # frozen dataclass equality
        assert observed.stats.as_dict() == blind.stats.as_dict()
        assert observed.stats.time.as_dict() == blind.stats.time.as_dict()
        assert blind.metrics is None
        assert observed.metrics is not None

    def test_event_capacity_does_not_change_outcome(self, workload, config):
        tight = simulate(
            workload, config, "dfp-stop", record_events=True, event_capacity=8
        )
        blind = simulate(workload, config, "dfp-stop")
        assert tight == blind
        assert len(tight.events) == 8
