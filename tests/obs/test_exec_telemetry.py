"""Unit contract of :mod:`repro.obs.exec_telemetry`.

The collector, the worker payload merge and the fleet manifest are the
load-bearing pieces of PR 5's observability-under-resilience story, so
each invariant gets a direct test: deterministic merges, exactly-once
worker delivery, span bookkeeping, and a schema validator that
rejects every malformed block it could meet.
"""

import json

import pytest

from repro.core.config import SimConfig
from repro.errors import ObsError
from repro.obs.exec_telemetry import (
    EXEC_TELEMETRY_SCHEMA,
    ExecTelemetry,
    SpanKind,
    TelemetryConfig,
    WorkerTelemetry,
    build_fleet_manifest,
    merge_metric_dumps,
    render_exec_report,
    validate_exec_telemetry,
)
from repro.robust import ExecutionPolicy
from repro.sim.parallel import JobSpec, WorkloadSpec, run_job

SPEC = WorkloadSpec("microbenchmark", 64)


def job_result(load_length=1, scheme="baseline"):
    config = SimConfig.scaled(64).replace(load_length=load_length)
    return run_job(JobSpec(workload=SPEC, config=config, scheme=scheme))


def histogram(count, total, bucket_counts, bounds=(1, 10)):
    return {
        "type": "histogram",
        "count": count,
        "sum": total,
        "buckets": [
            {"le": le, "count": n} for le, n in zip(bounds, bucket_counts)
        ],
        "overflow": 0,
    }


class TestTelemetryConfig:
    def test_default_observes_nothing(self):
        assert TelemetryConfig().enabled is False

    @pytest.mark.parametrize(
        "kwargs", [{"metrics": True}, {"trace": True}]
    )
    def test_enabled_when_anything_requested(self, kwargs):
        assert TelemetryConfig(**kwargs).enabled is True

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ObsError, match="trace_capacity"):
            TelemetryConfig(trace=True, trace_capacity=0)


class TestMergeMetricDumps:
    def test_scalars_sum_and_keys_sort(self):
        merged = merge_metric_dumps(
            [{"b.count": 2, "a.count": 1}, {"b.count": 3}]
        )
        assert merged == {"a.count": 1, "b.count": 5}
        assert list(merged) == ["a.count", "b.count"]

    def test_histograms_merge_bucket_wise(self):
        merged = merge_metric_dumps(
            [
                {"lat": histogram(3, 12, (2, 1))},
                {"lat": histogram(1, 8, (0, 1))},
            ]
        )
        assert merged["lat"]["count"] == 4
        assert merged["lat"]["sum"] == 20
        assert [b["count"] for b in merged["lat"]["buckets"]] == [2, 2]

    def test_merge_does_not_mutate_the_inputs(self):
        first = {"lat": histogram(3, 12, (2, 1))}
        merge_metric_dumps([first, {"lat": histogram(1, 8, (0, 1))}])
        assert first["lat"]["count"] == 3
        assert first["lat"]["buckets"][0]["count"] == 2

    def test_shape_mismatch_is_an_error(self):
        with pytest.raises(ObsError, match="mismatched shapes"):
            merge_metric_dumps([{"m": 1}, {"m": histogram(1, 1, (1, 0))}])

    def test_bucket_bound_mismatch_is_an_error(self):
        with pytest.raises(ObsError, match="bucket bounds"):
            merge_metric_dumps(
                [
                    {"m": histogram(1, 1, (1, 0), bounds=(1, 10))},
                    {"m": histogram(1, 1, (1, 0), bounds=(1, 100))},
                ]
            )

    def test_equal_non_numeric_values_pass_through(self):
        merged = merge_metric_dumps(
            [{"run.scheme": "dfp"}, {"run.scheme": "dfp"}]
        )
        assert merged == {"run.scheme": "dfp"}

    def test_conflicting_non_numeric_values_are_an_error(self):
        with pytest.raises(ObsError, match="non-numeric"):
            merge_metric_dumps([{"run.scheme": "dfp"}, {"run.scheme": "sip"}])


class TestSpanCollection:
    def test_queue_wait_then_attempt_span(self):
        telemetry = ExecTelemetry()
        telemetry.job_enqueued(0, 1)
        telemetry.attempt_started(0, 1, lane=2)
        telemetry.attempt_finished(0, 1, "ok")
        kinds = [span.kind for span in telemetry.spans]
        assert kinds == [SpanKind.QUEUE_WAIT, SpanKind.ATTEMPT]
        attempt = telemetry.spans[1]
        assert attempt.lane == 2
        assert attempt.outcome == "ok"
        assert attempt.duration_s >= 0.0

    def test_backoff_span_covers_the_scheduled_delay(self):
        telemetry = ExecTelemetry()
        telemetry.backoff(3, 1, 0.25)
        span = telemetry.spans[-1]
        assert span.kind is SpanKind.RETRY_BACKOFF
        assert span.duration_s == pytest.approx(0.25)

    def test_fault_narration_dedupes_per_coordinate(self):
        from repro.robust import FaultKind

        telemetry = ExecTelemetry()
        telemetry.fault_injected(4, 1, FaultKind.SUBMIT_ERROR)
        telemetry.fault_injected(4, 1, FaultKind.SUBMIT_ERROR)  # re-dispatch
        assert telemetry.total_faults == 1
        assert telemetry.submit_errors == 1

    def test_health_counts_is_the_progress_trio(self):
        telemetry = ExecTelemetry()
        for attempt in (1, 2):
            telemetry.attempt_started(0, attempt, lane=0)
        telemetry.attempt_abandoned(0, 2)
        assert telemetry.health_counts() == (1, 1, 0)

    def test_resume_hit_marks_the_job_source(self):
        telemetry = ExecTelemetry()
        telemetry.resume_hit(2)
        block = telemetry.as_dict()
        assert block["jobs"]["per_job"][2]["source"] == "checkpoint"
        assert block["totals"]["resume_hits"] == 1


class TestWorkerDelivery:
    def test_first_delivery_wins_and_duplicates_are_counted(self):
        telemetry = ExecTelemetry()
        first = WorkerTelemetry(metrics={"m": 1})
        telemetry.deliver_worker(0, first)
        telemetry.deliver_worker(0, WorkerTelemetry(metrics={"m": 99}))
        assert telemetry.worker_for(0) is first
        assert telemetry.deliveries_for(0) == 2
        assert telemetry.merged_metrics() == {"m": 1}

    def test_merged_metrics_folds_in_job_order(self):
        telemetry = ExecTelemetry()
        telemetry.deliver_worker(1, WorkerTelemetry(metrics={"m": 10}))
        telemetry.deliver_worker(0, WorkerTelemetry(metrics={"m": 1}))
        assert telemetry.merged_metrics() == {"m": 11}

    def test_dropped_counts_surface_in_totals(self):
        telemetry = ExecTelemetry()
        telemetry.deliver_worker(
            0, WorkerTelemetry(events=({"kind": "load"},), dropped=7)
        )
        assert telemetry.total_dropped == 7
        assert telemetry.as_dict()["totals"]["trace_dropped"] == 7


class TestAsDictAndValidate:
    def make_block(self):
        telemetry = ExecTelemetry()
        telemetry.begin(ExecutionPolicy(jobs=2), total_jobs=2)
        for job in (0, 1):
            telemetry.attempt_started(job, 1, lane=job)
            telemetry.attempt_finished(job, 1, "ok")
        return telemetry.as_dict()

    def test_emitted_block_validates(self):
        counts = validate_exec_telemetry(self.make_block())
        assert counts == {
            "jobs": 2, "attempts": 2, "retries": 0, "timeouts": 0, "faults": 0,
        }

    def test_block_is_wall_clock_free_by_default(self):
        assert "timing" not in self.make_block()

    def test_policy_summary_is_embedded(self):
        block = self.make_block()
        assert block["policy"]["jobs"] == 2
        assert block["policy"]["checkpointing"] is False

    def test_wrong_schema_is_rejected(self):
        block = self.make_block()
        block["schema"] = "repro.exec-telemetry/0"
        with pytest.raises(ObsError, match="schema"):
            validate_exec_telemetry(block)

    def test_totals_disagreement_is_rejected(self):
        block = self.make_block()
        block["totals"]["attempts"] = 99
        with pytest.raises(ObsError, match="disagrees"):
            validate_exec_telemetry(block)

    def test_job_count_disagreement_is_rejected(self):
        block = self.make_block()
        block["jobs"]["total"] = 3
        with pytest.raises(ObsError, match="claims"):
            validate_exec_telemetry(block)


class TestRenderExecReport:
    def test_renders_table_totals_and_policy(self):
        telemetry = ExecTelemetry()
        telemetry.begin(ExecutionPolicy(jobs=2), total_jobs=1)
        telemetry.attempt_started(0, 1, lane=0)
        telemetry.attempt_finished(0, 1, "failed")
        telemetry.attempt_started(0, 2, lane=0)
        telemetry.attempt_finished(0, 2, "ok")
        text = render_exec_report(telemetry.as_dict())
        assert "execution telemetry (fleet)" in text
        assert "totals: 2 attempts, 1 retries" in text
        assert "policy:" in text
        assert "wall-clock attribution: not recorded" in text


class TestBuildFleetManifest:
    def test_aggregates_runs_and_embeds_the_exec_block(self):
        telemetry = ExecTelemetry()
        results = []
        for job, value in enumerate((1, 4)):
            telemetry.attempt_started(job, 1, lane=0)
            telemetry.attempt_finished(job, 1, "ok")
            results.append(job_result(load_length=value))
        manifest = build_fleet_manifest(
            results, telemetry=telemetry, labels=[1, 4]
        )
        assert manifest["run"]["runs"] == 2
        exec_block = manifest["exec_telemetry"]
        assert validate_exec_telemetry(exec_block)["jobs"] == 2
        total = sum(r.stats.accesses for r in results)
        assert manifest["stats"]["accesses"] == total
        # A parameter sweep has no single config; the section is
        # omitted rather than lying about one point's values.
        assert "config" not in manifest

    def test_shared_config_is_kept(self):
        results = [
            job_result(scheme="baseline"), job_result(scheme="dfp-stop")
        ]
        manifest = build_fleet_manifest(results)
        assert "config" in manifest
        assert manifest["run"]["scheme"] == "baseline+dfp-stop"

    def test_fleet_manifest_is_deterministic(self):
        def build():
            return json.dumps(
                build_fleet_manifest([job_result(), job_result(load_length=4)]),
                sort_keys=True,
            )

        assert build() == build()

    def test_zero_results_is_an_error(self):
        with pytest.raises(ObsError, match="zero results"):
            build_fleet_manifest([])


def test_schema_constant_matches_the_emitted_block():
    assert ExecTelemetry().as_dict()["schema"] == EXEC_TELEMETRY_SCHEMA
