"""Observation under resilience: passive, exactly-once, truthful.

PR 5's core claim is that attaching execution telemetry to a resilient
run changes nothing about the run itself — results and manifests stay
byte-identical to a blind serial reference even while workers crash
and retry — and that worker telemetry arrives exactly once per job no
matter how many attempts the job burned.
"""

import json
from collections import Counter

import pytest

from repro.core.config import SimConfig
from repro.obs.exec_telemetry import ExecTelemetry, TelemetryConfig
from repro.obs.manifest import build_manifest
from repro.robust import ExecutionPolicy, FaultKind, FaultPlan, RetryPolicy
from repro.sim.parallel import JobSpec, WorkloadSpec, run_jobs

SPEC = WorkloadSpec("microbenchmark", 64)


def make_specs(count=4):
    base = SimConfig.scaled(64)
    return [
        JobSpec(
            workload=SPEC,
            config=base.replace(load_length=value),
            scheme="dfp-stop",
        )
        for value in range(1, count + 1)
    ]


def chaos_policy(jobs=4):
    return ExecutionPolicy(
        jobs=jobs,
        retry=RetryPolicy(max_attempts=3, base_delay=0.01),
        fault_plan=FaultPlan.script(
            {(0, 1): FaultKind.CRASH, (2, 1): FaultKind.CRASH}
        ),
    )


def manifest_bytes(results):
    return [
        json.dumps(build_manifest(r), sort_keys=True, indent=2).encode()
        for r in results
    ]


class TestObservationIsPassive:
    def test_observed_chaotic_run_matches_blind_serial(self):
        specs = make_specs()
        reference = run_jobs(specs)
        telemetry = ExecTelemetry(TelemetryConfig(metrics=True, trace=True))
        observed = run_jobs(
            specs, policy=chaos_policy(), telemetry=telemetry
        )
        assert observed == reference
        assert manifest_bytes(observed) == manifest_bytes(reference)
        assert telemetry.total_retries == 2  # both crashes burned one

    def test_shipped_results_carry_no_telemetry_fields(self):
        # The worker strips metrics/events off the result before the
        # digest; the parent re-attaches nothing — shipped telemetry
        # lives only on the collector.
        telemetry = ExecTelemetry(TelemetryConfig(metrics=True))
        results = run_jobs(
            make_specs(2), policy=ExecutionPolicy(jobs=2), telemetry=telemetry
        )
        assert all(r.metrics is None for r in results)
        assert all(r.events is None for r in results)
        assert telemetry.merged_metrics()  # ...but it did arrive

    def test_collector_without_config_observes_spans_only(self):
        # A bare collector (sweep-progress health counting) narrates
        # the schedule but asks workers for nothing.
        telemetry = ExecTelemetry()
        results = run_jobs(
            make_specs(2), policy=ExecutionPolicy(jobs=2), telemetry=telemetry
        )
        assert len(results) == 2
        assert telemetry.total_attempts == 2
        assert telemetry.worker_for(0) is None
        assert telemetry.merged_metrics() == {}


class TestExactlyOnceDelivery:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_one_payload_per_job_across_retries(self, jobs):
        specs = make_specs()
        telemetry = ExecTelemetry(TelemetryConfig(metrics=True))
        run_jobs(specs, policy=chaos_policy(jobs=jobs), telemetry=telemetry)
        for job in range(len(specs)):
            assert telemetry.deliveries_for(job) == 1
            assert telemetry.worker_for(job) is not None

    def test_merged_metrics_equal_the_sum_of_job_dumps(self):
        specs = make_specs()
        telemetry = ExecTelemetry(TelemetryConfig(metrics=True))
        run_jobs(specs, policy=chaos_policy(), telemetry=telemetry)
        per_job = [
            telemetry.worker_for(job).metrics for job in range(len(specs))
        ]
        merged = telemetry.merged_metrics()
        key = "app.accesses"
        assert merged[key] == sum(dump[key] for dump in per_job)

    def test_retried_attempts_are_tallied_but_not_double_delivered(self):
        telemetry = ExecTelemetry(TelemetryConfig(metrics=True))
        run_jobs(make_specs(), policy=chaos_policy(), telemetry=telemetry)
        block = telemetry.as_dict()
        crashed = {
            entry["job"]: entry
            for entry in block["jobs"]["per_job"]
            if entry["faults"]
        }
        assert set(crashed) == {0, 2}
        for entry in crashed.values():
            assert entry["attempts"] == 2
            assert entry["retries"] == 1
            assert entry["faults"] == {"crash": 1}


class TestOneAttemptLoop:
    def test_serial_and_pool_narrate_one_fault_script_alike(self):
        # jobs=1 and the pool run the same attempt loop, so one fault
        # script gives the same tallies and the same spans, wall-clock
        # stamps and lanes aside, on either executor.
        plan = FaultPlan.script(
            {
                (0, 1): FaultKind.CRASH,
                (1, 1): FaultKind.HANG,
                (2, 1): FaultKind.CORRUPT,
                (3, 1): FaultKind.SUBMIT_ERROR,
            },
            hang_s=5.0,
        )
        blocks, spans = [], []
        for jobs in (1, 2):
            telemetry = ExecTelemetry()
            policy = ExecutionPolicy(
                jobs=jobs,
                retry=RetryPolicy(max_attempts=3),
                timeout=1.0,
                fault_plan=plan,
            )
            run_jobs(make_specs(5), policy=policy, telemetry=telemetry)
            block = telemetry.as_dict()
            del block["policy"]
            blocks.append(block)
            spans.append(
                Counter(
                    (span.kind, span.job, span.attempt, span.outcome)
                    for span in telemetry.spans
                )
            )
        assert blocks[0] == blocks[1]
        assert spans[0] == spans[1]

    def test_in_process_attempt_span_covers_the_run(self):
        # The in-process executor runs the attempt inside submit, so the
        # attempt span must open before it: the run is attempt time,
        # not queue wait.
        telemetry = ExecTelemetry()
        run_jobs(make_specs(1), telemetry=telemetry)
        timing = telemetry.attribution()
        assert timing["run_s"] > timing["queue_wait_s"]
