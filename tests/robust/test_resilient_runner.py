"""The resilient job runner under every injected fault class.

The contract: resilience changes *whether* a result arrives, never
*what* it is.  Every scenario here asserts the faulted run's results
are equal — and, for the acceptance-criteria case, byte-identical at
the manifest level — to the plain serial run of the same jobs.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.core.config import SimConfig
from repro.errors import (
    JobRetriesExhaustedError,
    JobTimeoutError,
    ResultIntegrityError,
)
from repro.obs.manifest import build_manifest
from repro.robust import ExecutionPolicy, FaultKind, FaultPlan, RetryPolicy, sleep
from repro.sim.parallel import JobSpec, WorkloadSpec, run_jobs

WORKLOAD = WorkloadSpec("microbenchmark", 64)
CONFIG = SimConfig.scaled(64)

#: Fast retries for tests: three chances, near-instant backoff.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.001)


def make_specs(n=4):
    schemes = ("baseline", "dfp-stop", "dfp", "baseline")
    return [
        JobSpec(
            workload=WORKLOAD,
            config=CONFIG,
            scheme=schemes[i % len(schemes)],
            seed=i % 2,
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def serial_results():
    return run_jobs(make_specs())


def manifest_bytes(results):
    return [
        json.dumps(build_manifest(r), sort_keys=True).encode()
        for r in results
    ]


def _live_in_session(session):
    """Pids of the session's processes that are not zombies.

    Zombies are skipped: an init process that never reaps its adopted
    children would otherwise keep exited workers listed.
    """
    pids = []
    for entry in sorted(os.listdir("/proc")):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == session and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def _wait_for(condition, timeout=10.0, poll=0.1):
    """Whether ``condition()`` holds within ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() >= deadline:
            return False
        sleep(poll)
    return True


class TestNoFaultEquivalence:
    def test_resilient_parallel_run_is_byte_identical_to_serial(
        self, serial_results
    ):
        # The acceptance criterion: a jobs=4 run with retries, timeout
        # and integrity checking enabled — but no faults injected —
        # produces byte-identical manifests to the plain serial run.
        policy = ExecutionPolicy(jobs=4, retry=FAST_RETRY, timeout=60.0)
        resilient = run_jobs(make_specs(), policy=policy)
        assert manifest_bytes(resilient) == manifest_bytes(serial_results)


class TestCrashFaults:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_crashed_attempt_is_retried_transparently(
        self, jobs, serial_results
    ):
        plan = FaultPlan.script(
            {(0, 1): FaultKind.CRASH, (2, 1): FaultKind.CRASH}
        )
        policy = ExecutionPolicy(jobs=jobs, retry=FAST_RETRY, fault_plan=plan)
        assert run_jobs(make_specs(), policy=policy) == serial_results

    def test_exhausted_attempts_raise_with_attempt_count(self):
        plan = FaultPlan.script(
            {(1, n): FaultKind.CRASH for n in (1, 2, 3)}
        )
        policy = ExecutionPolicy(retry=FAST_RETRY, fault_plan=plan)
        with pytest.raises(JobRetriesExhaustedError) as excinfo:
            run_jobs(make_specs(), policy=policy)
        assert excinfo.value.attempts == 3
        assert "dfp-stop" in excinfo.value.job

    def test_rate_driven_crashes_still_converge(self, serial_results):
        # With a generous attempt budget, even a high crash rate
        # cannot change the results, only the wall-clock.
        plan = FaultPlan(seed=11, crash_rate=0.4)
        policy = ExecutionPolicy(
            jobs=2,
            retry=RetryPolicy(max_attempts=10, base_delay=0.001),
            fault_plan=plan,
        )
        assert run_jobs(make_specs(), policy=policy) == serial_results


class TestHangFaults:
    def test_pool_hang_times_out_and_retries(self, serial_results):
        # The hang outlives the whole sweep: the runner must abandon
        # the attempt, retry it on a free worker, and — because a
        # running attempt cannot be cancelled — release the pool
        # without waiting for the wedged worker.  run_jobs returning
        # well before hang_s elapses proves both.
        plan = FaultPlan.script({(0, 1): FaultKind.HANG}, hang_s=8.0)
        policy = ExecutionPolicy(
            jobs=2, retry=FAST_RETRY, timeout=1.0, fault_plan=plan
        )
        start = time.monotonic()
        assert run_jobs(make_specs(), policy=policy) == serial_results
        assert time.monotonic() - start < plan.hang_s

    def test_wedged_worker_does_not_hold_the_process_exit(self):
        # A worker still wedged when the job loop ends is terminated,
        # so the interpreter's exit, which joins every worker, does not
        # wait out the 60 s hang.
        script = textwrap.dedent(
            """
            import json
            from repro.core.config import SimConfig
            from repro.obs.manifest import build_manifest
            from repro.robust import ExecutionPolicy, FaultKind, FaultPlan, RetryPolicy
            from repro.sim.parallel import JobSpec, WorkloadSpec, run_jobs

            specs = [
                JobSpec(WorkloadSpec("microbenchmark", 64), SimConfig.scaled(64), scheme)
                for scheme in ("baseline", "dfp-stop")
            ]
            plan = FaultPlan.script({(0, 1): FaultKind.HANG}, hang_s=60.0)
            policy = ExecutionPolicy(
                jobs=2,
                retry=RetryPolicy(max_attempts=2, base_delay=0.001),
                timeout=1.0,
                fault_plan=plan,
            )
            results = run_jobs(specs, policy=policy)
            print(json.dumps([build_manifest(r) for r in results], sort_keys=True))
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent))
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            stdout, stderr = child.communicate(timeout=15)
        finally:
            # A child that failed would leave its pool workers behind.
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        assert child.returncode == 0, stderr
        specs = [
            JobSpec(workload=WORKLOAD, config=CONFIG, scheme=scheme)
            for scheme in ("baseline", "dfp-stop")
        ]
        reference = [build_manifest(r) for r in run_jobs(specs)]
        assert stdout.strip() == json.dumps(reference, sort_keys=True)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
    def test_workers_exit_when_their_runner_is_killed(self):
        # A runner killed by a signal never shuts its pool down; its
        # workers, idle or in a 20 s hang, must still exit soon after
        # it instead of living on.
        script = textwrap.dedent(
            """
            from repro.core.config import SimConfig
            from repro.robust import ExecutionPolicy, FaultKind, FaultPlan
            from repro.sim.parallel import JobSpec, WorkloadSpec, run_jobs

            specs = [
                JobSpec(WorkloadSpec("microbenchmark", 64), SimConfig.scaled(64), scheme)
                for scheme in ("baseline", "dfp-stop")
            ]
            plan = FaultPlan.script(
                {(0, 1): FaultKind.HANG, (1, 1): FaultKind.HANG}, hang_s=20.0
            )
            run_jobs(specs, policy=ExecutionPolicy(jobs=2, timeout=60.0, fault_plan=plan))
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent))
        runner = subprocess.Popen(
            [sys.executable, "-c", script], env=env, start_new_session=True
        )
        try:
            assert _wait_for(lambda: len(_live_in_session(runner.pid)) == 3)
            runner.kill()
            runner.wait(timeout=10)
            assert _wait_for(lambda: not _live_in_session(runner.pid)), (
                _live_in_session(runner.pid)
            )
        finally:
            try:
                os.killpg(runner.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            runner.wait(timeout=10)

    def test_queued_jobs_do_not_expire_while_waiting_for_a_worker(self):
        # The timeout is a budget on the attempt, not on queue wait:
        # with both workers hung longer than the timeout, the jobs
        # queued behind them must not have their deadlines running —
        # one attempt budget each is enough once the workers free up.
        specs = make_specs(8)
        plan = FaultPlan.script(
            {(0, 1): FaultKind.HANG, (1, 1): FaultKind.HANG}, hang_s=3.0
        )
        policy = ExecutionPolicy(
            jobs=2,
            retry=RetryPolicy(max_attempts=2, base_delay=0.001),
            timeout=1.0,
            fault_plan=plan,
        )
        assert run_jobs(specs, policy=policy) == run_jobs(specs)

    def test_serial_hang_converts_synchronously(self, serial_results):
        # Serially there is no second process to sleep in; the runner
        # converts the injected hang straight into a timeout failure
        # instead of actually stalling for hang_s.
        plan = FaultPlan.script({(0, 1): FaultKind.HANG}, hang_s=300.0)
        policy = ExecutionPolicy(
            retry=FAST_RETRY, timeout=0.5, fault_plan=plan
        )
        assert run_jobs(make_specs(), policy=policy) == serial_results

    def test_hang_without_retries_is_a_timeout_failure(self):
        plan = FaultPlan.script({(0, 1): FaultKind.HANG}, hang_s=300.0)
        policy = ExecutionPolicy(timeout=0.5, fault_plan=plan)
        with pytest.raises(JobRetriesExhaustedError) as excinfo:
            run_jobs(make_specs(1), policy=policy)
        assert isinstance(excinfo.value.__cause__, JobTimeoutError)


class TestCorruptionFaults:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_corrupted_result_is_rejected_and_retried(
        self, jobs, serial_results
    ):
        plan = FaultPlan.script({(3, 1): FaultKind.CORRUPT})
        policy = ExecutionPolicy(jobs=jobs, retry=FAST_RETRY, fault_plan=plan)
        assert run_jobs(make_specs(), policy=policy) == serial_results

    def test_corruption_without_retries_is_an_integrity_failure(self):
        plan = FaultPlan.script({(0, 1): FaultKind.CORRUPT})
        policy = ExecutionPolicy(jobs=2, fault_plan=plan)
        with pytest.raises(JobRetriesExhaustedError) as excinfo:
            run_jobs(make_specs(2), policy=policy)
        assert isinstance(excinfo.value.__cause__, ResultIntegrityError)
        assert "digest" in str(excinfo.value.__cause__)


class TestSubmissionFaults:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_submission_error_is_absorbed(
        self, jobs, serial_results
    ):
        # A submission that never happened must not burn the job's
        # attempt budget: no retries are configured here, yet the run
        # completes because the dispatch itself is retried.
        plan = FaultPlan.script({(1, 1): FaultKind.SUBMIT_ERROR})
        policy = ExecutionPolicy(jobs=jobs, fault_plan=plan)
        assert run_jobs(make_specs(), policy=policy) == serial_results

    def test_a_jobs_own_oserror_is_a_bounded_job_failure(self, monkeypatch):
        # Only a failed dispatch is retried outside the attempt budget;
        # an OSError out of the simulation itself is a job failure.
        calls = []

        def failing_run_job(spec, **kwargs):
            calls.append(spec)
            raise OSError("simulated I/O failure inside the job")

        monkeypatch.setattr("repro.sim.parallel.run_job", failing_run_job)
        policy = ExecutionPolicy(retry=RetryPolicy(max_attempts=2))
        with pytest.raises(JobRetriesExhaustedError) as excinfo:
            run_jobs(make_specs(1), policy=policy)
        assert excinfo.value.attempts == 2
        assert len(calls) == 2
        chain = []
        cause = excinfo.value.__cause__
        while cause is not None:
            chain.append(cause)
            cause = cause.__cause__
        assert any(isinstance(error, OSError) for error in chain)


class TestPoolBreak:
    def test_dead_pool_degrades_to_serial_and_completes(
        self, serial_results
    ):
        # The injected os._exit kills a worker hard enough to break
        # the whole pool; the runner must finish the remaining jobs
        # serially in-process, with identical results.
        plan = FaultPlan.script({(1, 1): FaultKind.POOL_BREAK})
        policy = ExecutionPolicy(jobs=2, retry=FAST_RETRY, fault_plan=plan)
        assert run_jobs(make_specs(), policy=policy) == serial_results


class TestCallbackFailures:
    """A failing on_result callback is the caller's bug, not the job's.

    It must propagate to the run_jobs caller — in particular a real
    OSError (e.g. BrokenPipeError from a progress pipe) must never be
    mistaken for the injected transient dispatch fault and absorbed in
    an unbounded retry loop, nor burn the job's attempt budget.
    """

    @staticmethod
    def _boom(seen):
        def on_result(index, spec):
            seen.append(index)
            raise BrokenPipeError("downstream progress pipe closed")

        return on_result

    def test_serial_callback_oserror_propagates_without_retry(self):
        seen = []
        policy = ExecutionPolicy(retry=FAST_RETRY)
        with pytest.raises(BrokenPipeError):
            run_jobs(make_specs(2), policy=policy, on_result=self._boom(seen))
        # Fired once for the job that completed; the failure was not
        # retried into re-running the simulation or exhaustion.
        assert seen == [0]

    def test_pool_callback_oserror_propagates(self):
        seen = []
        policy = ExecutionPolicy(jobs=2, retry=FAST_RETRY)
        with pytest.raises(BrokenPipeError):
            run_jobs(make_specs(4), policy=policy, on_result=self._boom(seen))
        assert len(seen) == 1


class TestDeliveryGuarantees:
    def test_on_result_fires_exactly_once_despite_retries(self):
        plan = FaultPlan.script(
            {(0, 1): FaultKind.CRASH, (1, 1): FaultKind.CORRUPT}
        )
        policy = ExecutionPolicy(jobs=2, retry=FAST_RETRY, fault_plan=plan)
        seen = []
        run_jobs(
            make_specs(3), policy=policy, on_result=lambda i, s: seen.append(i)
        )
        assert sorted(seen) == [0, 1, 2]
