"""Parallel experiment execution: the resilient job runner.

Every figure of the evaluation is an embarrassingly parallel set of
independent simulations — same code, different ``(workload, config,
scheme, seed)`` coordinates — so the experiment drivers
(:mod:`repro.sim.sweep`) fan their points out over a
``ProcessPoolExecutor`` here instead of running them one at a time.

Properties the drivers rely on:

* **Determinism** — a job is a picklable :class:`JobSpec` naming a
  *registry* workload (name + scale), never a live generator; the
  worker rebuilds the workload from the registry, so a job's result is
  a function of the spec alone and ``jobs=N`` reproduces ``jobs=1``
  byte for byte (proved by ``tests/sim/test_parallel.py`` against the
  serial run's manifests).  Retries re-run the same pure function, so
  resilience never changes a result, only whether one arrives.
* **Order** — results come back in submission order no matter which
  worker finished first.
* **Failure attribution** — a job that fails its whole attempt budget
  raises a typed :class:`~repro.errors.JobRetriesExhaustedError`
  naming the job and the attempt count, with the last attempt's
  failure chained.
* **Resilience** (:mod:`repro.robust`, configured through one
  :class:`~repro.robust.ExecutionPolicy`): failed attempts are retried
  with exponential backoff; attempts exceeding the per-job timeout —
  measured from when the attempt starts executing (submission is
  throttled to free workers), so a job queued behind busy workers does
  not burn its budget waiting for a slot — are abandoned
  (:class:`~repro.errors.JobTimeoutError`) and retried, a worker
  still wedged on an abandoned attempt when the sweep finishes is
  terminated rather than waited for, and a worker whose runner's
  process dies exits too;
  every result must pass a replayed-manifest digest check before
  it is accepted (:class:`~repro.errors.ResultIntegrityError`
  otherwise); completed runs are checkpointed and resumable; and if
  the pool itself dies (``BrokenProcessPool``) the runner degrades
  gracefully to in-process execution of the unfinished jobs.
  A deterministic :class:`~repro.robust.FaultPlan` can inject each of
  these failure modes on schedule, which is how the machinery is
  tested without real flakiness.
* **One attempt loop** — ``jobs=1``, the pool and the degradation
  after a pool break run the same loop; only its executor differs.
  In-process runs use a one-slot executor whose ``submit`` runs the
  attempt at once and returns a finished future, so an in-process
  attempt is retried, timed out, checked and narrated exactly like a
  pool one.

Workers run blind by default, but an observed run is one kwarg away:
``run_jobs(..., telemetry=ExecTelemetry(TelemetryConfig(...)))`` ships
a picklable :class:`~repro.obs.exec_telemetry.TelemetryConfig` with
every submission, each worker runs its job under a private metrics
registry and/or bounded event ring, and the dumps come back as a
:class:`~repro.obs.exec_telemetry.WorkerTelemetry` payload beside the
result.  Passivity survives the process boundary: the worker strips
the dumps off the :class:`~repro.sim.results.RunResult` *before*
computing the integrity digest, so results, digests and checkpoint
records are byte-identical to a blind run, and the parent merges
payloads deterministically in submission order.  The runner also
narrates its own schedule (queue waits, attempts, backoffs, timeout
abandons, injected faults, checkpoint I/O) into the same collector as
typed execution spans — emitted only through the
:mod:`repro.obs.exec_telemetry` API (lint rule RL009), never as
ad-hoc event dicts.

This module is the single place in the tree allowed to touch
``concurrent.futures``/``multiprocessing`` (lint rule RL007): pool
sizing, submission order, failure wrapping and timeout bookkeeping
must stay in one spot for the determinism guarantee to be auditable.
"""

from __future__ import annotations

import collections
import dataclasses
import multiprocessing  # repro-lint: disable=RL007  the sanctioned home
import os
import threading
import time
from concurrent import futures  # repro-lint: disable=RL007  the sanctioned home
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import SimConfig
from repro.core.instrumentation import SipPlan
from repro.errors import (
    JobRetriesExhaustedError,
    JobTimeoutError,
    ParallelExecutionError,
    ResultIntegrityError,
)
from repro.obs.exec_telemetry import (
    ExecTelemetry,
    TelemetryConfig,
    WorkerTelemetry,
)
from repro.robust import (
    CheckpointStore,
    ExecutionPolicy,
    FaultKind,
    FaultPlan,
    checkpoint_key,
    perform_worker_fault,
)
from repro.sim.results import RunResult
from repro.workloads.base import Workload

__all__ = ["WorkloadSpec", "JobSpec", "run_job", "run_jobs"]

#: Parent-side retry budget for transient submission errors — a fixed
#: small allowance, independent of the per-job attempt budget (a
#: submission that never happened should not burn the job's attempts).
_SUBMIT_TRIES = 3


@dataclass(frozen=True)
class WorkloadSpec:
    """A picklable recipe for a registry workload.

    Live :class:`~repro.workloads.base.Workload` objects hold phase
    closures and cannot cross a process boundary; a spec carries only
    the registry name and build scale and is rebuilt on the far side
    with :func:`repro.workloads.registry.build_workload` — which is
    also why parallel drivers require a spec where serial ones accept
    a factory.
    """

    name: str
    scale: int = 1

    def build(self) -> Workload:
        """Construct the workload this spec names."""
        from repro.workloads.registry import build_workload

        return build_workload(self.name, scale=self.scale)


@dataclass(frozen=True)
class JobSpec:
    """One simulation job: everything a worker needs, nothing live.

    All fields are picklable values; compiled SIP plans ride along so
    workers never re-run the profiler (plan compilation is memoized
    once, in the parent — see :func:`repro.sim.sweep.sweep_config`).
    """

    workload: WorkloadSpec
    config: SimConfig
    scheme: str
    seed: int = 0
    input_set: str = "ref"
    sip_plan: Optional[SipPlan] = field(default=None, compare=False)
    max_accesses: Optional[int] = None

    def describe(self) -> str:
        """Short identity string used in progress and error messages."""
        return (
            f"{self.workload.name}@x{self.workload.scale}"
            f"/{self.scheme}/seed={self.seed}/{self.input_set}"
        )

    def checkpoint_key(self) -> str:
        """Content address of this job for the checkpoint store.

        Digests every run-defining coordinate, including the full
        configuration snapshot — change any knob and the address
        moves, so a resume can never serve a stale record.  The SIP
        plan is excluded: it is a deterministic compile-time artifact
        of coordinates already in the key.
        """
        return checkpoint_key(
            {
                "workload": {
                    "name": self.workload.name,
                    "scale": self.workload.scale,
                },
                "scheme": self.scheme,
                "seed": self.seed,
                "input_set": self.input_set,
                "max_accesses": self.max_accesses,
                "config": dataclasses.asdict(self.config),
            }
        )


def run_job(spec: JobSpec, *, metrics=None, tracer=None) -> RunResult:
    """Execute one job in the current process.

    Every attempt, in a pool worker or in-process, runs through here.
    The workload's trace is served from this process's shared
    materialization cache, so a worker running several schemes of the
    same point walks the generator once.  ``metrics``/``tracer`` are
    the engine's passive observers
    (:class:`~repro.obs.metrics.MetricsRegistry`,
    :class:`~repro.obs.trace.TraceSink`); attaching them changes no
    result byte.
    """
    from repro.sim.engine import simulate
    from repro.sim.tracecache import shared_trace_cache

    workload = spec.workload.build()
    trace = shared_trace_cache().get(
        workload, seed=spec.seed, input_set=spec.input_set
    )
    return simulate(
        workload,
        spec.config,
        spec.scheme,
        seed=spec.seed,
        input_set=spec.input_set,
        sip_plan=spec.sip_plan,
        trace=trace,
        max_accesses=spec.max_accesses,
        metrics=metrics,
        tracer=tracer,
    )


@dataclass(frozen=True)
class _Envelope:
    """A worker's result plus the integrity digest it computed at source.

    ``telemetry`` rides along *outside* the digest: the worker strips
    the observability dumps off the result before digesting, so an
    observed result's digest (and any checkpoint record built from it)
    is byte-identical to a blind run's.
    """

    result: RunResult
    digest: str
    telemetry: Optional[WorkerTelemetry] = None


def _enveloped_run(
    spec: JobSpec,
    plan: Optional[FaultPlan],
    job_index: int,
    attempt: int,
    *,
    in_worker: bool,
    obs: Optional[TelemetryConfig] = None,
) -> _Envelope:
    """Run one job attempt and wrap its result with a source digest.

    Fault injection happens here, on both sides of the process
    boundary: worker-side faults fire before the simulation, and
    result corruption is applied *after* the digest was computed —
    exactly the corrupted-in-transit scenario the integrity check
    exists to catch.

    With an enabled ``obs`` config the job runs under a private
    metrics registry / bounded event ring; the dumps are detached from
    the result (and so excluded from the digest) and shipped as a
    :class:`~repro.obs.exec_telemetry.WorkerTelemetry` payload.
    """
    from repro.obs.manifest import build_manifest, manifest_digest

    fault = plan.fault_for(job_index, attempt) if plan is not None else None
    if fault is not None:
        perform_worker_fault(
            fault,
            in_worker=in_worker,
            hang_s=plan.hang_s if plan is not None else 0.5,
        )
    registry = sink = None
    if obs is not None and obs.enabled:
        if obs.metrics:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
        if obs.trace:
            from repro.obs.trace import RingBufferSink

            sink = RingBufferSink(obs.trace_capacity)
        if registry is not None and sink is not None:
            from repro.obs.trace import register_sink_metrics

            register_sink_metrics(registry, sink)
    result = run_job(spec, metrics=registry, tracer=sink)
    telemetry: Optional[WorkerTelemetry] = None
    if registry is not None or sink is not None:
        from repro.obs.trace import event_to_dict

        telemetry = WorkerTelemetry(
            metrics=result.metrics,
            events=(
                tuple(event_to_dict(event) for event in sink.events)
                if sink is not None
                else ()
            ),
            dropped=sink.dropped if sink is not None else 0,
        )
        # Strip the observability payload before digesting: passivity
        # means the observed result — and therefore its digest and any
        # checkpoint record — must be the blind run's bytes.
        result = dataclasses.replace(result, metrics=None, events=None)
    digest = manifest_digest(build_manifest(result))
    if fault is FaultKind.CORRUPT:
        result = dataclasses.replace(
            result, total_cycles=result.total_cycles + 1
        )
    return _Envelope(result=result, digest=digest, telemetry=telemetry)


def _exit_with_parent() -> None:
    """Pool-worker initializer: end the worker when its runner's process ends.

    A runner killed by a signal never shuts its pool down, and a worker
    idle on its call queue would then wait for good.  A daemon thread
    joins the parent process and exits the worker once it is gone.
    """
    parent = multiprocessing.parent_process()

    def watch() -> None:
        parent.join()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _warm_trace_cache(specs: Sequence[JobSpec]) -> None:
    """Materialize each distinct trace in the parent before forking.

    With the ``fork`` start method the pool's workers inherit the
    parent's populated :func:`~repro.sim.tracecache.shared_trace_cache`
    copy-on-write, so N workers replay traces the parent walked once
    instead of each re-walking the generator.  Under ``spawn``/
    ``forkserver`` nothing is inherited, so the warm-up would be pure
    extra parent work and is skipped.
    """
    if multiprocessing.get_start_method() != "fork":
        return
    from repro.sim.tracecache import shared_trace_cache

    cache = shared_trace_cache()
    seen: set[Tuple[WorkloadSpec, int, str]] = set()
    for spec in specs:
        identity = (spec.workload, spec.seed, spec.input_set)
        if identity in seen:
            continue
        seen.add(identity)
        try:
            cache.get(
                spec.workload.build(), seed=spec.seed, input_set=spec.input_set
            )
        except Exception:
            # Warm-up is best-effort: a spec that cannot build fails
            # again in its worker, where the failure is wrapped and
            # attributed through the one sanctioned error path.
            continue


class _InlineExecutor(futures.Executor):
    """A one-slot executor that runs each attempt inside ``submit``.

    The attempt's result or exception lands on an already finished
    future, so the attempt loop handles an in-process attempt exactly
    as it handles a pool one.  ``submit`` never raises the job's own
    exception, which keeps a simulation ``OSError`` out of the
    dispatch-error handling; the inherited ``shutdown`` has nothing to
    release.
    """

    def submit(self, fn, /, *args, **kwargs) -> "futures.Future":
        future: "futures.Future" = futures.Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


class _JobRunner:
    """One ``run_jobs`` invocation's execution state.

    Owns the slots (submission-order results), the delivered set (the
    exactly-once ``on_result`` guard — a job that succeeds on a retry
    must not fire twice, even if an abandoned earlier attempt
    straggles in), the checkpoint store, and the retry bookkeeping.
    """

    def __init__(
        self,
        specs: List[JobSpec],
        policy: ExecutionPolicy,
        on_result: Optional[Callable[[int, JobSpec], None]],
        telemetry: Optional[ExecTelemetry] = None,
    ) -> None:
        self.specs = specs
        self.policy = policy
        self.on_result = on_result
        #: Span/tally collector.  A private throwaway one keeps every
        #: narration site unconditional; workers are asked to observe
        #: only when the *caller's* collector requests it.
        self.telemetry = telemetry if telemetry is not None else ExecTelemetry()
        self.worker_obs: Optional[TelemetryConfig] = (
            self.telemetry.config
            if telemetry is not None and self.telemetry.config.enabled
            else None
        )
        #: Worker-lane assignment per in-flight future (Chrome tracks).
        self._lane: Dict["futures.Future", int] = {}
        self.slots: List[Optional[RunResult]] = [None] * len(specs)
        self.delivered: Set[int] = set()
        self.store = (
            CheckpointStore(policy.checkpoint_dir)
            if policy.checkpoint_dir is not None
            else None
        )
        self.plan = policy.fault_plan
        self.retry = policy.retry
        self.timeout = policy.timeout
        #: Timed-out futures whose attempt was already executing when
        #: abandoned — ``cancel()`` cannot stop them, and a genuinely
        #: wedged one must not be waited for at pool shutdown.
        self.abandoned: List["futures.Future"] = []

    # -- delivery ----------------------------------------------------

    def _accept(
        self,
        index: int,
        result: RunResult,
        worker: Optional[WorkerTelemetry] = None,
    ) -> None:
        """Record a finished job: slot, checkpoint, one on_result.

        The delivered-set guard also bounds telemetry delivery: a
        straggling result of an abandoned attempt never merges its
        shipped metrics/events, so observed runs are exactly-once in
        the same sense results are.
        """
        if index in self.delivered:
            return
        self.slots[index] = result
        self.delivered.add(index)
        if worker is not None:
            self.telemetry.deliver_worker(index, worker)
        if self.store is not None:
            from repro.obs.manifest import build_manifest

            self.store.store(
                self.specs[index].checkpoint_key(), build_manifest(result)
            )
            self.telemetry.checkpoint_written(index)
        if self.on_result is not None:
            self.on_result(index, self.specs[index])

    def _verify(self, index: int, envelope: _Envelope) -> RunResult:
        """Replay the manifest digest; reject a corrupted result."""
        from repro.obs.manifest import build_manifest, manifest_digest

        replayed = manifest_digest(build_manifest(envelope.result))
        if replayed != envelope.digest:
            raise ResultIntegrityError(
                f"job {self.specs[index].describe()} returned a result whose "
                f"replayed manifest digest {replayed} does not match the "
                f"digest computed at source {envelope.digest}",
                job=self.specs[index].describe(),
            )
        return envelope.result

    def _restore_from_checkpoints(self) -> None:
        """Fill slots from the checkpoint store before executing."""
        if self.store is None or not self.policy.resume:
            return
        from repro.obs.manifest import result_from_manifest

        for index, spec in enumerate(self.specs):
            record = self.store.load(spec.checkpoint_key())
            if record is None:
                continue
            result = result_from_manifest(record)
            # The key is a content address of the coordinates, but a
            # hand-edited record could still disagree with its name.
            if (
                result.workload != spec.workload.name
                or result.scheme != spec.scheme
                or result.seed != spec.seed
                or result.input_set != spec.input_set
            ):
                from repro.errors import CheckpointError

                raise CheckpointError(
                    f"checkpoint record for {spec.describe()} records a "
                    f"different run ({result.workload}/{result.scheme}/"
                    f"seed={result.seed}/{result.input_set})"
                )
            self.telemetry.resume_hit(index)
            self._accept(index, result)

    def _pending_indices(self) -> List[int]:
        return [i for i in range(len(self.specs)) if i not in self.delivered]

    # -- the attempt loop --------------------------------------------

    def _submit(
        self,
        executor: "futures.Executor",
        index: int,
        attempt: int,
        fault: Optional[FaultKind],
    ) -> "futures.Future":
        """Submit one attempt, absorbing transient submission errors.

        An injected :attr:`~repro.robust.FaultKind.SUBMIT_ERROR` fails
        the first try.  Neither executor raises a job's own exception
        from ``submit``, so an ``OSError`` caught here is always a
        dispatch failure, never a simulation's.
        """
        for submit_try in range(1, _SUBMIT_TRIES + 1):
            try:
                if submit_try == 1 and fault is FaultKind.SUBMIT_ERROR:
                    raise OSError("injected transient submission failure")
                return executor.submit(
                    _enveloped_run,
                    self.specs[index],
                    self.plan,
                    index,
                    attempt,
                    in_worker=not isinstance(executor, _InlineExecutor),
                    obs=self.worker_obs,
                )
            except OSError as exc:
                if submit_try >= _SUBMIT_TRIES:
                    raise ParallelExecutionError(
                        f"could not submit job "
                        f"{self.specs[index].describe()} after "
                        f"{_SUBMIT_TRIES} tries: {exc}",
                        job=self.specs[index].describe(),
                        attempts=attempt,
                    ) from exc
                self.retry.backoff(submit_try)
        raise AssertionError("unreachable")

    def _run(self, executor: "futures.Executor") -> None:
        """Run every pending job on ``executor``: retries, timeouts, integrity.

        Attempts wait in a parent-side ``queue`` and are submitted to
        the executor only while a slot is free (workers wedged on
        abandoned attempts count as occupied), so a submitted attempt
        starts executing immediately and its wall-clock deadline —
        armed at submission — is a budget on the attempt itself.  A
        job queued behind busy workers accrues nothing while it waits
        for a slot.  A retry goes to the head of the queue, so on the
        one-slot in-process executor a job's retries run before the
        next job starts.

        ``pending`` maps each in-flight future to its job index,
        attempt number and deadline.  Abandoned (timed-out) futures
        are dropped from ``pending`` and never consulted again; their
        workers finish the stale attempt eventually and the
        exactly-once guard in :meth:`_accept` discards whatever they
        produce.  If such a worker is still wedged when the job loop
        finishes, the pool is shut down without waiting for it and its
        workers are then terminated — ``cancel()`` cannot stop a
        running attempt, and blocking ``run_jobs``, or the
        interpreter's exit, which joins every worker, on a hung
        process would re-create the very failure the timeout recovered
        from.  While the loop runs, a wedged worker still occupies its
        slot: if every worker wedges for good, the remaining jobs can
        never be scheduled — finite hangs recover, permanent ones are
        documented as unrecoverable.
        """
        pending: Dict["futures.Future", Tuple[int, int, Optional[float]]] = {}
        try:
            indices = self._pending_indices()
            queue: Deque[Tuple[int, int]] = collections.deque(
                (index, 1) for index in indices
            )
            for index in indices:
                self.telemetry.job_enqueued(index, 1)
            self._fill(executor, pending, queue)
            while pending or queue:
                if not pending:
                    # Every worker is wedged on an abandoned attempt;
                    # the only way forward is one of them finishing
                    # its stale work.
                    self._await_wedged()
                    self._fill(executor, pending, queue)
                    continue
                for future in self._wait(pending):
                    index, attempt, _ = pending.pop(future)
                    self._handle_completed(queue, future, index, attempt)
                self._expire_deadlines(pending, queue)
                self._fill(executor, pending, queue)
        except BaseException:
            for future in pending:
                future.cancel()
            raise
        finally:
            # Wait only if no abandoned attempt is still running in a
            # worker; a wedged worker would block shutdown(True)
            # forever and run_jobs with it.  ``shutdown`` drops the
            # pool's process handles, so they are taken first.
            wedged = any(not future.done() for future in self.abandoned)
            workers = list(executor._processes.values()) if wedged else []
            executor.shutdown(wait=not wedged, cancel_futures=True)
            for worker in workers:
                worker.terminate()

    def _capacity(self, width: int, pending: Dict) -> int:
        """Free slots: executor width minus in-flight and wedged."""
        wedged = sum(1 for future in self.abandoned if not future.done())
        return width - len(pending) - wedged

    def _free_lane(self, pending: Dict) -> int:
        """Lowest worker lane not occupied by an in-flight or wedged attempt.

        Lanes are a parent-side fiction for the Chrome trace (one track
        per concurrently-occupied slot, not per OS process), but they
        obey the same occupancy rule as :meth:`_capacity`: a worker
        wedged on an abandoned attempt keeps its lane until it finishes.
        """
        occupied = {
            self._lane[future] for future in pending if future in self._lane
        }
        occupied.update(
            self._lane[future]
            for future in self.abandoned
            if not future.done() and future in self._lane
        )
        lane = 0
        while lane in occupied:
            lane += 1
        return lane

    def _fill(
        self,
        executor: "futures.Executor",
        pending: Dict["futures.Future", Tuple[int, int, Optional[float]]],
        queue: Deque[Tuple[int, int]],
    ) -> None:
        """Start queued attempts while the executor has free slots.

        The attempt span opens before ``submit``, because the
        in-process executor runs the whole attempt inside it.
        """
        inline = isinstance(executor, _InlineExecutor)
        width = 1 if inline else self.policy.jobs
        while queue and self._capacity(width, pending) > 0:
            index, attempt = queue.popleft()
            fault = (
                self.plan.fault_for(index, attempt)
                if self.plan is not None
                else None
            )
            if fault is not None:
                self.telemetry.fault_injected(index, attempt, fault)
            lane = self._free_lane(pending)
            self.telemetry.attempt_started(index, attempt, lane)
            if inline and fault is FaultKind.HANG and self.timeout is not None:
                # Sleeping out a hang in the only process there is
                # would turn a simulated hang into a real one: a future
                # that never runs, due now, times out on the pool's path.
                future: "futures.Future" = futures.Future()
                deadline: Optional[float] = time.monotonic()
            else:
                future = self._submit(executor, index, attempt, fault)
                deadline = self._deadline()
            self._lane[future] = lane
            pending[future] = (index, attempt, deadline)

    def _deadline(self) -> Optional[float]:
        return (
            time.monotonic() + self.timeout
            if self.timeout is not None
            else None
        )

    def _await_wedged(self) -> None:
        """Block until a worker wedged on an abandoned attempt frees up.

        Reached only when every slot is lost to abandoned attempts and
        jobs are still queued.  A finite hang ends here; a permanent
        hang on every worker cannot be recovered from (there is nowhere
        left to run anything) and blocks until the process dies.
        """
        stuck = [future for future in self.abandoned if not future.done()]
        futures.wait(stuck, return_when=futures.FIRST_COMPLETED)

    def _wait(
        self, pending: Dict["futures.Future", Tuple[int, int, Optional[float]]]
    ) -> List["futures.Future"]:
        """Wait for at least one completion or the nearest deadline."""
        wait_s: Optional[float] = None
        if self.timeout is not None:
            nearest = min(deadline for _, _, deadline in pending.values())
            wait_s = max(0.0, nearest - time.monotonic())
        done, _ = futures.wait(
            set(pending),
            timeout=wait_s,
            return_when=futures.FIRST_COMPLETED,
        )
        return list(done)

    def _handle_completed(
        self,
        queue: Deque[Tuple[int, int]],
        future: "futures.Future",
        index: int,
        attempt: int,
    ) -> None:
        spec = self.specs[index]
        try:
            envelope = future.result()
            result = self._verify(index, envelope)
        except futures.BrokenExecutor:
            raise
        except ResultIntegrityError as exc:
            last: BaseException = exc
        except Exception as exc:
            last = ParallelExecutionError(
                f"job {spec.describe()} failed: {exc}",
                job=spec.describe(),
                attempts=attempt,
            )
            last.__cause__ = exc
        else:
            # Delivery sits outside the try: an on_result failure must
            # propagate, not be wrapped as a job failure and retried
            # (the job itself already succeeded).
            self.telemetry.attempt_finished(index, attempt, "ok")
            self._accept(index, result, worker=envelope.telemetry)
            return
        self.telemetry.attempt_finished(
            index, attempt, "failed", detail=str(last)
        )
        self._retry_or_raise(queue, index, attempt, last)

    def _expire_deadlines(
        self,
        pending: Dict["futures.Future", Tuple[int, int, Optional[float]]],
        queue: Deque[Tuple[int, int]],
    ) -> None:
        if self.timeout is None:
            return
        now = time.monotonic()
        expired = [
            (future, index, attempt)
            for future, (index, attempt, deadline) in pending.items()
            if deadline is not None and deadline <= now
        ]
        for future, index, attempt in expired:
            if not future.cancel():
                # Already executing: the worker cannot be stopped, only
                # abandoned.  Remember the future so its slot counts as
                # occupied and pool shutdown does not wait on a worker
                # that may be wedged forever.
                self.abandoned.append(future)
            del pending[future]
            self.telemetry.attempt_abandoned(
                index, attempt, detail=f"exceeded {self.timeout}s deadline"
            )
            timeout_error = JobTimeoutError(
                f"job {self.specs[index].describe()} exceeded its "
                f"{self.timeout}s timeout on attempt {attempt}",
                job=self.specs[index].describe(),
                attempts=attempt,
            )
            self._retry_or_raise(queue, index, attempt, timeout_error)

    def _retry_or_raise(
        self,
        queue: Deque[Tuple[int, int]],
        index: int,
        attempt: int,
        cause: BaseException,
    ) -> None:
        """Queue the next attempt at the head, or raise once out of budget."""
        if attempt >= self.retry.max_attempts:
            spec = self.specs[index]
            raise JobRetriesExhaustedError(
                f"job {spec.describe()} failed on all {attempt} attempt(s); "
                f"last failure: {cause}",
                job=spec.describe(),
                attempts=attempt,
            ) from cause
        self.telemetry.backoff(index, attempt, self.retry.delay_for(attempt))
        self.retry.backoff(attempt)
        queue.appendleft((index, attempt + 1))
        self.telemetry.job_enqueued(index, attempt + 1)

    # -- entry point -------------------------------------------------

    def run(self) -> List[RunResult]:
        self.telemetry.begin(self.policy, len(self.specs))
        self._restore_from_checkpoints()
        remaining = self._pending_indices()
        executor: "futures.Executor" = _InlineExecutor()
        if self.policy.jobs > 1 and len(remaining) > 1:
            _warm_trace_cache([self.specs[i] for i in remaining])
            executor = futures.ProcessPoolExecutor(
                max_workers=self.policy.jobs, initializer=_exit_with_parent
            )
        try:
            self._run(executor)
        except futures.BrokenExecutor:
            # The pool died under us (worker killed hard, fork bomb,
            # OOM...).  The experiment is still perfectly computable —
            # degrade to in-process execution of whatever has not
            # finished yet.
            self.telemetry.degraded()
            self._run(_InlineExecutor())
        assert all(result is not None for result in self.slots)
        return self.slots  # type: ignore[return-value]


def run_jobs(
    specs: Sequence[JobSpec],
    *,
    policy: Optional[ExecutionPolicy] = None,
    on_result: Optional[Callable[[int, JobSpec], None]] = None,
    telemetry: Optional[ExecTelemetry] = None,
) -> List[RunResult]:
    """Run every job under ``policy``; return results in submission order.

    ``policy`` (an :class:`~repro.robust.ExecutionPolicy`) is the
    single execution-configuration path: worker count, retry/backoff,
    per-job timeout, checkpoint/resume, and fault injection.  The
    default policy runs everything serially in-process with no pool at
    all, which is both the fallback and the reference the determinism
    suite compares against.

    ``telemetry`` (an :class:`~repro.obs.exec_telemetry.ExecTelemetry`)
    turns the run into an observed one: the runner narrates execution
    spans and tallies into it, and — when its config enables worker
    observation — every job runs under a private metrics registry /
    event ring whose dumps are shipped back and merged
    deterministically.  Results are byte-identical either way
    (passivity); ``None`` keeps workers fully blind.

    ``on_result`` fires **exactly once** per finished job — in
    *completion* order, with the job's submission index — including
    jobs restored from checkpoints (they complete instantly).  A job
    that only succeeds on a retry still fires exactly once; straggling
    results of abandoned timed-out attempts are discarded.

    A job that fails its whole attempt budget raises
    :class:`~repro.errors.JobRetriesExhaustedError` naming it and the
    attempt count; remaining jobs are cancelled where possible
    (results of jobs that already finished are discarded — a sweep
    with a poisoned point has no meaningful partial answer, though
    with checkpointing on, their records survive for a resume).
    """
    policy = policy if policy is not None else ExecutionPolicy()
    return _JobRunner(list(specs), policy, on_result, telemetry).run()
