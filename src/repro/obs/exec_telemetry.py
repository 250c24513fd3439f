"""Execution telemetry: observing the resilient job runner itself.

PR 2 made single runs observable (metrics, traces, manifests) and PR 4
made figure-scale sweeps resilient (retries, timeouts, checkpoints) —
but the two never composed: resilient jobs ran blind, so the exact
runs the paper's figures depend on were the ones that could not be
observed.  This module closes that gap on both axes:

* **worker-shipped telemetry** — a picklable :class:`TelemetryConfig`
  tells each worker to run its job under a private
  :class:`~repro.obs.metrics.MetricsRegistry` and/or a bounded
  :class:`~repro.obs.trace.RingBufferSink`.  The worker serializes the
  dumps into a :class:`WorkerTelemetry` payload riding the
  digest-checked result envelope, *after* stripping them off the
  :class:`~repro.sim.results.RunResult` — so the result (and its
  integrity digest, and any checkpoint record built from it) stays
  byte-identical to a blind run.  The parent merges payloads in job
  submission order (:func:`merge_metric_dumps`), which is wall-clock
  free and therefore deterministic: two observed resilient sweeps, or
  an observed sweep and a blind serial one, agree on every result
  byte.  This is the PR-2 passivity rule extended across the process
  boundary.
* **execution-layer spans** — the runner narrates its own schedule
  into a parent-side :class:`ExecTelemetry` collector as typed
  :class:`ExecSpan` records: queue wait, attempt start/end, retry
  backoff, timeout abandon, injected fault, checkpoint write and
  resume hit.  Spans carry wall-clock stamps (execution *is* a
  wall-clock phenomenon) and export as per-worker tracks in the
  Chrome ``trace_event`` writer (:mod:`repro.obs.chrome`) — but they
  are kept out of the manifest block by default, so manifests stay
  reproducible.
* **the fleet report** — :meth:`ExecTelemetry.as_dict` renders a
  deterministic ``repro.exec-telemetry/1`` block (per-job attempt /
  retry / timeout / fault tallies, checkpoint provenance, trace
  capture and drop counts) that :func:`build_fleet_manifest` embeds in
  an aggregate ``repro.run-manifest/1`` record and ``repro report``
  renders as the fleet table (:func:`render_exec_report`).

Lint rule RL009 makes this module the *only* sanctioned way to emit
execution-layer span records: ad-hoc event dicts in ``repro.robust``
or ``repro.sim.parallel`` are flagged, so every span in the tree has
one schema and one collector.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ObsError

__all__ = [
    "EXEC_TELEMETRY_SCHEMA",
    "TelemetryConfig",
    "WorkerTelemetry",
    "SpanKind",
    "ExecSpan",
    "ExecTelemetry",
    "merge_metric_dumps",
    "render_exec_report",
    "validate_exec_telemetry",
    "build_fleet_manifest",
]

#: Schema identifier of the execution-telemetry manifest block.
EXEC_TELEMETRY_SCHEMA = "repro.exec-telemetry/1"


@dataclass(frozen=True)
class TelemetryConfig:
    """Picklable instructions for a worker's in-job observability.

    Shipped inside every pool submission when the caller asked for an
    observed run; workers honour it by running the simulation under a
    private registry/ring buffer and returning the dumps in the result
    envelope.  The default config observes nothing — workers then run
    blind, and ship no payload.
    """

    #: Run each job under a private MetricsRegistry and ship its dump.
    metrics: bool = False
    #: Capture each job's timeline events in a bounded ring buffer and
    #: ship them (serialized) with the result.  Sweep-scale callers
    #: usually leave this off and rely on execution spans instead —
    #: shipping N jobs' event buffers is single-run tooling.
    trace: bool = False
    #: Ring-buffer capacity when :attr:`trace` is on.
    trace_capacity: int = 1 << 20

    def __post_init__(self) -> None:
        if self.trace_capacity <= 0:
            raise ObsError(
                f"trace_capacity must be positive, got {self.trace_capacity}"
            )

    @property
    def enabled(self) -> bool:
        """Whether this config asks workers to observe anything."""
        return self.metrics or self.trace


@dataclass(frozen=True)
class WorkerTelemetry:
    """One job's observability payload, shipped beside its result.

    Everything here is plain picklable data (metric dumps, serialized
    event dicts) — never live registries or sinks — and it is produced
    *after* the result's integrity digest was computed over the
    stripped result, so shipping telemetry can never change what the
    parent accepts as the answer.
    """

    #: ``MetricsRegistry.as_dict()`` of the job's private registry,
    #: None when metrics were not requested.
    metrics: Optional[Dict[str, object]] = None
    #: Serialized timeline events (``event_to_dict`` form), oldest
    #: first; empty when tracing was not requested.
    events: Tuple[Dict[str, object], ...] = ()
    #: Events the worker's ring buffer evicted to stay bounded.
    dropped: int = 0


class SpanKind(enum.Enum):
    """What one execution-layer span records."""

    QUEUE_WAIT = "queue_wait"
    ATTEMPT = "attempt"
    RETRY_BACKOFF = "retry_backoff"
    TIMEOUT_ABANDON = "timeout_abandon"
    FAULT_INJECTED = "fault_injected"
    CHECKPOINT_WRITE = "checkpoint_write"
    RESUME_HIT = "resume_hit"
    POOL_DEGRADED = "pool_degraded"


@dataclass(frozen=True)
class ExecSpan:
    """One interval (or instant) on the execution timeline.

    ``start_s``/``end_s`` are wall-clock seconds on the collector's
    monotonic clock (equal for instant spans); ``lane`` is the worker
    slot the span occupied — 0 for the serial path and for runner-side
    bookkeeping spans (queue wait, backoff, checkpoint I/O).
    """

    kind: SpanKind
    job: int
    attempt: int
    lane: int
    start_s: float
    end_s: float
    outcome: str = ""
    detail: str = ""

    @property
    def duration_s(self) -> float:
        """Span length in seconds (0.0 for instants)."""
        return self.end_s - self.start_s


class _JobTally:
    """Mutable per-job execution bookkeeping (internal)."""

    def __init__(self) -> None:
        self.attempts = 0
        self.timeouts = 0
        self.faults: Dict[str, int] = {}
        self.source = "computed"
        self.worker: Optional[WorkerTelemetry] = None
        self.deliveries = 0

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)


class ExecTelemetry:
    """Parent-side collector for one ``run_jobs`` invocation.

    The runner narrates its schedule through the methods below; lint
    rule RL009 makes this the only sanctioned span emitter.  Two kinds
    of state accumulate:

    * **deterministic tallies** (attempts, retries, timeouts, faults
      by kind, submit errors, checkpoint writes, resume hits, shipped
      worker telemetry) — wall-clock free, dumped by :meth:`as_dict`
      into the ``repro.exec-telemetry/1`` manifest block;
    * **wall-clock spans** (:attr:`spans`) — the Perfetto-facing
      timeline, deliberately *excluded* from the default manifest dump
      so observed manifests stay byte-reproducible.

    Worker telemetry is delivered at most once per job (the runner's
    exactly-once guard holds it to that; this class additionally keeps
    the first payload and counts duplicates, so a delivery bug is
    testable rather than silent).
    """

    def __init__(
        self, config: Optional[TelemetryConfig] = None
    ) -> None:
        self.config = config if config is not None else TelemetryConfig()
        self.spans: List[ExecSpan] = []
        self.submit_errors = 0
        self.checkpoints_written = 0
        self.resume_hits = 0
        self.degraded_to_serial = False
        self._jobs: Dict[int, _JobTally] = {}
        self._total = 0
        self._policy: Dict[str, object] = {}
        self._enqueued: Dict[Tuple[int, int], float] = {}
        self._open: Dict[Tuple[int, int], Tuple[int, float]] = {}
        self._faults_seen: set = set()

    # -- runner narration --------------------------------------------

    def _now(self) -> float:
        return time.monotonic()

    def _job(self, job: int) -> _JobTally:
        tally = self._jobs.get(job)
        if tally is None:
            tally = self._jobs[job] = _JobTally()
        return tally

    def begin(self, policy: object, total_jobs: int) -> None:
        """Start of a run: record the policy summary and fleet size."""
        self._total = max(self._total, total_jobs)
        summary = getattr(policy, "summary", None)
        if callable(summary):
            self._policy = dict(summary())

    def job_enqueued(self, job: int, attempt: int) -> None:
        """An attempt entered the runner's submission queue."""
        self._enqueued[(job, attempt)] = self._now()

    def attempt_started(self, job: int, attempt: int, lane: int) -> None:
        """An attempt began executing on ``lane``.

        Closes the queue-wait interval opened by :meth:`job_enqueued`
        (if any) and opens the attempt span.
        """
        now = self._now()
        queued = self._enqueued.pop((job, attempt), None)
        if queued is not None:
            self.spans.append(
                ExecSpan(SpanKind.QUEUE_WAIT, job, attempt, 0, queued, now)
            )
        self._open[(job, attempt)] = (lane, now)
        self._job(job).attempts += 1

    def _close_attempt(
        self, job: int, attempt: int, outcome: str, detail: str
    ) -> None:
        lane, started = self._open.pop((job, attempt), (0, self._now()))
        self.spans.append(
            ExecSpan(
                SpanKind.ATTEMPT,
                job,
                attempt,
                lane,
                started,
                self._now(),
                outcome=outcome,
                detail=detail,
            )
        )

    def attempt_finished(
        self, job: int, attempt: int, outcome: str, detail: str = ""
    ) -> None:
        """An attempt returned (``outcome``: ``"ok"``/``"failed"``...)."""
        self._close_attempt(job, attempt, outcome, detail)

    def attempt_abandoned(self, job: int, attempt: int, detail: str = "") -> None:
        """An attempt blew its deadline and was abandoned (timeout)."""
        lane, _ = self._open.get((job, attempt), (0, 0.0))
        self._close_attempt(job, attempt, "timeout", detail)
        now = self._now()
        self.spans.append(
            ExecSpan(
                SpanKind.TIMEOUT_ABANDON, job, attempt, lane, now, now,
                outcome="timeout", detail=detail,
            )
        )
        self._job(job).timeouts += 1

    def backoff(self, job: int, attempt: int, delay_s: float) -> None:
        """A retry backoff of ``delay_s`` was scheduled after ``attempt``.

        Recorded as the *scheduled* interval (the runner sleeps right
        after this call), so one narration call covers the wait.
        """
        now = self._now()
        self.spans.append(
            ExecSpan(
                SpanKind.RETRY_BACKOFF, job, attempt, 0, now, now + delay_s,
                detail=f"{delay_s:.3f}s",
            )
        )

    def fault_injected(self, job: int, attempt: int, kind: object) -> None:
        """A scripted/rated fault fired at ``(job, attempt)``.

        Idempotent per coordinate: after a pool break the in-process
        re-run starts each unfinished job again at attempt 1, replaying
        coordinates the pool already narrated, and the repeat must not
        double-count the fault.
        """
        name = getattr(kind, "value", str(kind))
        key = (job, attempt, name)
        if key in self._faults_seen:
            return
        self._faults_seen.add(key)
        tally = self._job(job)
        tally.faults[name] = tally.faults.get(name, 0) + 1
        if name == "submit-error":
            self.submit_errors += 1
        lane, _ = self._open.get((job, attempt), (0, 0.0))
        now = self._now()
        self.spans.append(
            ExecSpan(
                SpanKind.FAULT_INJECTED, job, attempt, lane, now, now,
                outcome=name,
            )
        )

    def checkpoint_written(self, job: int) -> None:
        """The job's completed-run record was persisted."""
        self.checkpoints_written += 1
        now = self._now()
        self.spans.append(
            ExecSpan(SpanKind.CHECKPOINT_WRITE, job, 0, 0, now, now)
        )

    def resume_hit(self, job: int) -> None:
        """The job was served from an existing checkpoint record."""
        self.resume_hits += 1
        self._job(job).source = "checkpoint"
        now = self._now()
        self.spans.append(ExecSpan(SpanKind.RESUME_HIT, job, 0, 0, now, now))

    def degraded(self) -> None:
        """The pool broke and execution fell back to serial."""
        self.degraded_to_serial = True
        now = self._now()
        self.spans.append(ExecSpan(SpanKind.POOL_DEGRADED, 0, 0, 0, now, now))

    def deliver_worker(self, job: int, payload: WorkerTelemetry) -> None:
        """Accept one job's shipped telemetry (first delivery wins)."""
        tally = self._job(job)
        tally.deliveries += 1
        if tally.worker is None:
            tally.worker = payload

    # -- read side ---------------------------------------------------

    @property
    def total_jobs(self) -> int:
        """Fleet size (as declared by :meth:`begin`, or as observed)."""
        highest = max(self._jobs) + 1 if self._jobs else 0
        return max(self._total, highest)

    def deliveries_for(self, job: int) -> int:
        """How many worker payloads arrived for ``job`` (should be ≤1)."""
        tally = self._jobs.get(job)
        return tally.deliveries if tally is not None else 0

    def worker_for(self, job: int) -> Optional[WorkerTelemetry]:
        """The job's shipped telemetry payload, if any arrived."""
        tally = self._jobs.get(job)
        return tally.worker if tally is not None else None

    def events_for(self, job: int) -> Tuple[Dict[str, object], ...]:
        """The job's shipped (serialized) timeline events."""
        worker = self.worker_for(job)
        return worker.events if worker is not None else ()

    def merged_metrics(self) -> Dict[str, object]:
        """All shipped metric dumps merged in job submission order."""
        dumps = []
        for job in sorted(self._jobs):
            worker = self._jobs[job].worker
            if worker is not None and worker.metrics is not None:
                dumps.append(worker.metrics)
        return merge_metric_dumps(dumps)

    @property
    def total_attempts(self) -> int:
        return sum(t.attempts for t in self._jobs.values())

    @property
    def total_retries(self) -> int:
        return sum(t.retries for t in self._jobs.values())

    @property
    def total_timeouts(self) -> int:
        return sum(t.timeouts for t in self._jobs.values())

    @property
    def total_faults(self) -> int:
        return sum(sum(t.faults.values()) for t in self._jobs.values())

    @property
    def total_dropped(self) -> int:
        return sum(
            t.worker.dropped for t in self._jobs.values() if t.worker is not None
        )

    def health_counts(self) -> Tuple[int, int, int]:
        """(retries, timeouts, faults) — the sweep-progress health trio."""
        return (self.total_retries, self.total_timeouts, self.total_faults)

    def attribution(self) -> Dict[str, float]:
        """Wall-clock attribution: queue wait vs. run time vs. backoff.

        Derived from the spans, so it carries wall-clock and is *not*
        part of the deterministic manifest block unless the caller
        opts in via ``as_dict(include_timing=True)``.
        """
        out = {"queue_wait_s": 0.0, "run_s": 0.0, "backoff_s": 0.0}
        for span in self.spans:
            if span.kind is SpanKind.QUEUE_WAIT:
                out["queue_wait_s"] += span.duration_s
            elif span.kind is SpanKind.ATTEMPT:
                out["run_s"] += span.duration_s
            elif span.kind is SpanKind.RETRY_BACKOFF:
                out["backoff_s"] += span.duration_s
        return {key: round(value, 6) for key, value in sorted(out.items())}

    def as_dict(self, *, include_timing: bool = False) -> Dict[str, object]:
        """The ``repro.exec-telemetry/1`` block.

        Deterministic by default: tallies only, iterated in job
        submission order, no wall-clock anywhere — so an observed
        manifest stays byte-identical across runs.  ``include_timing``
        adds the (non-deterministic) queue-wait/run-time attribution
        for interactive reports.
        """
        per_job: List[Dict[str, object]] = []
        for job in range(self.total_jobs):
            tally = self._jobs.get(job, _JobTally())
            entry: Dict[str, object] = {
                "job": job,
                "attempts": tally.attempts,
                "retries": tally.retries,
                "timeouts": tally.timeouts,
                "faults": dict(sorted(tally.faults.items())),
                "source": tally.source,
            }
            if tally.worker is not None:
                entry["trace_events"] = len(tally.worker.events)
                entry["trace_dropped"] = tally.worker.dropped
            per_job.append(entry)
        faults_by_kind: Dict[str, int] = {}
        for tally in self._jobs.values():
            for name, count in tally.faults.items():
                faults_by_kind[name] = faults_by_kind.get(name, 0) + count
        block: Dict[str, object] = {
            "schema": EXEC_TELEMETRY_SCHEMA,
            "policy": dict(self._policy),
            "jobs": {"total": self.total_jobs, "per_job": per_job},
            "totals": {
                "attempts": self.total_attempts,
                "retries": self.total_retries,
                "timeouts": self.total_timeouts,
                "faults": dict(sorted(faults_by_kind.items())),
                "submit_errors": self.submit_errors,
                "checkpoints_written": self.checkpoints_written,
                "resume_hits": self.resume_hits,
                "degraded_to_serial": self.degraded_to_serial,
                "trace_events": sum(
                    len(t.worker.events)
                    for t in self._jobs.values()
                    if t.worker is not None
                ),
                "trace_dropped": self.total_dropped,
            },
        }
        if include_timing:
            block["timing"] = self.attribution()
        return block


def merge_metric_dumps(
    dumps: Sequence[Mapping[str, object]],
) -> Dict[str, object]:
    """Merge per-worker metric dumps into one fleet dump.

    Deterministic and wall-clock free: dumps are folded in the order
    given (job submission order), scalars sum, and histogram dumps
    merge bucket-wise — so the merge of N single-job registries equals
    the dump one shared registry would have produced had the jobs run
    serially in one process.  Mixing metric shapes under one name (a
    counter in one worker, a histogram in another) is an
    :class:`~repro.errors.ObsError`: that is two layers fighting over
    a name, not a fleet view of one metric.
    """
    merged: Dict[str, object] = {}
    for dump in dumps:
        for name in dump:
            value = dump[name]
            if name not in merged:
                merged[name] = _copy_metric_value(value)
                continue
            merged[name] = _merge_metric_value(name, merged[name], value)
    return {name: merged[name] for name in sorted(merged)}


def _is_histogram(value: object) -> bool:
    return isinstance(value, Mapping) and value.get("type") == "histogram"


def _copy_metric_value(value: object) -> object:
    if _is_histogram(value):
        doc = dict(value)  # type: ignore[arg-type]
        doc["buckets"] = [dict(bucket) for bucket in doc.get("buckets", [])]
        return doc
    return value


def _merge_metric_value(name: str, into: object, value: object) -> object:
    if _is_histogram(into) != _is_histogram(value):
        raise ObsError(
            f"metric {name!r} has mismatched shapes across workers and "
            "cannot be merged"
        )
    if _is_histogram(into):
        a, b = dict(into), dict(value)  # type: ignore[arg-type]
        bounds_a = [bucket["le"] for bucket in a.get("buckets", [])]
        bounds_b = [bucket["le"] for bucket in b.get("buckets", [])]
        if bounds_a != bounds_b:
            raise ObsError(
                f"histogram {name!r} has different bucket bounds across "
                "workers and cannot be merged"
            )
        return {
            "type": "histogram",
            "count": a["count"] + b["count"],
            "sum": a["sum"] + b["sum"],
            "buckets": [
                {"le": x["le"], "count": x["count"] + y["count"]}
                for x, y in zip(a["buckets"], b["buckets"])
            ],
            "overflow": a["overflow"] + b["overflow"],
        }
    if isinstance(into, (int, float)) and isinstance(value, (int, float)):
        return into + value
    if into == value:
        return into
    raise ObsError(
        f"metric {name!r} is non-numeric and differs across workers "
        f"({into!r} vs {value!r}); cannot merge"
    )


def validate_exec_telemetry(block: object) -> Dict[str, int]:
    """Check an ``exec_telemetry`` block against the schema we emit.

    Raises :class:`~repro.errors.ObsError` on the first violation;
    returns summary counts so callers can assert on them.
    """
    if not isinstance(block, Mapping):
        raise ObsError("exec telemetry block must be a JSON object")
    if block.get("schema") != EXEC_TELEMETRY_SCHEMA:
        raise ObsError(
            f"exec telemetry block has schema {block.get('schema')!r}, "
            f"expected {EXEC_TELEMETRY_SCHEMA!r}"
        )
    jobs = block.get("jobs")
    totals = block.get("totals")
    if not isinstance(jobs, Mapping) or not isinstance(totals, Mapping):
        raise ObsError("exec telemetry block lacks jobs/totals sections")
    per_job = jobs.get("per_job")
    if not isinstance(per_job, list):
        raise ObsError("exec telemetry jobs section lacks a per_job list")
    if jobs.get("total") != len(per_job):
        raise ObsError(
            f"exec telemetry claims {jobs.get('total')} jobs but lists "
            f"{len(per_job)}"
        )
    attempts = retries = timeouts = faults = 0
    for entry in per_job:
        if not isinstance(entry, Mapping):
            raise ObsError(f"per-job entry is not an object: {entry!r}")
        for key in ("job", "attempts", "retries", "timeouts", "faults", "source"):
            if key not in entry:
                raise ObsError(f"per-job entry missing {key!r}: {entry!r}")
        if entry["attempts"] < 0 or entry["retries"] < 0 or entry["timeouts"] < 0:
            raise ObsError(f"per-job tallies must be non-negative: {entry!r}")
        attempts += entry["attempts"]
        retries += entry["retries"]
        timeouts += entry["timeouts"]
        faults += sum(entry["faults"].values())
    for key, observed in (
        ("attempts", attempts),
        ("retries", retries),
        ("timeouts", timeouts),
    ):
        if totals.get(key) != observed:
            raise ObsError(
                f"exec telemetry totals[{key!r}] = {totals.get(key)!r} "
                f"disagrees with the per-job sum {observed}"
            )
    if totals.get("faults") is not None and sum(
        totals["faults"].values()
    ) != faults:
        raise ObsError(
            "exec telemetry totals.faults disagrees with the per-job sums"
        )
    return {
        "jobs": len(per_job),
        "attempts": attempts,
        "retries": retries,
        "timeouts": timeouts,
        "faults": faults,
    }


def render_exec_report(block: Mapping[str, object]) -> str:
    """Human-readable fleet table of one ``exec_telemetry`` block."""
    from repro.analysis.report import format_table

    validate_exec_telemetry(block)
    jobs = block["jobs"]["per_job"]  # type: ignore[index]
    totals = block["totals"]  # type: ignore[index]
    rows = []
    for entry in jobs:
        faults = entry["faults"]
        fault_text = (
            ", ".join(f"{kind}x{n}" for kind, n in sorted(faults.items()))
            or "-"
        )
        trace_text = "-"
        if "trace_events" in entry:
            trace_text = f"{entry['trace_events']:,}"
            if entry.get("trace_dropped"):
                trace_text += f" (+{entry['trace_dropped']:,} dropped)"
        rows.append(
            [
                str(entry["job"]),
                str(entry["attempts"]),
                str(entry["retries"]),
                str(entry["timeouts"]),
                fault_text,
                entry["source"],
                trace_text,
            ]
        )
    lines = [
        format_table(
            ["job", "attempts", "retries", "timeouts", "faults", "source",
             "trace events"],
            rows,
            title="execution telemetry (fleet)",
        )
    ]
    fault_totals = totals.get("faults") or {}
    fault_text = (
        ", ".join(f"{kind}x{n}" for kind, n in sorted(fault_totals.items()))
        or "none"
    )
    lines.append(
        f"totals: {totals['attempts']} attempts, {totals['retries']} "
        f"retries, {totals['timeouts']} timeouts, faults: {fault_text}; "
        f"{totals['submit_errors']} submit error(s), "
        f"{totals['checkpoints_written']} checkpoint(s) written, "
        f"{totals['resume_hits']} resume hit(s)"
    )
    if totals.get("degraded_to_serial"):
        lines.append("note: pool broke mid-run; execution degraded to serial")
    if totals.get("trace_dropped"):
        lines.append(
            f"note: {totals['trace_dropped']:,} trace event(s) dropped at "
            "ring-buffer capacity"
        )
    timing = block.get("timing")
    if isinstance(timing, Mapping):
        lines.append(
            "wall-clock attribution: "
            f"{timing.get('queue_wait_s', 0.0):.3f}s queue wait, "
            f"{timing.get('run_s', 0.0):.3f}s running, "
            f"{timing.get('backoff_s', 0.0):.3f}s backoff"
        )
    else:
        lines.append(
            "wall-clock attribution: not recorded (deterministic manifest; "
            "see the Chrome trace for the timeline)"
        )
    policy = block.get("policy")
    if policy:
        text = ", ".join(f"{k}={v}" for k, v in sorted(policy.items()))
        lines.append(f"policy: {text}")
    return "\n".join(lines)


def _sum_section(
    sections: Sequence[Mapping[str, object]],
) -> Dict[str, object]:
    """Key-wise sum of structurally identical numeric dicts."""
    out: Dict[str, object] = {}
    for section in sections:
        for key, value in section.items():
            if isinstance(value, Mapping):
                inner = out.setdefault(key, {})
                assert isinstance(inner, dict)
                for k, v in _sum_section([value]).items():
                    inner[k] = inner.get(k, 0) + v if isinstance(v, (int, float)) else v
            elif isinstance(value, bool):
                out[key] = out.get(key, False) or value
            elif isinstance(value, (int, float)):
                out[key] = out.get(key, 0) + value
            else:
                out[key] = value
    return out


def build_fleet_manifest(
    results: Sequence[object],
    *,
    telemetry: Optional[ExecTelemetry] = None,
    labels: Optional[Sequence[object]] = None,
    extra: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Aggregate N job results into one ``repro.run-manifest/1`` record.

    ``results`` are :class:`~repro.sim.results.RunResult` objects in
    job submission order.  The aggregate sums the deterministic
    sections (stats, time breakdown, cycle totals) — so the fleet
    record of an observed resilient sweep equals, field for field, the
    sums a blind serial sweep would produce — embeds the merged worker
    metrics and the deterministic ``exec_telemetry`` block, and lists
    each run's identity under ``runs``.  The ``config`` section is
    included only when every run shares one configuration (a scheme
    comparison does; a parameter sweep deliberately does not).
    """
    import dataclasses as _dataclasses

    from repro import __version__
    from repro.obs.manifest import MANIFEST_SCHEMA, git_sha

    if not results:
        raise ObsError("cannot build a fleet manifest from zero results")
    stats = _sum_section([r.stats.as_dict() for r in results])
    stats.pop("time", None)
    time_breakdown = _sum_section(
        [r.stats.time.as_dict() for r in results]
    )
    schemes = sorted({r.scheme for r in results})
    workloads = sorted({r.workload for r in results})
    manifest: Dict[str, object] = {
        "schema": MANIFEST_SCHEMA,
        "generator": {"repro_version": __version__, "git_sha": git_sha()},
        "run": {
            "workload": "+".join(workloads),
            "scheme": "+".join(schemes),
            "input_set": "+".join(sorted({r.input_set for r in results})),
            "seed": results[0].seed,
            "total_cycles": sum(r.total_cycles for r in results),
            "seconds": sum(r.seconds for r in results),
            "sip_points": sum(r.sip_points for r in results),
            "runs": len(results),
        },
        "stats": stats,
        "time_breakdown": time_breakdown,
        "metrics": telemetry.merged_metrics() if telemetry is not None else {},
        "runs": [
            {
                "job": index,
                "label": (
                    labels[index]
                    if labels is not None and index < len(labels)
                    else index
                ),
                "workload": r.workload,
                "scheme": r.scheme,
                "seed": r.seed,
                "input_set": r.input_set,
                "total_cycles": r.total_cycles,
                "faults": r.stats.faults,
            }
            for index, r in enumerate(results)
        ],
    }
    import json as _json

    configs = {
        _json.dumps(_dataclasses.asdict(r.config), sort_keys=True, default=str)
        for r in results
    }
    if len(configs) == 1:
        manifest["config"] = _dataclasses.asdict(results[0].config)
    if telemetry is not None:
        manifest["exec_telemetry"] = telemetry.as_dict()
    if extra:
        manifest["extra"] = dict(extra)
    return manifest
