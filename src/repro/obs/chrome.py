"""Chrome ``trace_event`` export: open any run in Perfetto.

The Trace Event Format (the JSON understood by ``chrome://tracing``
and https://ui.perfetto.dev) models a trace as complete events
(``ph: "X"`` with ``ts``/``dur``) and instant events (``ph: "i"``) on
per-process/per-thread tracks.  The simulator maps naturally onto
three tracks, mirroring the paper's three actors:

==========  ====================================================
``app``     the application thread: compute, AEX/ERESUME world
            switches, fault waits, SIP checks and waits
``channel`` the exclusive non-preemptible load channel: demand
            loads and preload bursts (the paper's kernel thread)
``scan``    the periodic service-thread scan ticks
==========  ====================================================

Timestamps: the trace format counts microseconds, so virtual cycles
are converted at the paper platform's clock (3.5 GHz by default) and
rounded to nanosecond precision; each event also carries its raw
cycle stamps in ``args`` so nothing is lost to rounding.

Execution-layer spans (:class:`~repro.obs.exec_telemetry.ExecSpan`,
PR 5) export next to the simulation tracks: one ``exec-runner`` track
(tid 10) for runner bookkeeping — queue waits, retry backoffs,
checkpoint writes, resume hits, pool degradation — and one
``worker-N`` track per occupied worker lane (tid 11 + lane) carrying
attempt spans with timeout-abandon and injected-fault instants.  Those
spans are wall-clock seconds, not virtual cycles; they are normalized
to the earliest span start so both timelines begin near zero.

Paging-profile residency tracks (PR 7): given a
``repro.paging-profile/1`` block, each exported hot page gets its own
``page-N`` track (tid 100 + rank) whose complete events are the
page's residency intervals — named by load kind and touch outcome, so
a wasted preload is visible as an untouched ``preload`` bar ending at
the CLOCK decision that evicted it (recorded in ``args``).

Fleet time-series tracks (PR 10): :func:`fleet_chrome_trace` renders
a ``repro.fleet-timeseries/1`` block as counter tracks (``ph: "C"``
— Perfetto draws them as stacked area charts) for the fleet-wide
series (faults/preloads per window, EPC occupancy, queue depth,
active tenants, channel utilization), one instant per adaptive-quota
rebalance with its before/after quotas, and one lifecycle track per
tenant (tid 200 + index): ``queued`` → ``spinup`` → ``run`` complete
events with a ``truncated`` instant when the duration cutoff hit.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.enclave.events import EventKind, TimelineEvent
from repro.errors import ObsError

__all__ = [
    "THREAD_NAMES",
    "chrome_trace",
    "fleet_chrome_trace",
    "write_chrome_trace",
    "write_fleet_chrome_trace",
    "validate_chrome_trace",
]

#: Track (tid) assignment per event kind.
_APP_TID = 1
_CHANNEL_TID = 2
_SCAN_TID = 3

THREAD_NAMES: Dict[int, str] = {
    _APP_TID: "app",
    _CHANNEL_TID: "channel",
    _SCAN_TID: "scan",
}

_TID_OF_KIND: Dict[EventKind, int] = {
    EventKind.COMPUTE: _APP_TID,
    EventKind.AEX: _APP_TID,
    EventKind.ERESUME: _APP_TID,
    EventKind.FAULT_WAIT: _APP_TID,
    EventKind.SIP_CHECK: _APP_TID,
    EventKind.SIP_LOAD: _APP_TID,
    EventKind.EPC_HIT: _APP_TID,
    EventKind.ABORT: _APP_TID,
    EventKind.DEMAND_LOAD: _CHANNEL_TID,
    EventKind.PRELOAD: _CHANNEL_TID,
    EventKind.SCAN: _SCAN_TID,
}

#: Execution-layer track (tid) assignment: the runner's bookkeeping
#: track, then one track per worker lane above it.
_EXEC_RUNNER_TID = 10
_EXEC_WORKER_TID0 = 11

#: Paging-profile residency tracks sit above the exec lanes: one per
#: exported hot page, capped so the track list stays readable.
_RESIDENCY_TID0 = 100
_MAX_RESIDENCY_TRACKS = 16

#: Fleet tracks: rebalance instants on one control track, then one
#: lifecycle track per tenant above it.
_FLEET_REBALANCE_TID = 199
_FLEET_TENANT_TID0 = 200

#: Keys every emitted trace event must carry (spec minimum).
_REQUIRED_KEYS = ("name", "ph", "pid", "tid", "ts")


def _cycles_to_us(cycles: int, ghz: float) -> float:
    """Virtual cycles → microseconds at ``ghz``, ns-rounded."""
    return round(cycles / (ghz * 1_000.0), 3)


def _meta(
    pid: int, tid: int, name: str, kind: str = "thread_name"
) -> Dict[str, object]:
    """A metadata record naming one track (or, at tid 0, the process)."""
    return {
        "name": kind,
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "ts": 0,
        "args": {"name": name},
    }


def _span(
    name: str,
    cat: str,
    pid: int,
    tid: int,
    ts: float,
    args: Dict[str, object],
    dur: Optional[float] = None,
) -> Dict[str, object]:
    """A complete event lasting ``dur`` µs, or a thread instant without one."""
    record: Dict[str, object] = {
        "name": name,
        "cat": cat,
        "pid": pid,
        "tid": tid,
        "ts": ts,
        "args": args,
    }
    if dur is None:
        record["ph"] = "i"
        record["s"] = "t"  # thread-scoped instant
    else:
        record["ph"] = "X"
        record["dur"] = dur
    return record


def _cycle_dur(start: int, end: int, ghz: float) -> Optional[float]:
    """The µs length of a cycle interval; None (an instant) when empty."""
    return _cycles_to_us(end - start, ghz) if end > start else None


def _document(
    pid: int,
    process_name: str,
    ghz: float,
    records: List[Dict[str, object]],
    **other: object,
) -> Dict[str, object]:
    """The trace document: process name first, then ``records``."""
    return {
        "traceEvents": [_meta(pid, 0, process_name, "process_name"), *records],
        "displayTimeUnit": "ms",
        "otherData": {"clock_ghz": ghz, "format": "repro.chrome-trace/1", **other},
    }


def _write(path: Union[str, Path], document: Dict[str, object]) -> int:
    """Write ``document`` as stable JSON; return its record count."""
    payload = json.dumps(document, sort_keys=True, indent=1)
    Path(path).write_text(payload + "\n", encoding="utf-8")
    return len(document["traceEvents"])  # type: ignore[arg-type]


def _exec_records(exec_spans, pid: int) -> List[Dict[str, object]]:
    """Render execution spans as runner/worker-lane track records."""
    from repro.obs.exec_telemetry import SpanKind

    spans = list(exec_spans)
    worker_kinds = (
        SpanKind.ATTEMPT,
        SpanKind.TIMEOUT_ABANDON,
        SpanKind.FAULT_INJECTED,
    )
    lanes = sorted({s.lane for s in spans if s.kind in worker_kinds})
    records = [_meta(pid, _EXEC_RUNNER_TID, "exec-runner")]
    records.extend(
        _meta(pid, _EXEC_WORKER_TID0 + lane, f"worker-{lane}") for lane in lanes
    )
    origin = min((s.start_s for s in spans), default=0.0)
    interval_kinds = (
        SpanKind.QUEUE_WAIT,
        SpanKind.ATTEMPT,
        SpanKind.RETRY_BACKOFF,
    )
    for span in spans:
        tid = (
            _EXEC_WORKER_TID0 + span.lane
            if span.kind in worker_kinds
            else _EXEC_RUNNER_TID
        )
        args: Dict[str, object] = {"job": span.job, "attempt": span.attempt}
        if span.outcome:
            args["outcome"] = span.outcome
        if span.detail:
            args["detail"] = span.detail
        dur = (
            round(max(span.duration_s, 0.0) * 1e6, 3)
            if span.kind in interval_kinds
            else None
        )
        ts = round((span.start_s - origin) * 1e6, 3)
        records.append(_span(span.kind.value, "exec", pid, tid, ts, args, dur))
    return records


def _residency_records(
    paging_profile: Dict[str, object], pid: int, ghz: float
) -> List[Dict[str, object]]:
    """Render a paging profile's hot pages as residency tracks."""
    pages = paging_profile.get("pages", [])
    if not isinstance(pages, list):
        raise ObsError("paging profile pages is not a list")
    records: List[Dict[str, object]] = []
    for rank, entry in enumerate(pages[:_MAX_RESIDENCY_TRACKS]):
        tid = _RESIDENCY_TID0 + rank
        page = entry["page"]
        records.append(_meta(pid, tid, f"page-{page}"))
        for interval in entry.get("intervals", []):
            start = int(interval["start"])
            end = int(interval["end"])
            kind = interval["kind"]
            touched = bool(interval["touched"])
            args: Dict[str, object] = {
                "page": page,
                "kind": kind,
                "touched": touched,
                "start_cycles": start,
                "end_cycles": end,
            }
            if "evicted_for_page" in interval:
                args["evicted_for_page"] = interval["evicted_for_page"]
                args["evicted_for_kind"] = interval["evicted_for_kind"]
                args["second_chances"] = interval["second_chances"]
            name = f"{kind}:{'touched' if touched else 'untouched'}"
            records.append(
                _span(
                    name, "residency", pid, tid, _cycles_to_us(start, ghz),
                    args, _cycle_dur(start, end, ghz),
                )
            )
    return records


def chrome_trace(
    events: Iterable[TimelineEvent],
    *,
    pid: int = 1,
    ghz: float = 3.5,
    process_name: str = "repro-sim",
    exec_spans=None,
    dropped_events: int = 0,
    paging_profile: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Render ``events`` as a Chrome trace_event JSON document.

    Thread-name metadata for all three tracks is always emitted so
    the track layout is stable regardless of which kinds occurred.
    ``exec_spans`` (a sequence of
    :class:`~repro.obs.exec_telemetry.ExecSpan`) adds the
    execution-layer runner/worker tracks; ``dropped_events`` surfaces a
    ring buffer's eviction count in ``otherData`` so a truncated trace
    says so in the artifact itself; ``paging_profile`` (a
    ``repro.paging-profile/1`` block) adds per-page residency tracks.
    """
    if ghz <= 0:
        raise ObsError(f"clock rate must be positive, got {ghz}")
    records = [_meta(pid, tid, THREAD_NAMES[tid]) for tid in sorted(THREAD_NAMES)]
    for event in events:
        args: Dict[str, object] = {
            "start_cycles": event.start,
            "end_cycles": event.end,
        }
        if event.page >= 0:
            args["page"] = event.page
        records.append(
            _span(
                event.kind.value, "sim", pid,
                _TID_OF_KIND.get(event.kind, _APP_TID),
                _cycles_to_us(event.start, ghz), args,
                _cycle_dur(event.start, event.end, ghz),
            )
        )
    if exec_spans is not None:
        records.extend(_exec_records(exec_spans, pid))
    if paging_profile is not None:
        records.extend(_residency_records(paging_profile, pid, ghz))
    dropped = {"dropped_events": dropped_events} if dropped_events else {}
    return _document(pid, process_name, ghz, records, **dropped)


#: Fleet-wide counter tracks: (trace counter name, fleet series key).
_FLEET_COUNTERS = (
    ("fleet-faults", "faults"),
    ("fleet-preloads", "preloads_completed"),
    ("epc-resident", "epc_resident"),
    ("queue-depth", "queue_depth"),
    ("active-tenants", "active_tenants"),
    ("channel-utilization", "channel_utilization"),
)


def fleet_chrome_trace(
    timeseries: Dict[str, object],
    *,
    pid: int = 1,
    ghz: float = 3.5,
    process_name: str = "repro-fleet",
) -> Dict[str, object]:
    """Render a ``repro.fleet-timeseries/1`` block as a Chrome trace.

    Counter events (``ph: "C"``) carry each fleet-wide series, one
    sample per window close; the adaptive-quota policy's rebalance
    decisions land as instants on a ``rebalance`` track with their
    before/after quotas in ``args``; and every tenant gets a
    lifecycle track whose complete events span its queued, spin-up
    and run phases (a ``truncated`` instant marks the duration
    cutoff).  Virtual cycles convert to microseconds at ``ghz``, with
    raw cycle stamps preserved in ``args``.
    """
    from repro.obs.fleet_telemetry import FLEET_TIMESERIES_SCHEMA

    if ghz <= 0:
        raise ObsError(f"clock rate must be positive, got {ghz}")
    schema = timeseries.get("schema") if isinstance(timeseries, dict) else None
    if schema != FLEET_TIMESERIES_SCHEMA:
        raise ObsError(
            f"not a fleet timeseries block: schema {schema!r} "
            f"(expected {FLEET_TIMESERIES_SCHEMA})"
        )
    ends = timeseries["window_end"]
    fleet = timeseries["fleet"]
    end_cycles = int(timeseries["end_cycles"])
    records: List[Dict[str, object]] = []
    for name, key in _FLEET_COUNTERS:
        series = fleet[key]
        for i, end in enumerate(ends):
            records.append(
                {
                    "name": name,
                    "cat": "fleet",
                    "ph": "C",
                    "pid": pid,
                    "tid": 0,
                    "ts": _cycles_to_us(int(end), ghz),
                    "args": {key: series[i]},
                }
            )
    rebalances = timeseries.get("rebalances", [])
    if rebalances:
        records.append(_meta(pid, _FLEET_REBALANCE_TID, "rebalance"))
        for decision in rebalances:
            args = {
                "cycle": decision["cycle"],
                "quotas_before": decision["quotas_before"],
                "quotas_after": decision["quotas_after"],
            }
            records.append(
                _span(
                    "rebalance", "fleet", pid, _FLEET_REBALANCE_TID,
                    _cycles_to_us(int(decision["cycle"]), ghz), args,
                )
            )
    for tenant in timeseries["tenants"]:
        tid = _FLEET_TENANT_TID0 + int(tenant["index"])
        records.append(_meta(pid, tid, f"tenant-{tenant['name']}"))
        spans = []
        queued_at = tenant.get("queued_at")
        admitted_at = tenant.get("admitted_at")
        started_at = tenant.get("started_at")
        departed_at = tenant.get("departed_at")
        if queued_at is not None:
            queue_end = admitted_at if admitted_at is not None else end_cycles
            spans.append(("queued", queued_at, queue_end))
        if admitted_at is not None and started_at is not None:
            if started_at > admitted_at:
                spans.append(("spinup", admitted_at, started_at))
            run_end = departed_at if departed_at is not None else end_cycles
            spans.append(("run", started_at, run_end))
        for name, start, end in spans:
            start = int(start)
            end = int(end)
            args = {
                "tenant": tenant["name"],
                "scheme": tenant["scheme"],
                "start_cycles": start,
                "end_cycles": end,
            }
            records.append(
                _span(
                    name, "lifecycle", pid, tid, _cycles_to_us(start, ghz),
                    args, _cycle_dur(start, end, ghz),
                )
            )
        if tenant.get("truncated"):
            records.append(
                _span(
                    "truncated", "lifecycle", pid, tid,
                    _cycles_to_us(end_cycles, ghz), {"tenant": tenant["name"]},
                )
            )
    return _document(
        pid, process_name, ghz, records, source=FLEET_TIMESERIES_SCHEMA
    )


def write_fleet_chrome_trace(
    path: Union[str, Path],
    timeseries: Dict[str, object],
    *,
    pid: int = 1,
    ghz: float = 3.5,
) -> int:
    """Write the fleet-timeseries Chrome trace to ``path``.

    Returns the number of trace records written.
    """
    return _write(path, fleet_chrome_trace(timeseries, pid=pid, ghz=ghz))


def write_chrome_trace(
    path: Union[str, Path],
    events: Iterable[TimelineEvent],
    *,
    pid: int = 1,
    ghz: float = 3.5,
    exec_spans=None,
    dropped_events: int = 0,
    paging_profile: Optional[Dict[str, object]] = None,
) -> int:
    """Write the Chrome trace for ``events`` to ``path``.

    Returns the number of trace records written (including the
    metadata records).
    """
    document = chrome_trace(
        events,
        pid=pid,
        ghz=ghz,
        exec_spans=exec_spans,
        dropped_events=dropped_events,
        paging_profile=paging_profile,
    )
    return _write(path, document)


def validate_chrome_trace(document: object) -> Dict[str, int]:
    """Check ``document`` against the trace_event schema we emit.

    Raises :class:`~repro.errors.ObsError` on the first violation.
    Returns summary counts (``events``, ``tracks``, ``complete``,
    ``instant``, ``counter``, ``metadata``) so callers can assert on
    them.
    """
    if not isinstance(document, dict):
        raise ObsError("chrome trace must be a JSON object")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ObsError("chrome trace lacks a traceEvents array")
    counts = {
        "events": 0,
        "tracks": 0,
        "complete": 0,
        "instant": 0,
        "counter": 0,
        "metadata": 0,
    }
    seen_tids = set()
    for record in events:
        if not isinstance(record, dict):
            raise ObsError(f"trace event is not an object: {record!r}")
        for key in _REQUIRED_KEYS:
            if key not in record:
                raise ObsError(f"trace event missing required key {key!r}: {record!r}")
        phase = record["ph"]
        counts["events"] += 1
        if phase == "M":
            counts["metadata"] += 1
            if record["name"] == "thread_name":
                seen_tids.add(record["tid"])
        elif phase == "X":
            counts["complete"] += 1
            if "dur" not in record or record["dur"] < 0:
                raise ObsError(f"complete event without valid dur: {record!r}")
        elif phase == "i":
            counts["instant"] += 1
        elif phase == "C":
            counts["counter"] += 1
            if not isinstance(record.get("args"), dict) or not record["args"]:
                raise ObsError(
                    f"counter event without sample args: {record!r}"
                )
        else:
            raise ObsError(f"unexpected event phase {phase!r}")
    counts["tracks"] = len(seen_tids)
    return counts
