"""Trace sinks, the driver's bounded recorder, and the Chrome export."""

import io
import json
from pathlib import Path

import pytest

from repro.core.config import SimConfig
from repro.enclave.driver import SgxDriver
from repro.enclave.enclave import Enclave
from repro.enclave.events import EventKind, TimelineEvent
from repro.errors import ObsError
from repro.obs.chrome import (
    THREAD_NAMES,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.exec_telemetry import ExecSpan, SpanKind
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    DEFAULT_EVENT_CAPACITY,
    JsonlSink,
    RingBufferSink,
    Tracer,
    event_to_dict,
)
from repro.sim.engine import simulate
from repro.workloads.base import SyntheticWorkload
from repro.workloads.synthetic import sequential

GOLDEN = Path(__file__).parent / "golden_chrome_trace.json"
GOLDEN_EXEC = Path(__file__).parent / "golden_exec_tracks.json"

#: A small fixed timeline exercising every record shape the exporter
#: produces: complete events on all three tracks, instants, pages.
GOLDEN_EVENTS = [
    TimelineEvent(EventKind.AEX, 0, 7_000),
    TimelineEvent(EventKind.DEMAND_LOAD, 7_000, 51_000, 5),
    TimelineEvent(EventKind.ERESUME, 51_000, 58_000),
    TimelineEvent(EventKind.PRELOAD, 58_000, 102_000, 6),
    TimelineEvent(EventKind.ABORT, 110_000, 110_000, 9),
    TimelineEvent(EventKind.SCAN, 200_000, 200_000),
]

#: A fixed execution timeline for the exec tracks: a queue wait,
#: attempts on two worker lanes, a timeout abandon, a retry backoff,
#: an injected fault and a checkpoint write.
GOLDEN_SPANS = [
    ExecSpan(SpanKind.QUEUE_WAIT, 0, 1, 0, 100.0, 100.25),
    ExecSpan(SpanKind.ATTEMPT, 0, 1, 0, 100.25, 101.5, outcome="ok"),
    ExecSpan(SpanKind.ATTEMPT, 1, 1, 1, 100.25, 102.0, outcome="timeout"),
    ExecSpan(SpanKind.TIMEOUT_ABANDON, 1, 1, 1, 102.0, 102.0, detail="hang"),
    ExecSpan(SpanKind.RETRY_BACKOFF, 1, 1, 0, 102.0, 102.5),
    ExecSpan(SpanKind.FAULT_INJECTED, 1, 2, 1, 102.5, 102.5, detail="crash"),
    ExecSpan(SpanKind.ATTEMPT, 1, 2, 1, 102.5, 103.0, outcome="ok"),
    ExecSpan(SpanKind.CHECKPOINT_WRITE, 0, 1, 0, 103.0, 103.0),
]


def events_of(n):
    return [TimelineEvent(EventKind.AEX, i, i + 1) for i in range(n)]


class TestRingBufferSink:
    def test_keeps_most_recent_and_counts_drops(self):
        ring = RingBufferSink(capacity=3)
        for event in events_of(5):
            ring.emit(event)
        assert len(ring) == 3
        assert ring.dropped == 2
        assert [e.start for e in ring.events] == [2, 3, 4]
        assert [e.start for e in ring] == [2, 3, 4]

    def test_no_drops_below_capacity(self):
        ring = RingBufferSink(capacity=10)
        for event in events_of(4):
            ring.emit(event)
        assert ring.dropped == 0
        assert len(ring.events) == 4

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ObsError):
            RingBufferSink(capacity=0)
        with pytest.raises(ObsError):
            RingBufferSink(capacity=-1)


class TestJsonlSink:
    def test_streams_one_object_per_line(self):
        out = io.StringIO()
        sink = JsonlSink(out)
        sink.emit(TimelineEvent(EventKind.AEX, 0, 7_000))
        sink.emit(TimelineEvent(EventKind.DEMAND_LOAD, 7_000, 51_000, 5))
        sink.close()  # does not own the buffer
        lines = out.getvalue().splitlines()
        assert sink.emitted == 2
        assert json.loads(lines[0]) == {"kind": "aex", "start": 0, "end": 7000}
        assert json.loads(lines[1])["page"] == 5

    def test_owns_and_closes_path_target(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        sink.emit(TimelineEvent(EventKind.SCAN, 10, 10))
        sink.close()
        sink.close()  # idempotent
        [line] = path.read_text().splitlines()
        assert json.loads(line)["kind"] == "scan"


class TestTracer:
    def test_fans_out_to_every_sink(self):
        a, b = RingBufferSink(8), RingBufferSink(8)
        tracer = Tracer([a])
        tracer.add_sink(b)
        for event in events_of(3):
            tracer.emit(event)
        assert len(a) == len(b) == 3
        assert tracer.ring() is a
        assert len(tracer.sinks) == 2

    def test_ring_helper_with_no_ring(self):
        assert Tracer([JsonlSink(io.StringIO())]).ring() is None


class TestEventToDict:
    def test_page_omitted_when_absent(self):
        assert "page" not in event_to_dict(TimelineEvent(EventKind.AEX, 0, 1))
        assert event_to_dict(TimelineEvent(EventKind.PRELOAD, 0, 1, 3))["page"] == 3


class TestDriverBoundedRecording:
    """The driver records through one sink; a ring buffer bounds it."""

    CONFIG = SimConfig(epc_pages=16, scan_period_cycles=10**9)

    def make(self, **kwargs):
        return SgxDriver(self.CONFIG, Enclave("t", elrange_pages=256), **kwargs)

    @staticmethod
    def workload():
        return SyntheticWorkload(
            "seq", 32, {0: "scan"}, [sequential(0, 0, 32, compute=1_000)]
        )

    def test_default_capacity_is_bounded(self):
        assert RingBufferSink().capacity == DEFAULT_EVENT_CAPACITY
        result = simulate(
            self.workload(),
            self.CONFIG,
            record_events=True,
            metrics=MetricsRegistry(),
        )
        assert result.metrics["trace.captured_events"] == len(result.events)
        assert result.metrics["trace.dropped_events"] == 0

    def test_capacity_bounds_memory_and_counts_drops(self):
        sink = RingBufferSink(4)
        driver = self.make(tracer=sink)
        t = 0
        for page in range(3):  # 3 faults x 3 events each = 9 emitted
            t = driver.access(page, t)
        assert len(sink.events) == 4
        assert sink.dropped == 5
        # The most recent events win: the buffer ends with the last
        # fault's AEX -> DEMAND_LOAD -> ERESUME.
        kinds = [e.kind for e in sink.events]
        assert kinds[-3:] == [
            EventKind.AEX,
            EventKind.DEMAND_LOAD,
            EventKind.ERESUME,
        ]

    def test_recording_off_means_no_events_and_no_drops(self):
        result = simulate(self.workload(), self.CONFIG, metrics=MetricsRegistry())
        assert result.events is None
        assert not any(name.startswith("trace.") for name in result.metrics)

    def test_external_tracer_receives_events_without_recording(self):
        sink = RingBufferSink()
        result = simulate(self.workload(), self.CONFIG, tracer=sink)
        assert result.events is None
        kinds = [e.kind for e in sink.events]
        assert kinds[:3] == [EventKind.AEX, EventKind.DEMAND_LOAD, EventKind.ERESUME]

    def test_recording_and_external_tracer_see_the_same_events(self):
        sink = RingBufferSink()
        result = simulate(
            self.workload(), self.CONFIG, "dfp-stop", record_events=True, tracer=sink
        )
        assert result.events == sink.events
        assert result.events


class TestChromeTrace:
    def test_metadata_names_all_three_tracks(self):
        doc = chrome_trace([])
        meta = [r for r in doc["traceEvents"] if r["ph"] == "M"]
        assert len(meta) == 4  # process_name + 3 thread_name records
        names = {
            r["tid"]: r["args"]["name"]
            for r in meta
            if r["name"] == "thread_name"
        }
        assert names == THREAD_NAMES

    def test_durations_become_complete_events_and_zero_width_instants(self):
        doc = chrome_trace(GOLDEN_EVENTS)
        records = [r for r in doc["traceEvents"] if r["ph"] != "M"]
        by_name = {r["name"]: r for r in records}
        aex = by_name["aex"]
        assert aex["ph"] == "X"
        assert aex["ts"] == 0
        assert aex["dur"] == 2.0  # 7000 cycles at 3.5 GHz
        assert aex["args"] == {"start_cycles": 0, "end_cycles": 7000}
        abort = by_name["abort"]
        assert abort["ph"] == "i"
        assert abort["s"] == "t"
        assert abort["args"]["page"] == 9
        assert by_name["demand_load"]["tid"] == 2
        assert by_name["scan"]["tid"] == 3

    def test_raw_cycles_survive_rounding(self):
        doc = chrome_trace([TimelineEvent(EventKind.AEX, 1, 8)], ghz=3.5)
        record = [r for r in doc["traceEvents"] if r["ph"] != "M"][0]
        assert record["args"]["start_cycles"] == 1
        assert record["args"]["end_cycles"] == 8

    def test_bad_clock_rejected(self):
        with pytest.raises(ObsError):
            chrome_trace([], ghz=0)

    def test_golden_file(self, tmp_path):
        """The exporter's exact output is pinned byte for byte."""
        out = tmp_path / "trace.json"
        records = write_chrome_trace(out, GOLDEN_EVENTS)
        assert records == 10  # 4 metadata + 6 events
        assert out.read_text(encoding="utf-8") == GOLDEN.read_text(encoding="utf-8")

    def test_exec_tracks_golden_file(self, tmp_path):
        """The runner and worker-lane tracks are pinned byte for byte."""
        out = tmp_path / "exec.json"
        records = write_chrome_trace(out, [], exec_spans=GOLDEN_SPANS)
        assert records == 15  # 4 sim metadata + runner + 2 lanes + 8 spans
        assert out.read_text(encoding="utf-8") == GOLDEN_EXEC.read_text(
            encoding="utf-8"
        )

    def test_golden_file_validates(self):
        counts = validate_chrome_trace(json.loads(GOLDEN.read_text()))
        assert counts == {
            "events": 10,
            "tracks": 3,
            "complete": 4,
            "instant": 2,
            "counter": 0,
            "metadata": 4,
        }


class TestValidateChromeTrace:
    def test_rejects_non_object_documents(self):
        with pytest.raises(ObsError):
            validate_chrome_trace([])
        with pytest.raises(ObsError):
            validate_chrome_trace({"noTraceEvents": 1})

    def test_rejects_missing_required_keys(self):
        with pytest.raises(ObsError):
            validate_chrome_trace({"traceEvents": [{"name": "x", "ph": "i"}]})

    def test_rejects_unknown_phase_and_bad_duration(self):
        base = {"name": "x", "pid": 1, "tid": 1, "ts": 0}
        with pytest.raises(ObsError):
            validate_chrome_trace({"traceEvents": [{**base, "ph": "Z"}]})
        with pytest.raises(ObsError):
            validate_chrome_trace({"traceEvents": [{**base, "ph": "X"}]})
