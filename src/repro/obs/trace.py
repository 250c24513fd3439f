"""Structured tracing: pluggable sinks for the driver's timeline events.

:class:`~repro.enclave.driver.SgxDriver` emits each
:class:`~repro.enclave.events.TimelineEvent` to its one optional
``tracer`` sink, and the sink decides what to keep:

* :class:`RingBufferSink` — bounded in-memory buffer keeping the most
  recent ``capacity`` events and counting what it dropped (what
  ``simulate(record_events=True)`` builds for ``RunResult.events``, so
  a full-scale run's millions of events cannot exhaust memory);
* :class:`JsonlSink` — streams one JSON object per event to a file,
  for unbounded captures that must not live in memory;
* :class:`Tracer` — fan-out composite, itself a sink, for feeding
  several consumers through the driver's one ``tracer``.

:func:`register_sink_metrics` publishes a ring's capture and drop
counts into a metrics registry under ``trace.captured_events`` and
``trace.dropped_events``.

A captured event list renders to the Chrome ``trace_event`` format via
:mod:`repro.obs.chrome`, so any run opens in Perfetto or
``chrome://tracing``.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import IO, Deque, Iterable, Iterator, List, Optional, Union

from repro.enclave.events import EventKind, TimelineEvent
from repro.errors import ObsError

__all__ = [
    "TraceSink",
    "RingBufferSink",
    "JsonlSink",
    "Tracer",
    "DEFAULT_EVENT_CAPACITY",
    "event_to_dict",
    "event_from_dict",
    "register_sink_metrics",
]

#: Default capacity of an event ring buffer: large enough for every
#: didactic and benchmark-scale trace, bounded for full runs.
DEFAULT_EVENT_CAPACITY = 1 << 20


def event_to_dict(event: TimelineEvent) -> dict:
    """JSON-ready representation of one timeline event."""
    record = {
        "kind": event.kind.value,
        "start": event.start,
        "end": event.end,
    }
    if event.page >= 0:
        record["page"] = event.page
    return record


def event_from_dict(record: dict) -> TimelineEvent:
    """Rebuild a :class:`TimelineEvent` from its ``event_to_dict`` form.

    The inverse used when events cross a process boundary (a worker's
    shipped ring-buffer contents) and the parent wants to feed them to
    the Chrome writer as if it had captured them locally.
    """
    try:
        return TimelineEvent(
            kind=EventKind(record["kind"]),
            start=record["start"],
            end=record["end"],
            page=record.get("page", -1),
        )
    except (KeyError, ValueError) as exc:
        raise ObsError(f"malformed serialized event {record!r}: {exc}") from exc


def register_sink_metrics(registry, sink: "RingBufferSink") -> None:
    """Expose a ring buffer's capture/drop counts as callback gauges.

    Wires ``trace.captured_events`` and ``trace.dropped_events`` into
    ``registry`` (a :class:`~repro.obs.metrics.MetricsRegistry`), so a
    dump taken at any time — including a worker's end-of-job dump —
    says how complete its shipped trace is.
    """
    registry.gauge(
        "trace.captured_events",
        "events currently held by the trace ring buffer",
        fn=lambda: len(sink),
    )
    registry.gauge(
        "trace.dropped_events",
        "events evicted from the trace ring buffer at capacity",
        fn=lambda: sink.dropped,
    )


class TraceSink:
    """One consumer of timeline events.

    Sinks must be passive: they observe events, never influence the
    simulation (the determinism tests assert this end to end).
    """

    def emit(self, event: TimelineEvent) -> None:
        """Consume one event."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release any resources (idempotent)."""


class RingBufferSink(TraceSink):
    """Keep the most recent ``capacity`` events; count the dropped."""

    def __init__(self, capacity: int = DEFAULT_EVENT_CAPACITY) -> None:
        if capacity <= 0:
            raise ObsError(f"ring buffer capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._buffer: Deque[TimelineEvent] = deque(maxlen=capacity)
        #: Events evicted to make room (0 while the buffer has space).
        self.dropped = 0

    def emit(self, event: TimelineEvent) -> None:
        if len(self._buffer) == self.capacity:
            self.dropped += 1
        self._buffer.append(event)

    @property
    def events(self) -> List[TimelineEvent]:
        """Snapshot of the buffered events, oldest first."""
        return list(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[TimelineEvent]:
        return iter(self._buffer)


class JsonlSink(TraceSink):
    """Stream events as JSON Lines to a path or file-like object."""

    def __init__(self, target: Union[str, Path, IO[str]]) -> None:
        if isinstance(target, (str, Path)):
            self._fp: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_fp = True
        else:
            self._fp = target
            self._owns_fp = False
        #: Events written so far.
        self.emitted = 0

    def emit(self, event: TimelineEvent) -> None:
        self._fp.write(json.dumps(event_to_dict(event), sort_keys=True))
        self._fp.write("\n")
        self.emitted += 1

    def close(self) -> None:
        if self._owns_fp and not self._fp.closed:
            self._fp.close()


class Tracer(TraceSink):
    """Composite sink: fans each event out to every attached sink."""

    def __init__(self, sinks: Iterable[TraceSink] = ()) -> None:
        self._sinks: List[TraceSink] = list(sinks)

    @property
    def sinks(self) -> List[TraceSink]:
        """The attached sinks (snapshot)."""
        return list(self._sinks)

    def add_sink(self, sink: TraceSink) -> None:
        """Attach one more sink."""
        self._sinks.append(sink)

    def ring(self) -> Optional[RingBufferSink]:
        """The first attached ring buffer, if any (convenience)."""
        for sink in self._sinks:
            if isinstance(sink, RingBufferSink):
                return sink
        return None

    def emit(self, event: TimelineEvent) -> None:
        for sink in self._sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()
