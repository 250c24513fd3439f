"""Timeline event records, for the Figure 2 / Figure 4 reproductions.

The paper's didactic figures plot the exact sequence of AEX, page-load,
ERESUME and notification intervals on a time axis.  When a driver is
constructed with a ``tracer`` sink (:mod:`repro.obs.trace`) it emits
one :class:`TimelineEvent` per interval into it;
``simulate(..., record_events=True)`` passes a bounded
:class:`repro.obs.trace.RingBufferSink` and returns its contents as
``RunResult.events``, which the Figure 2 bench renders as an ASCII
time chart.

Recording is off by default, and memory stays bounded even when it is
on: large runs produce millions of events, so the ring buffer keeps
only the most recent ``event_capacity`` of them and counts the rest in
its ``dropped`` counter.  Other consumers (JSONL streams, the Chrome
trace exporter) are sinks too, fanned out through a
:class:`repro.obs.trace.Tracer` when there are several.

An event is a named tuple, the cheapest record Python builds: the
driver makes one per interval while a sink listens.  Nothing formats
it on the way: the sanitizer's event tail keeps the raw ``(kind,
start, end, page)`` values and turns them into text only when a check
fails or the tail is read.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

__all__ = ["EventKind", "TimelineEvent"]


class EventKind(enum.Enum):
    """What happened during a recorded interval."""

    COMPUTE = "compute"
    AEX = "aex"
    ERESUME = "eresume"
    DEMAND_LOAD = "demand_load"
    PRELOAD = "preload"
    SIP_CHECK = "sip_check"
    SIP_LOAD = "sip_load"
    FAULT_WAIT = "fault_wait"
    ABORT = "abort"
    EPC_HIT = "epc_hit"
    SCAN = "scan"


class TimelineEvent(NamedTuple):
    """One interval on the virtual-cycle timeline.

    ``start`` and ``end`` are virtual cycle stamps; ``page`` is -1 for
    events not tied to a page (a pure compute interval, an AEX).
    """

    kind: EventKind
    start: int
    end: int
    page: int = -1

    @property
    def duration(self) -> int:
        """Length of the interval in cycles."""
        return self.end - self.start

    def __str__(self) -> str:
        page = f" page={self.page}" if self.page >= 0 else ""
        return f"[{self.start:>10}..{self.end:>10}] {self.kind.value}{page}"
