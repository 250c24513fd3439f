"""Timeline event recording (the Figure 2 / Figure 4 data source)."""

from repro.core.config import SimConfig
from repro.core.dfp import DfpEngine
from repro.enclave import driver as driver_module
from repro.enclave.driver import SgxDriver
from repro.enclave.enclave import Enclave
from repro.enclave.events import EventKind, TimelineEvent
from repro.obs.trace import RingBufferSink


def make(dfp=False):
    """A driver recording into a ring buffer; returns both."""
    config = SimConfig(epc_pages=16, scan_period_cycles=10**9)
    engine = (
        DfpEngine(SimConfig(stream_list_length=4, load_length=4, valve_enabled=False))
        if dfp
        else None
    )
    sink = RingBufferSink(64)
    driver = SgxDriver(config, Enclave("t", elrange_pages=256), dfp=engine, tracer=sink)
    return driver, sink


class TestRecording:
    def test_fault_produces_aex_load_eresume(self):
        driver, sink = make()
        driver.access(5, 0)
        kinds = [e.kind for e in sink.events]
        assert kinds == [EventKind.AEX, EventKind.DEMAND_LOAD, EventKind.ERESUME]

    def test_events_are_time_ordered_and_contiguous(self):
        driver, sink = make()
        driver.access(5, 0)
        events = sink.events
        for prev, cur in zip(events, events[1:]):
            assert cur.start >= prev.start

    def test_preload_events_recorded(self):
        driver, sink = make(dfp=True)
        t = driver.access(10, 0)
        t = driver.access(11, t)
        driver.finish(t + 1_000_000)
        preloads = [e for e in sink.events if e.kind is EventKind.PRELOAD]
        assert [e.page for e in preloads] == [12, 13, 14, 15]

    def test_sip_events_recorded(self):
        driver, sink = make()
        driver.sip_prefetch(5, 0)
        kinds = [e.kind for e in sink.events]
        assert kinds == [EventKind.SIP_CHECK, EventKind.SIP_LOAD]

    def test_recording_off_by_default(self, monkeypatch):
        """Without a sink (or sanitizer) the driver builds no event."""
        built = []
        monkeypatch.setattr(
            driver_module, "TimelineEvent", lambda *fields: built.append(fields)
        )
        driver = SgxDriver(
            SimConfig(epc_pages=16, scan_period_cycles=10**9),
            Enclave("t", elrange_pages=256),
        )
        driver.access(5, 0)
        driver.sip_prefetch(6, driver.access(7, 0))
        assert built == []


class TestTimelineEvent:
    def test_duration(self):
        event = TimelineEvent(EventKind.AEX, 100, 350)
        assert event.duration == 250

    def test_str_includes_page_when_present(self):
        event = TimelineEvent(EventKind.PRELOAD, 0, 10, page=7)
        assert "page=7" in str(event)
        assert "page" not in str(TimelineEvent(EventKind.AEX, 0, 10))
