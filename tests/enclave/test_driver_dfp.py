"""Driver + DFP integration: bursts, rides, aborts (Sections 3.1/4.1)."""

import pytest

from repro.core.config import CostModel, SimConfig
from repro.core.dfp import DfpEngine
from repro.enclave.driver import SgxDriver
from repro.enclave.enclave import Enclave

LOAD = 44_000
FAULT = 64_000


def make(epc_pages=32, load_length=4, valve=False, ewb=0):
    config = SimConfig(
        epc_pages=epc_pages,
        load_length=load_length,
        scan_period_cycles=10**9,
        cost=CostModel(ewb_cycles=ewb),
    )
    dfp = DfpEngine(
        SimConfig(
            stream_list_length=8,
            load_length=load_length,
            valve_enabled=valve,
            valve_slack=4,
        )
    )
    driver = SgxDriver(config, Enclave("t", elrange_pages=4096), dfp=dfp)
    return driver, dfp


class TestBurstScheduling:
    def test_second_sequential_fault_triggers_burst(self):
        driver, dfp = make()
        t = driver.access(10, 0)
        assert driver.channel.is_idle(t)  # one fault: no pattern yet
        t = driver.access(11, t)
        # Burst 12..15 scheduled: channel busy or queued.
        assert not driver.channel.is_idle(t)
        driver.finish(t + 10 * LOAD)
        assert driver.stats.preloads_completed == 4
        for page in (12, 13, 14, 15):
            assert driver.epc.is_resident(page)

    def test_preloaded_pages_hit_without_fault(self):
        driver, _ = make()
        t = driver.access(10, 0)
        t = driver.access(11, t)
        t += 10 * LOAD  # plenty of time: burst lands
        before = driver.stats.faults
        t = driver.access(12, t)
        assert driver.stats.faults == before
        assert driver.stats.preload_hits >= 1

    def test_burst_filtered_of_resident_pages(self):
        driver, _ = make()
        t = driver.access(13, 0)  # 13 resident
        t = driver.access(10, t)
        t = driver.access(11, t)  # burst 12..15, but 13 already in
        driver.finish(t + 10 * LOAD)
        # 13 was not re-loaded: only 12, 14, 15 preloaded.
        assert driver.stats.preloads_enqueued == 3


class TestRidesAndAborts:
    def test_fault_rides_in_flight_preload(self):
        """A fault on the page currently loading waits only for that
        load — no second load is issued."""
        driver, _ = make()
        t = driver.access(10, 0)
        t = driver.access(11, t)  # burst 12..15 starts loading 12
        end = driver.access(12, t)  # immediately: 12 is in flight
        assert driver.stats.faults_absorbed_by_inflight == 1
        assert driver.channel.demand_loads == 2  # only the two cold faults

    def test_fault_on_queued_page_aborts_burst_remainder(self):
        """The paper's in-stream abort: fault inside the queued burst
        drops its remainder and demand-loads the page."""
        driver, dfp = make()
        t = driver.access(10, 0)
        t = driver.access(11, t)  # burst 12,13,14,15; 12 in flight
        t = driver.access(14, t)  # queued → abort 13 and 15, load 14
        assert dfp.aborted_preloads >= 2
        assert driver.epc.is_resident(14)
        driver.finish(t + 10 * LOAD)
        # 13 (behind the fault) stays aborted; the fault itself
        # extended the stream, so a *new* burst 15..18 was scheduled —
        # exactly the paper's "page(5) becomes the start of a new
        # stream" behaviour.
        assert not driver.epc.is_resident(13)
        for page in (15, 16, 17, 18):
            assert driver.epc.is_resident(page)

    def test_unrelated_fault_keeps_other_bursts(self):
        """Multi-stream correctness: stream B's fault must not cancel
        stream A's queued burst (it waits behind it instead)."""
        driver, dfp = make()
        t = driver.access(10, 0)
        t = driver.access(11, t)  # stream A burst 12..15
        t = driver.access(500, t)  # unrelated cold fault
        assert dfp.aborted_preloads == 0
        driver.finish(t + 20 * LOAD)
        for page in (12, 13, 14, 15):
            assert driver.epc.is_resident(page)

    def test_unrelated_fault_waits_behind_queue(self):
        """Section 5.6: the exclusive load-in path delays demand loads
        behind outstanding preloads — the cost of misprediction."""
        driver, _ = make()
        t = driver.access(10, 0)
        t = driver.access(11, t)  # burst of 4 queued
        start = t
        end = driver.access(500, t)
        # The fault waited for (most of) the burst plus its own load.
        assert end - start > FAULT + 2 * LOAD


class TestPredictorIntegration:
    def test_window_extension_across_bursts(self):
        """After a burst of LOADLENGTH, the next stream fault lands
        LOADLENGTH+1 ahead of the recorded tail and must still extend
        the stream (windowed matching)."""
        driver, dfp = make()
        t = driver.access(10, 0)
        t = driver.access(11, t)
        t += 10 * LOAD  # burst 12..15 lands
        t = driver.access(16, t)  # 5 ahead of tail 11: extension
        driver.finish(t + 10 * LOAD)
        assert dfp.predictor.stream_hits >= 2
        for page in (17, 18, 19, 20):
            assert driver.epc.is_resident(page)

    def test_dfp_disabled_after_valve_stop(self):
        driver, dfp = make(valve=True)
        # Force the valve: lots of completed preloads, none accessed.
        dfp.preload_counter = 1000
        assert dfp.check_valve()
        assert not dfp.active
        t = driver.access(10, 0)
        t = driver.access(11, t)
        driver.finish(t + 10 * LOAD)
        assert driver.stats.preloads_enqueued == 0
