"""Service-thread scan tests: CLOCK aging, preload accounting, valve
(Section 4.2)."""

import pytest

from repro.core.config import SimConfig
from repro.core.dfp import DfpEngine
from repro.enclave.driver import SgxDriver
from repro.enclave.enclave import Enclave

SCAN = 100_000
LOAD = 44_000


def make(valve=True, slack=2, ratio=0.5):
    config = SimConfig(epc_pages=32, scan_period_cycles=SCAN)
    dfp = DfpEngine(
        SimConfig(
            stream_list_length=8,
            load_length=4,
            valve_enabled=valve,
            valve_slack=slack,
            valve_ratio=ratio,
        )
    )
    driver = SgxDriver(config, Enclave("t", elrange_pages=2048), dfp=dfp)
    return driver, dfp


class TestScanScheduling:
    def test_scans_fire_on_schedule(self):
        driver, _ = make()
        driver.poll(5 * SCAN + 1)
        assert driver.stats.scans == 5

    def test_no_scan_before_first_period(self):
        driver, _ = make()
        driver.poll(SCAN - 1)
        assert driver.stats.scans == 0

    def test_scan_clears_accessed_bits(self):
        driver, _ = make()
        t = driver.access(1, 0)
        assert driver.epc.state_of(1).accessed
        driver.poll(SCAN + 1)
        assert not driver.epc.state_of(1).accessed


class TestDueBoundaries:
    """A load due exactly at a scan or at a touch lands before it: every
    when-due test that skips a poll or an advance is ``>=``, not ``>``."""

    def make_full(self):
        config = SimConfig(epc_pages=4, scan_period_cycles=10 * SCAN)
        return SgxDriver(config, Enclave("t", elrange_pages=64)), config

    def test_landing_due_at_a_scan_lands_before_it(self):
        """Its CLOCK sweep still sees the A bits the scan then ages."""
        driver, config = self.make_full()
        t = 0
        for page in range(4):
            t = driver.access(page, t)  # EPC full, every A bit set
        driver.epc.clear_accessed(2)
        driver.epc.clear_accessed(3)
        channel = driver.channel
        scan = config.scan_period_cycles
        channel.enqueue_preloads([10], scan - channel.load_cycles)
        channel.advance_to(scan - 1)
        assert channel.due == scan
        driver.poll(scan)
        # Swept before aging: pages 0 and 1 get second chances, 2 goes.
        resident = [driver.epc.is_resident(page) for page in (0, 1, 2, 3, 10)]
        assert resident == [True, True, False, True, True]
        assert driver.stats.scans == 1

    def test_landing_due_at_a_touch_lands_before_it(self):
        """The touch is a preload hit, not a fault absorbed by the load."""
        driver, _config = self.make_full()
        channel = driver.channel
        channel.enqueue_preloads([10], 0)
        channel.advance_to(0)
        driver.access(10, channel.due)
        assert (driver.stats.faults, driver.stats.preload_hits) == (0, 1)


class TestPreloadAccounting:
    def _preload_and_touch(self, driver, touch: bool):
        t = driver.access(10, 0)
        t = driver.access(11, t)  # burst 12..15
        t += 5 * LOAD
        if touch:
            t = driver.access(12, t)
        return t

    def test_accessed_preload_credited_at_scan(self):
        driver, dfp = make(valve=False)
        t = self._preload_and_touch(driver, touch=True)
        driver.poll(((t // SCAN) + 1) * SCAN + 1)
        assert dfp.acc_preload_counter >= 1
        assert driver.stats.preloads_accessed >= 1
        # Credit clears the preloaded mark: no double counting.
        assert not driver.epc.state_of(12).preloaded

    def test_untouched_preload_not_credited(self):
        driver, dfp = make(valve=False)
        t = self._preload_and_touch(driver, touch=False)
        driver.poll(((t // SCAN) + 1) * SCAN + 1)
        assert dfp.acc_preload_counter == 0

    def test_preload_counter_tracks_completions(self):
        driver, dfp = make(valve=False)
        t = self._preload_and_touch(driver, touch=False)
        driver.finish(t + 10 * LOAD)
        assert dfp.preload_counter == driver.stats.preloads_completed == 4

    def test_eviction_of_accessed_preload_credits(self):
        """A correct preload evicted before the next scan still counts
        (the driver credits at EWB time)."""
        driver, dfp = make(valve=False)
        config_pages = driver.epc.capacity
        t = driver.access(10, 0)
        t = driver.access(11, t)
        t += 5 * LOAD
        t = driver.access(12, t)  # touch the preload
        # Force evictions by filling the EPC with cold faults.
        page = 1000
        while driver.stats.evictions < config_pages + 8:
            t = driver.access(page, t)
            page += 2  # non-sequential: no new streams extended
        assert dfp.acc_preload_counter + driver.stats.preloads_accessed >= 1


class TestValve:
    def test_valve_fires_on_bad_accuracy(self):
        driver, dfp = make(valve=True, slack=2, ratio=0.5)
        # Simulate a pathological run: many completed, none accessed.
        dfp.preload_counter = 100
        driver.poll(SCAN + 1)
        assert not dfp.active
        assert driver.stats.valve_stops == 1

    def test_valve_respects_slack(self):
        driver, dfp = make(valve=True, slack=1000, ratio=0.5)
        dfp.preload_counter = 100
        driver.poll(SCAN + 1)
        assert dfp.active

    def test_valve_quiet_on_good_accuracy(self):
        driver, dfp = make(valve=True, slack=2, ratio=0.5)
        dfp.preload_counter = 100
        dfp.acc_preload_counter = 90
        driver.poll(SCAN + 1)
        assert dfp.active

    def test_valve_stop_aborts_queue(self):
        driver, dfp = make(valve=True, slack=2, ratio=0.5)
        t = driver.access(10, 0)
        t = driver.access(11, t)  # burst queued
        dfp.preload_counter += 100  # poison the accounting
        driver.poll(((t // SCAN) + 1) * SCAN + 1)
        assert not dfp.active
        assert driver.channel.queued_pages == ()

    def test_valve_disabled_never_stops(self):
        driver, dfp = make(valve=False, slack=0)
        dfp.preload_counter = 10_000
        driver.poll(SCAN + 1)
        assert dfp.active
        assert driver.stats.valve_stops == 0
