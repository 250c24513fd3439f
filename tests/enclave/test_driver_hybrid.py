"""Driver-level SIP + DFP interplay (the hybrid scheme's mechanics)."""

import pytest

from repro.core.config import SimConfig
from repro.core.dfp import DfpEngine
from repro.enclave.driver import SgxDriver
from repro.enclave.enclave import Enclave

LOAD = 44_000


def make(epc_pages=64):
    config = SimConfig(epc_pages=epc_pages, scan_period_cycles=10**9)
    dfp = DfpEngine(
        SimConfig(stream_list_length=8, load_length=4, valve_enabled=False)
    )
    driver = SgxDriver(config, Enclave("t", elrange_pages=4096), dfp=dfp)
    return driver, dfp, config


class TestSipDoesNotDisturbDfp:
    def test_sip_load_keeps_queued_bursts(self):
        """A SIP load is not a misprediction signal: the queued burst
        of a healthy stream survives it (unlike a demand fault inside
        the burst)."""
        driver, dfp, _ = make()
        t = driver.access(10, 0)
        t = driver.access(11, t)  # burst 12..15 queued
        t = driver.sip_prefetch(500, t)  # unrelated irregular page
        assert dfp.aborted_preloads == 0
        driver.finish(t + 20 * LOAD)
        for page in (12, 13, 14, 15):
            assert driver.epc.is_resident(page)

    def test_sip_load_waits_behind_preloads(self):
        """The exclusive channel serializes SIP loads behind queued
        preload work, like any other load-in."""
        driver, _, config = make()
        t = driver.access(10, 0)
        t = driver.access(11, t)  # 4-page burst on the channel
        start = t
        end = driver.sip_prefetch(500, t)
        min_cost = (
            config.cost.bitmap_check_cycles
            + config.cost.page_load_cycles
            + config.cost.notification_cycles
        )
        assert end - start > min_cost  # paid queue-drain time too

    def test_sip_check_hit_on_preloaded_page(self):
        """A page DFP already brought in makes the SIP stub a pure
        check — the schemes hand off cleanly."""
        driver, _, config = make()
        t = driver.access(10, 0)
        t = driver.access(11, t)
        t += 10 * LOAD  # burst 12..15 lands
        end = driver.sip_prefetch(12, t)
        assert end - t == config.cost.bitmap_check_cycles
        assert driver.stats.sip_check_hits == 1
        assert driver.stats.sip_loads == 0


class TestDfpSeesSipLoads:
    def test_sip_loaded_page_prevents_future_fault(self):
        driver, _, _ = make()
        t = driver.sip_prefetch(700, 0)
        end = driver.access(700, t)
        assert end == t
        assert driver.stats.faults == 0

    def test_sip_load_is_not_a_fault_for_the_predictor(self):
        """The predictor consumes *fault* history; SIP loads bypass the
        fault handler, so they must not extend streams."""
        driver, dfp, _ = make()
        t = driver.sip_prefetch(700, 0)
        t = driver.access(700, t)
        # A fault at 701 sees no stream (700 never reached the
        # predictor): it is a miss, not an extension.
        t = driver.access(701, t)
        assert dfp.predictor.stream_hits == 0

    def test_burst_filter_skips_sip_resident_pages(self):
        driver, _, _ = make()
        t = driver.sip_prefetch(13, 0)  # 13 resident via SIP
        t = driver.access(10, t)
        t = driver.access(11, t)  # burst 12..15, 13 filtered
        driver.finish(t + 20 * LOAD)
        assert driver.stats.preloads_enqueued == 3
