"""Shared-platform (multi-enclave) unit tests."""

import pytest

from repro.core.config import SimConfig
from repro.core.dfp import DfpEngine
from repro.enclave.driver import SgxDriver
from repro.enclave.enclave import Enclave
from repro.enclave.loader import LoadKind
from repro.enclave.platform import SharedPlatform
from repro.errors import SimulationError


def make_platform(epc_pages=8):
    config = SimConfig(epc_pages=epc_pages, scan_period_cycles=10**9)
    return SharedPlatform(config), config


def add_enclave(platform, config, name, base, pages, dfp=False):
    enclave = Enclave(name, elrange_pages=pages, base_page=base)
    engine = (
        DfpEngine(SimConfig(stream_list_length=4, load_length=4, valve_enabled=False))
        if dfp
        else None
    )
    return SgxDriver(config, enclave, dfp=engine, platform=platform)


class TestRegistration:
    def test_disjoint_ranges_accepted(self):
        platform, config = make_platform()
        a = add_enclave(platform, config, "a", 0, 100)
        b = add_enclave(platform, config, "b", 100, 100)
        assert platform.drivers == (a, b)

    def test_overlapping_ranges_rejected(self):
        platform, config = make_platform()
        add_enclave(platform, config, "a", 0, 100)
        with pytest.raises(SimulationError):
            add_enclave(platform, config, "b", 50, 100)

    def test_owner_lookup(self):
        platform, config = make_platform()
        a = add_enclave(platform, config, "a", 0, 100)
        b = add_enclave(platform, config, "b", 100, 100)
        assert platform.owner_of(5) is a
        assert platform.owner_of(100) is b
        assert platform.owner_of(199) is b
        assert platform.owner_of(200) is None

    def test_single_enclave_gets_private_platform(self):
        config = SimConfig(epc_pages=8, scan_period_cycles=10**9)
        a = SgxDriver(config, Enclave("a", elrange_pages=10))
        b = SgxDriver(config, Enclave("b", elrange_pages=10))
        assert a.platform is not b.platform
        assert a.epc is not b.epc


class TestSharedResources:
    def test_enclaves_share_frames(self):
        platform, config = make_platform(epc_pages=4)
        a = add_enclave(platform, config, "a", 0, 100)
        b = add_enclave(platform, config, "b", 100, 100)
        t = a.access(0, 0)
        t = b.access(100, t)
        assert platform.epc.resident_count == 2
        assert a.epc is b.epc

    def test_cross_enclave_eviction_attribution(self):
        """When B's load evicts A's page, A gets the eviction stat."""
        platform, config = make_platform(epc_pages=2)
        a = add_enclave(platform, config, "a", 0, 100)
        b = add_enclave(platform, config, "b", 100, 100)
        t = a.access(0, 0)
        t = a.access(1, t)  # EPC full with A's pages
        # Age the bits so CLOCK evicts A's pages freely.
        for page in list(platform.epc.resident_pages()):
            platform.epc.clear_accessed(page)
        t = b.access(100, t)
        assert a.stats.evictions == 1
        assert b.stats.evictions == 0
        assert platform.epc.is_resident(100)

    def test_channel_shared_demands_serialize(self):
        """B's fault right behind A's waits on the exclusive channel."""
        platform, config = make_platform()
        a = add_enclave(platform, config, "a", 0, 100)
        b = add_enclave(platform, config, "b", 100, 100)
        a_end = a.access(0, 0)
        # B faults 1 cycle after A's fault started: its load waits for
        # A's in-channel time.
        b_end = b.access(100, 1)
        assert b_end > config.cost.fault_cycles + 1

    def test_access_to_other_enclaves_pages_rejected(self):
        platform, config = make_platform()
        a = add_enclave(platform, config, "a", 0, 100)
        add_enclave(platform, config, "b", 100, 100)
        with pytest.raises(SimulationError):
            a.access(150, 0)


class TestUnownedLanding:
    """A load that lands on a page no registered enclave owns is a
    simulator fault, whether the channel calls the lone owner's driver
    directly or routes through the platform."""

    def owned_platform(self, owners):
        platform, config = make_platform()
        add_enclave(platform, config, "a", 100, 100)
        if owners == 2:
            add_enclave(platform, config, "b", 300, 100)
        return platform

    # Below the first owner but inside the status table, in the gap or
    # past the end, and a negative page (which would index from the end).
    PAGES = [50, 250, 400, -1]

    @pytest.mark.parametrize("owners", [1, 2])
    @pytest.mark.parametrize("page", PAGES)
    def test_sync_load(self, owners, page):
        platform = self.owned_platform(owners)
        with pytest.raises(SimulationError, match=f"unowned page {page}"):
            platform.channel.load_sync(page, LoadKind.DEMAND, 0)
        assert platform.epc.resident_count == 0

    @pytest.mark.parametrize("owners", [1, 2])
    @pytest.mark.parametrize("page", PAGES)
    def test_queued_preload(self, owners, page):
        platform = self.owned_platform(owners)
        platform.channel.enqueue_preloads([page], 0)
        with pytest.raises(SimulationError, match=f"unowned page {page}"):
            platform.poll(10 * platform.channel.load_cycles)
        assert platform.epc.resident_count == 0


class TestSharedScan:
    def test_scan_runs_once_globally(self):
        config = SimConfig(epc_pages=8, scan_period_cycles=1000)
        platform = SharedPlatform(config)
        a = add_enclave(platform, config, "a", 0, 100)
        b = add_enclave(platform, config, "b", 100, 100)
        a.poll(5_000)
        b.poll(5_000)
        # 5 scan periods elapsed: each driver observed 5 scans, not 10.
        assert a.stats.scans == 5
        assert b.stats.scans == 5

    def test_preload_credit_routed_to_owner(self):
        config = SimConfig(epc_pages=32, scan_period_cycles=500_000)
        platform = SharedPlatform(config)
        a = add_enclave(platform, config, "a", 0, 1000, dfp=True)
        b = add_enclave(platform, config, "b", 1000, 1000, dfp=True)
        t = a.access(10, 0)
        t = a.access(11, t)  # A's burst 12..15
        t += 5 * 44_000
        t = a.access(12, t)  # touch A's preload
        a.poll(1_000_001)
        b.poll(1_000_001)
        assert a._dfp.acc_preload_counter >= 1
        assert b._dfp.acc_preload_counter == 0

    def test_valve_abort_only_cancels_own_bursts(self):
        config = SimConfig(
            epc_pages=64, scan_period_cycles=500_000, valve_slack=0
        )
        platform = SharedPlatform(config)
        a = add_enclave(platform, config, "a", 0, 1000, dfp=True)
        b_engine = DfpEngine(
            SimConfig(
                stream_list_length=4,
                load_length=4,
                valve_enabled=True,
                valve_slack=0,
            )
        )
        b = SgxDriver(
            config,
            Enclave("b", elrange_pages=1000, base_page=1000),
            dfp=b_engine,
            platform=platform,
        )
        t = a.access(10, 0)
        t = a.access(11, t)  # A's burst queued/in flight
        t = b.access(1010, t)
        t = b.access(1011, t)  # B's burst queued
        # Fire B's valve artificially.
        b._dfp.preload_counter = 10_000
        queued_before = set(platform.channel.queued_pages)
        b._after_scan(t, 0)
        queued_after = set(platform.channel.queued_pages)
        # Only B's pages (>= 1000) disappeared from the queue.
        assert all(page < 1000 for page in queued_after)
        assert queued_before - queued_after <= {1012, 1013, 1014, 1015}
