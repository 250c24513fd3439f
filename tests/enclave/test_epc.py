"""Unit tests for the EPC frame pool."""

import pytest

from repro.enclave.epc import (
    PAGE_ACCESSED,
    PAGE_PRELOADED,
    PAGE_RESIDENT,
    Epc,
)
from repro.errors import EpcError


class TestConstruction:
    def test_capacity_required_positive(self):
        with pytest.raises(EpcError):
            Epc(0)

    def test_starts_empty(self):
        epc = Epc(8)
        assert epc.resident_count == 0
        assert epc.free_frames == 8
        assert not epc.is_full


class TestInsertEvict:
    def test_insert_makes_resident(self):
        epc = Epc(4)
        epc.insert(7)
        assert epc.is_resident(7)
        assert epc.resident_count == 1

    def test_insert_duplicate_rejected(self):
        epc = Epc(4)
        epc.insert(7)
        with pytest.raises(EpcError):
            epc.insert(7)

    def test_insert_into_full_epc_rejected(self):
        """The physical constraint: no frame, no load."""
        epc = Epc(2)
        epc.insert(0)
        epc.insert(1)
        assert epc.is_full
        with pytest.raises(EpcError):
            epc.insert(2)

    def test_evict_frees_frame(self):
        epc = Epc(2)
        epc.insert(0)
        epc.insert(1)
        epc.evict(0)
        assert not epc.is_resident(0)
        assert epc.free_frames == 1
        epc.insert(2)  # frame reusable
        assert epc.is_resident(2)

    def test_evict_non_resident_rejected(self):
        with pytest.raises(EpcError):
            Epc(2).evict(5)

    def test_lifetime_counters(self):
        epc = Epc(2)
        epc.insert(0)
        epc.insert(1)
        epc.evict(0)
        epc.insert(2)
        assert epc.total_inserts == 3
        assert epc.total_evictions == 1

    def test_evict_returns_final_state(self):
        epc = Epc(2)
        epc.insert(0, preloaded=True)
        epc.mark_accessed(0)
        code = epc.evict(0)
        assert code == PAGE_RESIDENT | PAGE_ACCESSED | PAGE_PRELOADED
        assert epc.status_table[0] == 0

    def test_is_resident_outside_the_span_is_false(self):
        """``status[-1]`` would read the last byte; residency must not."""
        epc = Epc(4)
        epc.ensure_page_span(8)
        epc.insert(7)
        assert epc.is_resident(7)
        assert not epc.is_resident(-1)
        assert not epc.is_resident(8)
        assert not epc.is_resident(1_000)


class TestFlags:
    def test_insert_clears_accessed(self):
        epc = Epc(2)
        assert epc.insert(3) is None
        assert epc.status_table[3] == PAGE_RESIDENT
        assert not epc.state_of(3).accessed

    def test_preloaded_flag_set_on_preload_insert(self):
        epc = Epc(2)
        epc.insert(3, preloaded=True)
        epc.insert(4)
        assert epc.status_table[3] == PAGE_RESIDENT | PAGE_PRELOADED
        assert epc.state_of(3).preloaded
        assert not epc.state_of(4).preloaded

    def test_mark_and_clear_accessed(self):
        epc = Epc(2)
        epc.insert(3)
        epc.mark_accessed(3)
        assert epc.state_of(3).accessed
        epc.clear_accessed(3)
        assert not epc.state_of(3).accessed

    def test_mark_accessed_non_resident_rejected(self):
        with pytest.raises(EpcError):
            Epc(2).mark_accessed(9)

    def test_state_of_non_resident_rejected(self):
        with pytest.raises(EpcError):
            Epc(2).state_of(9)


class TestIteration:
    def test_resident_pages_iterates_all(self):
        epc = Epc(8)
        for page in (3, 5, 7):
            epc.insert(page)
        assert sorted(epc.resident_pages()) == [3, 5, 7]
