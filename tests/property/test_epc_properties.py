"""Property-based tests: EPC + CLOCK evictor invariants.

A random sequence of inserts/evicts/touches, driven the way the driver
drives them, must never violate the physical constraints: residency
bounded by capacity, the evictor ring consistent with the EPC, victims
always resident.  The driver's one-step frame swap must leave the state
the evict-then-insert sequence it replaces would leave.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enclave.epc import Epc
from repro.enclave.eviction import ClockEvictor
from repro.errors import EpcError

CAPACITY = 8

# An operation stream: pages to touch, in driver fashion (touch loads
# the page if absent, evicting a CLOCK victim when full).
touches = st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=200)


@given(touches)
@settings(max_examples=200)
def test_residency_never_exceeds_capacity(pages):
    epc = Epc(CAPACITY)
    evictor = ClockEvictor(epc)
    for page in pages:
        if not epc.is_resident(page):
            if epc.is_full:
                victim = evictor.select_victim()
                epc.evict(victim)
                evictor.note_evict(victim)
            epc.insert(page)
            evictor.note_insert(page)
        epc.mark_accessed(page)
        assert epc.resident_count <= CAPACITY


@given(touches)
@settings(max_examples=200)
def test_clock_victim_is_always_resident(pages):
    epc = Epc(CAPACITY)
    evictor = ClockEvictor(epc)
    for page in pages:
        if not epc.is_resident(page):
            if epc.is_full:
                victim = evictor.select_victim()
                assert epc.is_resident(victim)
                epc.evict(victim)
                evictor.note_evict(victim)
            epc.insert(page)
            evictor.note_insert(page)
        epc.mark_accessed(page)


@given(touches)
@settings(max_examples=200)
def test_insert_evict_counters_balance(pages):
    epc = Epc(CAPACITY)
    evictor = ClockEvictor(epc)
    for page in pages:
        if not epc.is_resident(page):
            if epc.is_full:
                victim = evictor.select_victim()
                epc.evict(victim)
                evictor.note_evict(victim)
            epc.insert(page)
            evictor.note_insert(page)
    assert epc.total_inserts - epc.total_evictions == epc.resident_count


@given(touches)
@settings(max_examples=100)
def test_most_recent_touch_is_always_resident(pages):
    """The page just loaded for a touch can never be its own victim."""
    epc = Epc(CAPACITY)
    evictor = ClockEvictor(epc)
    for page in pages:
        if not epc.is_resident(page):
            if epc.is_full:
                victim = evictor.select_victim()
                epc.evict(victim)
                evictor.note_evict(victim)
            epc.insert(page)
            evictor.note_insert(page)
        epc.mark_accessed(page)
        assert epc.is_resident(page)


# Build steps for a generated EPC + ring state: a page to touch (loaded
# if absent, over a CLOCK victim when full), whether a load is a
# preload, and whether the touch sets the A bit.
build_steps = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40), st.booleans(), st.booleans()),
    min_size=1,
    max_size=120,
)


def _generated_state(steps):
    epc = Epc(CAPACITY)
    epc.ensure_page_span(41)
    evictor = ClockEvictor(epc)
    for page, preloaded, touch in steps:
        if not epc.is_resident(page):
            if epc.is_full:
                victim = evictor.select_victim()
                epc.evict(victim)
                evictor.note_evict(victim)
            epc.insert(page, preloaded=preloaded)
            evictor.note_insert(page)
        if touch:
            epc.mark_accessed(page)
    return epc, evictor


def _evict_then_insert(epc, evictor, victim, page, preloaded):
    code = epc.evict(victim)
    evictor.note_evict(victim)
    epc.insert(page, preloaded=preloaded)
    evictor.note_insert(page)
    return code


def _swap(epc, evictor, victim, page, preloaded):
    code = epc.swap(victim, page, preloaded=preloaded)
    evictor.note_swap(victim, page)
    return code


def _outcome(step, epc, evictor, victim, page, preloaded):
    """The victim byte and every piece of EPC and ring state, or the error."""
    try:
        code = step(epc, evictor, victim, page, preloaded)
    except EpcError as exc:
        return f"EpcError: {exc}"
    return (
        code,
        bytes(epc.status_table),
        epc.resident_count,
        epc.total_inserts,
        epc.total_evictions,
        list(evictor._ring),
        dict(evictor._slot_of),
        evictor._hand,
        list(evictor._free_slots),
    )


@given(build_steps, st.data(), st.booleans())
@settings(max_examples=300)
def test_swap_equals_evict_then_insert(steps, data, preloaded):
    """``Epc.swap`` + ``ClockEvictor.note_swap`` leave exactly the state of
    evict, note_evict, insert and note_insert — and raise the same
    ``EpcError`` for a non-resident victim or an already-resident page."""
    epc, evictor = _generated_state(steps)
    # Resident pages are drawn often, so every outcome is common: a
    # landing, a non-resident victim, a resident page, victim == page.
    pages = st.one_of(
        st.sampled_from(sorted(epc.resident_pages())), st.integers(min_value=0, max_value=40)
    )
    victim, page = data.draw(pages), data.draw(pages)
    twin_epc, twin_evictor = copy.deepcopy((epc, evictor))
    expected = _outcome(_evict_then_insert, epc, evictor, victim, page, preloaded)
    assert _outcome(_swap, twin_epc, twin_evictor, victim, page, preloaded) == expected
