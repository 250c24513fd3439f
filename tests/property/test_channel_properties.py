"""Property-based tests: load-channel timing invariants.

A random interleaving of enqueues, demand loads, aborts, waits and
advances must preserve: monotone application order, the per-load
duration, conservation of preload counts (enqueued = completed +
aborted + still-pending), and the meaning of ``due`` — the earliest
time at which ``advance_to`` can change anything.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enclave.loader import IDLE_DUE, LoadChannel, LoadKind

LOAD = 44_000

# Operations: ("preload", [pages]) | ("demand", page) | ("advance", dt)
#             | ("abort_range", a, b) | ("abort_tag", burst index) | ("wait",)
ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("preload"),
            st.lists(
                st.integers(min_value=0, max_value=500), min_size=1, max_size=6
            ),
        ),
        st.tuples(st.just("demand"), st.integers(min_value=0, max_value=500)),
        st.tuples(st.just("advance"), st.integers(min_value=0, max_value=200_000)),
        st.tuples(
            st.just("abort_range"),
            st.integers(min_value=0, max_value=501),
            st.integers(min_value=0, max_value=501),
        ),
        st.tuples(st.just("abort_tag"), st.integers(min_value=0, max_value=20)),
        st.tuples(st.just("wait")),
    ),
    min_size=1,
    max_size=60,
)


class Tracker:
    def __init__(self):
        self.applied = []

    def __call__(self, page, kind, finish):
        self.applied.append((page, kind, finish))
        return False


def run_ops(op_list, after_op=None):
    """Apply ``op_list`` to a fresh channel; ``after_op(chan, tracker,
    now)`` runs after every operation."""
    tracker = Tracker()
    chan = LoadChannel(LOAD, tracker)
    now = 0
    tags = []
    for op in op_list:
        if op[0] == "preload":
            pages = [
                p
                for p in dict.fromkeys(op[1])
                if not chan.is_queued(p) and chan.current_page != p
            ]
            if pages:
                tags.append(chan.enqueue_preloads(pages, now))
        elif op[0] == "demand":
            now = chan.load_sync(op[1], LoadKind.DEMAND, now)
        elif op[0] == "advance":
            now += op[1]
            chan.advance_to(now)
        elif op[0] == "abort_tag":
            if tags:
                chan.abort_tag(tags[op[1] % len(tags)], now)
        elif op[0] == "wait":
            now = chan.wait_for_current(now)
        else:
            lo, hi = sorted(op[1:])
            chan.abort_pages_in_range(lo, hi, now)
        if after_op is not None:
            after_op(chan, tracker, now)
    return chan, tracker, now


@given(ops)
@settings(max_examples=200)
def test_applications_time_ordered(op_list):
    _chan, tracker, _now = run_ops(op_list)
    finishes = [f for _p, _k, f in tracker.applied]
    assert finishes == sorted(finishes)


@given(ops)
@settings(max_examples=200)
def test_preload_conservation(op_list):
    chan, _tracker, now = run_ops(op_list)
    pending = len(chan.queued_pages) + (
        1 if chan.current_page is not None else 0
    )
    in_flight_is_preload = chan.current_page is not None
    # enqueued = completed + aborted + still queued (+ maybe in flight)
    accounted = chan.preloads_completed + chan.preloads_aborted + len(
        chan.queued_pages
    )
    if in_flight_is_preload:
        accounted += 1
    assert chan.preloads_enqueued == accounted


@given(ops)
@settings(max_examples=200)
def test_demand_loads_take_exactly_load_cycles_on_channel(op_list):
    """Every applied load finishes exactly LOAD cycles after the
    channel began it — loads are never shortened or stretched."""
    _chan, tracker, _now = run_ops(op_list)
    # Reconstruct: consecutive finishes must be >= LOAD apart whenever
    # the channel was continuously busy; at minimum every finish is at
    # least LOAD (nothing finishes instantly).
    for _page, _kind, finish in tracker.applied:
        assert finish >= LOAD


@given(ops)
@settings(max_examples=200)
def test_no_page_applied_twice_while_tracked(op_list):
    """A page is loaded at most once per residency period: we never
    enqueue a duplicate of a queued/in-flight page, so consecutive
    applications of the same page must be separated in time."""
    _chan, tracker, _now = run_ops(op_list)
    last_finish = {}
    for page, _kind, finish in tracker.applied:
        if page in last_finish:
            assert finish > last_finish[page]
        last_finish[page] = finish


@given(
    ops,
    st.integers(min_value=0, max_value=501),
    st.integers(min_value=0, max_value=501),
)
@settings(max_examples=200)
def test_range_abort_drops_exactly_the_queued_pages_in_range(op_list, a, b):
    """The valve's abort drops the queued pages in ``[lo, hi)`` and only
    those: survivors keep their order and bursts, and the in-flight
    load (non-preemptible) is never cancelled."""
    chan, _tracker, now = run_ops(op_list)
    lo, hi = sorted((a, b))
    chan.advance_to(now)
    current = chan.current_page
    before = chan.queued_pages
    tags = {page: chan.queued_tag(page) for page in before}
    aborted = chan.preloads_aborted
    dropped = chan.abort_pages_in_range(lo, hi, now)
    survivors = tuple(page for page in before if not lo <= page < hi)
    assert dropped == len(before) - len(survivors)
    assert chan.queued_pages == survivors
    assert all(chan.queued_tag(page) == tags[page] for page in survivors)
    assert not any(chan.is_queued(page) for page in before if lo <= page < hi)
    assert chan.current_page == current
    assert chan.preloads_aborted == aborted + dropped


def _observable(chan, tracker):
    return (
        chan.due,
        chan.current_page,
        chan.queued_pages,
        chan._free_at,
        chan.demand_loads,
        chan.sip_loads,
        chan.preloads_enqueued,
        chan.preloads_completed,
        chan.preloads_aborted,
        len(tracker.applied),
    )


def _check_due(chan, tracker, now):
    if chan.current_page is not None:
        assert chan.due == chan._finish
    elif chan.queued_pages:
        assert chan.due == 0
    else:
        assert chan.due == IDLE_DUE
    if chan.due > 0:
        # The latest time before ``due`` — and so every earlier one —
        # must find nothing to do.
        before = _observable(chan, tracker)
        chan.advance_to(chan.due - 1)
        assert _observable(chan, tracker) == before


@given(ops)
@settings(max_examples=200)
def test_due_is_the_earliest_time_advance_changes_anything(op_list):
    """``due`` is the in-flight finish, 0 while a queued load waits to be
    promoted, or the idle sentinel; advancing to any time before it
    leaves every observable of the channel unchanged."""
    run_ops(op_list, after_op=_check_due)
