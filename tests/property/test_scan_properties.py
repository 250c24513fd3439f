"""Property-based tests: the touched-page scan equals a whole-table scan.

``SharedPlatform._scan`` ages and credits only the pages that
``SgxDriver.access`` recorded since the previous scan.  The reference
ages every byte of the status table with one translation and counts
each owner's ``RESIDENT|ACCESSED|PRELOADED`` bytes over its page range.
At every scan of generated runs — one to three enclaves on a small
EPC, DFP preloads, CLOCK second chances, evictions and re-faults — the
two must leave the same status table and hand each owner the same
credit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimConfig
from repro.core.dfp import DfpEngine
from repro.enclave.driver import SgxDriver
from repro.enclave.enclave import Enclave
from repro.enclave.epc import PAGE_ACCESSED, PAGE_RESIDENT
from repro.enclave.platform import _PAGE_CREDITED, SharedPlatform

PAGES = 24

_AGING = bytes(
    PAGE_RESIDENT if code & PAGE_ACCESSED else code for code in range(8)
) + bytes(range(8, 256))


class ScanRecord:
    """What the checked scans saw, for the coverage guard."""

    def __init__(self):
        self.scans = 0
        self.credits = 0
        self.repeated = 0
        self.stale = 0


def run_checked(owners, epc_pages, steps):
    """Run ``steps`` — ``(owner, page step, gap)`` — with every scan checked.

    Each owner walks its own pages in short steps, so DFP finds streams,
    preloads land and get touched, and a small EPC evicts and re-faults.
    """
    config = SimConfig(
        epc_pages=epc_pages, scan_period_cycles=300_000, load_length=2
    )
    platform = SharedPlatform(config)
    drivers = []
    for index in range(owners):
        enclave = Enclave(f"e{index}", elrange_pages=PAGES, base_page=index * PAGES)
        engine = DfpEngine(
            SimConfig(stream_list_length=4, load_length=2, valve_enabled=False)
        )
        drivers.append(SgxDriver(config, enclave, dfp=engine, platform=platform))
    seen = []
    for driver in drivers:
        real_after = driver._after_scan

        def after_scan(now, credited, real_after=real_after):
            seen.append(credited)
            real_after(now, credited)

        driver._after_scan = after_scan
    record = ScanRecord()
    real_scan = platform._scan

    def checked_scan(now):
        status = platform.epc.status_table
        touched = platform.touched
        record.repeated += len(touched) - len(set(touched))
        record.stale += sum(not status[page] & PAGE_ACCESSED for page in touched)
        expected = [
            status.count(_PAGE_CREDITED, lo, hi) for lo, hi, _driver in platform._owners
        ]
        aged = status.translate(_AGING)
        seen.clear()
        real_scan(now)
        assert bytes(status) == aged
        assert seen == expected
        assert platform.touched == []
        record.scans += 1
        record.credits += sum(expected)

    platform._scan = checked_scan
    pages = [0] * owners
    now = 0
    for owner, step, gap in steps:
        owner %= owners
        pages[owner] = min(PAGES - 1, max(0, pages[owner] + step))
        now = drivers[owner].access(owner * PAGES + pages[owner], now) + gap
    for driver in drivers:
        driver.finish(now)
    return record, drivers


steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.one_of(st.integers(min_value=-2, max_value=3), st.integers(-12, 12)),
        st.integers(min_value=0, max_value=60_000),
    ),
    min_size=20,
    max_size=120,
)


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=2, max_value=10), steps)
@settings(max_examples=150, deadline=None)
def test_touched_scan_equals_whole_table_scan(owners, epc_pages, step_list):
    run_checked(owners, epc_pages, step_list)


def test_checked_runs_cover_credits_repeats_and_second_chances():
    """Guard for the property: a plain walk over three owners on a tight
    EPC reaches every case the touched scan must get right."""
    walk = [(i % 3, (1, 2, -4, 1, 1, -2)[i % 6], 1_000 * (i % 4)) for i in range(400)]
    record, drivers = run_checked(3, 6, walk)
    assert record.scans > 5
    assert record.credits > 0
    assert record.repeated > 0  # a page recorded twice before one scan
    assert record.stale > 0  # recorded, then aged by CLOCK or evicted
    assert drivers[0].evictor.second_chances > 0  # one CLOCK for the shared EPC
    assert sum(d.stats.evictions for d in drivers) > 0
