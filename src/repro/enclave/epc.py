"""The Enclave Page Cache (EPC).

The EPC is the contiguous physical memory region SGX reserves for
enclave pages.  It is managed by the (untrusted) OS at 4 KiB page
granularity; on the paper's platform 128 MB are reserved of which
~96 MB are usable by applications.

This module models the EPC as a fixed pool of frames plus, for every
*resident* virtual page, the two bits the paper's mechanisms rely on:

* the **accessed** bit — set by the "hardware" on every touch, cleared
  periodically by the driver's CLOCK service thread; CLOCK replacement
  and the DFP preload accounting both read it;
* the **preloaded** bit — set when a page is brought in by the DFP
  preload thread rather than by a demand fault, cleared when the
  service-thread scan credits the page as a correct preload.  This is
  the per-page state behind the paper's ``PreloadedPageList``.

Storage layout: residency and both bits live in one **status byte per
page** of the registered address space (:attr:`Epc.status_table`), as a
bit field:

==============  =====  ===========================================
constant        value  meaning
==============  =====  ===========================================
PAGE_ABSENT     0      not resident (the whole byte is zero)
PAGE_RESIDENT   1      bit 0: the page occupies an EPC frame
PAGE_ACCESSED   2      bit 1: the A bit is set
PAGE_PRELOADED  4      bit 2: preloaded and not yet credited
==============  =====  ===========================================

so a clean resident page is ``1``, an accessed one ``3``, a pending
preload ``5`` and an accessed pending preload ``7``.  The bit layout
makes a page touch *idempotent* — ``code | PAGE_ACCESSED`` is correct
whether or not the page was touched before — and makes a preload
credit the one byte value ``7``.

Recording contract: on an EPC a platform scans, only ``SgxDriver.access``
sets A bits, and it records each page for the scan.  :meth:`Epc.mark_accessed`
and the :class:`EpcPageState` setters record nothing: they serve EPCs no
platform scans, such as :mod:`repro.core.userpaging`'s.

The status byte is the EPC's only residency store: beside it the
:class:`Epc` keeps just the resident count.  :meth:`Epc.is_resident`
reads the byte, :meth:`Epc.evict` returns the victim's final byte, and
:meth:`Epc.state_of` builds an :class:`EpcPageState` — a *view* whose
``accessed``/``preloaded`` properties read and write the byte — only
when a caller asks for one.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import EpcError

__all__ = [
    "Epc",
    "EpcPageState",
    "PAGE_ABSENT",
    "PAGE_RESIDENT",
    "PAGE_ACCESSED",
    "PAGE_PRELOADED",
]

#: Status-byte bit flags (see the module docstring's table).
PAGE_ABSENT = 0
PAGE_RESIDENT = 1
PAGE_ACCESSED = 2
PAGE_PRELOADED = 4


class EpcPageState:
    """A live view of one resident page's status byte.

    ``accessed`` mirrors the page-table A bit; ``preloaded`` marks pages
    brought in speculatively and not yet credited by the scan thread.
    :meth:`Epc.state_of` builds one on demand: reads and writes through
    the properties go straight to the status table.
    """

    __slots__ = ("_table", "_index")

    def __init__(self, table: bytearray, index: int) -> None:
        self._table = table
        self._index = index

    @property
    def accessed(self) -> bool:
        return bool(self._table[self._index] & PAGE_ACCESSED)

    @accessed.setter
    def accessed(self, value: bool) -> None:
        code = self._table[self._index]
        if code == PAGE_ABSENT:
            raise EpcError("stale page state: the page was evicted")
        if value:
            self._table[self._index] = code | PAGE_ACCESSED
        else:
            self._table[self._index] = code & ~PAGE_ACCESSED

    @property
    def preloaded(self) -> bool:
        return bool(self._table[self._index] & PAGE_PRELOADED)

    @preloaded.setter
    def preloaded(self, value: bool) -> None:
        code = self._table[self._index]
        if code == PAGE_ABSENT:
            raise EpcError("stale page state: the page was evicted")
        if value:
            self._table[self._index] = code | PAGE_PRELOADED
        else:
            self._table[self._index] = code & ~PAGE_PRELOADED

    def __repr__(self) -> str:
        return (
            f"EpcPageState(accessed={self.accessed}, "
            f"preloaded={self.preloaded})"
        )


class Epc:
    """A fixed pool of EPC frames with residency tracking.

    The class enforces the physical constraint the whole paper is
    about: at most :attr:`capacity` pages can be resident at once, and
    making room for a new page requires an explicit eviction (the OS's
    EWB path), which this class *checks* but does not *choose* — victim
    selection lives in :class:`repro.enclave.eviction.ClockEvictor`.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise EpcError(f"EPC capacity must be positive, got {capacity}")
        self._capacity = capacity
        # The only residency store: one status byte per page of the
        # covered address space (grown, never rebound, so bound
        # references like ``table.__getitem__`` stay valid).
        self._status = bytearray()
        self._count = 0
        # Lifetime counters, exposed for stats and invariant tests.
        self.total_inserts = 0
        self.total_evictions = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Number of frames in the pool."""
        return self._capacity

    @property
    def resident_count(self) -> int:
        """Number of pages currently resident."""
        return self._count

    @property
    def free_frames(self) -> int:
        """Number of frames currently unoccupied."""
        return self._capacity - self._count

    @property
    def is_full(self) -> bool:
        """True when an insert would require an eviction first."""
        return self._count >= self._capacity

    def is_resident(self, page: int) -> bool:
        """True if virtual ``page`` currently occupies an EPC frame."""
        return 0 <= page < len(self._status) and self._status[page] != PAGE_ABSENT

    def state_of(self, page: int) -> EpcPageState:
        """A live view of a resident page's bits.

        Raises :class:`EpcError` for non-resident pages: callers must
        check residency first, mirroring the driver's own flow.
        """
        if not self.is_resident(page):
            raise EpcError(f"page {page} is not resident")
        return EpcPageState(self._status, page)

    def resident_pages(self) -> Iterator[int]:
        """Iterate over the resident page numbers, in page order."""
        return (page for page, code in enumerate(self._status) if code)

    @property
    def status_table(self) -> bytearray:
        """The per-page status byte table (see the module docstring).

        ``status_table[page]`` is ``PAGE_ABSENT`` for every
        non-resident page of the covered span, else one of the four
        resident codes.  The object is grown in place and never
        rebound, so hot paths may hold it (or a bound
        ``__getitem__``) across residency changes.  Residency changes
        go through :meth:`insert`, :meth:`evict` and :meth:`swap`, which
        keep the counts; the driver, the evictor and the platform scan
        edit only the accessed and preloaded bits, under the recording contract.
        """
        return self._status

    def ensure_page_span(self, span: int) -> None:
        """Grow the status table to cover pages ``[0, span)``.

        Called at enclave registration with the ELRANGE limit so that
        hot paths can index the table without per-access bounds checks.
        """
        if span > len(self._status):
            self._status.extend(bytes(span - len(self._status)))

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def insert(self, page: int, *, preloaded: bool = False) -> None:
        """Load ``page`` into a free frame (the ELDU/ELDB effect).

        Raises :class:`EpcError` if the EPC is full (the driver must
        evict first) or the page is already resident (a demand load and
        a preload racing on the same page must be resolved by the
        caller — the channel model never double-loads).
        """
        if page < 0:
            raise EpcError(f"page numbers must be non-negative, got {page}")
        status = self._status
        covered = page < len(status)
        if covered and status[page]:
            raise EpcError(f"page {page} is already resident")
        if self.is_full:
            raise EpcError("EPC is full; evict a page before inserting")
        if not covered:
            self.ensure_page_span(page + 1)
        status[page] = (
            PAGE_RESIDENT | PAGE_PRELOADED if preloaded else PAGE_RESIDENT
        )
        self._count += 1
        self.total_inserts += 1

    def evict(self, page: int) -> int:
        """Evict ``page`` to untrusted memory (the EWB effect).

        Returns the page's final status byte, so the caller can account
        for evicted-before-use preloads after the table slot is cleared.
        """
        status = self._status
        code = status[page] if 0 <= page < len(status) else PAGE_ABSENT
        if code == PAGE_ABSENT:
            raise EpcError(f"cannot evict non-resident page {page}")
        status[page] = PAGE_ABSENT
        self._count -= 1
        self.total_evictions += 1
        return code

    def swap(self, victim: int, page: int, *, preloaded: bool = False) -> int:
        """``evict(victim)`` then ``insert(page, preloaded=preloaded)`` in one step:
        the same state, victim byte and errors, for a ``page`` the table covers."""
        status = self._status
        code = status[victim] if 0 <= victim < len(status) else PAGE_ABSENT
        if code == PAGE_ABSENT:
            raise EpcError(f"cannot evict non-resident page {victim}")
        if page != victim and status[page]:
            raise EpcError(f"page {page} is already resident")
        status[victim] = PAGE_ABSENT
        status[page] = PAGE_RESIDENT | PAGE_PRELOADED if preloaded else PAGE_RESIDENT
        self.total_evictions += 1
        self.total_inserts += 1
        return code

    def mark_accessed(self, page: int) -> EpcPageState:
        """Set the accessed bit of a resident page (hardware A-bit)."""
        state = self.state_of(page)
        state.accessed = True
        return state

    def clear_accessed(self, page: int) -> None:
        """Clear the accessed bit (CLOCK aging, done by the scan)."""
        self.state_of(page).accessed = False
