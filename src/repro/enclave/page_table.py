"""OS ↔ enclave shared residency state.

Section 4.3 of the paper: SIP needs to know, from *inside* the enclave,
whether a page is already in the EPC, so the instrumented code can skip
the preload notification for resident pages.  The prototype shares a
bitmap array between the enclave and the OS — one bit per ELRANGE page,
created at enclave establishment and updated by the OS only when a page
is loaded or evicted.  The bitmap is explicitly *not* secret: page
residency is always visible to the untrusted OS anyway.

:class:`SharedBitmap` reproduces that object.  It is deliberately a
separate type from :class:`repro.enclave.epc.Epc` even though it is
backed by the same residency information: the enclave-side code (the
SIP runtime) is only ever handed the bitmap, never the EPC itself,
mirroring the trust boundary in the real system.
"""

from __future__ import annotations

from repro.enclave.epc import PAGE_ABSENT, Epc
from repro.errors import EpcError

__all__ = ["SharedBitmap"]


class SharedBitmap:
    """One-bit-per-page residency view shared with the enclave.

    In the prototype the OS writes this bitmap on every EPC load and
    eviction; here the "writes" are implicit because the view is backed
    directly by the EPC residency set, which is updated at exactly
    those two points.  The behaviour observable to the enclave code is
    identical; the class keeps a read counter so experiments can verify
    the cost accounting of ``BIT_MAP_CHECK``.
    """

    def __init__(self, epc: Epc, elrange_pages: int, *, base_page: int = 0) -> None:
        if elrange_pages <= 0:
            raise EpcError(
                f"ELRANGE must span at least one page, got {elrange_pages}"
            )
        if base_page < 0:
            raise EpcError(f"base_page must be non-negative, got {base_page}")
        epc.ensure_page_span(base_page + elrange_pages)  # check() reads the byte directly
        self._status = epc.status_table
        self._base_page = base_page
        self._elrange_pages = elrange_pages
        #: Number of BIT_MAP_CHECK reads performed (stats only).
        self.reads = 0

    @property
    def elrange_pages(self) -> int:
        """Number of pages the bitmap covers (one bit each)."""
        return self._elrange_pages

    @property
    def size_bytes(self) -> int:
        """Size of the bitmap array in bytes (one bit per page)."""
        return (self._elrange_pages + 7) // 8

    def check(self, page: int) -> bool:
        """``BIT_MAP_CHECK``: True if ``page`` is currently in the EPC.

        Raises :class:`EpcError` for pages outside the ELRANGE — the
        instrumented code can only ever ask about enclave pages.
        """
        if not self._base_page <= page < self._base_page + self._elrange_pages:
            raise EpcError(
                f"page {page} outside ELRANGE of {self._elrange_pages} pages "
                f"starting at {self._base_page}"
            )
        self.reads += 1
        return self._status[page] != PAGE_ABSENT
