"""CLOCK (second chance) EPC replacement.

Intel's Linux SGX driver selects eviction victims with a CLOCK-style
scan over EPC pages: a service thread periodically walks the page
table, giving recently accessed pages a second chance by clearing
their accessed bit and passing over them, and evicting the first page
found with the bit already clear.  Section 4.2 of the paper piggybacks
its preloaded-page accounting on exactly this scan.

:class:`ClockEvictor` implements the victim selection over the
simulator's :class:`~repro.enclave.epc.Epc`; the periodic scan itself
is driven by :class:`repro.enclave.driver.SgxDriver` (it owns the
virtual-time schedule and the preload accounting that rides along).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.enclave.epc import PAGE_ACCESSED, Epc
from repro.errors import EpcError

__all__ = ["ClockEvictor"]


class ClockEvictor:
    """Second-chance victim selection over the EPC frame ring.

    Frames are arranged in a fixed circular buffer the size of the EPC;
    a *hand* sweeps the ring.  ``select_victim`` advances the hand,
    clearing accessed bits as it passes set ones, and returns the first
    page whose bit is already clear.  Empty slots (free frames) are
    skipped.

    The evictor must be told about every insert and evict so its ring
    stays consistent with the EPC; the driver is the single caller of
    both, which keeps that contract easy to honour.

    ``capacity`` overrides the ring size (default: the whole EPC).  A
    partitioned frame policy (:mod:`repro.enclave.platform`) runs one
    CLOCK hand *per tenant* over that tenant's pages only, so its rings
    are sized to the tenant's ELRANGE — the upper bound on how many of
    its pages can ever be resident — rather than to the shared EPC.
    """

    def __init__(self, epc: Epc, *, capacity: Optional[int] = None) -> None:
        ring_size = epc.capacity if capacity is None else capacity
        if ring_size <= 0:
            raise EpcError(f"evictor ring capacity must be positive, got {ring_size}")
        self._epc = epc
        self._status = epc.status_table
        self._ring: List[Optional[int]] = [None] * ring_size
        self._slot_of: Dict[int, int] = {}
        self._hand = 0
        self._free_slots: List[int] = list(range(ring_size - 1, -1, -1))
        #: Lifetime count of second chances granted (stats/tests).
        self.second_chances = 0

    # ------------------------------------------------------------------
    # Ring maintenance (driven by the driver on insert/evict)
    # ------------------------------------------------------------------

    def note_insert(self, page: int) -> None:
        """Register a page that was just inserted into the EPC."""
        if page in self._slot_of:
            raise EpcError(f"page {page} already tracked by the evictor")
        if not self._free_slots:
            raise EpcError("evictor ring is full; EPC and ring disagree")
        slot = self._free_slots.pop()
        self._ring[slot] = page
        self._slot_of[page] = slot

    def note_evict(self, page: int) -> None:
        """Unregister a page that was just evicted from the EPC."""
        try:
            slot = self._slot_of.pop(page)
        except KeyError:
            raise EpcError(f"page {page} not tracked by the evictor") from None
        self._ring[slot] = None
        self._free_slots.append(slot)

    def note_swap(self, victim: int, page: int) -> None:
        """``note_evict(victim)`` then ``note_insert(page)`` in one step: the
        free-slot list is LIFO, so ``page`` takes ``victim``'s ring slot."""
        slot_of = self._slot_of
        slot = slot_of.pop(victim, None)
        if slot is None:
            raise EpcError(f"page {victim} not tracked by the evictor")
        if page in slot_of:
            raise EpcError(f"page {page} already tracked by the evictor")
        self._ring[slot] = page
        slot_of[page] = slot

    # ------------------------------------------------------------------
    # Victim selection
    # ------------------------------------------------------------------

    def select_victim(self) -> int:
        """Return the page CLOCK chooses to evict next.

        Sweeps at most two full revolutions: the first may clear every
        accessed bit, the second is then guaranteed to find a victim.
        Raises :class:`EpcError` when nothing is resident.
        """
        if not self._slot_of:
            raise EpcError("cannot select a victim from an empty EPC")
        capacity = len(self._ring)
        status = self._status
        for _ in range(2 * capacity):
            page = self._ring[self._hand]
            self._hand = (self._hand + 1) % capacity
            if page is None:
                continue
            code = status[page]
            if code & PAGE_ACCESSED:
                # Second chance: clear the A bit, keep the preloaded
                # bit, pass over the page.
                status[page] = code ^ PAGE_ACCESSED
                self.second_chances += 1
                continue
            return page
        raise EpcError("CLOCK failed to find a victim in two revolutions")
