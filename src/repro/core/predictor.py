"""The multiple-stream predictor (paper Algorithm 1).

DFP's predictor is modelled on the Linux VFS read-ahead framework: it
maintains a fixed-length LRU list of *streams*, each summarized by its
tail page number (``stpn`` — stream tail page number).  On every page
fault the OS extracts the new page number (``npn``) and walks the list:

* if ``npn`` is *sequential to* some stream's tail, that stream is
  extended (``stpn`` := ``npn``), moved to the list head, and the next
  ``LOADLENGTH`` pages of the stream are scheduled for asynchronous
  preloading;
* otherwise the least-recently-used entry is recycled to start a new
  stream at ``npn`` (no preloading yet — a single fault is not a
  pattern).

"Sequential to" is a windowed test, exactly as in read-ahead: because a
healthy stream faults only once per preloaded burst, the next fault of
the stream lands up to ``LOADLENGTH + 1`` pages beyond the recorded
tail, not strictly at ``stpn + 1``.  The window makes the detector
self-sustaining across bursts.

The predictor optionally tracks *descending* streams as well (Algorithm
1 carries a ``direction`` operand); the paper's text only demonstrates
ascending streams, so backward tracking defaults to off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError

__all__ = ["MultiStreamPredictor", "StreamEntry"]


@dataclass
class StreamEntry:
    """One tracked fault stream, as :attr:`MultiStreamPredictor.streams` reports it.

    ``stpn`` is the page of the stream's most recent fault; ``direction``
    is +1 for ascending streams, -1 for descending ones.  ``hits``
    counts how many times the stream was extended (useful for tests and
    for the ablation benches).
    """

    stpn: int
    direction: int = 1
    hits: int = 0


class MultiStreamPredictor:
    """LRU list of fault streams with windowed sequential matching.

    The list is kept as three parallel int lists — tails, directions
    and hit counts, least recently used first, so the head is the last
    slot — plus a multiset of *keys*, ``direction * tail``, one per
    stream.  A head extension is decided and applied in place.  Any
    other match needs a key in one of two ranges of ``LOADLENGTH + 1``
    values, so a fault that extends nothing is told apart by dict
    probes, without walking the list; only a probe that passes walks
    it, most recent first.  A probe never fails falsely.  It can pass
    falsely, as keys of the two directions meet at and below 0, and the
    walk then finds no match.
    """

    def __init__(
        self,
        length: int,
        load_length: int,
        *,
        track_backward: bool = False,
    ) -> None:
        if length <= 0:
            raise ConfigError(f"stream list length must be positive, got {length}")
        if load_length <= 0:
            raise ConfigError(f"load length must be positive, got {load_length}")
        self._length = length
        self._load_length = load_length
        self._window = load_length + 1
        self._track_backward = track_backward
        self._tails: List[int] = []
        self._dirs: List[int] = []
        self._hits: List[int] = []
        # key -> number of streams with that key; ``_keys`` is its live view.
        self._key_count: Dict[int, int] = {}
        self._keys = self._key_count.keys()
        # Lifetime counters.
        self.stream_hits = 0
        self.stream_misses = 0
        #: Misses that recycled an LRU entry (list was already full).
        self.stream_recycles = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def length(self) -> int:
        """Configured capacity of the stream list."""
        return self._length

    @property
    def load_length(self) -> int:
        """Pages scheduled for preload per stream extension."""
        return self._load_length

    @property
    def streams(self) -> Tuple[StreamEntry, ...]:
        """Snapshot of the stream list, most recently used first."""
        return tuple(
            StreamEntry(tail, direction, hits)
            for tail, direction, hits in zip(
                reversed(self._tails), reversed(self._dirs), reversed(self._hits)
            )
        )

    def counters(self) -> Dict[str, int]:
        """Lifetime counters, JSON-ready (for metrics and manifests)."""
        return {
            "stream_hits": self.stream_hits,
            "stream_misses": self.stream_misses,
            "stream_recycles": self.stream_recycles,
            "streams_active": len(self._tails),
        }

    def extends(self, npn: int) -> bool:
        """True when :meth:`on_fault` of ``npn`` would extend a stream.

        A query: it changes no state, so the SIP classifier can ask it
        of an access it does not count as a fault.
        """
        tails = self._tails
        if tails and 0 < (npn - tails[-1]) * self._dirs[-1] <= self._window:
            return True
        if self._match(npn) is not None:
            return True
        return self._track_backward and self._flip_candidate(npn) is not None

    def _match(self, npn: int) -> Optional[int]:
        """Return the slot of the stream ``npn`` extends, or None.

        A fault extends an ascending stream when it lands within the
        window ``(stpn, stpn + LOADLENGTH + 1]`` — i.e. it is the next
        fault a stream that had its burst preloaded would produce.
        Descending streams mirror the window.  The most recently used
        matching stream wins.
        """
        window = self._window
        keys = self._keys
        if keys.isdisjoint(range(npn - window, npn)) and (
            not self._track_backward or keys.isdisjoint(range(-npn - window, -npn))
        ):
            return None
        tails = self._tails
        dirs = self._dirs
        for slot in range(len(tails) - 1, -1, -1):
            if 0 < (npn - tails[slot]) * dirs[slot] <= window:
                return slot
        return None

    def _flip_candidate(self, npn: int) -> Optional[int]:
        """Slot of the most recent never-extended stream just above ``npn``.

        A stream that has never been extended has an unconfirmed
        direction (and is ascending): a fault just *below* its tail
        reveals a descending stream.
        """
        window = self._window
        if self._keys.isdisjoint(range(npn + 1, npn + window + 1)):
            return None
        tails = self._tails
        hits = self._hits
        for slot in range(len(tails) - 1, -1, -1):
            if hits[slot] == 0 and 0 < tails[slot] - npn <= window:
                return slot
        return None

    def _drop_key(self, key: int) -> None:
        """Remove one stream's key from the multiset."""
        count = self._key_count
        if count[key] > 1:
            count[key] -= 1
        else:
            del count[key]

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------

    def on_fault(self, npn: int) -> List[int]:
        """Process one fault; return the pages to preload (may be empty).

        Implements Algorithm 1: the returned ``list_to_load`` holds
        ``LOADLENGTH`` pages continuing the matched stream beyond
        ``npn`` (the faulting page itself is being demand-loaded by the
        handler and is never included).
        """
        if npn < 0:
            raise ConfigError(f"page number must be non-negative, got {npn}")
        tails = self._tails
        dirs = self._dirs
        count = self._key_count
        head = len(tails) - 1
        if head >= 0 and 0 < (npn - tails[head]) * dirs[head] <= self._window:
            slot = head
        else:
            slot = self._match(npn)
            if slot is None and self._track_backward:
                slot = self._flip_candidate(npn)
                if slot is not None:
                    # Re-key it as descending; the extension below moves it on.
                    self._drop_key(tails[slot])
                    dirs[slot] = -1
                    count[-tails[slot]] = count.get(-tails[slot], 0) + 1
        if slot is not None:
            step = dirs[slot]
            self._drop_key(step * tails[slot])
            key = step * npn
            count[key] = count.get(key, 0) + 1
            hits = self._hits
            if slot == head:
                tails[slot] = npn
                hits[slot] += 1
            else:
                extended = hits.pop(slot) + 1
                del tails[slot], dirs[slot]
                tails.append(npn)
                dirs.append(step)
                hits.append(extended)
            self.stream_hits += 1
            if step > 0:
                return list(range(npn + 1, npn + 1 + self._load_length))
            return list(range(npn - 1, max(npn - 1 - self._load_length, -1), -1))

        self.stream_misses += 1
        hits = self._hits
        if len(tails) >= self._length:
            self.stream_recycles += 1
            self._drop_key(dirs[0] * tails[0])
            del tails[0], dirs[0], hits[0]
        tails.append(npn)
        dirs.append(1)
        hits.append(0)
        count[npn] = count.get(npn, 0) + 1
        return []

    def reset(self) -> None:
        """Forget all streams (used between profiling phases)."""
        self._tails.clear()
        self._dirs.clear()
        self._hits.clear()
        self._key_count.clear()
