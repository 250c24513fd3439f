"""Alternative page-access predictors, for the predictor ablation.

Section 4.1 motivates the multiple-stream predictor by analogy to the
conservative prefetchers in real hardware ("next-line and stride
prefetchers") and to Linux read-ahead.  To quantify *why* the
multi-stream design is the right one for EPC fault streams, this
module provides the two classic alternatives behind the ablation bench
(``benchmarks/test_ablation_predictor.py``):

* :class:`NextLinePredictor` — prefetch the next ``LOADLENGTH`` pages
  after *every* fault, no pattern detection at all;
* :class:`StridePredictor` — a single-context stride detector: confirm
  a repeated fault-to-fault delta, then prefetch along it;
* :class:`MarkovPredictor` — a first-order fault-transition table, the
  simplest representative of the history/learning-based prefetchers
  the paper cites ([15]): remember which page followed which, prefetch
  the recorded successors.

All three implement the same ``on_fault(npn) -> list[int]`` protocol as
:class:`repro.core.predictor.MultiStreamPredictor`, so they drop into
:class:`repro.core.dfp.DfpEngine` unchanged.  The ablation shows the
expected result: next-line floods the exclusive load channel on
irregular workloads, and the single-context stride detector loses
interleaved multi-array sweeps (lbm) that the multi-stream design
tracks effortlessly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.errors import ConfigError

__all__ = ["NextLinePredictor", "StridePredictor", "MarkovPredictor"]


class NextLinePredictor:
    """Prefetch the pages following every fault, unconditionally.

    The page-level analogue of a hardware next-line prefetcher.  Has
    perfect coverage of sequential streams and maximal waste on
    everything else.
    """

    def __init__(self, load_length: int) -> None:
        if load_length <= 0:
            raise ConfigError(f"load length must be positive, got {load_length}")
        self._load_length = load_length
        self.stream_hits = 0
        self.stream_misses = 0

    @property
    def load_length(self) -> int:
        """Pages prefetched per fault."""
        return self._load_length

    def on_fault(self, npn: int) -> List[int]:
        """Always returns the next ``load_length`` pages."""
        if npn < 0:
            raise ConfigError(f"page number must be non-negative, got {npn}")
        self.stream_hits += 1
        return [npn + k for k in range(1, self._load_length + 1)]

    def reset(self) -> None:
        """No state to forget."""


class StridePredictor:
    """Single-context stride detection over the global fault stream.

    Remembers the last fault and the last delta; when the same delta
    repeats (two confirmations), prefetches ``load_length`` pages along
    the stride.  This is the classic RPT-style detector collapsed to a
    single context — exactly what breaks on interleaved streams, whose
    global fault sequence alternates between arrays and never shows a
    stable delta.
    """

    def __init__(self, load_length: int, *, max_stride: int = 64) -> None:
        if load_length <= 0:
            raise ConfigError(f"load length must be positive, got {load_length}")
        if max_stride <= 0:
            raise ConfigError(f"max stride must be positive, got {max_stride}")
        self._load_length = load_length
        self._max_stride = max_stride
        self._last_page: Optional[int] = None
        self._last_delta: Optional[int] = None
        self.stream_hits = 0
        self.stream_misses = 0

    @property
    def load_length(self) -> int:
        """Pages prefetched per confirmed stride."""
        return self._load_length

    def on_fault(self, npn: int) -> List[int]:
        """Confirm or update the stride; prefetch when confirmed."""
        if npn < 0:
            raise ConfigError(f"page number must be non-negative, got {npn}")
        burst: List[int] = []
        if self._last_page is not None:
            delta = npn - self._last_page
            if (
                delta != 0
                and abs(delta) <= self._max_stride
                and delta == self._last_delta
            ):
                self.stream_hits += 1
                burst = [
                    npn + k * delta for k in range(1, self._load_length + 1)
                ]
                burst = [page for page in burst if page >= 0]
            else:
                self.stream_misses += 1
            self._last_delta = delta if abs(delta) <= self._max_stride else None
        else:
            self.stream_misses += 1
        self._last_page = npn
        return burst

    def reset(self) -> None:
        """Forget the tracked context."""
        self._last_page = None
        self._last_delta = None


class MarkovPredictor:
    """First-order Markov prediction over the fault stream.

    Keeps a bounded LRU table mapping each faulted page to the pages
    observed to fault immediately after it (most recent first).  On a
    fault, the recorded successors of the page are prefetched, and the
    table entry of the *previous* fault is updated with the new page.

    This is the minimal history-based prefetcher in the family the
    paper points to for "more complex strategies ... or even machine
    learning based schemes" (Section 4.1, citing Hashemi et al.).  On
    fault streams it learns repeating pointer chains the stream and
    stride detectors cannot see — at the price of a table that only
    pays off when history repeats, which first-touch-dominated EPC
    fault streams rarely do.  The ablation quantifies exactly that.
    """

    def __init__(
        self,
        load_length: int,
        *,
        table_size: int = 4096,
        successors_per_page: int = 4,
    ) -> None:
        if load_length <= 0:
            raise ConfigError(f"load length must be positive, got {load_length}")
        if table_size <= 0:
            raise ConfigError(f"table size must be positive, got {table_size}")
        if successors_per_page <= 0:
            raise ConfigError(
                f"successors_per_page must be positive, got {successors_per_page}"
            )
        self._load_length = load_length
        self._table_size = table_size
        self._successors_per_page = successors_per_page
        self._table: "OrderedDict[int, List[int]]" = OrderedDict()
        self._last_page: Optional[int] = None
        self.stream_hits = 0
        self.stream_misses = 0

    @property
    def load_length(self) -> int:
        """Maximum pages prefetched per fault."""
        return self._load_length

    def _learn(self, page: int, successor: int) -> None:
        entry = self._table.get(page)
        if entry is None:
            if len(self._table) >= self._table_size:
                self._table.popitem(last=False)
            entry = []
            self._table[page] = entry
        else:
            self._table.move_to_end(page)
        if successor in entry:
            entry.remove(successor)
        entry.insert(0, successor)
        del entry[self._successors_per_page:]

    def on_fault(self, npn: int) -> List[int]:
        """Learn the transition, predict the recorded successors."""
        if npn < 0:
            raise ConfigError(f"page number must be non-negative, got {npn}")
        if self._last_page is not None:
            self._learn(self._last_page, npn)
        self._last_page = npn
        successors = self._table.get(npn)
        if not successors:
            self.stream_misses += 1
            return []
        self.stream_hits += 1
        self._table.move_to_end(npn)
        return successors[: self._load_length]

    def reset(self) -> None:
        """Forget all learned transitions."""
        self._table.clear()
        self._last_page = None
