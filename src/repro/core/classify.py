"""Class 1/2/3 access classification (Section 4.4).

The SIP pass decides where to instrument by replaying the profiled
access trace through the same stream machinery DFP uses at runtime
(Algorithm 1, :class:`~repro.core.predictor.MultiStreamPredictor`) and
classifying each access by the page it touches:

* **Class 1** — the page is "on ``stream_list``", i.e. it was touched
  recently enough that it is in the EPC with high probability.  These
  accesses need no help.
* **Class 2** — the page is not on the list but is the sequential
  successor of some stream's tail.  DFP's runtime predictor captures
  these more effectively than static instrumentation, so SIP leaves
  them alone.
* **Class 3** — neither: an irregular access, the kind that produces
  an unpredictable EPC fault.  These are SIP's targets.

"In the EPC with high probability" is operationalized with a recency
window sized like the EPC itself: the classifier keeps an LRU set of
the ``window`` most recently touched distinct pages.  Under CLOCK
replacement the EPC contents approximate exactly that set, so the
Class 1 test is the profiler's best static proxy for residency.

Every access outside the window is a would-be fault and goes to the
predictor: Class 2 when it returns a burst, Class 3 when it starts a
new stream.  A Class 1 access is no fault and starts no stream; if it
extends one, the stream's tail still moves to it.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Dict

from repro.core.predictor import MultiStreamPredictor
from repro.errors import ConfigError

__all__ = ["AccessClass", "StreamClassifier"]


class AccessClass(enum.Enum):
    """The three access classes of Section 4.4."""

    #: Recently touched page — resident with high probability.
    CLASS1 = 1
    #: Sequential continuation of a tracked stream — DFP territory.
    CLASS2 = 2
    #: Irregular access — SIP's instrumentation target.
    CLASS3 = 3


# Returned once per profiled access: through the class, an enum member
# costs a descriptor call on Python 3.11; a module global does not.
_CLASS1, _CLASS2, _CLASS3 = AccessClass.CLASS1, AccessClass.CLASS2, AccessClass.CLASS3


class StreamClassifier:
    """Streaming classifier over a page-access trace.

    Feed accesses one at a time with :meth:`classify`; the classifier
    maintains its recency window and predictor incrementally, so a
    full profiling run is one linear pass.
    """

    def __init__(
        self,
        *,
        window: int,
        stream_list_length: int = 30,
        load_length: int = 4,
    ) -> None:
        if window <= 0:
            raise ConfigError(f"recency window must be positive, got {window}")
        self._window = window
        # LRU over recently touched pages (the EPC-residency proxy).
        self._recent: "OrderedDict[int, None]" = OrderedDict()
        self._predictor = MultiStreamPredictor(stream_list_length, load_length)

    @property
    def window(self) -> int:
        """Capacity of the recency window (pages)."""
        return self._window

    def classify(self, page: int) -> AccessClass:
        """Classify one access and update the classifier state."""
        if page < 0:
            raise ConfigError(f"page number must be non-negative, got {page}")
        recent = self._recent
        predictor = self._predictor
        if page in recent:
            recent.move_to_end(page)
            if predictor.extends(page):
                predictor.on_fault(page)
            return _CLASS1
        recent[page] = None
        if len(recent) > self._window:
            recent.popitem(last=False)
        if predictor.on_fault(page):
            return _CLASS2
        return _CLASS3

    def classify_trace(self, pages: "list[int]") -> Dict[AccessClass, int]:
        """Classify a whole trace; return per-class counts."""
        counts = {cls: 0 for cls in AccessClass}
        for page in pages:
            counts[self.classify(page)] += 1
        return counts
