"""Window-series primitives shared by the windowed observers.

The paging ledger (:mod:`repro.obs.paging`) and the fleet sampler
(:mod:`repro.obs.fleet_telemetry`) both slice a run into windows,
halve the windows until they fit an export cap, and merge runs of
consecutive windows into phases or intervals.  Both steps live here so
every observer coarsens and groups windows the same way:

* :func:`pairwise` — merge adjacent pairs with a caller-supplied merge;
  an odd last window passes through unchanged.  The fleet sampler
  keeps, while it samples, the window closes this halving keeps (its
  tests compare the two);
* :func:`runs` — maximal runs of equal consecutive keys.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Sequence, Tuple, TypeVar

__all__ = ["pairwise", "runs"]

T = TypeVar("T")


def pairwise(rows: Sequence[T], merge: Callable[[T, T], T]) -> List[T]:
    """Halve ``rows`` by merging each adjacent pair with ``merge``."""
    merged = [merge(rows[i], rows[i + 1]) for i in range(0, len(rows) - 1, 2)]
    if len(rows) % 2:
        merged.append(rows[-1])
    return merged


def runs(keys: Sequence[Hashable]) -> List[Tuple[Hashable, int, int]]:
    """Maximal runs of equal consecutive keys as ``(key, start, stop)``.

    ``stop`` is exclusive, so ``keys[start:stop]`` is one run.
    """
    found: List[Tuple[Hashable, int, int]] = []
    start = 0
    for i in range(1, len(keys) + 1):
        if i == len(keys) or keys[i] != keys[start]:
            found.append((keys[start], start, i))
            start = i
    return found
