"""Workload abstraction.

A workload is a deterministic generator of page-touch events.  Each
event is a ``(instruction, page, compute_cycles)`` triple:

* ``instruction`` — a stable small integer naming the memory
  instruction (source-line analogue) that issued the access; the SIP
  profiler aggregates per-instruction class histograms over these ids
  and the SIP pass instruments a subset of them;
* ``page`` — the 4 KiB enclave page touched (page-granular, like the
  fault stream SGX exposes to the OS);
* ``compute_cycles`` — in-enclave computation since the previous
  event, i.e. the work available to overlap with preloading.

Traces are generated lazily and are deterministic in ``(seed,
input_set)``; the ``train`` input set is what SIP profiles, the ``ref``
input set is what performance runs use, mirroring the paper's
PGO-realistic split (Section 5.2).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.errors import WorkloadError

__all__ = ["Access", "Workload", "SyntheticWorkload", "TraceEvent"]

#: The raw event tuple flowing through the hot simulation loop.
TraceEvent = Tuple[int, int, int]


@dataclass(frozen=True)
class Access:
    """One page-touch event (friendly wrapper over the raw tuple)."""

    instruction: int
    page: int
    compute_cycles: int


class Workload(abc.ABC):
    """A deterministic page-access trace generator."""

    #: Input sets every workload supports.
    INPUT_SETS: Tuple[str, ...] = ("train", "ref")

    #: Build scale, stamped by :func:`repro.workloads.registry.build_workload`
    #: (None for a workload built outside the registry).
    scale: Optional[int] = None

    def __init__(self, name: str, footprint_pages: int) -> None:
        if not name:
            raise WorkloadError("workload name must be non-empty")
        if footprint_pages <= 0:
            raise WorkloadError(
                f"footprint must be at least one page, got {footprint_pages}"
            )
        self._name = name
        self._footprint_pages = footprint_pages

    # ------------------------------------------------------------------
    # Identity and geometry
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """Benchmark name (e.g. ``"lbm"``)."""
        return self._name

    @property
    def footprint_pages(self) -> int:
        """Distinct pages the workload may touch."""
        return self._footprint_pages

    @property
    def elrange_pages(self) -> int:
        """Enclave virtual span: the footprint plus a small guard.

        Real enclaves reserve ELRANGE beyond their live data; the guard
        also gives DFP room to preload past the last page of an array
        without faulting the simulator.
        """
        return self._footprint_pages + 64

    @property
    @abc.abstractmethod
    def instructions(self) -> Mapping[int, str]:
        """Stable mapping of instruction id → human-readable name."""

    # ------------------------------------------------------------------
    # Trace generation
    # ------------------------------------------------------------------

    def _check_input_set(self, input_set: str) -> None:
        if input_set not in self.INPUT_SETS:
            raise WorkloadError(
                f"unknown input set {input_set!r} for {self._name!r}; "
                f"expected one of {', '.join(self.INPUT_SETS)}"
            )

    @abc.abstractmethod
    def trace(self, *, seed: int = 0, input_set: str = "ref") -> Iterator[TraceEvent]:
        """Yield ``(instruction, page, compute_cycles)`` events."""

    def accesses(self, *, seed: int = 0, input_set: str = "ref") -> Iterator[Access]:
        """Like :meth:`trace` but yielding :class:`Access` objects."""
        for instr, page, cycles in self.trace(seed=seed, input_set=input_set):
            yield Access(instr, page, cycles)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self._name!r}, "
            f"footprint_pages={self._footprint_pages})"
        )


#: A phase factory: given the RNG-seeded context, returns an iterable
#: of trace events.  Defined in :mod:`repro.workloads.synthetic`.
PhaseFactory = Callable[[int, str], Iterable[TraceEvent]]


class SyntheticWorkload(Workload):
    """A workload assembled from phase generators.

    Concrete benchmark models supply a list of phase factories; each
    factory receives ``(seed, input_set)`` and yields trace events.
    Phases run in order, once per trace.
    """

    def __init__(
        self,
        name: str,
        footprint_pages: int,
        instructions: Mapping[int, str],
        phases: "list[PhaseFactory]",
    ) -> None:
        super().__init__(name, footprint_pages)
        if not phases:
            raise WorkloadError(f"workload {name!r} needs at least one phase")
        self._instructions = dict(instructions)
        self._phases = list(phases)

    @property
    def instructions(self) -> Mapping[int, str]:
        return self._instructions

    def trace(self, *, seed: int = 0, input_set: str = "ref") -> Iterator[TraceEvent]:
        self._check_input_set(input_set)
        footprint = self._footprint_pages
        known = self._instructions
        for phase in self._phases:
            for event in phase(seed, input_set):
                instr, page, _cycles = event
                if not 0 <= page < footprint:
                    raise WorkloadError(
                        f"workload {self._name!r} touched page {page} outside "
                        f"its declared footprint of {footprint} pages"
                    )
                if instr not in known:
                    raise WorkloadError(
                        f"workload {self._name!r} used undeclared instruction {instr}"
                    )
                yield event
