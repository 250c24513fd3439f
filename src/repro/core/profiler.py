"""PGO-style profiling runs (Sections 3.2 and 4.4).

SIP is profile-guided: the program is first run with *training* input
while the profiler records, for every memory instruction (source-line
analogue), how its accesses distribute over the three classes of
:mod:`repro.core.classify`.  The instrumentation pass then selects
instructions whose irregular-access (Class 3) ratio clears a threshold.

The profiler also powers two evaluation artifacts:

* the per-benchmark classification of paper Table 1 (small working
  set / large-irregular / large-regular) via aggregate class ratios
  and footprint-to-EPC comparison;
* the access-pattern scatter data of paper Figure 3 via the recorded
  (access index, page) series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.classify import AccessClass, StreamClassifier
from repro.core.config import SimConfig
from repro.errors import WorkloadError
from repro.workloads.base import Workload

__all__ = ["InstructionProfile", "WorkloadProfile", "profile_workload"]

# Compared once per profiled access; see classify.py.
_CLASS1, _CLASS2 = AccessClass.CLASS1, AccessClass.CLASS2


@dataclass
class InstructionProfile:
    """Per-instruction class histogram from a profiling run."""

    instruction: int
    name: str
    class1: int = 0
    class2: int = 0
    class3: int = 0

    @property
    def total(self) -> int:
        """Total profiled accesses issued by the instruction."""
        return self.class1 + self.class2 + self.class3

    @property
    def irregular_ratio(self) -> float:
        """Fraction of Class 3 (irregular) accesses — the SIP metric."""
        total = self.total
        return self.class3 / total if total else 0.0

    def add(self, cls: AccessClass) -> None:
        """Record one classified access."""
        if cls is _CLASS1:
            self.class1 += 1
        elif cls is _CLASS2:
            self.class2 += 1
        else:
            self.class3 += 1


@dataclass
class WorkloadProfile:
    """Result of one profiling run."""

    workload: str
    input_set: str
    footprint_pages: int
    epc_pages: int
    instructions: Dict[int, InstructionProfile] = field(default_factory=dict)
    total_accesses: int = 0
    #: Optional downsampled (index, page) series for pattern plots.
    pattern_samples: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def class_totals(self) -> Dict[AccessClass, int]:
        """Aggregate class counts over all instructions."""
        totals = {cls: 0 for cls in AccessClass}
        for prof in self.instructions.values():
            totals[AccessClass.CLASS1] += prof.class1
            totals[AccessClass.CLASS2] += prof.class2
            totals[AccessClass.CLASS3] += prof.class3
        return totals

    @property
    def irregular_ratio(self) -> float:
        """Workload-wide Class 3 fraction."""
        if not self.total_accesses:
            return 0.0
        return self.class_totals[AccessClass.CLASS3] / self.total_accesses

    @property
    def sequential_ratio(self) -> float:
        """Workload-wide Class 2 fraction."""
        if not self.total_accesses:
            return 0.0
        return self.class_totals[AccessClass.CLASS2] / self.total_accesses

    @property
    def exceeds_epc(self) -> bool:
        """True when the footprint does not fit the usable EPC."""
        return self.footprint_pages > self.epc_pages


def profile_workload(
    workload: Workload,
    config: SimConfig,
    *,
    input_set: str = "train",
    seed: int = 0,
    sample_patterns: bool = False,
    max_pattern_samples: int = 20_000,
) -> WorkloadProfile:
    """Run ``workload`` under the profiler and return its profile.

    This is the paper's offline profiling run: the training input is
    executed while every access is classified by the stream machinery.
    ``sample_patterns=True`` additionally retains a downsampled
    (access index, page) series for Figure 3-style pattern plots.
    """
    classifier = StreamClassifier(
        window=config.epc_pages,
        stream_list_length=config.stream_list_length,
        load_length=config.load_length,
    )
    profile = WorkloadProfile(
        workload=workload.name,
        input_set=input_set,
        footprint_pages=workload.footprint_pages,
        epc_pages=config.epc_pages,
    )
    instructions = profile.instructions
    for instr_id, name in workload.instructions.items():
        instructions[instr_id] = InstructionProfile(instruction=instr_id, name=name)

    classify = classifier.classify
    stride: Optional[int] = None
    index = 0
    for instr, page, _cycles in workload.trace(seed=seed, input_set=input_set):
        prof = instructions.get(instr)
        if prof is None:
            raise WorkloadError(
                f"workload {workload.name!r} emitted unknown instruction {instr}"
            )
        prof.add(classify(page))
        if sample_patterns:
            if stride is None:
                # One pass to learn the length is wasteful; instead
                # sample adaptively with a growing stride.
                stride = 1
            if index % stride == 0:
                profile.pattern_samples.append((index, page))
                if len(profile.pattern_samples) > max_pattern_samples:
                    profile.pattern_samples = profile.pattern_samples[::2]
                    stride *= 2
        index += 1
    profile.total_accesses = index
    if index == 0:
        raise WorkloadError(f"workload {workload.name!r} produced an empty trace")
    return profile
