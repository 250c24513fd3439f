"""Run results and the comparisons the paper's figures are built from.

Every figure in the evaluation normalizes execution time against the
original (baseline) run of the same workload, so the central helpers
here are :func:`normalized_time` and :func:`improvement_pct`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import units
from repro.core.config import SimConfig
from repro.enclave.events import TimelineEvent
from repro.enclave.stats import RunStats
from repro.errors import SimulationError

__all__ = ["RunResult", "normalized_time", "improvement_pct"]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulated run."""

    workload: str
    scheme: str
    input_set: str
    seed: int
    total_cycles: int
    stats: RunStats
    config: SimConfig
    #: SIP instrumentation points compiled into the enclave (0 when
    #: SIP is off) — the Table 2 quantity.
    sip_points: int = 0
    #: Timeline events, populated only when the run recorded them.
    events: Optional[List[TimelineEvent]] = field(default=None, compare=False)
    #: Metrics dump (:meth:`repro.obs.metrics.MetricsRegistry.as_dict`),
    #: populated only when the run was observed.  Excluded from
    #: comparison: observing a run must not change its identity.
    metrics: Optional[Dict[str, object]] = field(default=None, compare=False)
    #: Always ``"scalar"``; kept because ``perfbench/layers.py`` counts batched runs.
    engine: str = field(default="scalar", compare=False)

    @property
    def seconds(self) -> float:
        """Wall time at the paper platform's 3.5 GHz."""
        return units.cycles_to_seconds(self.total_cycles)

    @property
    def fault_overhead_fraction(self) -> float:
        """Share of run time spent on non-compute work."""
        if self.total_cycles == 0:
            return 0.0
        return self.stats.time.overhead / self.total_cycles

    def describe(self) -> str:
        """One-paragraph human-readable summary."""
        s = self.stats
        return (
            f"{self.workload} [{self.scheme}, {self.input_set}]: "
            f"{self.total_cycles:,} cycles ({self.seconds:.3f}s @3.5GHz); "
            f"{s.accesses:,} accesses, {s.faults:,} faults "
            f"({s.fault_rate:.2%}), {s.preloads_completed:,} preloads "
            f"({s.preload_accuracy:.0%} useful), "
            f"{s.sip_loads:,} SIP loads / {s.sip_checks:,} checks"
        )


def normalized_time(result: RunResult, baseline: RunResult) -> float:
    """Execution time normalized to the baseline run (paper's y-axes).

    1.0 means unchanged; below 1.0 is an improvement.
    """
    _check_comparable(result, baseline)
    return result.total_cycles / baseline.total_cycles


def improvement_pct(result: RunResult, baseline: RunResult) -> float:
    """Percent improvement over the baseline (positive = faster)."""
    return (1.0 - normalized_time(result, baseline)) * 100.0


def _check_comparable(result: RunResult, baseline: RunResult) -> None:
    if baseline.total_cycles <= 0:
        raise SimulationError("baseline run has no cycles")
    if result.workload != baseline.workload:
        raise SimulationError(
            f"comparing different workloads: {result.workload!r} "
            f"vs {baseline.workload!r}"
        )
    if result.input_set != baseline.input_set:
        raise SimulationError(
            f"comparing different input sets: {result.input_set!r} "
            f"vs {baseline.input_set!r}"
        )
