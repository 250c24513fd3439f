"""ExecutionPolicy: one object configuring how experiments execute.

PR 3 gave the drivers ``jobs=``; this layer adds retry, timeout,
checkpoint/resume, progress, and fault injection — and rather than
growing every driver signature by six kwargs, all of it lives behind
one frozen :class:`ExecutionPolicy` accepted as ``policy=`` by
:func:`repro.sim.parallel.run_jobs`,
:func:`repro.sim.sweep.compare_schemes` and
:func:`repro.sim.sweep.sweep_config` (and built by the CLI's shared
``--jobs/--retries/--timeout/--checkpoint/--resume/--progress``
flags).

The default policy is the pre-policy behaviour exactly: serial, one
attempt, no timeout, no checkpointing, no faults — so ``policy=None``
callers see nothing change, and a resilient ``jobs=4`` run with no
faults injected stays byte-identical to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from repro.errors import ConfigError
from repro.robust.faults import FaultPlan
from repro.robust.retry import RetryPolicy

__all__ = ["ExecutionPolicy"]


@dataclass(frozen=True)
class ExecutionPolicy:
    """The single execution-configuration path for experiment runs."""

    #: Worker-process count; 1 runs serially in-process.
    jobs: int = 1
    #: Attempt budget and backoff schedule for failing jobs.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Per-job wall-clock budget in seconds.  Shorthand that overrides
    #: ``retry.timeout`` when set; see :attr:`effective_timeout`.
    timeout: Optional[float] = None
    #: Directory of completed-run checkpoint records
    #: (:class:`repro.robust.checkpoint.CheckpointStore`); None
    #: disables checkpointing.
    checkpoint_dir: Optional[Union[str, Path]] = None
    #: Skip jobs whose checkpoint record already exists.  Requires
    #: :attr:`checkpoint_dir`.
    resume: bool = False
    #: Progress callback; the sweep drivers deliver
    #: :class:`~repro.sim.sweep.SweepProgress` ticks through it.
    #: Excluded from comparison — observing progress is not part of
    #: the experiment's identity.
    progress: Optional[Callable[..., None]] = field(
        default=None, compare=False
    )
    #: Deterministic fault-injection schedule, for testing the
    #: machinery above without real flakiness.
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigError(f"jobs must be at least 1, got {self.jobs}")
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigError(
                f"timeout must be positive when set, got {self.timeout}"
            )
        if self.resume and self.checkpoint_dir is None:
            raise ConfigError(
                "resume=True needs a checkpoint_dir to resume from"
            )

    @property
    def effective_timeout(self) -> Optional[float]:
        """The per-job timeout actually in force."""
        return self.timeout if self.timeout is not None else self.retry.timeout

    @property
    def max_attempts(self) -> int:
        """Attempt budget per job (from the retry policy)."""
        return self.retry.max_attempts

    @property
    def is_resilient(self) -> bool:
        """Whether any feature beyond plain serial execution is on.

        The sweep drivers use this to decide that execution must route
        through the job runner (which in turn requires picklable
        :class:`~repro.sim.parallel.WorkloadSpec` coordinates).
        """
        return (
            self.jobs > 1
            or self.retry.retries_enabled
            or self.effective_timeout is not None
            or self.checkpoint_dir is not None
            or self.fault_plan is not None
        )

    def summary(self) -> dict:
        """Deterministic policy fingerprint for telemetry manifests.

        Plain JSON-able values only (no paths, no callables): the
        checkpoint directory is summarized as a boolean because its
        absolute path would vary across machines and break manifest
        byte-identity.
        """
        return {
            "jobs": self.jobs,
            "max_attempts": self.max_attempts,
            "timeout_s": self.effective_timeout,
            "checkpointing": self.checkpoint_dir is not None,
            "resume": self.resume,
            "fault_plan": self.fault_plan is not None,
        }

    def with_progress(
        self, progress: Optional[Callable[..., None]]
    ) -> "ExecutionPolicy":
        """A copy carrying ``progress`` (frozen-dataclass idiom)."""
        import dataclasses

        return dataclasses.replace(self, progress=progress)

