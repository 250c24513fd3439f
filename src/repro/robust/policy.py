"""ExecutionPolicy: one object configuring how experiments execute.

Rather than growing every driver signature by six kwargs, worker
count, retry, timeout, checkpoint/resume and fault injection all live
behind one frozen :class:`ExecutionPolicy` accepted as ``policy=`` by
:func:`repro.sim.parallel.run_jobs`,
:func:`repro.sim.sweep.compare_schemes` and
:func:`repro.sim.sweep.sweep_config` (and built by the CLI's shared
``--jobs/--retries/--timeout/--checkpoint/--resume`` flags).  Progress
is observation, not execution: it is :func:`~repro.sim.sweep.sweep_config`'s
``progress=`` hook.

The default policy runs serially in-process with one attempt, no
timeout, no checkpointing and no faults, which is what ``policy=None``
means; a resilient ``jobs=4`` run with no faults injected stays
byte-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

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
    #: Per-attempt wall-clock budget in seconds; ``None`` disables
    #: timeout detection.  An attempt that exceeds it is abandoned and
    #: counted as a :class:`~repro.errors.JobTimeoutError`.
    timeout: Optional[float] = None
    #: Directory of completed-run checkpoint records
    #: (:class:`repro.robust.checkpoint.CheckpointStore`); None
    #: disables checkpointing.
    checkpoint_dir: Optional[Union[str, Path]] = None
    #: Skip jobs whose checkpoint record already exists.  Requires
    #: :attr:`checkpoint_dir`.
    resume: bool = False
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
    def max_attempts(self) -> int:
        """Attempt budget per job (from the retry policy)."""
        return self.retry.max_attempts

    @property
    def is_resilient(self) -> bool:
        """Whether any feature beyond plain serial execution is on.

        The sweep driver uses this to decide that execution must route
        through the job runner (which in turn requires picklable
        :class:`~repro.sim.parallel.WorkloadSpec` coordinates).
        """
        return (
            self.jobs > 1
            or self.retry.retries_enabled
            or self.timeout is not None
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
            "timeout_s": self.timeout,
            "checkpointing": self.checkpoint_dir is not None,
            "resume": self.resume,
            "fault_plan": self.fault_plan is not None,
        }
