"""Deterministic fault injection for the experiment runner.

The retry/timeout/checkpoint machinery in :mod:`repro.sim.parallel`
exists to survive real flakiness — a worker segfaulting mid-sweep, a
hung NFS mount, a corrupted pickle — but real flakiness is the worst
possible test input: rare, irreproducible, and absent on CI exactly
when you need it.  A :class:`FaultPlan` replaces it with *scripted*
misbehaviour: a picklable, seed-driven plan that decides, for every
``(job_index, attempt)`` coordinate, whether to inject a fault and
which kind.  The same plan injects the same faults on every run, so a
test asserting "crash on attempt 1, succeed on attempt 2" is exactly
as deterministic as the simulations themselves.

Fault classes (mirroring the failure modes the runner must survive):

* :attr:`FaultKind.CRASH` — the worker raises
  :class:`InjectedWorkerCrash` mid-job, modelling an arbitrary
  in-worker exception; retryable.
* :attr:`FaultKind.HANG` — the worker stalls past the policy's
  per-job timeout (in a pool worker it really sleeps; in-process the
  runner times the attempt out at once without running it —
  sleeping the only process there is would turn a simulated hang
  into a real one).
* :attr:`FaultKind.CORRUPT` — the worker's :class:`RunResult` is
  tampered with *after* its integrity digest was computed, modelling
  corruption in transit; caught by the runner's replayed-manifest
  digest check.
* :attr:`FaultKind.SUBMIT_ERROR` — a transient ``OSError`` at
  submission time (fork failure, fd exhaustion); injected parent-side
  and absorbed by the submission retry loop.
* :attr:`FaultKind.POOL_BREAK` — the worker process dies hard
  (``os._exit``), breaking the whole pool; exercises the runner's
  graceful degradation to serial in-process execution.  On the serial
  path it downgrades to a :attr:`~FaultKind.CRASH` (killing the only
  process would end the experiment, not test it).

This module is part of ``repro.robust``, the one package allowed to
call ``time.sleep`` (lint rule RL008): every real-time delay in the
tree — injected hangs and retry backoff alike — must be auditable in
one place.
"""

from __future__ import annotations

import enum
import os
import random
import time
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple, Union

from repro.errors import ConfigError

__all__ = [
    "FaultKind",
    "FaultPlan",
    "InjectedWorkerCrash",
    "perform_worker_fault",
    "sleep",
]


def sleep(seconds: float) -> None:
    """The tree's single sanctioned real-time delay (rule RL008).

    Wall-clock waits are invisible to the virtual-cycle determinism
    contract but very visible to operators and CI; routing them all
    through here keeps every sleep greppable and bounded.
    """
    if seconds > 0:
        time.sleep(seconds)


class InjectedWorkerCrash(RuntimeError):
    """The stand-in for an arbitrary worker exception.

    Deliberately *not* a :class:`~repro.errors.ReproError`: a real
    crash would be some foreign exception the runner has never heard
    of, so the injected one must exercise the same generic handling.
    """


class FaultKind(enum.Enum):
    """One class of injected misbehaviour (see the module docstring)."""

    CRASH = "crash"
    HANG = "hang"
    CORRUPT = "corrupt"
    SUBMIT_ERROR = "submit-error"
    POOL_BREAK = "pool-break"

    @classmethod
    def coerce(cls, value: Union["FaultKind", str]) -> "FaultKind":
        """Accept a member or its string value; reject anything else."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            names = ", ".join(kind.value for kind in cls)
            raise ConfigError(
                f"unknown fault kind {value!r}; expected one of: {names}"
            ) from None


#: The order rate-driven draws are evaluated in — fixed, so a plan's
#: decisions are a pure function of (seed, job_index, attempt).
_RATE_ORDER: Tuple[Tuple[FaultKind, str], ...] = (
    (FaultKind.CRASH, "crash_rate"),
    (FaultKind.HANG, "hang_rate"),
    (FaultKind.CORRUPT, "corrupt_rate"),
    (FaultKind.SUBMIT_ERROR, "submit_error_rate"),
    (FaultKind.POOL_BREAK, "pool_break_rate"),
)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, picklable schedule of injected faults.

    Two ways to drive it, composable:

    * **scripted** — an explicit ``{(job_index, attempt): kind}``
      mapping (build with :meth:`script`); the test-suite workhorse,
      because "job 2 crashes once" is an assertable sentence;
    * **rate-driven** — per-kind probabilities drawn from a
      :class:`random.Random` seeded with the string
      ``"{seed}:{job_index}:{attempt}"``, so the decision for one
      coordinate is stable across runs, processes, and platforms
      (string seeding hashes with SHA-512, not ``PYTHONHASHSEED``).

    Scripted entries win over rate draws for their coordinate.
    Attempts are 1-based, matching the runner's attempt counter.
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    corrupt_rate: float = 0.0
    submit_error_rate: float = 0.0
    pool_break_rate: float = 0.0
    #: How long an injected hang stalls a pool worker, in seconds.
    #: Must exceed the policy timeout to register as a hang.
    hang_s: float = 0.5
    #: Normalized scripted faults; prefer :meth:`script` over spelling
    #: this tuple-of-pairs form by hand.
    scripted: Tuple[Tuple[Tuple[int, int], FaultKind], ...] = ()

    def __post_init__(self) -> None:
        for _, field_name in _RATE_ORDER:
            rate = getattr(self, field_name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(
                    f"{field_name} must be within [0, 1], got {rate}"
                )
        if self.hang_s <= 0:
            raise ConfigError(f"hang_s must be positive, got {self.hang_s}")
        normalized = tuple(
            ((int(job), int(attempt)), FaultKind.coerce(kind))
            for (job, attempt), kind in self.scripted
        )
        object.__setattr__(self, "scripted", normalized)

    @classmethod
    def script(
        cls,
        faults: Mapping[Tuple[int, int], Union[FaultKind, str]],
        **kwargs: object,
    ) -> "FaultPlan":
        """Build a plan from ``{(job_index, attempt): kind}``."""
        scripted = tuple(
            (coordinate, FaultKind.coerce(kind))
            for coordinate, kind in sorted(faults.items())
        )
        return cls(scripted=scripted, **kwargs)  # type: ignore[arg-type]

    @property
    def injects_anything(self) -> bool:
        """Whether this plan can ever fire (cheap short-circuit)."""
        return bool(self.scripted) or any(
            getattr(self, field_name) > 0.0 for _, field_name in _RATE_ORDER
        )

    def fault_for(self, job_index: int, attempt: int) -> Optional[FaultKind]:
        """The fault injected at ``(job_index, attempt)``, or None.

        Pure: same plan, same coordinate, same answer — in the parent
        and in every worker process.
        """
        for coordinate, kind in self.scripted:
            if coordinate == (job_index, attempt):
                return kind
        rng = random.Random(f"fault:{self.seed}:{job_index}:{attempt}")
        for kind, field_name in _RATE_ORDER:
            rate = getattr(self, field_name)
            if rate > 0.0 and rng.random() < rate:
                return kind
        return None


def perform_worker_fault(
    fault: Optional[FaultKind], *, in_worker: bool, hang_s: float = 0.5
) -> None:
    """Act out a worker-side fault at the start of a job attempt.

    ``in_worker`` distinguishes a pool worker process (where a hang
    really sleeps and a pool-break really exits) from the serial
    in-process path (where both would take the experiment down with
    them, so they are converted: with a timeout set the *runner* times
    a hang out without calling this, and pool-break downgrades to a
    crash).

    :attr:`FaultKind.CORRUPT` and :attr:`FaultKind.SUBMIT_ERROR` are
    not performed here — corruption is applied to the finished result
    and submission errors are injected parent-side.
    """
    if fault is FaultKind.CRASH:
        raise InjectedWorkerCrash("injected worker crash")
    if fault is FaultKind.POOL_BREAK:
        if in_worker:
            os._exit(3)
        raise InjectedWorkerCrash("injected pool break (serial: crash)")
    if fault is FaultKind.HANG and in_worker:
        # The plan's hang_s outlives the policy timeout; the parent
        # abandons this attempt and the worker frees up afterwards.
        sleep(hang_s)
