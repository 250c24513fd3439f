"""Retry policy: bounded attempts with exponential backoff.

A failed job attempt (worker exception, timeout, integrity mismatch)
is retried up to :attr:`RetryPolicy.max_attempts` times, with an
exponentially growing delay between attempts.  The backoff is
deliberately jitter-free: retries change *when* a job runs, never
*what* it computes, and a deterministic schedule keeps the resilience
machinery as replayable as the simulations it protects.  The
per-attempt timeout is :attr:`repro.robust.ExecutionPolicy.timeout`.

Real-time waiting happens through :func:`repro.robust.faults.sleep`,
the tree's single sanctioned delay (lint rule RL008).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.robust.faults import sleep

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How many chances a job gets, and how long to wait between them.

    The default — one attempt — fails fast: a job's first failure
    ends the run.
    """

    #: Total execution attempts per job (1 = no retries).
    max_attempts: int = 1
    #: Backoff before retry ``n`` (1-based) is ``base_delay * 2**(n-1)``
    #: seconds, capped at :attr:`max_delay`.
    base_delay: float = 0.01
    #: Ceiling on a single backoff delay, in seconds.
    max_delay: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )
        if self.base_delay < 0:
            raise ConfigError(
                f"base_delay must be non-negative, got {self.base_delay}"
            )
        if self.max_delay < 0:
            raise ConfigError(
                f"max_delay must be non-negative, got {self.max_delay}"
            )

    def delay_for(self, retry_number: int) -> float:
        """Backoff in seconds before 1-based retry ``retry_number``."""
        if retry_number < 1:
            raise ConfigError(
                f"retry_number is 1-based, got {retry_number}"
            )
        return min(self.base_delay * 2 ** (retry_number - 1), self.max_delay)

    def backoff(self, retry_number: int) -> None:
        """Sleep out the backoff before 1-based retry ``retry_number``."""
        sleep(self.delay_for(retry_number))

    @property
    def retries_enabled(self) -> bool:
        """Whether this policy ever grants a second attempt."""
        return self.max_attempts > 1
