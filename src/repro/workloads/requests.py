"""Open-loop request arrival profiles for fleet tenants.

The SGX benchmarking literature (and every datacenter-facing paper the
fleet scenarios model themselves on) drives servers with *open-loop*
request streams: requests arrive on their own schedule — memcached and
nginx style Poisson or bounded-jitter inter-arrival processes — whether
or not the server has finished the previous one.  A fixed synthetic
trace, by contrast, is closed-loop: the next touch happens exactly when
the previous one retires, so queueing effects never appear.

:class:`RequestProfile` layers an open-loop schedule *on top of* an
existing :class:`~repro.workloads.base.Workload` trace: the trace is
cut into requests of ``events_per_request`` consecutive events, and
request *k* arrives ``k`` inter-arrival gaps after the tenant starts
serving.  The fleet loop (:mod:`repro.sim.fleet`) then:

* idles the tenant until the arrival when it is ahead of schedule
  (the gap is charged to the ``idle`` time bucket); or
* starts the request late when it is behind — the lag is the tenant's
  queueing delay, recorded in its per-tenant QoS histogram.

Determinism: gaps come from :func:`repro.workloads.synthetic.phase_rng`
seeded by ``(seed, salt, "fleet-req")``, so a scenario replays its
arrival schedule exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import WorkloadError
from repro.workloads.synthetic import phase_rng

__all__ = [
    "RequestProfile",
    "memcached_profile",
    "request_gaps",
]

#: Supported inter-arrival processes.
_KINDS = ("poisson", "uniform", "periodic")


@dataclass(frozen=True)
class RequestProfile:
    """Open-loop request schedule layered on a workload trace.

    * ``kind`` — inter-arrival process: ``"poisson"`` (exponential
      gaps, the memcached-style default), ``"uniform"`` (gaps drawn
      uniformly from ``mean_gap_cycles`` ± 50%, nginx-style bounded
      jitter), or ``"periodic"`` (a fixed-rate ticker);
    * ``mean_gap_cycles`` — mean inter-arrival time in virtual cycles;
    * ``events_per_request`` — how many consecutive trace events one
      request consumes;
    * ``max_requests`` — optional cap; ``None`` serves requests until
      the trace is exhausted.
    """

    kind: str = "poisson"
    mean_gap_cycles: int = 200_000
    events_per_request: int = 64
    max_requests: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise WorkloadError(
                f"unknown request profile kind {self.kind!r} "
                f"(choose from {', '.join(_KINDS)})"
            )
        for name in ("mean_gap_cycles", "events_per_request", "max_requests"):
            value = getattr(self, name)
            if type(value) is not int and not (name == "max_requests" and value is None):
                raise WorkloadError(f"{name} must be an integer, got {value!r}")
        if self.mean_gap_cycles <= 0:
            raise WorkloadError(
                f"mean_gap_cycles must be positive, got {self.mean_gap_cycles}"
            )
        if self.events_per_request <= 0:
            raise WorkloadError(
                f"events_per_request must be positive, got "
                f"{self.events_per_request}"
            )
        if self.max_requests is not None and self.max_requests <= 0:
            raise WorkloadError(
                f"max_requests must be positive or None, got {self.max_requests}"
            )


def memcached_profile(
    mean_gap_cycles: int = 200_000, *, events_per_request: int = 32
) -> RequestProfile:
    """Memcached-style profile: Poisson arrivals, small requests."""
    return RequestProfile(
        kind="poisson",
        mean_gap_cycles=mean_gap_cycles,
        events_per_request=events_per_request,
    )


def request_gaps(
    profile: RequestProfile, *, seed: int, salt: int = 0
) -> Iterator[int]:
    """Yield successive inter-arrival gaps (cycles), deterministically.

    The first gap separates the tenant's start from request 1's
    arrival — request 0 arrives the moment the tenant starts serving.
    Gaps are at least one cycle so arrivals strictly advance.
    """
    rng = phase_rng(seed, salt, "fleet-req")
    mean = profile.mean_gap_cycles
    if profile.kind == "poisson":
        rate = 1.0 / mean
        while True:
            yield max(1, int(rng.expovariate(rate)))
    elif profile.kind == "uniform":
        lo = max(1, mean // 2)
        hi = mean + mean // 2
        while True:
            yield rng.randint(lo, hi)
    else:  # periodic
        while True:
            yield mean
