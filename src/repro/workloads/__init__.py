"""Workload models.

The paper evaluates SPEC CPU2017 benchmarks (plus SPEC 2006 ``mcf``),
a 1 GB sequential microbenchmark, and two SD-VBS vision applications
(SIFT and MSER).  None of those inputs are redistributable here, and
the schemes only ever observe *page-granular access behaviour* — so
each benchmark is modelled as a deterministic generator reproducing
the access-pattern class the paper documents for it (Table 1 and
Figure 3): footprint relative to the EPC, sequential-stream structure,
irregular/Zipf components, and the per-instruction mix that drives the
SIP pass.

* :mod:`repro.workloads.base` — the :class:`Workload` abstraction.
* :mod:`repro.workloads.synthetic` — reusable pattern generators.
* :mod:`repro.workloads.spec` — SPEC CPU2017 / 2006 models.
* :mod:`repro.workloads.micro` — the 1 GB sequential microbenchmark.
* :mod:`repro.workloads.vision` — SIFT, MSER and ``mixed-blood``.
* :mod:`repro.workloads.registry` — name → factory lookup.
"""

from repro.workloads.base import Access, Workload, SyntheticWorkload
from repro.workloads.requests import (
    RequestProfile,
    memcached_profile,
    request_gaps,
)
from repro.workloads.registry import (
    WORKLOAD_NAMES,
    LARGE_REGULAR,
    LARGE_IRREGULAR,
    SMALL_WORKING_SET,
    CPP_BENCHMARKS,
    build_workload,
)

__all__ = [
    "Access",
    "Workload",
    "SyntheticWorkload",
    "WORKLOAD_NAMES",
    "LARGE_REGULAR",
    "LARGE_IRREGULAR",
    "SMALL_WORKING_SET",
    "CPP_BENCHMARKS",
    "build_workload",
    "RequestProfile",
    "memcached_profile",
    "request_gaps",
]
