"""Workload registry: name → factory, plus the paper's groupings.

The groupings mirror Table 1 (working-set classification) and the
implementation constraints of Section 5.2 (only C/C++ applications are
supported by the SIP instrumentation tool; the Fortran benchmarks and
``omnetpp`` are excluded from SIP experiments).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.errors import WorkloadError
from repro.workloads import micro, spec, vision
from repro.workloads.base import Workload

__all__ = [
    "WORKLOAD_NAMES",
    "LARGE_REGULAR",
    "LARGE_IRREGULAR",
    "SMALL_WORKING_SET",
    "CPP_BENCHMARKS",
    "VISION_APPS",
    "build_workload",
]

_FACTORIES: Dict[str, Callable[[int], Workload]] = {
    "bwaves": spec.make_bwaves,
    "lbm": spec.make_lbm,
    "wrf": spec.make_wrf,
    "mcf": spec.make_mcf,
    "mcf.2006": spec.make_mcf2006,
    "deepsjeng": spec.make_deepsjeng,
    "omnetpp": spec.make_omnetpp,
    "roms": spec.make_roms,
    "xz": spec.make_xz,
    "cactuBSSN": spec.make_cactubssn,
    "imagick": spec.make_imagick,
    "leela": spec.make_leela,
    "nab": spec.make_nab,
    "exchange2": spec.make_exchange2,
    "microbenchmark": micro.make_microbenchmark,
    "SIFT": vision.make_sift,
    "MSER": vision.make_mser,
    "mixed-blood": vision.make_mixed_blood,
}

#: Every model in the library.
WORKLOAD_NAMES: Tuple[str, ...] = tuple(sorted(_FACTORIES))

#: Table 1, "Large Working Set with regular access".
LARGE_REGULAR: Tuple[str, ...] = ("bwaves", "lbm", "wrf", "microbenchmark")

#: Table 1, "Large Working Set with irregular access".
LARGE_IRREGULAR: Tuple[str, ...] = ("roms", "mcf", "deepsjeng", "omnetpp", "xz")

#: Table 1, "Small Working Set".
SMALL_WORKING_SET: Tuple[str, ...] = (
    "cactuBSSN",
    "imagick",
    "leela",
    "nab",
    "exchange2",
)

#: C/C++ applications the SIP toolchain supports (Section 5.2 and
#: Table 2): the Fortran benchmarks (bwaves, roms, wrf) and omnetpp
#: are excluded.
CPP_BENCHMARKS: Tuple[str, ...] = (
    "mcf.2006",
    "mcf",
    "xz",
    "deepsjeng",
    "lbm",
    "MSER",
    "SIFT",
    "microbenchmark",
)

#: The SD-VBS real-world applications of Section 5.3.
VISION_APPS: Tuple[str, ...] = ("SIFT", "MSER")


def build_workload(name: str, *, scale: int = 1) -> Workload:
    """Build the named workload model at the given scale.

    ``scale`` must match the factor passed to
    :meth:`repro.core.config.SimConfig.scaled` so footprint-to-EPC
    ratios stay faithful to the paper's platform.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r}; expected one of {', '.join(WORKLOAD_NAMES)}"
        ) from None
    workload = factory(scale)
    workload.scale = scale
    return workload
