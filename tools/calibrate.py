#!/usr/bin/env python
"""Calibration harness: paper targets vs current model behaviour.

Runs every workload under every scheme at a reduced scale and prints
the improvement percentages next to the paper's reported numbers, plus
the SIP instrumentation-point counts next to Table 2.  Used while
tuning the workload models; not part of the test suite.

Usage: python tools/calibrate.py [scale] [workload ...]
"""

from __future__ import annotations

import sys
import time

from repro import (
    CPP_BENCHMARKS,
    SimConfig,
    build_workload,
    compare_schemes,
    improvement_pct,
)

# Paper-reported improvements (positive = faster than baseline).
PAPER_DFP = {
    "microbenchmark": 18.6,
    "lbm": 13.3,
    "bwaves": 9.0,
    "wrf": 8.0,
    "mcf": -34.0,
    "deepsjeng": -34.0,
    "roms": -42.0,
    "omnetpp": -20.0,
    "SIFT": 9.5,
    "mixed-blood": 6.0,
}
PAPER_DFP_STOP = {
    "deepsjeng": 0.0,
    "roms": -0.1,
    "mcf": 0.0,
    "omnetpp": 0.0,
}
PAPER_SIP = {
    "deepsjeng": 9.0,
    "mcf.2006": 4.9,
    "mcf": 0.0,
    "lbm": 0.0,
    "microbenchmark": 0.0,
    "MSER": 3.0,
    "mixed-blood": 1.6,
}
PAPER_HYBRID = {
    "mixed-blood": 7.1,
}
PAPER_POINTS = {
    "mcf.2006": 114,
    "mcf": 99,
    "xz": 46,
    "deepsjeng": 35,
    "lbm": 0,
    "MSER": 54,
    "SIFT": 0,
    "microbenchmark": 0,
}

DEFAULT_WORKLOADS = [
    "microbenchmark",
    "bwaves",
    "lbm",
    "wrf",
    "roms",
    "mcf",
    "mcf.2006",
    "deepsjeng",
    "omnetpp",
    "xz",
    "SIFT",
    "MSER",
    "mixed-blood",
]


def main() -> None:
    args = sys.argv[1:]
    scale = int(args[0]) if args else 16
    names = args[1:] or DEFAULT_WORKLOADS
    config = SimConfig.scaled(scale)
    print(
        f"scale={scale}  epc={config.epc_pages} pages  "
        f"valve_slack={config.valve_slack}  scan={config.scan_period_cycles}"
    )
    header = (
        f"{'workload':<15} {'accesses':>9} {'fault%':>7} "
        f"{'dfp':>7} {'(paper)':>8} {'dfpstop':>8} {'sip':>7} {'(paper)':>8} "
        f"{'hybrid':>7} {'pts':>4} {'(paper)':>7} {'secs':>6}"
    )
    print(header)
    print("-" * len(header))
    for name in names:
        t0 = time.time()
        wl = build_workload(name, scale=scale)
        sip_ok = name in CPP_BENCHMARKS or name == "mixed-blood"
        schemes = ["baseline", "dfp", "dfp-stop"]
        if sip_ok:
            schemes += ["sip", "hybrid"]
        runs = compare_schemes(wl, config, schemes)
        base = runs["baseline"]
        dfp = improvement_pct(runs["dfp"], base)
        stop = improvement_pct(runs["dfp-stop"], base)
        sip = improvement_pct(runs["sip"], base) if sip_ok else float("nan")
        hyb = improvement_pct(runs["hybrid"], base) if sip_ok else float("nan")
        pts = runs["sip"].sip_points if sip_ok else 0
        fault_share = base.stats.time.overhead / base.total_cycles * 100
        print(
            f"{name:<15} {base.stats.accesses:>9,} {fault_share:>6.1f}% "
            f"{dfp:>6.1f}% {PAPER_DFP.get(name, float('nan')):>7.1f}% "
            f"{stop:>7.1f}% "
            f"{sip:>6.1f}% {PAPER_SIP.get(name, float('nan')):>7.1f}% "
            f"{hyb:>6.1f}% {pts:>4} {PAPER_POINTS.get(name, -1):>7} "
            f"{time.time() - t0:>5.1f}s"
        )


if __name__ == "__main__":
    main()
