#!/usr/bin/env python
"""Performance harness for the simulation hot path.

Measures four things and writes them to ``BENCH_perf.json`` so every
future PR has a perf trajectory to compare against:

* ``engine`` — steady-state :func:`repro.sim.engine.simulate`
  throughput per scheme (runs/sec and accesses/sec) over a warm
  materialized trace.  With ``--profile-out PATH`` it additionally
  cProfiles the hot loop and dumps the pstats data as a CI artifact.
* ``trace_cache`` — one simulate comparison run twice, with the trace
  regenerated per run (pre-PR behaviour) and replayed from one
  materialized copy; reports both runs/sec figures and the gain.
* ``profiling`` — the same hot loop run blind and then with a
  :class:`repro.obs.paging.PagingProfiler` attached: both runs/sec
  figures and the overhead factor of the per-access ledger hooks.
  The harness asserts the profiled run's result equals the blind
  run's (the profiler's passivity contract) before reporting.
* ``sweep`` — wall-clock of a 5-point, 2-scheme ``LOADLENGTH`` sweep.
  The *reference* leg replicates the pre-PR serial driver's cost
  model point by point — a full profiling run and plan compilation
  per point, a fresh generator walk per scheme run, no caches — and
  the *optimized* leg is ``sweep_config`` under an
  ``ExecutionPolicy(jobs=N)``.  Both legs
  run the same experiment (plans compile once per (workload, seed,
  threshold) — a compile-time artifact — so the reference profiles
  against the sweep's first configuration) and the harness asserts
  their results are equal before reporting the speedup.

With ``--compare OLD.json`` the harness additionally gates against a
previous snapshot (typically the committed ``BENCH_perf.json``): after
measuring, it prints an old-vs-new table for the engine per-scheme
throughput, the trace-cache figures and the sweep speedup, and exits
nonzero when any figure regressed by more than ``--compare-tolerance``
(a fraction; default 0.5, i.e. new may not fall below half of old —
wide because CI machines are noisy, tight enough to catch a lost
fast path).

Usage: python tools/perf_bench.py [--quick] [--jobs N] [--out PATH]
       [--compare OLD.json] [--compare-tolerance FRAC]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.core.config import SimConfig
from repro.core.instrumentation import build_sip_plan
from repro.core.profiler import profile_workload
from repro.obs.exec_telemetry import ExecTelemetry, SpanKind
from repro.obs.paging import PagingProfiler
from repro.robust import ExecutionPolicy
from repro.sim.engine import prepare_sip_plan, simulate
from repro.sim.parallel import WorkloadSpec
from repro.sim.sweep import SIP_SCHEMES, sweep_config
from repro.sim.tracecache import TraceCache, shared_trace_cache

#: Engine-throughput and trace-cache legs use the paper's dilemma
#: benchmark: realistic fault mix, RNG-heavy generator.
HOT_WORKLOAD = "mcf"

#: Sweep leg: a small-working-set workload, where the driver machinery
#: (profiling, plan compilation, trace generation) dominates the
#: per-run cost — the overhead this PR removes.
SWEEP_WORKLOAD = "leela"

SWEEP_VALUES = (1, 2, 4, 6, 8)
SWEEP_SCHEMES = ("dfp-stop", "sip")

ENGINE_SCHEMES = ("baseline", "dfp", "dfp-stop", "sip", "hybrid")


def measure_engine(scale: int, repeats: int) -> dict:
    """Steady-state simulate() throughput per scheme, warm trace."""
    config = SimConfig.scaled(scale)
    workload = WorkloadSpec(HOT_WORKLOAD, scale).build()
    trace = shared_trace_cache().get(workload, seed=0, input_set="ref")
    plan = prepare_sip_plan(workload, config)
    out = {}
    for scheme in ENGINE_SCHEMES:
        sip_plan = plan if scheme in SIP_SCHEMES else None
        simulate(workload, config, scheme, seed=0, sip_plan=sip_plan, trace=trace)
        t0 = time.perf_counter()
        for _ in range(repeats):
            result = simulate(
                workload, config, scheme, seed=0, sip_plan=sip_plan, trace=trace
            )
        elapsed = time.perf_counter() - t0
        out[scheme] = {
            "runs": repeats,
            "seconds": round(elapsed, 4),
            "runs_per_sec": round(repeats / elapsed, 3),
            "accesses_per_sec": round(repeats * result.stats.accesses / elapsed),
        }
    return out


def dump_engine_profile(path: str, scale: int, repeats: int) -> None:
    """cProfile the hot loop; dump pstats data to ``path``.

    The artifact answers "where do the cycles go": load it with
    ``pstats.Stats(path)`` (or snakeviz) and sort by cumulative time.
    """
    import cProfile
    import pstats

    config = SimConfig.scaled(scale)
    workload = WorkloadSpec(HOT_WORKLOAD, scale).build()
    trace = shared_trace_cache().get(workload, seed=0, input_set="ref")
    simulate(workload, config, "dfp-stop", seed=0, trace=trace)
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(repeats):
        simulate(workload, config, "dfp-stop", seed=0, trace=trace)
    profiler.disable()
    profiler.dump_stats(path)
    top = pstats.Stats(profiler)
    top.sort_stats("cumulative")
    print(f"wrote engine profile to {path} (top of the hot loop):")
    top.print_stats(8)


def measure_trace_cache(scale: int, repeats: int) -> dict:
    """One simulate comparison, generator-per-run vs replay-from-cache."""
    config = SimConfig.scaled(scale)
    workload = WorkloadSpec(HOT_WORKLOAD, scale).build()

    t0 = time.perf_counter()
    for _ in range(repeats):
        uncached = simulate(workload, config, "dfp-stop", seed=0)
    uncached_s = time.perf_counter() - t0

    cache = TraceCache()
    t0 = time.perf_counter()
    for _ in range(repeats):
        trace = cache.get(workload, seed=0, input_set="ref")
        cached = simulate(workload, config, "dfp-stop", seed=0, trace=trace)
    cached_s = time.perf_counter() - t0

    assert cached == uncached, "trace replay changed the simulation result"
    return {
        "workload": HOT_WORKLOAD,
        "scheme": "dfp-stop",
        "runs": repeats,
        "uncached_runs_per_sec": round(repeats / uncached_s, 3),
        "cached_runs_per_sec": round(repeats / cached_s, 3),
        "speedup": round(uncached_s / cached_s, 3),
        "cache": cache.stats(),
    }


def measure_profiling(scale: int, repeats: int) -> dict:
    """Hot-loop cost of the paging-decision ledger, blind vs profiled."""
    config = SimConfig.scaled(scale)
    workload = WorkloadSpec(HOT_WORKLOAD, scale).build()
    trace = shared_trace_cache().get(workload, seed=0, input_set="ref")

    simulate(workload, config, "dfp-stop", seed=0, trace=trace)
    t0 = time.perf_counter()
    for _ in range(repeats):
        blind = simulate(workload, config, "dfp-stop", seed=0, trace=trace)
    blind_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(repeats):
        profiler = PagingProfiler()
        observed = simulate(
            workload, config, "dfp-stop", seed=0, trace=trace, profiler=profiler
        )
    profiled_s = time.perf_counter() - t0

    assert observed == blind, "paging profiler perturbed the simulation"
    profile = profiler.profile()
    totals = profile["totals"]
    return {
        "workload": HOT_WORKLOAD,
        "scheme": "dfp-stop",
        "runs": repeats,
        "blind_runs_per_sec": round(repeats / blind_s, 3),
        "profiled_runs_per_sec": round(repeats / profiled_s, 3),
        "overhead_x": round(profiled_s / blind_s, 3),
        "ledger_accesses": totals["accesses"],
        "ledger_faults": totals["faults"],
    }


def run_reference_sweep(spec: WorkloadSpec, configs, schemes, seed: int):
    """Replicate the pre-PR serial driver's cost model.

    Per point: rebuild the workload, run a full profiling pass and
    plan compilation when any scheme needs SIP, then walk a fresh
    trace generator per scheme run.  Profiling uses the sweep's first
    configuration at every point so both legs run the identical
    experiment (the plan is a compile-time artifact); the *work* is
    still repeated per point, as the old driver repeated it.
    """
    needs_sip = any(scheme in SIP_SCHEMES for scheme in schemes)
    first = configs[0]
    points = []
    for config in configs:
        workload = spec.build()
        plan = None
        if needs_sip:
            profile = profile_workload(workload, first, input_set="train", seed=seed)
            plan = build_sip_plan(profile, first.sip_threshold)
        points.append(
            {
                scheme: simulate(
                    workload, config, scheme, seed=seed, sip_plan=plan
                )
                for scheme in schemes
            }
        )
    return points


def measure_sweep(scale: int, jobs: int) -> dict:
    """Reference (pre-PR cost model) vs optimized sweep wall-clock."""
    spec = WorkloadSpec(SWEEP_WORKLOAD, scale)
    base = SimConfig.scaled(scale)
    configs = [base.replace(load_length=value) for value in SWEEP_VALUES]

    t0 = time.perf_counter()
    reference = run_reference_sweep(spec, configs, SWEEP_SCHEMES, seed=0)
    reference_s = time.perf_counter() - t0

    shared_trace_cache().clear()
    telemetry = ExecTelemetry()
    t0 = time.perf_counter()
    optimized = sweep_config(
        spec,
        configs,
        SWEEP_SCHEMES,
        values=list(SWEEP_VALUES),
        policy=ExecutionPolicy(jobs=jobs),
        telemetry=telemetry,
    )
    optimized_s = time.perf_counter() - t0

    # The worker count the sweep *actually* used, observed from the
    # attempt spans' lane assignments — ``jobs`` is only the request,
    # and on a small machine (or a degraded pool) fewer lanes run.
    lanes = {
        span.lane for span in telemetry.spans if span.kind is SpanKind.ATTEMPT
    }
    effective_workers = max(1, len(lanes))

    results_equal = all(
        reference[i][scheme] == point.results[scheme]
        for i, point in enumerate(optimized)
        for scheme in SWEEP_SCHEMES
    )
    assert results_equal, "optimized sweep diverged from the reference leg"
    return {
        "workload": SWEEP_WORKLOAD,
        "points": len(SWEEP_VALUES),
        "schemes": list(SWEEP_SCHEMES),
        "parameter": "load_length",
        "jobs": jobs,
        "effective_workers": effective_workers,
        "reference_serial_s": round(reference_s, 4),
        "optimized_s": round(optimized_s, 4),
        "speedup": round(reference_s / optimized_s, 3),
        "results_equal": results_equal,
    }


def compare_reports(old: dict, new: dict, tolerance: float) -> list:
    """Old-vs-new rows: ``(label, old_value, new_value, regressed)``.

    Higher is better for every compared figure.  A row regresses when
    the new value falls below ``old * (1 - tolerance)``.
    """
    floor = 1.0 - tolerance
    rows = []

    def add(label: str, old_value, new_value) -> None:
        if old_value is None or new_value is None:
            return
        regressed = old_value > 0 and new_value < old_value * floor
        rows.append((label, old_value, new_value, regressed))

    old_engine = old.get("engine", {})
    new_engine = new.get("engine", {})
    for scheme in sorted(set(old_engine) & set(new_engine)):
        add(
            f"engine.{scheme}.runs_per_sec",
            old_engine[scheme].get("runs_per_sec"),
            new_engine[scheme].get("runs_per_sec"),
        )

    old_cache = old.get("trace_cache", {})
    new_cache = new.get("trace_cache", {})
    add(
        "trace_cache.cached_runs_per_sec",
        old_cache.get("cached_runs_per_sec"),
        new_cache.get("cached_runs_per_sec"),
    )
    add("trace_cache.speedup", old_cache.get("speedup"), new_cache.get("speedup"))

    # Older snapshots predate the profiling leg; add() skips the row
    # when either side lacks it, so the gate still applies cleanly.
    old_profiling = old.get("profiling", {})
    new_profiling = new.get("profiling", {})
    add(
        "profiling.profiled_runs_per_sec",
        old_profiling.get("profiled_runs_per_sec"),
        new_profiling.get("profiled_runs_per_sec"),
    )

    add(
        "sweep.speedup",
        old.get("sweep", {}).get("speedup"),
        new.get("sweep", {}).get("speedup"),
    )
    return rows


def print_comparison(rows: list, tolerance: float) -> int:
    """Render the comparison table; return the regression count."""
    if not rows:
        print("compare: no overlapping figures between snapshots")
        return 0
    width = max(len(label) for label, *_ in rows)
    regressions = 0
    print(f"comparison vs previous snapshot (tolerance {tolerance:.0%}):")
    for label, old_value, new_value, regressed in rows:
        ratio = new_value / old_value if old_value else float("inf")
        verdict = "REGRESSED" if regressed else "ok"
        if regressed:
            regressions += 1
        print(
            f"  {label:<{width}}  {old_value:>10.3f} -> {new_value:>10.3f}"
            f"  ({ratio:.2f}x)  {verdict}"
        )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized run: smaller traces, fewer reps"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=min(4, os.cpu_count() or 1),
        help="worker processes for the optimized sweep leg (default: min(4, cores))",
    )
    parser.add_argument(
        "--out", default="BENCH_perf.json", help="output path (default: %(default)s)"
    )
    parser.add_argument(
        "--compare",
        metavar="OLD.json",
        default=None,
        help="previous snapshot to gate against; exit 1 on regression",
    )
    parser.add_argument(
        "--compare-tolerance",
        type=float,
        default=0.5,
        metavar="FRAC",
        help="allowed fractional drop before a figure counts as a "
        "regression (default: %(default)s)",
    )
    parser.add_argument(
        "--profile-out",
        metavar="PATH",
        default=None,
        help="additionally cProfile the hot loop and dump pstats data to PATH",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if not 0.0 <= args.compare_tolerance < 1.0:
        parser.error("--compare-tolerance must be in [0, 1)")

    # Read the old snapshot up front: --out may point at the same file
    # (the committed BENCH_perf.json), and the gate must compare
    # against what was there before this run overwrites it.
    previous = None
    if args.compare is not None:
        with open(args.compare, "r", encoding="utf-8") as handle:
            previous = json.load(handle)

    # Scale 8 (SimConfig.scaled divides the paper-scale geometry, so
    # smaller scale = larger traces) keeps runs big enough that pool
    # startup amortizes even on one core; --quick trims repeats only.
    scale = 8
    repeats = 3 if args.quick else 5

    report = {
        "schema": "repro/perf-bench/v1",
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "quick": args.quick,
        "scale": scale,
        "engine": measure_engine(scale, repeats),
        "trace_cache": measure_trace_cache(scale, repeats),
        "profiling": measure_profiling(scale, repeats),
        "sweep": measure_sweep(scale, args.jobs),
    }

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    sweep = report["sweep"]
    cache = report["trace_cache"]
    profiling = report["profiling"]
    print(f"wrote {args.out}")
    for scheme, row in report["engine"].items():
        print(f"engine.{scheme}: {row['accesses_per_sec']} acc/sec")
    print(
        f"sweep: {sweep['reference_serial_s']}s -> {sweep['optimized_s']}s "
        f"({sweep['speedup']}x, jobs={sweep['jobs']}, "
        f"effective workers={sweep['effective_workers']})"
    )
    print(
        f"trace cache: {cache['uncached_runs_per_sec']} -> "
        f"{cache['cached_runs_per_sec']} runs/sec ({cache['speedup']}x)"
    )
    print(
        f"profiling: {profiling['blind_runs_per_sec']} -> "
        f"{profiling['profiled_runs_per_sec']} runs/sec "
        f"({profiling['overhead_x']}x ledger overhead)"
    )

    if args.profile_out is not None:
        dump_engine_profile(args.profile_out, scale, repeats)

    if previous is not None:
        rows = compare_reports(previous, report, args.compare_tolerance)
        regressions = print_comparison(rows, args.compare_tolerance)
        if regressions:
            print(f"FAIL: {regressions} figure(s) regressed beyond tolerance")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
