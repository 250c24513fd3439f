"""Measure one benchmark workload: the untraced and the traced run.

:func:`main` is what ``perfbench/run.py`` runs once the simulator is
importable; the command-line contract is described there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from perfbench import check, layers, suite, table

__all__ = [
    "Measurement",
    "Outcome",
    "check_outcomes",
    "main",
    "measure",
    "measure_traced",
    "run_all",
    "run_pass",
    "timed_setups",
]

ROOT = Path(__file__).resolve().parent.parent

#: Fewest runs a timed phase makes: the 90th percentile then leaves at
#: least ten runs above it.
MIN_RUNS = 100
#: ``setup_s`` samples: the workload is set up again before each of the
#: first ``SETUP_PASSES`` passes, repeatedly until ``SETUP_SLICE_S`` has
#: been spent (at least once), so the median spans much of the run, not
#: just the machine's state at its start.
SETUP_PASSES = 3
SETUP_SLICE_S = 0.1


def _another_pass(passes: int, spent_s: float, seconds: float) -> bool:
    """Whether one more pass brings the time spent nearer ``seconds``.

    Whole passes only, so every run of a pass counts equally; a pass of
    average length is added while it ends less than half a pass late.
    """
    return not passes or spent_s + spent_s / passes / 2 < seconds


@dataclass
class Outcome:
    """One run of a pass, reduced as soon as it returned; its output is dropped."""

    label: str
    ns: int
    accesses: int
    #: Why the run raised or failed an oracle, or None.
    error: Optional[str]
    #: Blind-equivalent manifest digests; None when the run raised.
    digests: Optional[List[str]]
    #: What the caller's ``keep`` took of the output.
    kept: object = None


@dataclass
class Measurement:
    """What one benchmark invocation reports."""

    check_mode: str
    attempted: int
    #: Runs that raised or failed the check, one line each.
    failures: List[str]
    #: Check failures not tied to one run.
    errors: List[str]
    info: dict
    #: name → (value, unit)
    metrics: dict


def _timed_call(run, context):
    """Call one run inside ``context``; return its host ns, output and error."""
    with context():
        start = time.perf_counter_ns()
        try:
            output, error = run.call(), None
        except Exception as exc:  # a raising run is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        return time.perf_counter_ns() - start, output, error


def _reduced(label: str, ns: int, output, error: Optional[str], keep) -> Outcome:
    if output is None:
        return Outcome(label, ns, 0, error, None)
    problem, digests = check.reduce(output)
    kept = keep(output) if keep is not None else None
    return Outcome(label, ns, output.accesses, problem, digests, kept)


def run_pass(runs, context=contextlib.nullcontext, keep=None) -> List[Outcome]:
    """Issue every run of one pass, closed loop, timing each inside ``context``.

    Each output is reduced right after its timer stopped, outside
    ``context``, and dropped before the next run starts.
    """
    return [_reduced(run.label, *_timed_call(run, context), keep) for run in runs]


def timed_setups(workload: str, seed: int, times: List[float]):
    """Set the workload up for one slice; record the times, return the last.

    Each set-up is freed before the next is built, so the slice holds
    one set-up at a time.
    """
    built = None
    spent = 0.0
    while spent < SETUP_SLICE_S:
        built = None
        gc.collect()
        start = time.perf_counter()
        built = suite.setup(workload, seed)
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return built


def check_outcomes(checker, outcomes) -> List[str]:
    failures = []
    for outcome in outcomes:
        problem = checker.problem(outcome.label, outcome.error, outcome.digests)
        if problem is not None:
            failures.append(f"{outcome.label}: {problem}")
    return failures


def measure(workload: str, seed: int, seconds: float):
    """The untraced run: end-to-end metrics and the output check."""
    setup_times: List[float] = []
    built = timed_setups(workload, seed, setup_times)
    outcomes: List[Outcome] = []
    passes = 0
    timed_ns = 0  # the timed phase: the runs, not the set-ups or checks between them
    while len(outcomes) < MIN_RUNS or _another_pass(passes, timed_ns / 1e9, seconds):
        if 0 < passes < SETUP_PASSES:
            timed_setups(workload, seed, setup_times)  # timed only, then dropped
        gc.collect()
        done = run_pass(built.runs)
        timed_ns += sum(o.ns for o in done)
        outcomes += done
        passes += 1
        if passes == 1:
            # One set-up and one pass: what a real run of the workload holds.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checker = check.Checker(built.runs, check.load_references(workload, seed))
    failures = check_outcomes(checker, outcomes)
    accesses = sum(o.accesses for o in outcomes)
    per_access = [o.ns / o.accesses for o in outcomes if o.accesses]
    metrics = {
        "accesses_per_s": accesses / (timed_ns / 1e9),
        "ns_per_access_p50": statistics.median(per_access),
        "ns_per_access_p90": statistics.quantiles(
            per_access, n=10, method="inclusive"
        )[8],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "ok_runs_frac": 1 - len(failures) / len(outcomes),
    }
    info = {
        "passes": passes,
        "setups": len(setup_times),
        "timed_s": timed_ns / 1e9,
        "accesses": accesses,
        "runs_above_p90": sum(v > metrics["ns_per_access_p90"] for v in per_access),
    }
    units = dict(table.END_TO_END)
    return Measurement(
        checker.mode,
        len(outcomes),
        failures,
        [],
        info,
        {name: (value, units[name]) for name, value in metrics.items()},
    )


def _stats_and_totals(output):
    """What the traced run keeps of an output: its stats and pass totals."""
    return [r.stats for r in output.results], layers.pass_totals([output])


def measure_traced(workload: str, seed: int, seconds: float):
    """The traced run: per-layer metrics, passivity and tracing overhead."""
    plain = suite.setup(workload, seed)
    setup_spans = layers.LayerTracer()
    with setup_spans.installed():
        traced = suite.setup(workload, seed)
    pass_spans = layers.LayerTracer()
    untraced: List[Outcome] = []
    outcomes: List[Outcome] = []
    passes = 0
    start = time.perf_counter()
    while _another_pass(passes, time.perf_counter() - start, seconds):
        gc.collect()
        untraced += run_pass(plain.runs, keep=_stats_and_totals)
        gc.collect()
        outcomes += run_pass(
            traced.runs, context=pass_spans.installed, keep=_stats_and_totals
        )
        passes += 1
    untraced_s = sum(o.ns for o in untraced) / 1e9
    traced_s = sum(o.ns for o in outcomes) / 1e9

    checker = check.Checker(plain.runs, check.load_references(workload, seed))
    failures = check_outcomes(checker, untraced)
    for plain_run, traced_run in zip(untraced, outcomes):
        problem = traced_run.error
        if problem is None and plain_run.error is None:
            same_stats = traced_run.kept[0] == plain_run.kept[0]
            if not same_stats or traced_run.digests != plain_run.digests:
                problem = "traced output differs from the untraced output"
        if problem is not None:
            failures.append(f"{traced_run.label} (traced): {problem}")
    totals = Counter(layers.pass_totals([]))
    for outcome in outcomes[: len(traced.runs)]:
        if outcome.kept is not None:
            totals.update(outcome.kept[1])
    values = layers.layer_metrics(
        setup_spans, pass_spans, passes, traced, totals, traced_s / untraced_s
    )
    errors = []
    if values["driver.fault_calls"] != totals["faults"]:
        errors.append(
            f"traced fault calls {values['driver.fault_calls']} != "
            f"faults counted {totals['faults']}"
        )
    info = {"passes": passes, "untraced_s": untraced_s, "traced_s": traced_s, **totals}
    units = {name: unit for name, unit, _base in table.LAYER_METRICS}
    metrics = {
        name: (round(value) if units[name] == "count" else value, units[name])
        for name, value in values.items()
    }
    return Measurement(
        checker.mode, len(untraced) + len(outcomes), failures, errors, info, metrics
    )


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_all(args) -> int:
    """Run every workload, each in its own process, one after the other.

    Each workload's output is passed through; the last line combines
    their results, with metric names prefixed by the workload.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in suite.WORKLOADS:
        command = [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            f"--workload={workload}",
            f"--seed={args.seed}",
            f"--seconds={args.seconds}",
            f"--trace={args.trace}",
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        print(f"== {workload}")
        print(done.stdout, end="", flush=True)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description="Run one benchmark workload."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if args.workload == "all":
        return run_all(args)
    if args.workload not in suite.WORKLOADS:
        choices = ", ".join(("all",) + tuple(suite.WORKLOADS))
        parser.error(f"unknown workload {args.workload!r}; choose from {choices}")
    # Manifests record the git SHA; keep git from searching above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)

    run = measure_traced if args.trace else measure
    result = run(args.workload, args.seed, args.seconds)
    oracles = result.check_mode == "oracles"
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": suite.SCALES[args.workload],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "check": result.check_mode,
        **({"oracles": list(check.ORACLES)} if oracles else {}),
        **result.info,
        "failures": result.failures[:20],
        "errors": result.errors,
    }
    if oracles:
        print(
            f"check: no pinned references for seed {args.seed}; fell back to the "
            f"program's own oracles: {', '.join(check.ORACLES)}"
        )
    else:
        print(f"check: every run against the references pinned for seed {args.seed}")
    for failure in result.failures[:20] + result.errors:
        print(f"FAILED {failure}")
    width = max(len(name) for name in result.metrics)
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<{width}}  {_format(value):>14} {unit}")
    print(json.dumps({"perfbench": provenance}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not result.failures and not result.errors,
                "attempted": result.attempted,
                "failed": len(result.failures),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        )
    )
    return 0
