"""Command-line interface: ``python -m repro <command>``.

Thin, scriptable access to the library's main flows:

* ``list`` — available workload models and their paper groupings;
* ``run`` — one workload under one scheme, with the cycle breakdown;
  ``--metrics`` dumps the observability registry, ``--trace`` writes a
  Chrome ``trace_event`` file (load it in Perfetto), ``--manifest``
  writes the run's self-describing JSON record;
* ``report`` — diff two run manifests: cycle attribution of the delta
  plus every counter that moved (:mod:`repro.obs.diff`); with a single
  manifest, render it — including the execution-telemetry fleet table
  when the record carries one;
* ``compare`` — several schemes on one workload, normalized;
* ``profile`` — the SIP profiling run and instrumentation plan; with
  ``--schemes``, the paging-decision profiler instead
  (:mod:`repro.obs.paging`): per-scheme preload effectiveness,
  fault-cause attribution, phase tables and heatmaps, plus a
  scheme-vs-scheme effectiveness diff, with ``--artifacts DIR``
  writing the ``repro.paging-profile/1`` JSON, residency Chrome
  traces and heatmap text files;
* ``classify`` — the Table 1 classification of the models;
* ``sweep`` — a one-parameter sweep (e.g. LOADLENGTH, Figure 7 style),
  with ``--progress`` ETA + fleet-health ticks on stderr;
* ``lint`` — the repo-specific static-analysis pass: per-file rules
  RL001–RL010, plus (with ``--deep``) the whole-program rules
  RL101–RL104 over a shared AST cache; ``--sarif`` exports SARIF
  2.1.0 (see :mod:`repro.lint`).

Flags are shared through three argparse *parent parsers* rather than
re-declared per command:

* the **simulation parent** — ``--scale`` (default 16: EPC and
  workload footprints shrink together, preserving normalized results,
  DESIGN.md §6), ``--seed``, ``--input-set``, and ``--sanitize`` (the
  runtime invariant sanitizer, :mod:`repro.enclave.sanitizer`);
* the **execution parent** (``run``/``compare``/``sweep``) —
  ``--jobs/--retries/--timeout/--checkpoint/--resume``, compiled by
  one helper into the :class:`~repro.robust.ExecutionPolicy` handed to
  the drivers, and ``--progress``, which ``sweep`` passes to
  ``sweep_config(progress=)``.
  ``--jobs N`` fans simulations over N worker processes with results
  byte-identical to the serial run; ``--retries``/``--timeout`` bound
  flaky or wedged jobs; ``--checkpoint DIR`` persists each completed
  run as a manifest record and ``--resume`` skips the ones already
  there, so an interrupted sweep restarts where it died;
* the **observation parent** (``run``/``compare``/``sweep``) —
  ``--metrics/--trace/--trace-capacity/--manifest``.  These compose
  with any execution policy: resilient jobs ship their metric
  and trace dumps back with the digest-checked result envelope, the
  parent merges them deterministically, and the execution layer itself
  is recorded (attempts, retries, timeouts, injected faults,
  checkpoint I/O) as the ``repro.exec-telemetry/1`` manifest block and
  per-worker Chrome tracks.  The one genuinely unsupported combination
  is ``--resume`` with any observation flag: checkpoint-restored runs
  never executed, so they have no telemetry to ship, and a partially
  observed record would silently diverge from a fully computed one.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis.metrics import summarize_results
from repro.analysis.patterns import classify_benchmark
from repro.analysis.report import format_table, render_series
from repro.core.config import SimConfig
from repro.core.profiler import profile_workload
from repro.core.instrumentation import build_sip_plan
from repro.core.schemes import SCHEME_NAMES
from repro.errors import ConfigError, ReproError
from repro.robust import ExecutionPolicy, RetryPolicy
from repro.sim.engine import simulate
from repro.sim.fleet import EPC_POLICIES as FLEET_POLICIES
from repro.sim.parallel import WorkloadSpec
from repro.sim.sweep import compare_schemes, sweep_config
from repro.workloads.registry import (
    LARGE_IRREGULAR,
    LARGE_REGULAR,
    SMALL_WORKING_SET,
    WORKLOAD_NAMES,
    build_workload,
)

__all__ = ["main", "build_parser"]

#: Config fields the sweep command may vary.
SWEEPABLE = (
    "load_length",
    "stream_list_length",
    "sip_threshold",
    "valve_slack",
    "valve_ratio",
    "epc_pages",
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Regaining Lost Seconds: Efficient Page "
            "Preloading for SGX Enclaves' (Middleware '20)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared flag groups, declared once as argparse parent parsers.
    sim_parent = argparse.ArgumentParser(add_help=False)
    sim_parent.add_argument("--scale", type=int, default=16,
                            help="EPC/footprint scale factor (default 16)")
    sim_parent.add_argument("--seed", type=int, default=0)
    sim_parent.add_argument("--input-set", choices=("train", "ref"),
                            default="ref")
    sim_parent.add_argument("--sanitize", action="store_true",
                            help="run under the runtime invariant sanitizer "
                                 "(same results, per-event checking)")

    exec_parent = argparse.ArgumentParser(add_help=False)
    exec_parent.add_argument("--jobs", type=int, default=1, metavar="N",
                             help="worker processes (1 = serial; results "
                                  "are identical either way)")
    exec_parent.add_argument("--retries", type=int, default=0, metavar="N",
                             help="re-run a failed job up to N extra times "
                                  "with exponential backoff (default 0)")
    exec_parent.add_argument("--timeout", type=float, default=None,
                             metavar="SECONDS",
                             help="per-job wall-clock budget; a timed-out "
                                  "attempt counts as a failure and retries")
    exec_parent.add_argument("--checkpoint", default=None, metavar="DIR",
                             help="persist each completed run as a manifest "
                                  "record in DIR")
    exec_parent.add_argument("--resume", action="store_true",
                             help="skip jobs already recorded in the "
                                  "--checkpoint directory")
    exec_parent.add_argument("--progress", action="store_true",
                             help="print per-point progress and ETA to "
                                  "stderr")

    obs_parent = argparse.ArgumentParser(add_help=False)
    obs_parent.add_argument("--metrics", action="store_true",
                            dest="show_metrics",
                            help="collect and print the metrics registry "
                                 "dump (merged across workers under --jobs)")
    obs_parent.add_argument("--trace", default=None, metavar="FILE",
                            help="write a Chrome trace_event JSON of the run "
                                 "(open in Perfetto or chrome://tracing); "
                                 "under a resilient policy the export also "
                                 "carries per-worker execution tracks")
    obs_parent.add_argument("--trace-capacity", type=int, default=None,
                            metavar="N",
                            help="bound the trace ring buffer to the most "
                                 "recent N events (default 1048576)")
    obs_parent.add_argument("--manifest", default=None, metavar="FILE",
                            help="write the run manifest JSON (config "
                                 "snapshot, stats, metrics, execution "
                                 "telemetry; inspect with 'repro report')")
    obs_parent.add_argument("--metrics-format",
                            choices=("table", "openmetrics"),
                            default="table", dest="metrics_format",
                            help="metrics rendering: aligned table "
                                 "(default) or OpenMetrics/Prometheus "
                                 "text exposition for scraping")

    def add_common(p: argparse.ArgumentParser, workload: bool = True) -> None:
        if workload:
            p.add_argument("workload", choices=WORKLOAD_NAMES)

    sub.add_parser("list", help="list workload models")

    p_run = sub.add_parser("run", help="run one workload under one scheme",
                           parents=[sim_parent, exec_parent, obs_parent])
    add_common(p_run)
    p_run.add_argument("--scheme", choices=SCHEME_NAMES, default="baseline")
    p_run.add_argument("--paging-profile", default=None, metavar="FILE",
                       dest="paging_profile",
                       help="attach the paging-decision profiler and write "
                            "its repro.paging-profile/1 JSON to FILE "
                            "(serial runs only; also embedded in "
                            "--manifest)")

    p_rep = sub.add_parser(
        "report",
        help="diff two run manifests, or render one (incl. exec telemetry)",
    )
    p_rep.add_argument("manifest_a", help="baseline manifest (A)")
    p_rep.add_argument("manifest_b", nargs="?", default=None,
                       help="comparison manifest (B); omit to render A "
                            "alone, with its execution-telemetry fleet "
                            "table when present")
    p_rep.add_argument("--format", choices=("text", "json"), default="text",
                       dest="output_format")

    p_cmp = sub.add_parser("compare", help="compare schemes on one workload",
                           parents=[sim_parent, exec_parent, obs_parent])
    add_common(p_cmp)
    p_cmp.add_argument(
        "--schemes",
        default="baseline,dfp,dfp-stop,sip,hybrid",
        help="comma-separated scheme names",
    )

    p_prof = sub.add_parser(
        "profile",
        help="SIP instrumentation plan, or (--schemes) the paging profiler",
        parents=[sim_parent],
    )
    add_common(p_prof)
    p_prof.add_argument("--threshold", type=float, default=None,
                        help="irregular-ratio threshold (default: config's 5%%)")
    p_prof.add_argument("--top", type=int, default=10,
                        help="show the top N sites by irregular ratio")
    p_prof.add_argument("--schemes", default=None, metavar="A,B",
                        help="run the paging-decision profiler over these "
                             "schemes instead: per-scheme effectiveness, "
                             "phases, heatmap, and a scheme-vs-scheme diff")
    p_prof.add_argument("--window", type=int, default=1024, metavar="N",
                        help="phase-segmentation window in accesses "
                             "(default 1024)")
    p_prof.add_argument("--artifacts", default=None, metavar="DIR",
                        help="write per-scheme paging-profile JSON, "
                             "residency Chrome trace and heatmap files "
                             "into DIR")
    p_prof.add_argument("--format", choices=("text", "json"), default="text",
                        dest="output_format")

    p_cls = sub.add_parser("classify", help="Table 1 classification")
    p_cls.add_argument("workloads", nargs="*", default=[],
                       help="workloads (default: all)")
    p_cls.add_argument("--scale", type=int, default=16)
    p_cls.add_argument("--seed", type=int, default=0)

    p_swp = sub.add_parser("sweep", help="sweep one config parameter",
                           parents=[sim_parent, exec_parent, obs_parent])
    add_common(p_swp)
    p_swp.add_argument("--param", choices=SWEEPABLE, required=True)
    p_swp.add_argument("--values", required=True,
                       help="comma-separated parameter values")
    p_swp.add_argument("--scheme", choices=SCHEME_NAMES, default="dfp-stop")

    p_fleet = sub.add_parser(
        "fleet",
        help="run a named multi-tenant fleet scenario",
        description=(
            "Run a named fleet scenario (tens of tenants with arrival/"
            "departure churn, admission control, spin-up traffic and "
            "open-loop request streams) against one shared EPC, and "
            "render the per-tenant QoS table.  --policy overrides the "
            "scenario's EPC frame policy; --policies runs the same "
            "scenario+seed under several policies and renders the "
            "side-by-side QoS comparison.  The run is deterministic: "
            "the same scenario and seed produce a byte-identical "
            "repro.fleet-manifest/1 block.  --timeseries attaches the "
            "passive windowed sampler (repro.fleet-timeseries/1: "
            "per-tenant and fleet-wide series, rebalance decisions) "
            "and renders sparkline time-series; --slo evaluates "
            "breach intervals over it; --trace/--openmetrics export "
            "the series as a Chrome trace / OpenMetrics exposition.  "
            "Observation is passive: the manifest block stays "
            "byte-identical to a blind run."
        ),
    )
    p_fleet.add_argument("scenario", nargs="?", default=None,
                         help="scenario name (see --list)")
    p_fleet.add_argument("--list", action="store_true", dest="list_scenarios",
                         help="list the named scenarios and exit")
    p_fleet.add_argument("--seed", type=int, default=0)
    p_fleet.add_argument("--policy", choices=FLEET_POLICIES, default=None,
                         help="override the scenario's EPC frame policy")
    p_fleet.add_argument("--policies", default=None, metavar="P1,P2",
                         help="comma-separated EPC policies to compare "
                              "(renders one QoS row per tenant+policy)")
    p_fleet.add_argument("--manifest", default=None, metavar="FILE",
                         help="write the aggregate run manifest (with the "
                              "embedded fleet block) to FILE")
    p_fleet.add_argument("--timeseries", action="store_true",
                         help="attach the windowed sampler and render "
                              "sparkline time-series")
    p_fleet.add_argument("--window-cycles", type=int, default=None,
                         metavar="N",
                         help="sampling window width in cycles (default: "
                              "the scenario's scan period)")
    p_fleet.add_argument("--slo", default=None, metavar="SPEC",
                         help="evaluate SLO breaches, e.g. "
                              "wait_p99=80000,fault_rate=0.2,residency=0.5 "
                              "(implies --timeseries)")
    p_fleet.add_argument("--trace", default=None, metavar="FILE",
                         help="write Chrome counter/lifecycle tracks to "
                              "FILE (implies --timeseries)")
    p_fleet.add_argument("--openmetrics", default=None, metavar="FILE",
                         help="write labeled OpenMetrics series to FILE "
                              "(implies --timeseries)")
    p_fleet.add_argument("--format", choices=("text", "json"),
                         default="text", dest="output_format")

    p_lint = sub.add_parser(
        "lint",
        help="repo-specific static analysis (RL001-RL010, deep RL101-RL104)",
        description=(
            "Repo-specific static analysis.  Per-file rules RL001-RL010 "
            "run by default; --deep adds the whole-program rules "
            "RL101-RL104 (cross-module seed provenance, pickle-safety of "
            "values shipped to workers, wall-clock taint into manifests, "
            "unordered-iteration hazards), which parse the whole tree "
            "once into a shared AST cache and trace dataflow across "
            "function and module boundaries.  Silence a finding in place "
            "with '# repro-lint: disable=RL001' (inline: that line only; "
            "on its own line: whole file; codes comma-separated; "
            "disable=all silences everything) — this works for deep "
            "RL1xx findings too.  --select/--ignore accept any mix of "
            "per-file and RL1xx codes; selecting an RL1xx code enables "
            "the deep pass for it even without --deep."
        ),
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to check (default: src)",
    )
    p_lint.add_argument("--format", choices=("text", "json"), default="text",
                        dest="output_format")
    p_lint.add_argument("--select", default=None, metavar="CODES",
                        help="comma-separated rule codes to run, per-file "
                             "and/or RL1xx (default: all per-file rules, "
                             "plus all deep rules under --deep)")
    p_lint.add_argument("--ignore", default=None, metavar="CODES",
                        help="comma-separated rule codes to skip (applies "
                             "after --select)")
    p_lint.add_argument("--deep", action="store_true",
                        help="also run the whole-program rules RL101-RL104 "
                             "(cross-module taint over one shared AST "
                             "cache)")
    p_lint.add_argument("--sarif", default=None, metavar="FILE",
                        help="also write the findings as SARIF 2.1.0 to "
                             "FILE (for GitHub code scanning)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="list the rule catalogue (per-file + deep) "
                             "and exit")
    return parser


def _config(args: argparse.Namespace) -> SimConfig:
    config = SimConfig.scaled(args.scale)
    if getattr(args, "sanitize", False):
        config = config.replace(sanitize=True)
    return config


def _policy_from_args(args: argparse.Namespace) -> ExecutionPolicy:
    """Compile the shared execution flags into one ExecutionPolicy.

    The single place where ``--jobs/--retries/--timeout/--checkpoint/
    --resume`` become execution configuration; ``run``, ``compare``
    and ``sweep`` all build their policy here.  ``--retries N`` means
    N *extra* attempts, so the attempt budget is ``N + 1``.
    """
    return ExecutionPolicy(
        jobs=args.jobs,
        retry=RetryPolicy(max_attempts=args.retries + 1),
        timeout=args.timeout,
        checkpoint_dir=args.checkpoint,
        resume=args.resume,
    )


def _wants_observation(args: argparse.Namespace) -> bool:
    """Whether any of the shared observation flags was given."""
    return (
        args.show_metrics
        or args.trace is not None
        or args.manifest is not None
    )


def _guard_obs_flags(args: argparse.Namespace, command: str) -> None:
    """Reject the one genuinely unsupported flag combination.

    ``--resume`` serves completed jobs from checkpoint records, which
    record results, not telemetry — a resumed "observed" run would
    ship metrics/traces for the re-executed jobs only and silently
    present the partial merge as the whole fleet's.  Everything else
    (any ``--jobs/--retries/--timeout/--checkpoint`` combination)
    composes with observation.
    """
    if args.resume and _wants_observation(args):
        raise ConfigError(
            f"{command}: --metrics/--trace/--manifest cannot combine with "
            "--resume: checkpoint-restored jobs never re-execute, so they "
            "have no telemetry to ship and the merged dump would silently "
            "cover only the re-run jobs — drop --resume to observe the "
            "full fleet, or resume blind"
        )


def _telemetry_from_args(args: argparse.Namespace, *, ship_events: bool):
    """Build the run's :class:`~repro.obs.ExecTelemetry` collector.

    ``ship_events`` decides whether workers ship their full event ring
    (single ``run`` wants the simulation timeline; ``compare``/``sweep``
    traces carry the execution-layer tracks only — shipping N jobs'
    event buffers is single-run tooling).
    """
    from repro.obs.exec_telemetry import ExecTelemetry, TelemetryConfig
    from repro.obs.trace import DEFAULT_EVENT_CAPACITY

    return ExecTelemetry(
        TelemetryConfig(
            metrics=args.show_metrics or args.manifest is not None,
            trace=ship_events and args.trace is not None,
            trace_capacity=(
                args.trace_capacity
                if args.trace_capacity is not None
                else DEFAULT_EVENT_CAPACITY
            ),
        )
    )


def _cmd_list(_args: argparse.Namespace) -> int:
    groups = (
        ("large working set, regular", LARGE_REGULAR),
        ("large working set, irregular", LARGE_IRREGULAR),
        ("small working set", SMALL_WORKING_SET),
        ("vision / synthesized", ("SIFT", "MSER", "mixed-blood", "mcf.2006")),
    )
    rows = [
        [name, group] for group, names in groups for name in names
    ]
    print(format_table(["workload", "paper grouping"], rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.obs.chrome import write_chrome_trace
    from repro.obs.manifest import build_manifest, write_manifest
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import (
        DEFAULT_EVENT_CAPACITY,
        RingBufferSink,
        event_from_dict,
        register_sink_metrics,
    )

    config = _config(args)
    workload = build_workload(args.workload, scale=args.scale)
    policy = _policy_from_args(args)
    observed = _wants_observation(args)
    _guard_obs_flags(args, "run")
    if args.paging_profile is not None and policy.is_resilient:
        raise ConfigError(
            "run: --paging-profile rides the in-process simulation and "
            "cannot combine with --jobs/--retries/--timeout/--checkpoint "
            "— run serially to profile"
        )
    profiler = None
    paging_block = None
    telemetry = None
    capture: Optional[RingBufferSink] = None
    trace_events = ()
    trace_dropped = 0
    exec_spans = None
    exec_block = None
    if policy.is_resilient:
        if observed:
            telemetry = _telemetry_from_args(args, ship_events=True)
        result = compare_schemes(
            WorkloadSpec(args.workload, args.scale),
            config,
            [args.scheme],
            seed=args.seed,
            input_set=args.input_set,
            policy=policy,
            telemetry=telemetry,
        )[args.scheme]
        if telemetry is not None:
            # The worker stripped its dumps off the result before
            # digesting (passivity across the process boundary);
            # re-attach the merged view for display and the manifest.
            merged = telemetry.merged_metrics()
            if merged:
                result = dataclasses.replace(result, metrics=merged)
            trace_events = tuple(
                event_from_dict(record) for record in telemetry.events_for(0)
            )
            trace_dropped = telemetry.total_dropped
            exec_spans = telemetry.spans
            exec_block = telemetry.as_dict()
    else:
        metrics = (
            MetricsRegistry()
            if args.show_metrics or args.manifest is not None
            else None
        )
        if args.trace is not None:
            capture = RingBufferSink(
                args.trace_capacity
                if args.trace_capacity is not None
                else DEFAULT_EVENT_CAPACITY
            )
            if metrics is not None:
                register_sink_metrics(metrics, capture)
        if args.paging_profile is not None:
            from repro.obs.paging import PagingProfiler

            profiler = PagingProfiler()
        result = simulate(
            workload,
            config,
            args.scheme,
            seed=args.seed,
            input_set=args.input_set,
            metrics=metrics,
            tracer=capture,
            profiler=profiler,
        )
        if capture is not None:
            trace_events = tuple(capture.events)
            trace_dropped = capture.dropped
        if profiler is not None:
            from repro.obs.paging import write_paging_profile

            paging_block = profiler.profile()
            write_paging_profile(args.paging_profile, paging_block)
    print(result.describe())
    tb = result.stats.time
    rows = [
        ["compute", tb.compute],
        ["AEX", tb.aex],
        ["ERESUME", tb.eresume],
        ["fault/channel wait", tb.fault_wait],
        ["SIP checks", tb.sip_check],
        ["SIP waits", tb.sip_wait],
        ["total", tb.total],
    ]
    print()
    print(format_table(["bucket", "cycles"], rows, title="time breakdown"))
    if args.show_metrics and result.metrics is not None:
        print()
        if args.metrics_format == "openmetrics":
            from repro.obs.openmetrics import render_openmetrics

            print(render_openmetrics(result.metrics), end="")
        else:
            metric_rows = [
                [name, _render_metric_value(value)]
                for name, value in result.metrics.items()
            ]
            print(format_table(["metric", "value"], metric_rows, title="metrics"))
    if paging_block is not None:
        from repro.analysis.profile_report import render_profile_summary

        print()
        print("paging profile")
        print(render_profile_summary(paging_block))
        print(f"paging profile -> {args.paging_profile}")
    if args.trace is not None:
        records = write_chrome_trace(
            args.trace,
            trace_events,
            exec_spans=exec_spans,
            dropped_events=trace_dropped,
            paging_profile=paging_block,
        )
        note = f" ({trace_dropped:,} early events dropped)" if trace_dropped else ""
        print(f"\ntrace: {records} records -> {args.trace}{note}")
    if args.manifest is not None:
        write_manifest(
            args.manifest,
            build_manifest(
                result,
                workload=workload,
                exec_telemetry=exec_block,
                paging_profile=paging_block,
            ),
        )
        print(f"manifest -> {args.manifest}")
    if args.trace is not None and trace_dropped:
        # Ring-buffer truncation is easy to miss in the artifact;
        # close the run with an explicit stderr warning.
        print(
            f"warning: trace ring buffer dropped {trace_dropped:,} earliest "
            "event(s); re-run with a larger --trace-capacity for the full "
            "timeline",
            file=sys.stderr,
        )
    return 0


def _render_metric_value(value: object) -> str:
    if isinstance(value, dict):  # histogram dump
        return f"count={value.get('count', 0):,} sum={value.get('sum', 0):,}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def _cmd_report(args: argparse.Namespace) -> int:
    import json

    from repro.obs.diff import diff_manifests, render_diff
    from repro.obs.manifest import load_manifest

    if args.manifest_b is None:
        return _report_single(load_manifest(args.manifest_a), args)
    doc_a = load_manifest(args.manifest_a)
    doc_b = load_manifest(args.manifest_b)
    diff = diff_manifests(doc_a, doc_b)
    paging_diff = None
    if "paging_profile" in doc_a and "paging_profile" in doc_b:
        from repro.analysis.profile_report import diff_profiles

        paging_diff = diff_profiles(
            doc_a["paging_profile"], doc_b["paging_profile"]
        )
    if args.output_format == "json":
        document = dict(diff)
        if paging_diff is not None:
            document["paging_profiles"] = paging_diff
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(render_diff(diff))
        if paging_diff is not None:
            from repro.analysis.profile_report import render_profile_diff

            label_a = (doc_a.get("run") or {}).get("scheme") or "A"
            label_b = (doc_b.get("run") or {}).get("scheme") or "B"
            print()
            print(
                render_profile_diff(
                    paging_diff, label_a=str(label_a), label_b=str(label_b)
                )
            )
    return 0


def _report_single(manifest: dict, args: argparse.Namespace) -> int:
    """Render one manifest: run summary, metrics health, exec telemetry."""
    import json

    from repro.obs.exec_telemetry import render_exec_report

    if args.output_format == "json":
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    run = manifest.get("run", {})
    runs = run.get("runs")
    fleet = f", {runs} run(s)" if runs else ""
    print(
        f"{run.get('workload')} / {run.get('scheme')} "
        f"[{run.get('input_set')}] seed={run.get('seed')}{fleet}"
    )
    print(f"total cycles: {run.get('total_cycles', 0):,}")
    metrics = manifest.get("metrics") or {}
    if metrics:
        dropped = metrics.get("trace.dropped_events", 0)
        dropped_note = (
            f"; {dropped:,} trace event(s) dropped at capacity"
            if dropped
            else ""
        )
        print(f"metrics: {len(metrics)} recorded{dropped_note}")
    block = manifest.get("exec_telemetry")
    if block is not None:
        print()
        print(render_exec_report(block))
    paging = manifest.get("paging_profile")
    if paging is not None:
        from repro.analysis.profile_report import render_profile_summary

        print()
        print("paging profile")
        print(render_profile_summary(paging))
    fleet_block = (manifest.get("extra") or {}).get("fleet")
    if fleet_block is not None:
        from repro.analysis.fleet_report import render_fleet_table

        print()
        print(render_fleet_table(fleet_block))
    timeseries = manifest.get("fleet_timeseries")
    if timeseries is not None:
        from repro.analysis.fleet_report import (
            render_thrash_table,
            render_timeseries,
        )
        from repro.obs.fleet_telemetry import detect_thrash

        print()
        print(render_timeseries(timeseries))
        print()
        print(render_thrash_table(detect_thrash(timeseries)))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _config(args)
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    _guard_obs_flags(args, "compare")
    telemetry = (
        _telemetry_from_args(args, ship_events=False)
        if _wants_observation(args)
        else None
    )
    results = compare_schemes(
        WorkloadSpec(args.workload, args.scale),
        config,
        schemes,
        seed=args.seed,
        input_set=args.input_set,
        policy=_policy_from_args(args),
        telemetry=telemetry,
    )
    baseline_name = "baseline" if "baseline" in results else schemes[0]
    table = summarize_results(
        {args.workload: results}, baseline=baseline_name
    )[args.workload]
    rows = [
        [name, f"{results[name].total_cycles:,}", f"{table[name]:.3f}",
         f"{results[name].stats.faults:,}"]
        for name in schemes
    ]
    print(
        format_table(
            ["scheme", "cycles", f"vs {baseline_name}", "faults"],
            rows,
            title=f"{args.workload} @ scale {args.scale}",
        )
    )
    _emit_fleet_outputs(
        args, telemetry, [results[name] for name in schemes], schemes
    )
    return 0


def _emit_fleet_outputs(
    args: argparse.Namespace, telemetry, results, labels
) -> None:
    """Shared ``--metrics/--trace/--manifest`` emission (compare/sweep).

    ``results``/``labels`` are in job submission order.  The trace is
    execution-layer only (runner + worker-lane tracks): fleet commands
    do not ship per-job simulation event buffers, that is single-run
    tooling (``repro run --trace``).
    """
    if telemetry is None:
        return
    from repro.obs.chrome import write_chrome_trace
    from repro.obs.exec_telemetry import build_fleet_manifest
    from repro.obs.manifest import write_manifest

    if args.show_metrics:
        merged = telemetry.merged_metrics()
        if merged:
            print()
            if args.metrics_format == "openmetrics":
                from repro.obs.openmetrics import render_openmetrics

                print(render_openmetrics(merged), end="")
            else:
                metric_rows = [
                    [name, _render_metric_value(value)]
                    for name, value in merged.items()
                ]
                print(
                    format_table(
                        ["metric", "value"],
                        metric_rows,
                        title="metrics (merged across jobs)",
                    )
                )
    if args.trace is not None:
        records = write_chrome_trace(
            args.trace,
            (),
            exec_spans=telemetry.spans,
            dropped_events=telemetry.total_dropped,
        )
        print(f"\nexec trace: {records} records -> {args.trace}")
    if args.manifest is not None:
        write_manifest(
            args.manifest,
            build_fleet_manifest(
                list(results), telemetry=telemetry, labels=list(labels)
            ),
        )
        print(f"fleet manifest -> {args.manifest}")


def _profile_schemes(args: argparse.Namespace) -> int:
    """The paging-decision profiler path of ``repro profile --schemes``.

    Runs each scheme over the same workload/seed with a
    :class:`~repro.obs.paging.PagingProfiler` attached, prints the
    per-scheme ledgers, and closes with the scheme-vs-scheme
    effectiveness diff (first scheme is the reference).
    """
    import json as _json
    from pathlib import Path

    from repro.analysis.profile_report import (
        diff_profiles,
        render_heatmap,
        render_profile,
        render_profile_diff,
    )
    from repro.obs.chrome import write_chrome_trace
    from repro.obs.paging import PagingProfiler, write_paging_profile
    from repro.obs.trace import DEFAULT_EVENT_CAPACITY, RingBufferSink
    from repro.sim.engine import prepare_sip_plan

    config = _config(args)
    workload = build_workload(args.workload, scale=args.scale)
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not schemes:
        raise ConfigError("profile: --schemes needs at least one scheme name")
    for scheme in schemes:
        if scheme not in SCHEME_NAMES:
            raise ConfigError(
                f"profile: unknown scheme {scheme!r} "
                f"(choose from {', '.join(SCHEME_NAMES)})"
            )
    sip_plan = None
    if any(scheme in ("sip", "hybrid") for scheme in schemes):
        sip_plan = prepare_sip_plan(workload, config, seed=args.seed)
    artifacts = Path(args.artifacts) if args.artifacts is not None else None
    if artifacts is not None:
        artifacts.mkdir(parents=True, exist_ok=True)
    profiles = {}
    for scheme in schemes:
        profiler = PagingProfiler(window_accesses=args.window)
        capture = (
            RingBufferSink(DEFAULT_EVENT_CAPACITY)
            if artifacts is not None
            else None
        )
        simulate(
            workload,
            config,
            scheme,
            seed=args.seed,
            input_set=args.input_set,
            sip_plan=sip_plan,
            tracer=capture,
            profiler=profiler,
        )
        block = profiler.profile()
        profiles[scheme] = block
        if artifacts is not None:
            stem = f"{args.workload}-{scheme}"
            write_paging_profile(
                artifacts / f"{stem}.paging-profile.json", block
            )
            write_chrome_trace(
                artifacts / f"{stem}.trace.json",
                capture.events,
                dropped_events=capture.dropped,
                paging_profile=block,
            )
            (artifacts / f"{stem}.heatmap.txt").write_text(
                render_heatmap(block) + "\n", encoding="utf-8"
            )
    reference = schemes[0]
    if args.output_format == "json":
        document: dict = {"profiles": profiles}
        if len(schemes) > 1:
            document["diffs"] = {
                scheme: diff_profiles(profiles[reference], profiles[scheme])
                for scheme in schemes[1:]
            }
        print(_json.dumps(document, indent=2, sort_keys=True))
        return 0
    for scheme in schemes:
        print(
            render_profile(
                profiles[scheme],
                label=f"{args.workload} / {scheme} @ scale {args.scale}",
            )
        )
        print()
    for scheme in schemes[1:]:
        print(
            render_profile_diff(
                diff_profiles(profiles[reference], profiles[scheme]),
                label_a=reference,
                label_b=scheme,
            )
        )
        print()
    if artifacts is not None:
        print(f"artifacts -> {artifacts}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    if args.schemes is not None:
        return _profile_schemes(args)
    config = _config(args)
    workload = build_workload(args.workload, scale=args.scale)
    profile = profile_workload(
        workload, config, input_set="train", seed=args.seed
    )
    threshold = args.threshold if args.threshold is not None else config.sip_threshold
    plan = build_sip_plan(profile, threshold)
    sites = sorted(
        (p for p in profile.instructions.values() if p.total),
        key=lambda p: p.irregular_ratio,
        reverse=True,
    )
    rows = [
        [
            p.name,
            p.total,
            f"{p.irregular_ratio:.1%}",
            "yes" if plan.is_instrumented(p.instruction) else "",
        ]
        for p in sites[: args.top]
    ]
    print(
        format_table(
            ["site", "accesses", "irregular", "instrumented"],
            rows,
            title=(
                f"{args.workload}: {plan.instrumentation_points} "
                f"instrumentation point(s) at threshold {threshold:.0%}"
            ),
        )
    )
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    config = SimConfig.scaled(args.scale)
    names = args.workloads or list(WORKLOAD_NAMES)
    rows = []
    for name in names:
        workload = build_workload(name, scale=args.scale)
        kind, summary = classify_benchmark(workload, config, seed=args.seed)
        rows.append(
            [
                name,
                f"{workload.footprint_pages / config.epc_pages:.2f}x",
                f"{summary.stream_coverage:.2f}",
                kind.value,
            ]
        )
    print(
        format_table(
            ["workload", "footprint/EPC", "stream coverage", "classification"],
            rows,
            title="Table 1 style classification",
        )
    )
    return 0


def _parse_value(param: str, raw: str):
    return float(raw) if param in ("sip_threshold", "valve_ratio") else int(raw)


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config(args)
    values = [_parse_value(args.param, v) for v in args.values.split(",")]
    workload = build_workload(args.workload, scale=args.scale)
    _guard_obs_flags(args, "sweep")
    telemetry = (
        _telemetry_from_args(args, ship_events=False)
        if _wants_observation(args)
        else None
    )
    base = simulate(
        workload, config, "baseline", seed=args.seed, input_set=args.input_set
    )
    progress = None
    if args.progress:
        progress = lambda tick: print(tick.render(), file=sys.stderr)
    points = sweep_config(
        WorkloadSpec(args.workload, args.scale),
        [config.replace(**{args.param: value}) for value in values],
        [args.scheme],
        values=values,
        seed=args.seed,
        input_set=args.input_set,
        progress=progress,
        policy=_policy_from_args(args),
        telemetry=telemetry,
    )
    series = [
        (
            point.value,
            point.results[args.scheme].total_cycles / base.total_cycles,
        )
        for point in points
    ]
    print(
        render_series(
            {args.scheme: series},
            title=(
                f"{args.workload}: {args.param} sweep "
                f"(normalized to baseline, lower is better)"
            ),
        )
    )
    _emit_fleet_outputs(
        args, telemetry, [point.results[args.scheme] for point in points], values
    )
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.fleet_report import (
        render_fleet_table,
        render_policy_comparison,
    )
    from repro.sim.fleet import SCENARIO_NAMES, build_scenario, simulate_fleet

    if args.list_scenarios:
        for name in SCENARIO_NAMES:
            print(name)
        return 0
    if args.scenario is None:
        raise ConfigError(
            "a scenario name is required "
            f"(choose from {', '.join(SCENARIO_NAMES)}, or use --list)"
        )
    slo = None
    if args.slo is not None:
        from repro.obs.fleet_telemetry import SloSpec

        slo = SloSpec.parse(args.slo)
    observed = bool(
        args.timeseries
        or slo is not None
        or args.trace is not None
        or args.openmetrics is not None
        or args.window_cycles is not None
    )
    if args.policies is not None:
        if args.policy is not None:
            raise ConfigError("--policy and --policies are mutually exclusive")
        if args.manifest is not None:
            raise ConfigError(
                "--manifest applies to a single-policy run; pick one "
                "policy with --policy"
            )
        if observed:
            raise ConfigError(
                "--timeseries/--slo/--trace/--openmetrics apply to a "
                "single-policy run; pick one policy with --policy"
            )
        policies = [p.strip() for p in args.policies.split(",") if p.strip()]
        if not policies:
            raise ConfigError("--policies needs at least one policy name")
        blocks = []
        for policy in policies:
            scenario = build_scenario(
                args.scenario, seed=args.seed, policy=policy
            )
            blocks.append(simulate_fleet(scenario).fleet_block())
        if args.output_format == "json":
            document = {"schema": "repro.fleet-comparison/1", "blocks": blocks}
            print(json.dumps(document, indent=2, sort_keys=True))
        else:
            print(render_policy_comparison(blocks))
        return 0
    scenario = build_scenario(args.scenario, seed=args.seed, policy=args.policy)
    telemetry = None
    if observed:
        from repro.obs.fleet_telemetry import FleetTelemetry

        telemetry = FleetTelemetry(window_cycles=args.window_cycles)
    result = simulate_fleet(scenario, telemetry=telemetry)
    if args.output_format == "json":
        print(json.dumps(result.manifest(), indent=2, sort_keys=True))
    else:
        print(render_fleet_table(result.fleet_block()))
        if result.timeseries is not None:
            from repro.analysis.fleet_report import (
                render_thrash_table,
                render_timeseries,
            )
            from repro.obs.fleet_telemetry import detect_thrash

            print()
            print(render_timeseries(result.timeseries))
            print()
            print(render_thrash_table(detect_thrash(result.timeseries)))
            if slo is not None:
                from repro.analysis.fleet_report import render_slo_report
                from repro.obs.fleet_telemetry import evaluate_slo

                print()
                print(render_slo_report(evaluate_slo(result.timeseries, slo)))
    artifacts = []
    if args.trace is not None:
        from repro.obs.chrome import write_fleet_chrome_trace

        count = write_fleet_chrome_trace(args.trace, result.timeseries)
        artifacts.append(f"chrome trace ({count} records) to {args.trace}")
    if args.openmetrics is not None:
        from pathlib import Path

        from repro.obs.openmetrics import render_fleet_openmetrics

        Path(args.openmetrics).write_text(
            render_fleet_openmetrics(result.timeseries), encoding="utf-8"
        )
        artifacts.append(f"openmetrics to {args.openmetrics}")
    if args.manifest is not None:
        from repro.obs.manifest import write_manifest

        target = write_manifest(args.manifest, result.manifest())
        artifacts.append(f"manifest to {target}")
    if artifacts and args.output_format != "json":
        print()
        for line in artifacts:
            print(f"wrote {line}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        deep_rule_catalog,
        render_json,
        render_sarif,
        render_text,
        rule_catalog,
        run_lint,
    )

    if args.list_rules:
        catalog = rule_catalog() + deep_rule_catalog()
        rows = [[r["code"], r["name"], r["description"]] for r in catalog]
        print(format_table(["code", "name", "checks for"], rows))
        return 0

    def codes(raw: Optional[str]) -> Optional[List[str]]:
        if raw is None:
            return None
        return [c.strip() for c in raw.split(",") if c.strip()]

    report = run_lint(
        args.paths,
        select=codes(args.select),
        ignore=codes(args.ignore),
        deep=args.deep,
    )
    if args.sarif is not None:
        from pathlib import Path as _Path

        from repro import __version__ as _version

        _Path(args.sarif).write_text(
            render_sarif(
                report.findings,
                catalog=rule_catalog() + deep_rule_catalog(),
                tool_version=_version,
            )
            + "\n",
            encoding="utf-8",
        )
        print(f"sarif: {len(report.findings)} result(s) -> {args.sarif}")
    if args.output_format == "json":
        print(render_json(report.findings, report))
    else:
        print(render_text(report.findings, report))
    return 1 if report.findings else 0


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "report": _cmd_report,
    "compare": _cmd_compare,
    "profile": _cmd_profile,
    "classify": _cmd_classify,
    "sweep": _cmd_sweep,
    "fleet": _cmd_fleet,
    "lint": _cmd_lint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
