"""Per-layer host time for the traced run, measured from outside the program.

:class:`LayerTracer` wraps the public entry points of every simulator
layer — class attributes and module-level functions — while installed,
and restores the originals afterwards.  A span stack gives each call its
self time: its duration minus the time of the wrapped calls it made.
Calls, total and self time are aggregated per span name in memory; no
per-call span is kept, because a pass makes millions of wrapped calls.

:func:`layer_metrics` joins those aggregates with the ``RunStats`` of
the traced pass, so every ratio is formed where the work happens.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core import dfp, instrumentation, predictor, profiler
from repro.enclave import driver, epc, eviction, loader, platform, sanitizer
from repro.obs import exec_telemetry, fleet_telemetry, manifest, metrics, paging, trace
from repro.sim import engine, fleet, parallel, sweep, tracecache

from perfbench.table import LAYER_METRICS

__all__ = ["FUNCTIONS", "LayerTracer", "METHODS", "layer_metrics", "pass_totals"]


def _named(cls, prefixes: Tuple[str, ...], names: Tuple[str, ...] = ()) -> tuple:
    """Methods ``cls`` itself defines whose name has one of ``prefixes``."""
    found = [n for n in vars(cls) if n.startswith(prefixes) and callable(vars(cls)[n])]
    return tuple(sorted(found)) + names


#: (class, layer, methods) — each method becomes span ``<layer>.<method>``.
#: ``SgxDriver.access`` and ``ClockEvictor.select_victim`` are wrapped
#: separately, with a counter probed around each call.
METHODS = (
    (driver.SgxDriver, "driver", ("finish",)),
    (driver.SgxDriver, "sip", ("sip_prefetch",)),
    (driver.SgxDriver, "fleet", ("account_idle",)),
    (platform.SharedPlatform, "platform", ("poll", "next_wakeup")),
    (
        loader.LoadChannel,
        "loader",
        (
            "advance_to",
            "load_sync",
            "enqueue_preloads",
            "abort_tag",
            "abort_pages_in_range",
            "wait_for_current",
        ),
    ),
    (eviction.ClockEvictor, "eviction", ("note_insert", "note_evict")),
    (epc.Epc, "epc", ("insert", "evict")),
    (dfp.DfpEngine, "dfp", ("on_fault", "check_valve")),
    (predictor.MultiStreamPredictor, "predictor", ("on_fault",)),
    (
        platform.FrameManager,
        "frames",
        ("needs_victim", "select_victim", "note_insert", "note_evict"),
    ),
    (platform.AdaptiveQuotaFrames, "frames", ("rebalance",)),
    (metrics.Counter, "metrics", ("inc",)),
    (metrics.Histogram, "metrics", ("observe",)),
    (trace.RingBufferSink, "trace", ("emit",)),
    (paging.PagingProfiler, "paging", _named(paging.PagingProfiler, ("ledger_",), ("profile",))),
    (
        sanitizer.SimSanitizer,
        "sanitizer",
        _named(sanitizer.SimSanitizer, ("check_",), ("record_event",)),
    ),
    (
        fleet_telemetry.FleetTelemetry,
        "fleet_telemetry",
        _named(fleet_telemetry.FleetTelemetry, ("series_",), ("block",)),
    ),
    (
        exec_telemetry.ExecTelemetry,
        "exec_telemetry",
        _named(
            exec_telemetry.ExecTelemetry,
            ("attempt_",),
            ("deliver_worker", "merged_metrics"),
        ),
    ),
)

#: (function, layer) — patched in every ``repro`` module that binds it.
FUNCTIONS = (
    (tracecache.materialize, "tracecache"),
    (profiler.profile_workload, "profiler"),
    (instrumentation.build_sip_plan, "instrumentation"),
    (engine.simulate, "engine"),
    (fleet.simulate_fleet, "fleet"),
    (manifest.build_manifest, "manifest"),
    (manifest.manifest_digest, "manifest"),
    (manifest.git_sha, "manifest"),
    (sweep.sweep_config, "parallel"),
    (parallel.run_jobs, "parallel"),
    (parallel.run_job, "parallel"),
)


class LayerTracer:
    """Aggregated spans of the calls made while :meth:`installed`.

    ``records[span]`` is ``[calls, total_s, self_s, probed]``, where
    ``probed`` sums the change of the span's probed counter.
    """

    def __init__(self) -> None:
        self.records: Dict[str, List[float]] = {}
        self._stack: List[float] = []
        self._patches = list(self._build())

    def _record(self, span: str) -> List[float]:
        return self.records.setdefault(span, [0, 0.0, 0.0, 0])

    def _wrap(
        self,
        span: str,
        fn: Callable,
        probe: Optional[Callable[[object], int]] = None,
        changed: Optional[str] = None,
    ) -> Callable:
        """Wrap ``fn``; with ``changed``, calls that move ``probe`` book there."""
        record = self._record(span)
        other = self._record(changed) if changed is not None else record
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = probe(args[0]) if probe is not None else 0
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                delta = probe(args[0]) - before if probe is not None else 0
                booked = other if delta else record
                booked[0] += 1
                booked[1] += elapsed
                booked[2] += elapsed - inner
                booked[3] += delta
                if stack:
                    stack[-1] += elapsed

        return traced

    def _build(self) -> Iterator[Tuple[object, str, Callable]]:
        SgxDriver = driver.SgxDriver
        yield SgxDriver, "access", self._wrap(
            "driver.hit",
            vars(SgxDriver)["access"],
            probe=lambda drv: drv.stats.faults,
            changed="driver.fault",
        )
        ClockEvictor = eviction.ClockEvictor
        yield ClockEvictor, "select_victim", self._wrap(
            "eviction.select_victim",
            vars(ClockEvictor)["select_victim"],
            probe=lambda evictor: evictor.second_chances,
        )
        for cls, layer, names in METHODS:
            for name in names:
                yield cls, name, self._wrap(f"{layer}.{name}", vars(cls)[name])
        for fn, layer in FUNCTIONS:
            wrapped = self._wrap(f"{layer}.{fn.__name__}", fn)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") and (
                    vars(module).get(fn.__name__) is fn
                ):
                    yield module, fn.__name__, wrapped

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Patch every entry point for the duration of the block."""
        saved = []
        try:
            for owner, name, wrapped in self._patches:
                saved.append((owner, name, vars(owner)[name]))
                setattr(owner, name, wrapped)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def calls(self, layer: str, *spans: str) -> int:
        return int(self._sum(0, layer, spans))

    def self_s(self, layer: str, *spans: str) -> float:
        return self._sum(2, layer, spans)

    def probed(self, span: str) -> int:
        return int(self.records.get(span, (0, 0, 0, 0))[3])

    def _sum(self, field: int, layer: str, spans: Tuple[str, ...]) -> float:
        """Sum one field over ``layer.<span>`` spans (all of the layer's if none)."""
        if spans:
            names = [f"{layer}.{span}" for span in spans]
        else:
            names = [n for n in self.records if n.split(".", 1)[0] == layer]
        return sum(self.records.get(n, (0, 0.0, 0.0, 0))[field] for n in names)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_totals(outputs) -> Dict[str, int]:
    """Counts of one pass's outputs that the per-layer ratios are based on."""
    results = [r for out in outputs for r in out.results]
    fleets = [out.fleet_result for out in outputs if out.fleet_result is not None]
    totals = {
        "runs": len(outputs),
        "accesses": sum(r.stats.accesses for r in results),
        "fleet_accesses": sum(out.accesses for out in outputs if out.fleet_result),
        "tenants": sum(len(f.tenants) for f in fleets),
        "rebalances": sum(f.rebalances for f in fleets),
        "batched_runs": sum(r.engine == "batched" for r in results),
    }
    for name in (
        "faults",
        "scans",
        "preloads_enqueued",
        "preloads_completed",
        "preloads_aborted",
        "preloads_accessed",
        "preload_hits",
        "valve_stops",
        "sip_checks",
        "sip_check_hits",
        "sip_loads",
    ):
        totals[name] = sum(getattr(r.stats, name) for r in results)
    return totals


def layer_metrics(
    setup_spans: LayerTracer,
    pass_spans: LayerTracer,
    passes: int,
    setup,
    totals: Dict[str, int],
    overhead_x: float,
) -> Dict[str, float]:
    """Every metric of :data:`LAYER_METRICS`, per pass of the workload.

    ``setup_spans`` traced one set-up, ``pass_spans`` traced ``passes``
    passes; ``totals`` are :func:`pass_totals` of one traced pass.
    """
    s, p = setup_spans, pass_spans

    def per_pass(value: float) -> float:
        return value / passes

    engine_accesses = totals["accesses"] - totals["fleet_accesses"]
    events = sum(len(t) for t in setup.traces)
    hit_calls = per_pass(p.calls("driver", "hit"))
    fault_calls = per_pass(p.calls("driver", "fault"))
    materialize_s = s.self_s("tracecache")
    engine_s = per_pass(p.self_s("engine"))
    fleet_s = per_pass(p.self_s("fleet"))
    jobs = per_pass(p.calls("parallel", "run_job"))
    values = {
        "tracecache.materialize_s": materialize_s,
        "tracecache.events": events,
        "tracecache.ns_per_event": _ratio(materialize_s * 1e9, events),
        "tracecache.bytes": sum(t.nbytes for t in setup.traces),
        "profiler.profile_s": s.self_s("profiler"),
        "profiler.events": sum(prof.total_accesses for prof in setup.profiles),
        "instrumentation.plan_s": s.self_s("instrumentation"),
        "instrumentation.sites": sum(plan.instrumentation_points for plan in setup.plans),
        "engine.self_s": engine_s,
        "engine.self_ns_per_access": _ratio(engine_s * 1e9, engine_accesses),
        "engine.batched_runs": totals["batched_runs"],
        "engine.bulk_retired_frac": _ratio(
            totals["accesses"] - hit_calls - fault_calls, totals["accesses"]
        ),
        "driver.hit_calls": hit_calls,
        "driver.hit_ns": _ratio(per_pass(p.self_s("driver", "hit")) * 1e9, hit_calls),
        "driver.fault_calls": fault_calls,
        "driver.fault_us": _ratio(
            per_pass(p.self_s("driver", "fault")) * 1e6, fault_calls
        ),
        "platform.poll_calls": per_pass(p.calls("platform", "poll")),
        "platform.poll_self_s": per_pass(p.self_s("platform", "poll")),
        "platform.next_wakeup_calls": per_pass(p.calls("platform", "next_wakeup")),
        "platform.scans": totals["scans"],
        "loader.calls": per_pass(p.calls("loader")),
        "loader.self_s": per_pass(p.self_s("loader")),
        "loader.preloads_completed": totals["preloads_completed"],
        "loader.preloads_aborted": totals["preloads_aborted"],
        "loader.preload_useful_frac": _ratio(
            totals["preloads_accessed"], totals["preloads_completed"]
        ),
        "eviction.calls": per_pass(p.calls("eviction")),
        "eviction.self_s": per_pass(p.self_s("eviction")),
        "eviction.second_chances": per_pass(p.probed("eviction.select_victim")),
        "epc.self_s": per_pass(p.self_s("epc")),
        "dfp.calls": per_pass(p.calls("dfp")),
        "dfp.self_s": per_pass(p.self_s("dfp")),
        "predictor.self_s": per_pass(p.self_s("predictor")),
        "dfp.valve_stops": totals["valve_stops"],
        "dfp.preload_accuracy": _ratio(
            totals["preload_hits"], totals["preloads_enqueued"]
        ),
        "sip.calls": per_pass(p.calls("sip")),
        "sip.self_ns": _ratio(per_pass(p.self_s("sip")) * 1e9, per_pass(p.calls("sip"))),
        "sip.check_hit_frac": _ratio(totals["sip_check_hits"], totals["sip_checks"]),
        "sip.loads": totals["sip_loads"],
        "fleet.self_s": fleet_s,
        "fleet.self_ns_per_access": _ratio(fleet_s * 1e9, totals["fleet_accesses"]),
        "fleet.tenants": totals["tenants"],
        "fleet.idle_calls": per_pass(p.calls("fleet", "account_idle")),
        "platform.frames_calls": per_pass(p.calls("frames")),
        "platform.frames_self_s": per_pass(p.self_s("frames")),
        "platform.rebalances": totals["rebalances"],
        "parallel.jobs": jobs,
        "parallel.self_ms_per_job": _ratio(per_pass(p.self_s("parallel")) * 1e3, jobs),
        "tracing.overhead_x": overhead_x,
    }
    for layer in (
        "metrics",
        "trace",
        "paging",
        "sanitizer",
        "fleet_telemetry",
        "exec_telemetry",
        "manifest",
    ):
        values[f"{layer}.calls"] = per_pass(p.calls(layer))
        values[f"{layer}.self_s"] = per_pass(p.self_s(layer))
    return {name: values[name] for name, _unit, _base in LAYER_METRICS}
