"""The simulation engine.

``simulate`` executes one workload trace against the enclave substrate
under one scheme, on a single virtual-cycle clock:

* compute cycles advance the clock;
* SIP-instrumented instructions run the notification stub first
  (:meth:`~repro.enclave.driver.SgxDriver.sip_prefetch`);
* every page touch goes through the driver
  (:meth:`~repro.enclave.driver.SgxDriver.access`), which services
  faults, runs the DFP machinery and the periodic service thread, and
  drains the background preload channel in correct time order.

The engine asserts the accounting invariant that the per-bucket time
breakdown reconstructs the total run time exactly — a cheap end-to-end
check that no simulated cycle is double-counted or lost.  With
``config.sanitize`` set, the driver additionally carries a
:class:`~repro.enclave.sanitizer.SimSanitizer` that re-proves this
identity at *every* service-thread tick and cross-checks the
EPC/channel/counter invariants per event, raising
:class:`~repro.errors.SanitizerError` with the offending event tail.

``simulate_native`` runs the same trace *outside* any enclave (first
touch of each page costs a regular ~2k-cycle fault) and exists for the
motivation experiment: the paper's observed ~46× slowdown of the
sequential microbenchmark inside SGX.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Optional

from repro.core.config import SimConfig
from repro.core.instrumentation import SipPlan, build_sip_plan
from repro.core.profiler import profile_workload
from repro.core.schemes import Scheme, make_scheme
from repro.enclave.driver import SgxDriver
from repro.enclave.enclave import Enclave
from repro.errors import ConfigError, SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.paging import PagingProfiler
from repro.obs.trace import TraceSink
from repro.sim.results import RunResult
from repro.workloads.base import TraceEvent, Workload

__all__ = ["simulate", "simulate_native", "prepare_sip_plan"]


def prepare_sip_plan(
    workload: Workload,
    config: SimConfig,
    *,
    threshold: Optional[float] = None,
    seed: int = 0,
) -> SipPlan:
    """Profile ``workload`` on its training input and compile a SIP plan.

    This is the full PGO pipeline of Section 3.2: profiling run on the
    *train* input set, per-instruction classification, threshold
    decision.  Performance runs then use the *ref* input set, exactly
    like the paper's methodology (Section 5.2).
    """
    profile = profile_workload(workload, config, input_set="train", seed=seed)
    return build_sip_plan(
        profile, config.sip_threshold if threshold is None else threshold
    )


def simulate(
    workload: Workload,
    config: SimConfig,
    scheme: "Scheme | str" = "baseline",
    *,
    seed: int = 0,
    input_set: str = "ref",
    sip_plan: Optional[SipPlan] = None,
    record_events: bool = False,
    max_accesses: Optional[int] = None,
    metrics: Optional["MetricsRegistry"] = None,
    tracer: Optional["TraceSink"] = None,
    event_capacity: Optional[int] = None,
    trace: Optional[Iterable[TraceEvent]] = None,
    profiler: Optional["PagingProfiler"] = None,
    engine: str = "scalar",
) -> RunResult:
    """Run one workload under one scheme; return its result.

    ``scheme`` may be a prebuilt :class:`~repro.core.schemes.Scheme`
    or a scheme name; names needing SIP use ``sip_plan`` when given
    and otherwise compile one on the fly via :func:`prepare_sip_plan`.
    ``max_accesses`` truncates the trace (useful for tests).

    ``trace`` replays a pre-materialized event stream (see
    :mod:`repro.sim.tracecache`) instead of walking the workload's
    generator; it must be exactly what ``workload.trace(seed=seed,
    input_set=input_set)`` would yield, so results are identical
    either way — the scheme comparison drivers use this to walk a
    trace once and replay it for every scheme.

    ``engine`` must be ``"scalar"`` (else :class:`~repro.errors.ConfigError`);
    it stays because ``perfbench/tests/test_layers.py`` passes it.

    Observability (all passive — none of these change the outcome):
    ``metrics`` is a :class:`~repro.obs.metrics.MetricsRegistry` the
    driver and DFP layers publish into (its dump lands on
    ``RunResult.metrics``); ``tracer`` is an extra
    :class:`~repro.obs.trace.TraceSink` receiving every timeline event
    as it happens; ``event_capacity`` bounds the ``record_events``
    ring buffer (most recent events win, drops are counted);
    ``profiler`` is a :class:`~repro.obs.paging.PagingProfiler` the
    driver feeds every paging decision (read its
    :meth:`~repro.obs.paging.PagingProfiler.profile` after the run).
    """
    if engine != "scalar":
        raise ConfigError(f"unknown engine {engine!r}; the only engine is 'scalar'")
    if isinstance(scheme, str):
        if scheme in ("sip", "hybrid") and sip_plan is None:
            sip_plan = prepare_sip_plan(workload, config, seed=seed)
        scheme = make_scheme(scheme, config, sip_plan=sip_plan)

    dfp = scheme.build_dfp(metrics=metrics)
    sip = scheme.build_sip()
    points = scheme.sip_plan.instrumentation_points if scheme.sip_plan else 0
    enclave = Enclave(
        name=workload.name,
        elrange_pages=workload.elrange_pages,
        instrumentation_points=points,
    )
    driver = SgxDriver(
        config,
        enclave,
        dfp=dfp,
        record_events=record_events,
        metrics=metrics,
        tracer=tracer,
        event_capacity=event_capacity,
        profiler=profiler,
    )
    breakdown = driver.stats.time
    instrumented = sip.instrumented if sip is not None else None

    now = 0
    sip_prefetch = driver.sip_prefetch
    access = driver.access
    events: Iterable[TraceEvent] = (
        trace if trace is not None else workload.trace(seed=seed, input_set=input_set)
    )
    if max_accesses is not None:
        events = islice(events, max_accesses)
    # Hot loop.  Two variants so the common non-SIP run pays neither
    # the membership test nor the extra branch per event; both keep
    # ``breakdown.compute`` current per event because the sanitizer's
    # per-tick accounting identity reads it mid-run.
    if instrumented is None:
        for _instr, page, cycles in events:
            now += cycles
            breakdown.compute += cycles
            now = access(page, now)
    else:
        for instr, page, cycles in events:
            now += cycles
            breakdown.compute += cycles
            if instr in instrumented:
                now = sip_prefetch(page, now)
            now = access(page, now)
    driver.finish(now)
    if driver.sanitizer is not None:
        # End-of-run sweep: the per-tick checks ran at every scan; this
        # closes the run with the same identity at the final clock plus
        # the EPC-occupancy and abort-accounting invariants.
        driver.sanitizer.check_final(driver.stats, now)

    if breakdown.total != now:
        raise SimulationError(
            f"time accounting mismatch: buckets sum to {breakdown.total}, "
            f"clock reads {now}"
        )
    return RunResult(
        workload=workload.name,
        scheme=scheme.name,
        input_set=input_set,
        seed=seed,
        total_cycles=now,
        stats=driver.stats,
        config=config,
        sip_points=points,
        events=driver.events if record_events else None,
        metrics=(
            metrics.as_dict()
            if metrics is not None and metrics.enabled
            else None
        ),
    )


def simulate_native(
    workload: Workload,
    config: SimConfig,
    *,
    seed: int = 0,
    input_set: str = "ref",
    max_accesses: Optional[int] = None,
) -> RunResult:
    """Run the workload outside SGX: regular minor faults only.

    First touch of each page costs ``regular_fault_cycles`` (~2k); all
    other touches are free beyond their compute.  Used to reproduce
    the motivation numbers of Sections 1–2.
    """
    from repro.enclave.stats import RunStats

    stats = RunStats()
    touched = set()
    fault_cost = config.cost.regular_fault_cycles
    now = 0
    count = 0
    for _instr, page, cycles in workload.trace(seed=seed, input_set=input_set):
        now += cycles
        stats.time.compute += cycles
        stats.accesses += 1
        if page not in touched:
            touched.add(page)
            stats.faults += 1
            now += fault_cost
            stats.time.fault_wait += fault_cost
        else:
            stats.epc_hits += 1
        count += 1
        if max_accesses is not None and count >= max_accesses:
            break
    return RunResult(
        workload=workload.name,
        scheme="native",
        input_set=input_set,
        seed=seed,
        total_cycles=now,
        stats=stats,
        config=config,
    )
