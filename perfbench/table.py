"""The benchmark's metrics: names, units and the count each is measured per.

Kept free of simulator imports so :mod:`perfbench.compare` runs anywhere.
"""

__all__ = ["END_TO_END", "LAYER_METRICS"]

#: End-to-end metrics of an untraced run: (name, unit).
END_TO_END = (
    ("accesses_per_s", "accesses/s"),
    ("ns_per_access_p50", "ns"),
    ("ns_per_access_p90", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_runs_frac", "fraction"),
)

#: Every per-layer metric: (name, unit, base).  The base names the count
#: a metric is measured per (a metric of this table or a pass total of
#: the provenance line); the old-vs-new table prints it beside the ratio.
LAYER_METRICS = (
    ("tracecache.materialize_s", "s", "tracecache.events"),
    ("tracecache.events", "count", None),
    ("tracecache.ns_per_event", "ns", "tracecache.events"),
    ("tracecache.bytes", "bytes", None),
    ("profiler.profile_s", "s", "profiler.events"),
    ("profiler.events", "count", None),
    ("instrumentation.plan_s", "s", "instrumentation.sites"),
    ("instrumentation.sites", "count", None),
    ("engine.self_s", "s", "accesses"),
    ("engine.self_ns_per_access", "ns", "accesses"),
    ("engine.batched_runs", "count", "runs"),
    ("engine.bulk_retired_frac", "fraction", "accesses"),
    ("driver.hit_calls", "count", None),
    ("driver.hit_ns", "ns", "driver.hit_calls"),
    ("driver.fault_calls", "count", None),
    ("driver.fault_us", "us", "driver.fault_calls"),
    ("platform.poll_calls", "count", None),
    ("platform.poll_self_s", "s", "platform.poll_calls"),
    ("platform.next_wakeup_calls", "count", None),
    ("platform.scans", "count", None),
    ("loader.calls", "count", None),
    ("loader.self_s", "s", "loader.calls"),
    ("loader.preloads_completed", "count", None),
    ("loader.preloads_aborted", "count", None),
    ("loader.preload_useful_frac", "fraction", "loader.preloads_completed"),
    ("eviction.calls", "count", None),
    ("eviction.self_s", "s", "eviction.calls"),
    ("eviction.second_chances", "count", None),
    ("epc.self_s", "s", "accesses"),
    ("dfp.calls", "count", None),
    ("dfp.self_s", "s", "dfp.calls"),
    ("predictor.self_s", "s", "dfp.calls"),
    ("dfp.valve_stops", "count", None),
    ("dfp.preload_accuracy", "fraction", "preloads_enqueued"),
    ("sip.calls", "count", None),
    ("sip.self_ns", "ns", "sip.calls"),
    ("sip.check_hit_frac", "fraction", "sip_checks"),
    ("sip.loads", "count", None),
    ("fleet.self_s", "s", "fleet_accesses"),
    ("fleet.self_ns_per_access", "ns", "fleet_accesses"),
    ("fleet.tenants", "count", None),
    ("fleet.idle_calls", "count", None),
    ("platform.frames_calls", "count", None),
    ("platform.frames_self_s", "s", "platform.frames_calls"),
    ("platform.rebalances", "count", None),
    ("metrics.calls", "count", None),
    ("metrics.self_s", "s", "metrics.calls"),
    ("trace.calls", "count", None),
    ("trace.self_s", "s", "trace.calls"),
    ("paging.calls", "count", None),
    ("paging.self_s", "s", "paging.calls"),
    ("sanitizer.calls", "count", None),
    ("sanitizer.self_s", "s", "sanitizer.calls"),
    ("fleet_telemetry.calls", "count", None),
    ("fleet_telemetry.self_s", "s", "fleet_telemetry.calls"),
    ("exec_telemetry.calls", "count", None),
    ("exec_telemetry.self_s", "s", "exec_telemetry.calls"),
    ("manifest.calls", "count", None),
    ("manifest.self_s", "s", "manifest.calls"),
    ("parallel.jobs", "count", None),
    ("parallel.self_ms_per_job", "ms", "parallel.jobs"),
    ("tracing.overhead_x", "x", "runs"),
)
