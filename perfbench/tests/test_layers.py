"""The traced run's wrappers: counts join with RunStats, originals restored."""

from perfbench import layers
from repro.core.config import SimConfig
from repro.enclave.driver import SgxDriver
from repro.sim import engine
from repro.sim.tracecache import materialize
from repro.workloads.registry import build_workload


def test_scalar_run_books_every_access_and_fault():
    workload = build_workload("mcf", scale=128)
    config = SimConfig.scaled(128)
    trace = materialize(workload, seed=0, input_set="ref")
    original = vars(SgxDriver)["access"]
    tracer = layers.LayerTracer()
    with tracer.installed():
        assert vars(SgxDriver)["access"] is not original
        result = engine.simulate(workload, config, "dfp", trace=trace, engine="scalar")
    assert vars(SgxDriver)["access"] is original
    assert engine.simulate is vars(engine)["simulate"]
    hits, faults = tracer.calls("driver", "hit"), tracer.calls("driver", "fault")
    assert hits + faults == result.stats.accesses
    assert faults == result.stats.faults
    assert tracer.calls("engine", "simulate") == 1
    assert tracer.calls("dfp") > 0
    for calls, total, own, _probed in tracer.records.values():
        assert own <= total + 1e-9
    # The engine's self time excludes every wrapped call it made.
    assert tracer.self_s("engine") < tracer.records["engine.simulate"][1]


def test_layer_metrics_cover_the_table():
    built_names = [name for name, _unit, _base in layers.LAYER_METRICS]
    assert len(built_names) == len(set(built_names))
    tracer = layers.LayerTracer()

    class NoSetup:
        traces, profiles, plans = [], [], []

    totals = layers.pass_totals([])
    values = layers.layer_metrics(tracer, tracer, 1, NoSetup, totals, 1.0)
    assert list(values) == built_names
