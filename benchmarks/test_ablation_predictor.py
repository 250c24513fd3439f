"""Ablation: the multiple-stream predictor vs classic alternatives.

DESIGN.md calls out the predictor as the central DFP design choice;
Section 4.1 justifies it by analogy to Linux read-ahead and contrasts
with next-line/stride hardware prefetchers.  This ablation swaps the
predictor while keeping the whole DFP machinery (bursts, aborts,
valve) fixed:

* **multi-stream** (the paper's design) tracks each interleaved array
  sweep separately — required for lbm/bwaves-style stencils;
* **stride** (single-context) sees the *interleaved* fault sequence,
  whose global delta alternates, and detects nothing on lbm;
* **next-line** preloads after every fault and floods the exclusive
  channel on irregular workloads.
"""

from repro.analysis.report import render_series
from repro.core.alt_predictors import NextLinePredictor, StridePredictor
from repro.core.schemes import Scheme
from repro.sim.engine import simulate
from repro.sim.results import normalized_time

from benchmarks.conftest import bench_config, get_workload, report, run

BENCHMARKS = ("lbm", "microbenchmark", "deepsjeng")


def _scheme(config, factory):
    # Valve off: the ablation compares raw predictor quality; with the
    # valve on, every bad predictor just gets switched off and the
    # comparison collapses to ~baseline for all of them.
    return Scheme(
        name="dfp",
        dfp_config=config.replace(valve_enabled=False),
        predictor_factory=factory,
    )


def test_ablation_predictor(benchmark):
    config = bench_config()
    factories = {
        "multi-stream": None,  # the default predictor
        "stride": lambda: StridePredictor(config.load_length),
        "next-line": lambda: NextLinePredictor(config.load_length),
    }

    def experiment():
        grid = {}
        for name in BENCHMARKS:
            base = run(name, "baseline")
            for label, factory in factories.items():
                if factory is None:
                    result = run(name, "dfp")
                else:
                    result = simulate(
                        get_workload(name), config, _scheme(config, factory)
                    )
                grid[(name, label)] = normalized_time(result, base)
        return grid

    grid = benchmark.pedantic(experiment, rounds=1, iterations=1)

    series = {
        label: [(name, grid[(name, label)]) for name in BENCHMARKS]
        for label in factories
    }
    text = render_series(
        series,
        title=(
            "Ablation: predictor design (normalized time, lower is better)\n"
            "multi-stream = the paper's Algorithm 1"
        ),
    )
    report("ablation_predictor", text)

    # Multi-stream wins on the interleaved stencil: the single-context
    # stride detector cannot latch onto alternating arrays.
    assert grid[("lbm", "multi-stream")] < grid[("lbm", "stride")] - 0.02
    # On the single pure stream all three behave reasonably; the
    # paper's design is at least as good as either alternative.
    for label in ("stride", "next-line"):
        assert (
            grid[("microbenchmark", "multi-stream")]
            <= grid[("microbenchmark", label)] + 0.01
        )
    # Next-line must be the worst choice for the irregular benchmark:
    # it preloads after *every* random fault.
    assert grid[("deepsjeng", "next-line")] == max(
        grid[("deepsjeng", label)] for label in factories
    )
