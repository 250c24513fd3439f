"""The output check: a perturbed result counts as failed, pinned or not."""

import dataclasses

import pytest

from perfbench import bench, check, suite
from repro.core.config import SimConfig
from repro.sim.engine import simulate
from repro.sim.tracecache import materialize
from repro.workloads.registry import build_workload

SCALE = 128


@pytest.fixture(scope="module")
def run():
    workload = build_workload("microbenchmark", scale=SCALE)
    config = SimConfig.scaled(SCALE)
    trace = materialize(workload, seed=0, input_set="ref")

    def call(cfg):
        return suite.RunOutput([simulate(workload, cfg, "dfp", trace=trace)])

    # The label's hash keeps it out of the twin-checked third of an
    # unpinned seed, so ``twin_all=False`` checks it against its first pass.
    return suite.Run(
        "microbenchmark/dfp/0",
        lambda: call(config),
        lambda: call(config.replace(sanitize=True)),
    )


def perturbed_cycles(output):
    result = output.results[0]
    return suite.RunOutput(
        [dataclasses.replace(result, total_cycles=result.total_cycles + 1)]
    )


def perturbed_stats(output):
    """A result whose time identity still holds but whose stats moved."""
    result = output.results[0]
    stats = dataclasses.replace(result.stats, evictions=result.stats.evictions + 1)
    return suite.RunOutput([dataclasses.replace(result, stats=stats)])


def test_pinned_reference_passes_the_run_it_was_taken_from(run):
    output = run.call()
    checker = check.Checker([run], {run.label: check.digests(output)})
    assert checker.mode == "references"
    assert checker.problem(run.label, *check.reduce(run.call())) is None


@pytest.mark.parametrize("perturb", [perturbed_cycles, perturbed_stats])
def test_perturbed_result_fails_against_references(run, perturb):
    output = run.call()
    checker = check.Checker([run], {run.label: check.digests(output)})
    assert checker.problem(run.label, *check.reduce(perturb(output))) is not None


@pytest.mark.parametrize("perturb", [perturbed_cycles, perturbed_stats])
@pytest.mark.parametrize("twin_all", [True, False])
def test_perturbed_result_fails_against_the_oracles(run, perturb, twin_all):
    checker = check.Checker([run], None, twin_all=twin_all)
    assert checker.mode == "oracles"
    assert checker.problem(run.label, *check.reduce(run.call())) is None
    assert checker.problem(run.label, *check.reduce(perturb(run.call()))) is not None


def test_run_pass_reduces_each_output_and_counts_a_raising_run(run):
    def boom():
        raise RuntimeError("boom")

    done, raised = bench.run_pass(
        [run, suite.Run("raising", boom, boom)], keep=lambda output: output.accesses
    )
    assert done.error is None and done.digests == check.digests(run.call())
    assert done.accesses == done.kept > 0 and done.ns > 0
    assert (raised.error, raised.digests, raised.accesses) == ("RuntimeError: boom", None, 0)


def test_missing_reference_and_raised_run_fail(run):
    checker = check.Checker([run], {})
    assert "no pinned reference" in checker.problem(run.label, *check.reduce(run.call()))
    assert checker.problem(run.label, "SimulationError: boom", None) == (
        "SimulationError: boom"
    )


def test_observed_run_digests_like_its_blind_twin():
    built = suite.setup("observed", 0)
    run = next(r for r in built.runs if r.label == "lbm/hybrid/1")
    observed, blind = run.call(), run.twin()
    assert observed.results[0].metrics and observed.results[0].config.sanitize
    assert check.oracle_errors(observed) == []
    assert check.digests(observed) == check.digests(blind)
