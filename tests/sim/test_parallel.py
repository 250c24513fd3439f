"""Determinism of the parallel experiment runner.

The contract under test: ``jobs=N`` is an execution strategy, not a
different experiment.  A parallel sweep must produce results — down to
the byte-identical run manifests of the PR-2 machinery — that the
serial sweep would have produced, with or without the runtime
sanitizer attached.
"""

import json

import pytest

from repro.core.config import SimConfig
from repro.errors import ConfigError, ParallelExecutionError
from repro.obs.manifest import build_manifest
from repro.robust import ExecutionPolicy
from repro.sim.parallel import JobSpec, WorkloadSpec, run_job, run_jobs
from repro.sim.sweep import compare_schemes, sweep_config

#: Small but real: ~6k-page footprint at scale 64, a few ms per run.
SPEC = WorkloadSpec("microbenchmark", 64)

#: A 5-point, 2-scheme sweep — the acceptance-criteria shape.
VALUES = (1, 2, 4, 6, 8)
SCHEMES = ("baseline", "dfp-stop")


def sweep_configs(sanitize=False):
    base = SimConfig.scaled(64)
    if sanitize:
        base = base.replace(sanitize=True)
    return [base.replace(load_length=v) for v in VALUES]


def manifest_bytes(point):
    """The canonical byte serialization of one sweep point's runs."""
    return {
        scheme: json.dumps(
            build_manifest(result), sort_keys=True, indent=2
        ).encode()
        for scheme, result in point.results.items()
    }


class TestWorkloadSpec:
    def test_builds_the_registry_workload(self):
        workload = SPEC.build()
        assert workload.name == "microbenchmark"

    def test_is_picklable(self):
        import pickle

        spec = JobSpec(workload=SPEC, config=SimConfig.scaled(64), scheme="dfp")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_describe_names_the_coordinates(self):
        spec = JobSpec(workload=SPEC, config=SimConfig.scaled(64), scheme="dfp")
        text = spec.describe()
        assert "microbenchmark" in text
        assert "dfp" in text


class TestRunJobs:
    def test_results_come_back_in_submission_order(self):
        config = SimConfig.scaled(64)
        specs = [
            JobSpec(workload=SPEC, config=config, scheme=name)
            for name in ("dfp-stop", "baseline", "dfp")
        ]
        results = run_jobs(specs, policy=ExecutionPolicy(jobs=2))
        assert [r.scheme for r in results] == ["dfp-stop", "baseline", "dfp"]

    def test_parallel_equals_serial_per_job(self):
        config = SimConfig.scaled(64)
        specs = [
            JobSpec(workload=SPEC, config=config, scheme=name)
            for name in SCHEMES
        ]
        assert run_jobs(specs, policy=ExecutionPolicy(jobs=2)) == [
            run_job(s) for s in specs
        ]

    def test_on_result_fires_once_per_job(self):
        config = SimConfig.scaled(64)
        specs = [
            JobSpec(workload=SPEC, config=config, scheme="baseline"),
            JobSpec(workload=SPEC, config=config, scheme="dfp"),
        ]
        seen = []
        run_jobs(
            specs,
            policy=ExecutionPolicy(jobs=2),
            on_result=lambda i, s: seen.append(i),
        )
        assert sorted(seen) == [0, 1]

    def test_worker_failure_is_typed_and_names_the_job(self):
        config = SimConfig.scaled(64)
        bad = JobSpec(
            workload=WorkloadSpec("no-such-workload", 64),
            config=config,
            scheme="baseline",
        )
        with pytest.raises(ParallelExecutionError) as excinfo:
            run_jobs(
                [JobSpec(workload=SPEC, config=config, scheme="baseline"), bad],
                policy=ExecutionPolicy(jobs=2),
            )
        assert "no-such-workload" in str(excinfo.value)
        assert "no-such-workload" in excinfo.value.job
        assert excinfo.value.attempts == 1


class TestSweepDeterminism:
    def test_parallel_sweep_manifests_byte_identical_to_serial(self):
        serial = sweep_config(
            SPEC, sweep_configs(), SCHEMES, values=list(VALUES)
        )
        parallel = sweep_config(
            SPEC,
            sweep_configs(),
            SCHEMES,
            values=list(VALUES),
            policy=ExecutionPolicy(jobs=4),
        )
        assert [p.value for p in serial] == [p.value for p in parallel]
        for a, b in zip(serial, parallel):
            assert manifest_bytes(a) == manifest_bytes(b)

    def test_parallel_sweep_manifests_byte_identical_under_sanitizer(self):
        serial = sweep_config(
            SPEC, sweep_configs(sanitize=True), SCHEMES, values=list(VALUES)
        )
        parallel = sweep_config(
            SPEC,
            sweep_configs(sanitize=True),
            SCHEMES,
            values=list(VALUES),
            policy=ExecutionPolicy(jobs=4),
        )
        for a, b in zip(serial, parallel):
            assert manifest_bytes(a) == manifest_bytes(b)

    def test_parallel_compare_equals_serial(self):
        config = SimConfig.scaled(64)
        serial = compare_schemes(SPEC, config, list(SCHEMES))
        parallel = compare_schemes(
            SPEC, config, list(SCHEMES), policy=ExecutionPolicy(jobs=2)
        )
        for scheme in SCHEMES:
            assert serial[scheme] == parallel[scheme]

    def test_parallel_sweep_requires_a_workload_spec(self):
        with pytest.raises(ConfigError, match="WorkloadSpec"):
            sweep_config(
                lambda: SPEC.build(),
                sweep_configs(),
                SCHEMES,
                policy=ExecutionPolicy(jobs=2),
            )

    def test_parallel_compare_requires_a_workload_spec(self):
        with pytest.raises(ConfigError, match="WorkloadSpec"):
            compare_schemes(
                SPEC.build(),
                SimConfig.scaled(64),
                SCHEMES,
                policy=ExecutionPolicy(jobs=2),
            )

    def test_progress_ticks_cover_every_point(self):
        ticks = []
        sweep_config(
            SPEC,
            sweep_configs(),
            SCHEMES,
            values=list(VALUES),
            policy=ExecutionPolicy(jobs=4),
            progress=ticks.append,
        )
        assert len(ticks) == len(VALUES)
        assert sorted(t.completed for t in ticks) == [1, 2, 3, 4, 5]
        assert {t.label for t in ticks} == set(VALUES)
        assert ticks[-1].completed == len(VALUES)
        assert all(t.eta_s >= 0.0 for t in ticks)
