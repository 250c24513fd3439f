"""Kill-and-resume: an interrupted sweep, resumed, is byte-identical.

The scenario the checkpoint layer exists for, end to end: a sweep dies
partway (scripted worker crash with no retry budget), a second
invocation with ``resume=True`` picks up the surviving records, and
the final manifest collection — and the checkpoint directory itself —
is byte-for-byte the one an uninterrupted run produces.
"""

import json

import pytest

from repro.core.config import SimConfig
from repro.errors import CheckpointError, JobRetriesExhaustedError
from repro.obs.manifest import build_manifest, result_from_manifest
from repro.robust import CheckpointStore, ExecutionPolicy, FaultKind, FaultPlan
from repro.sim.parallel import JobSpec, WorkloadSpec, run_jobs
from repro.sim.sweep import sweep_config

WORKLOAD = WorkloadSpec("microbenchmark", 64)
VALUES = (1, 2, 4)
SCHEMES = ("baseline", "dfp-stop")


def sweep_configs():
    base = SimConfig.scaled(64)
    return [base.replace(load_length=v) for v in VALUES]


def sweep_manifest_bytes(points):
    return [
        {
            scheme: json.dumps(
                build_manifest(result), sort_keys=True
            ).encode()
            for scheme, result in point.results.items()
        }
        for point in points
    ]


class TestKillAndResume:
    def test_interrupted_sweep_resumes_byte_identical(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        reference = sweep_config(
            WORKLOAD, sweep_configs(), SCHEMES, values=list(VALUES)
        )

        # Phase 1: the sweep is killed at the fifth of six jobs; with
        # no retry budget the crash is fatal.  Serial execution makes
        # the kill point deterministic: jobs 0-3 are checkpointed.
        kill = ExecutionPolicy(
            checkpoint_dir=ckpt,
            fault_plan=FaultPlan.script({(4, 1): FaultKind.CRASH}),
        )
        with pytest.raises(JobRetriesExhaustedError):
            sweep_config(
                WORKLOAD,
                sweep_configs(),
                SCHEMES,
                values=list(VALUES),
                policy=kill,
            )
        assert len(CheckpointStore(ckpt)) == 4

        # Phase 2: resume — the four surviving records are restored
        # without re-execution, the remaining two jobs run (in worker
        # processes, for good measure), and the sweep's manifests are
        # byte-identical to the uninterrupted reference.
        resumed = sweep_config(
            WORKLOAD,
            sweep_configs(),
            SCHEMES,
            values=list(VALUES),
            policy=ExecutionPolicy(jobs=2, checkpoint_dir=ckpt, resume=True),
        )
        assert sweep_manifest_bytes(resumed) == sweep_manifest_bytes(reference)
        assert len(CheckpointStore(ckpt)) == 6

        # The checkpoint directory itself matches one written by an
        # uninterrupted checkpointed run, file for file, byte for byte.
        fresh = tmp_path / "fresh"
        sweep_config(
            WORKLOAD,
            sweep_configs(),
            SCHEMES,
            values=list(VALUES),
            policy=ExecutionPolicy(checkpoint_dir=fresh),
        )
        resumed_store, fresh_store = CheckpointStore(ckpt), CheckpointStore(fresh)
        assert resumed_store.keys() == fresh_store.keys()
        for key in fresh_store.keys():
            assert (
                resumed_store.path_for(key).read_bytes()
                == fresh_store.path_for(key).read_bytes()
            )

    def test_resumed_points_tick_progress_instantly(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        sweep_config(
            WORKLOAD,
            sweep_configs(),
            SCHEMES,
            values=list(VALUES),
            policy=ExecutionPolicy(checkpoint_dir=ckpt),
        )
        ticks = []
        sweep_config(
            WORKLOAD,
            sweep_configs(),
            SCHEMES,
            values=list(VALUES),
            policy=ExecutionPolicy(checkpoint_dir=ckpt, resume=True),
            progress=ticks.append,
        )
        assert sorted(t.completed for t in ticks) == [1, 2, 3]
        assert {t.label for t in ticks} == set(VALUES)

    def test_checkpoint_record_for_a_different_run_is_rejected(
        self, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        spec = JobSpec(
            workload=WORKLOAD, config=SimConfig.scaled(64), scheme="baseline"
        )
        other = JobSpec(
            workload=WORKLOAD, config=SimConfig.scaled(64), scheme="dfp"
        )
        [result] = run_jobs([other])
        # A record stored under the wrong key (hand-copied, say) names
        # a different run than the key claims; resume must refuse it.
        CheckpointStore(ckpt).store(
            spec.checkpoint_key(), build_manifest(result)
        )
        with pytest.raises(CheckpointError, match="different run"):
            run_jobs(
                [spec],
                policy=ExecutionPolicy(checkpoint_dir=ckpt, resume=True),
            )


class TestManifestRoundTrip:
    def test_result_from_manifest_is_exact(self):
        [result] = run_jobs(
            [
                JobSpec(
                    workload=WORKLOAD,
                    config=SimConfig.scaled(64),
                    scheme="dfp-stop",
                )
            ]
        )
        manifest = build_manifest(result)
        restored = result_from_manifest(manifest)
        assert restored == result
        assert json.dumps(
            build_manifest(restored), sort_keys=True
        ) == json.dumps(manifest, sort_keys=True)
