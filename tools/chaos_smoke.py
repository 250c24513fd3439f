#!/usr/bin/env python
"""Chaos smoke: kill a checkpointed sweep, resume it, demand identity.

The CI-facing end-to-end proof of the resilience layer
(:mod:`repro.robust`).  Five phases:

1. **Reference** — an uninterrupted serial sweep; its manifests are
   the ground truth.
2. **Chaos leg** — the same sweep under a hostile
   :class:`~repro.robust.FaultPlan` (worker crashes, a hang past the
   timeout, a corrupted result, a transient submission error) with a
   retry budget; it must survive every injected fault and reproduce
   the reference manifests byte for byte.
3. **Kill** — the sweep again, checkpointing into an emptied
   directory, with a scripted crash and no retry budget: it must die
   partway, leaving a partial checkpoint directory.
4. **Resume** — ``repro sweep --checkpoint DIR --resume`` (through the
   real CLI) finishes the job; every checkpoint record must then be
   byte-identical to a manifest of the reference run.
5. **Observed chaos** — the phase-2 sweep again with execution
   telemetry collecting (worker-shipped metrics on), once in-process
   (``jobs=1``) and once on the pool (``jobs=2``), so the runner's one
   attempt loop is driven on both of its executors: observation must
   be passive (manifests still byte-identical to the reference), the
   collector's fault/retry tallies must match the scripted
   ``CHAOS_PLAN``, and the fleet manifest plus per-worker Chrome exec
   trace written to the artifact directory must both validate.

Exit status is non-zero on any mismatch; a JSON report and the
checkpoint records are left in the artifact directory for upload.

Usage: python tools/chaos_smoke.py [--artifact-dir DIR] [--scale N]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import sys
from pathlib import Path

from repro.cli import main as repro_main
from repro.core.config import SimConfig
from repro.errors import JobRetriesExhaustedError
from repro.obs import (
    ExecTelemetry,
    TelemetryConfig,
    build_fleet_manifest,
    load_manifest,
    validate_chrome_trace,
    write_chrome_trace,
    write_manifest,
)
from repro.obs.manifest import build_manifest
from repro.robust import (
    CheckpointStore,
    ExecutionPolicy,
    FaultKind,
    FaultPlan,
    RetryPolicy,
)
from repro.sim.parallel import WorkloadSpec
from repro.sim.sweep import sweep_config

WORKLOAD = "microbenchmark"
PARAM = "load_length"
#: Six sweep points, one scheme — the same experiment ``repro sweep``
#: spells, so the CLI resume in phase 4 completes phase 3's records.
VALUES = (1, 2, 3, 4, 6, 8)
SCHEME = "dfp-stop"

#: Every fault class the runner must survive, scripted onto distinct
#: (job_index, attempt) coordinates of the 6-job sweep.
CHAOS_PLAN = FaultPlan.script(
    {
        (0, 1): FaultKind.CRASH,
        (2, 1): FaultKind.HANG,
        (3, 1): FaultKind.CORRUPT,
        (4, 1): FaultKind.SUBMIT_ERROR,
    },
    hang_s=30.0,
)


def sweep_points(scale, policy=None, telemetry=None):
    base = SimConfig.scaled(scale)
    configs = [base.replace(**{PARAM: value}) for value in VALUES]
    return sweep_config(
        WorkloadSpec(WORKLOAD, scale),
        configs,
        [SCHEME],
        values=list(VALUES),
        policy=policy,
        telemetry=telemetry,
    )


def manifest_blobs(points):
    """Canonical manifest serialization of every sweep point's run."""
    return [
        json.dumps(
            build_manifest(point.results[SCHEME]), sort_keys=True, indent=2
        )
        + "\n"
        for point in points
    ]


def check(report, name, ok, detail=""):
    report["checks"].append({"name": name, "ok": bool(ok), "detail": detail})
    status = "ok" if ok else "FAIL"
    print(f"[chaos-smoke] {name}: {status}{' - ' + detail if detail else ''}")
    return bool(ok)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifact-dir", default="chaos-artifacts")
    parser.add_argument("--scale", type=int, default=64)
    args = parser.parse_args(argv)

    artifacts = Path(args.artifact_dir)
    artifacts.mkdir(parents=True, exist_ok=True)
    ckpt = artifacts / "checkpoints"
    report = {"checks": []}
    ok = True

    # Phase 1: ground truth.
    reference = sweep_points(args.scale)
    reference_blobs = manifest_blobs(reference)

    # Phase 2: survive every fault class, reproduce the bytes.
    chaos_policy = ExecutionPolicy(
        jobs=2,
        retry=RetryPolicy(max_attempts=3, base_delay=0.01),
        timeout=5.0,
        fault_plan=CHAOS_PLAN,
    )
    chaos = sweep_points(args.scale, policy=chaos_policy)
    ok &= check(
        report,
        "chaos leg is byte-identical to the reference",
        manifest_blobs(chaos) == reference_blobs,
        "faults injected: crash, hang, corrupt, submit-error",
    )

    # Phase 3: kill the checkpointed sweep partway (no retry budget).
    # Records an earlier run left would survive any kill, so start empty.
    shutil.rmtree(ckpt, ignore_errors=True)
    kill_policy = ExecutionPolicy(
        checkpoint_dir=ckpt,
        fault_plan=FaultPlan.script({(4, 1): FaultKind.CRASH}),
    )
    died = False
    try:
        sweep_points(args.scale, policy=kill_policy)
    except JobRetriesExhaustedError as exc:
        died = True
        report["kill"] = str(exc)
    survivors = len(CheckpointStore(ckpt))
    ok &= check(report, "scripted kill interrupts the sweep", died)
    ok &= check(
        report,
        "partial checkpoints survive the kill",
        0 < survivors < len(VALUES),
        f"{survivors} of {len(VALUES)} records",
    )

    # Phase 4: resume through the real CLI.
    exit_code = repro_main(
        [
            "sweep", WORKLOAD,
            "--param", PARAM,
            "--values", ",".join(str(v) for v in VALUES),
            "--scheme", SCHEME,
            "--scale", str(args.scale),
            "--jobs", "2",
            "--checkpoint", str(ckpt),
            "--resume",
        ]
    )
    ok &= check(report, "CLI resume exits cleanly", exit_code == 0)

    store = CheckpointStore(ckpt)
    ok &= check(
        report,
        "resume completes the record set",
        len(store) == len(VALUES),
        f"{len(store)} records",
    )
    expected = set(reference_blobs)
    actual = {store.path_for(key).read_text() for key in store.keys()}
    ok &= check(
        report,
        "resumed checkpoint records are byte-identical to the reference",
        actual == expected,
    )

    # Phase 5: the chaos leg again, observed, in-process and on the
    # pool — telemetry must be passive, tally the scripted faults, and
    # export validating fleet-manifest and Chrome-trace artifacts.
    kinds = [kind for _, kind in CHAOS_PLAN.scripted]
    # A submit-error is absorbed at dispatch without burning the job's
    # attempt budget, so it injects a fault but not a retry; every
    # other scripted fault costs one attempt (the hang via a timeout).
    expected_retries = sum(
        1 for kind in kinds if kind is not FaultKind.SUBMIT_ERROR
    )
    expected_timeouts = sum(1 for kind in kinds if kind is FaultKind.HANG)
    for jobs in (1, 2):
        leg = f"observed chaos leg (jobs={jobs})"
        telemetry = ExecTelemetry(TelemetryConfig(metrics=True))
        observed = sweep_points(
            args.scale,
            policy=dataclasses.replace(chaos_policy, jobs=jobs),
            telemetry=telemetry,
        )
        ok &= check(
            report,
            f"{leg} is byte-identical to the reference",
            manifest_blobs(observed) == reference_blobs,
            "telemetry collection is passive",
        )
        ok &= check(
            report,
            f"{leg}: telemetry tallies match the scripted fault plan",
            telemetry.total_faults == len(kinds)
            and telemetry.total_retries == expected_retries
            and telemetry.total_timeouts == expected_timeouts
            and telemetry.submit_errors == 1,
            f"faults={telemetry.total_faults} "
            f"retries={telemetry.total_retries} "
            f"timeouts={telemetry.total_timeouts} "
            f"submit_errors={telemetry.submit_errors}",
        )

        fleet_path = artifacts / f"chaos_fleet.jobs{jobs}.manifest.json"
        write_manifest(
            fleet_path,
            build_fleet_manifest(
                [point.results[SCHEME] for point in observed],
                telemetry=telemetry,
                labels=list(VALUES),
            ),
        )
        try:
            fleet = load_manifest(fleet_path)  # validates both schemas
            fleet_ok = fleet["run"]["runs"] == len(VALUES)
            fleet_detail = f"{fleet_path}"
        except Exception as exc:  # pragma: no cover - failure path
            fleet_ok, fleet_detail = False, str(exc)
        ok &= check(
            report, f"{leg}: fleet manifest validates", fleet_ok, fleet_detail
        )

        trace_path = artifacts / f"chaos_exec.jobs{jobs}.trace.json"
        write_chrome_trace(trace_path, [], exec_spans=telemetry.spans)
        try:
            counts = validate_chrome_trace(json.loads(trace_path.read_text()))
            trace_ok = counts["tracks"] >= 2  # exec-runner + worker lane(s)
            trace_detail = f"{counts['tracks']} tracks, {trace_path}"
        except Exception as exc:  # pragma: no cover - failure path
            trace_ok, trace_detail = False, str(exc)
        ok &= check(
            report, f"{leg}: chrome exec trace validates", trace_ok, trace_detail
        )

    report["ok"] = bool(ok)
    (artifacts / "chaos_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    print(f"[chaos-smoke] report -> {artifacts / 'chaos_report.json'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
