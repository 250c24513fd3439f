"""Run manifests: self-describing JSON records of one simulated run.

Every experiment in the paper is an attribution argument — seconds
regained are explained by counting the AEX/ERESUME pairs removed and
the channel cycles spent — so a result is only as good as the record
of the run that produced it.  A manifest captures everything needed to
re-derive or compare a number:

* provenance — library version and (best-effort) git SHA;
* the run identity — workload, scheme, input set, seed;
* the full configuration snapshot (cost model included);
* the workload's shape (footprint/ELRANGE) when available;
* the complete :class:`~repro.enclave.stats.RunStats` counters and
  cycle-time breakdown;
* the metrics dump, when the run was observed
  (:mod:`repro.obs.metrics`).

Manifests are deliberately free of wall-clock timestamps: two runs of
the same (workload, config, seed) at the same source revision produce
byte-identical manifests, which is what makes ``repro report`` diffs
trustworthy.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import subprocess
from pathlib import Path
from typing import Dict, Optional, Tuple, TYPE_CHECKING, Union

from repro.errors import ObsError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.results import RunResult
    from repro.workloads.base import Workload

__all__ = [
    "MANIFEST_SCHEMA",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "git_sha",
    "manifest_digest",
    "result_from_manifest",
]

#: Schema identifier carried by every manifest.
MANIFEST_SCHEMA = "repro.run-manifest/1"


@functools.lru_cache(maxsize=None)
def git_sha() -> str:
    """The source tree's HEAD commit, or ``"unknown"``.

    Resolved relative to this file so the answer names the revision of
    the *code that ran*, not whatever directory the caller sits in, and
    resolved once per process: the loaded code does not change when
    HEAD moves mid-run, and every manifest is spared a ``git`` fork.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def build_manifest(
    result: "RunResult",
    *,
    workload: Optional["Workload"] = None,
    extra: Optional[Dict[str, object]] = None,
    exec_telemetry: Optional[Dict[str, object]] = None,
    paging_profile: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Build the manifest dict for one :class:`~repro.sim.results.RunResult`.

    ``workload`` enriches the record with the workload's shape;
    ``extra`` is carried through verbatim (experiment labels, sweep
    coordinates, ...); ``exec_telemetry`` embeds the deterministic
    ``repro.exec-telemetry/1`` block of the run's execution
    (:meth:`~repro.obs.exec_telemetry.ExecTelemetry.as_dict`);
    ``paging_profile`` embeds the ``repro.paging-profile/1`` block of
    a profiled run (:meth:`~repro.obs.paging.PagingProfiler.profile`).
    """
    from repro import __version__

    manifest: Dict[str, object] = {
        "schema": MANIFEST_SCHEMA,
        "generator": {"repro_version": __version__, "git_sha": git_sha()},
        "run": {
            "workload": result.workload,
            "scheme": result.scheme,
            "input_set": result.input_set,
            "seed": result.seed,
            "total_cycles": result.total_cycles,
            "seconds": result.seconds,
            "sip_points": result.sip_points,
        },
        "config": dataclasses.asdict(result.config),
        "stats": result.stats.as_dict(),
        "time_breakdown": result.stats.time.as_dict(),
        "metrics": dict(result.metrics) if result.metrics else {},
    }
    if workload is not None:
        manifest["workload"] = {
            "name": workload.name,
            "footprint_pages": workload.footprint_pages,
            "elrange_pages": workload.elrange_pages,
        }
    if extra:
        manifest["extra"] = dict(extra)
    if exec_telemetry is not None:
        manifest["exec_telemetry"] = dict(exec_telemetry)
    if paging_profile is not None:
        manifest["paging_profile"] = dict(paging_profile)
    return manifest


def write_manifest(path: Union[str, Path], manifest: Dict[str, object]) -> Path:
    """Write ``manifest`` as stable (sorted, indented) JSON; return path."""
    target = Path(path)
    target.write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return target


#: Sections excluded from the integrity digest: provenance varies
#: with the checkout (git SHA), not with what the run computed — and
#: execution telemetry records how a run *executed* (real timeouts or
#: pool breaks legitimately vary the tallies across machines), never
#: what it computed.  The paging profile is derived observation of the
#: same run — attaching it must keep a profiled manifest's digest
#: equal to the blind run's (same bar as the telemetry block).  The
#: fleet time-series block is held to the same standard: windowed
#: sampling observes a fleet run without becoming part of its
#: identity, so a ``--timeseries`` manifest digests identically to a
#: blind one.
_DIGEST_EXCLUDE: Tuple[str, ...] = (
    "generator",
    "exec_telemetry",
    "paging_profile",
    "fleet_timeseries",
)


def manifest_digest(
    manifest: Dict[str, object], *, exclude: Tuple[str, ...] = _DIGEST_EXCLUDE
) -> str:
    """Content digest of a manifest's run-defining sections.

    SHA-256 over the canonical (sorted, compact) JSON form, with the
    provenance section excluded so the digest is a function of what
    the run *computed*, not where the code was checked out.  The
    parallel runner uses this as its result-integrity check: workers
    digest the manifest of the result they produced, the parent
    replays the digest over the result it received, and a mismatch
    rejects the result (:class:`~repro.errors.ResultIntegrityError`).
    """
    payload = {k: v for k, v in manifest.items() if k not in exclude}
    try:
        canonical = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as exc:
        raise ObsError(f"manifest is not canonically serializable: {exc}") from exc
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def result_from_manifest(manifest: Dict[str, object]) -> "RunResult":
    """Reconstruct the :class:`~repro.sim.results.RunResult` a manifest records.

    The inverse of :func:`build_manifest` for the run-defining
    sections (run identity, config snapshot, stats, time breakdown;
    the metrics dump rides along when present).  Round-tripping is
    exact — ``build_manifest(result_from_manifest(m))`` reproduces
    ``m``'s bytes — which is what lets checkpoint/resume hand back
    restored results indistinguishable from freshly computed ones.
    """
    # Function-level imports: repro.sim imports repro.obs at package
    # init, so the reverse edge must stay out of module import time.
    from repro.core.config import CostModel, SimConfig
    from repro.enclave.stats import RunStats, TimeBreakdown
    from repro.sim.results import RunResult

    try:
        run = dict(manifest["run"])  # type: ignore[arg-type]
        config_doc = dict(manifest["config"])  # type: ignore[arg-type]
        stats_doc = dict(manifest["stats"])  # type: ignore[arg-type]
        time_doc = dict(stats_doc.pop("time"))  # type: ignore[arg-type]
    except (KeyError, TypeError) as exc:
        raise ObsError(f"manifest lacks a run-defining section: {exc}") from exc

    try:
        time = TimeBreakdown(
            **{
                k: v
                for k, v in time_doc.items()
                if k not in ("total", "overhead")
            }
        )
        stats = RunStats(**stats_doc, time=time)
        cost = CostModel(**dict(config_doc.pop("cost")))
        config = SimConfig(**config_doc, cost=cost)
    except TypeError as exc:
        raise ObsError(
            f"manifest sections do not match the current schema: {exc}"
        ) from exc

    metrics = dict(manifest.get("metrics") or {}) or None
    result = RunResult(
        workload=run["workload"],
        scheme=run["scheme"],
        input_set=run["input_set"],
        seed=run["seed"],
        total_cycles=run["total_cycles"],
        stats=stats,
        config=config,
        sip_points=run.get("sip_points", 0),
        metrics=metrics,
    )
    if result.stats.time.total != result.total_cycles:
        raise ObsError(
            f"manifest is internally inconsistent: time buckets sum to "
            f"{result.stats.time.total}, run records {result.total_cycles} "
            "cycles"
        )
    return result


def load_manifest(path: Union[str, Path]) -> Dict[str, object]:
    """Load and schema-check one manifest file."""
    target = Path(path)
    try:
        document = json.loads(target.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ObsError(f"cannot read manifest {target}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ObsError(f"manifest {target} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ObsError(f"manifest {target} is not a JSON object")
    schema = document.get("schema")
    if schema != MANIFEST_SCHEMA:
        raise ObsError(
            f"manifest {target} has schema {schema!r}, expected {MANIFEST_SCHEMA!r}"
        )
    for key in ("run", "stats", "time_breakdown"):
        if key not in document:
            raise ObsError(f"manifest {target} lacks required section {key!r}")
    if "exec_telemetry" in document:
        from repro.obs.exec_telemetry import validate_exec_telemetry

        validate_exec_telemetry(document["exec_telemetry"])
    if "paging_profile" in document:
        from repro.obs.paging import validate_paging_profile

        validate_paging_profile(document["paging_profile"])
    if "fleet_timeseries" in document:
        from repro.obs.fleet_telemetry import validate_fleet_timeseries

        fleet_block = (document.get("extra") or {}).get("fleet")
        validate_fleet_timeseries(
            document["fleet_timeseries"], fleet_block=fleet_block
        )
    return document
