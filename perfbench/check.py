"""Output check: pinned reference digests, or the program's own oracles.

Every run is reduced to the manifest digests of its results, taken
*blind-equivalent*: the metrics dump, the event list, ``config.sanitize``
and the fleet time-series block are dropped first.  Passivity makes an
observed run's blind-equivalent digest equal to its blind twin's, so one
reference serves both.  A blind solo run's digest is exactly
``manifest_digest(build_manifest(result))``; a fleet run's is
``manifest_digest(FleetResult.manifest())``.

Each output is reduced by :func:`reduce` as soon as its run returns —
to its oracle violations and digests — and then dropped, so the check
holds no outputs.  References are pinned per workload for the seeds
:data:`PINNED_SEEDS` in ``references/``.  On a seed with none, a third
of the run labels (a fixed hash-chosen share that mixes schemes and
policies) is replayed once as its twin — a blind run sanitized, an
observed run blind — and must match it; every other label must repeat
its first pass's digests.  The cheap oracles hold on
every run either way: the time-accounting identity,
:func:`validate_paging_profile` on paging profiles and
:func:`validate_fleet_timeseries` on fleet time series.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.fleet_telemetry import validate_fleet_timeseries
from repro.obs.manifest import build_manifest, manifest_digest
from repro.obs.paging import validate_paging_profile

__all__ = [
    "Checker",
    "DIGEST_CHARS",
    "ORACLES",
    "PINNED_SEEDS",
    "REFERENCE_DIR",
    "digests",
    "load_references",
    "oracle_errors",
    "reduce",
    "reference_path",
]

REFERENCE_DIR = Path(__file__).resolve().parent / "references"
#: Benchmark seeds whose digests are pinned in :data:`REFERENCE_DIR`.
PINNED_SEEDS = range(32)

#: Hex characters of each SHA-256 manifest digest that are pinned.
DIGEST_CHARS = 16

ORACLES = (
    "time-accounting identity",
    "sanitizer (sanitized twin of a third of the blind runs)",
    "observed run equals its blind twin (a third of the observed runs)",
    "every run repeats its first pass",
    "validate_paging_profile",
    "validate_fleet_timeseries",
)


def _short(digest: str) -> str:
    return digest.split(":", 1)[1][:DIGEST_CHARS]


def _blind_run(result):
    return dataclasses.replace(
        result,
        metrics=None,
        events=None,
        config=result.config.replace(sanitize=False),
    )


def _blind_fleet(result):
    config = result.config.replace(sanitize=False)
    return dataclasses.replace(
        result,
        config=config,
        results=[_blind_run(r) for r in result.results],
        timeseries=None,
    )


def digests(output) -> List[str]:
    """Blind-equivalent manifest digests of one run's output."""
    if output.fleet_result is not None:
        manifest = _blind_fleet(output.fleet_result).manifest()
        return [_short(manifest_digest(manifest))]
    return [
        _short(manifest_digest(build_manifest(_blind_run(r))))
        for r in output.results
    ]


def oracle_errors(output) -> List[str]:
    """Violations of the checks every run must pass, seed or no seed."""
    errors = [
        f"{r.workload}/{r.scheme}: time buckets sum to {r.stats.time.total}, "
        f"clock reads {r.total_cycles}"
        for r in output.results
        if r.stats.time.total != r.total_cycles
    ]
    try:
        if output.paging_profile is not None:
            validate_paging_profile(output.paging_profile)
        fleet = output.fleet_result
        if fleet is not None and fleet.timeseries is not None:
            validate_fleet_timeseries(
                fleet.timeseries, fleet_block=fleet.fleet_block()
            )
    except ReproError as exc:
        errors.append(f"{type(exc).__name__}: {exc}")
    return errors


def reduce(output) -> Tuple[Optional[str], List[str]]:
    """What the check keeps of one output: its oracle violations and digests."""
    return "; ".join(oracle_errors(output)) or None, digests(output)


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_references(workload: str, seed: int) -> Optional[Dict[str, List[str]]]:
    """Pinned digests by run label for ``seed``, or None if not pinned."""
    path = reference_path(workload)
    if not path.exists():
        return None
    pinned = json.loads(path.read_text(encoding="utf-8"))
    row = pinned["seeds"].get(str(seed))
    if row is None:
        return None
    return dict(zip(pinned["runs"], row))


class Checker:
    """Checks the outcomes of one workload's runs against ``references``.

    With ``references`` None, a third of the labels — every label with
    ``twin_all`` — is checked against its twin.
    """

    def __init__(
        self,
        runs: Sequence,
        references: Optional[Dict[str, List[str]]],
        *,
        twin_all: bool = False,
    ) -> None:
        self._runs = {run.label: run for run in runs}
        self.references = references
        self._twin_all = twin_all
        self._expected: Dict[str, object] = {}

    @property
    def mode(self) -> str:
        return "references" if self.references is not None else "oracles"

    def _expect(self, label: str, got: List[str]):
        """Expected digests of ``label``, or the error that replaced them."""
        if label not in self._expected:
            if self.references is not None:
                self._expected[label] = self.references.get(
                    label, f"no pinned reference for run {label!r}"
                )
            elif self._twin_all or zlib.crc32(label.encode()) % 3 == 0:
                self._expected[label] = self._from_twin(label)
            else:
                self._expected[label] = got
        return self._expected[label]

    def _from_twin(self, label: str):
        try:
            twin = self._runs[label].twin()
        except Exception as exc:  # a raising twin fails the run it vouches for
            return f"twin raised {type(exc).__name__}: {exc}"
        errors = oracle_errors(twin)
        return f"twin: {'; '.join(errors)}" if errors else digests(twin)

    def problem(
        self, label: str, error: Optional[str], got: Optional[List[str]]
    ) -> Optional[str]:
        """Why one run failed, or None when it passed.

        ``error`` is why the run raised or failed an oracle, ``got`` its
        digests: what :func:`reduce` kept of its output.
        """
        if error is not None:
            return error
        expected = self._expect(label, got)
        if isinstance(expected, str):
            return expected
        if got != expected:
            return f"digests {got} != expected {expected}"
        return None
