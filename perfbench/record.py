"""Pin the reference digests and write the workloads' provenance.

Usage::

    python3 perfbench/record.py

For every workload and every seed of ``check.PINNED_SEEDS`` this sets
the workload up, runs one pass, checks every run against its twin and
the program's oracles, and pins the digests
(``references/<workload>.json``) only if the whole pass is clean.  It
then writes ``provenance.json``: why each workload exists, its scale
and seed rule, the observers of ``observed``, the baseline fault rate
of every registry workload at the solo scale (seed 0) and the
workloads left out, with the reason.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import bench, check, suite  # noqa: E402

__all__ = ["main", "pin", "provenance"]

PROVENANCE = Path(__file__).resolve().parent / "provenance.json"


def pin(workload: str, seeds) -> None:
    """Check one clean pass per seed and write its digests."""
    runs, rows = None, {}
    for seed in seeds:
        built = suite.setup(workload, seed)
        outcomes = bench.run_pass(built.runs)
        checker = check.Checker(built.runs, None, twin_all=True)
        failures = bench.check_outcomes(checker, outcomes)
        if failures:
            raise SystemExit(f"{workload} seed {seed} failed its oracles: {failures}")
        labels = [o.label for o in outcomes]
        if runs not in (None, labels):
            raise SystemExit(f"{workload}: run labels differ between seeds")
        runs = labels
        rows[str(seed)] = [o.digests for o in outcomes]
        print(f"{workload} seed {seed}: {len(outcomes)} runs pinned", flush=True)
    # One line per seed keeps the pinned file readable and its diffs small.
    seed_lines = ",\n".join(f"{json.dumps(s)}: {json.dumps(row)}" for s, row in rows.items())
    path = check.reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    path.write_text(
        f'{{"digest_chars": {check.DIGEST_CHARS},\n"runs": {json.dumps(runs)},\n'
        f'"seeds": {{\n{seed_lines}\n}}}}\n',
        encoding="utf-8",
    )


def provenance() -> dict:
    """Why, scale and seed rule of each workload, plus measured fault rates."""
    demand = suite.setup("solo-demand", 0)
    fault_rates = {}
    for run in demand.runs:
        name, scheme, index = run.label.split("/")
        if scheme == "baseline" and index == "0":
            fault_rates[name] = round(run.call().results[0].stats.fault_rate, 4)
    record = {
        name: {"why": suite.WHY[name], "scale": suite.SCALES[name], **suite.INPUTS[name]}
        for name in suite.WORKLOADS
    }
    for name in ("solo-demand", "solo-preload"):
        record[name]["baseline_fault_rate_seed0"] = fault_rates
    record["observed"]["observers"] = list(suite.OBSERVERS)
    record["dropped"] = suite.DROPPED
    return record


def main() -> int:
    for workload in suite.WORKLOADS:
        pin(workload, check.PINNED_SEEDS)
    PROVENANCE.write_text(json.dumps(provenance(), indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
