"""Run one benchmark workload of the simulator and print its metrics.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (:mod:`perfbench.suite`): ``solo-demand``, ``solo-preload``
and ``observed``; ``--workload all`` runs each of them in its own
process and prints every metric of every workload.  A workload runs
in one process, closed loop, under the serial ``ExecutionPolicy()``;
only host time is measured, because the output check pins every
simulated statistic.

``--trace 0`` sets the workload up, then replays whole passes of its
runs: at least 100 runs, and the whole number of passes whose run time
comes nearest ``--seconds``.  It sets the workload up again (untimed by
the passes) before each of the first three.  Right after each run,
outside its timer, its output is reduced to its oracle violations and
digests and dropped; the digests are checked once the timed phase is
over.  It reports the end-to-end metrics:

* ``accesses_per_s`` — simulated accesses of all runs ÷ their host
  seconds;
* ``ns_per_access_p50`` / ``ns_per_access_p90`` — median and 90th
  percentile over runs of one run's host ns per simulated access;
* ``setup_s`` — median host seconds of one set-up, over all set-ups;
* ``peak_rss_mb`` — peak resident memory of this process over the
  first set-up and the first pass (each output is reduced to what the
  check needs as soon as its run returns, so no pass holds more);
* ``ok_runs_frac`` — runs that neither raised nor failed the check ÷
  runs attempted.

``--trace 1`` alternates untraced and traced passes over the same inputs
(the whole number of pairs, at least one, that comes nearest
``--seconds``) and reports the per-layer table of
:mod:`perfbench.layers`.  Traced outputs must equal the untraced ones
and the traced fault calls must equal the faults the runs counted.

For one workload, the second-to-last output line is a ``{"perfbench": ...}``
record of the run's provenance (workload, seed, scale, ``nproc``, Python version, how
the output was checked, pass totals); the last line is the result object.
Exit status 0 means the benchmark ran, not that the check passed: read
``correct``.
"""

from __future__ import annotations

import sys
from pathlib import Path

__all__ = ["main"]

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    """Import the simulator from this checkout's ``src`` and run the benchmark."""
    source = ROOT / "src"
    sys.path[:0] = [str(source), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {source}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(source):
        print(f"perfbench: imported repro from {repro.__file__}, not {source}", file=sys.stderr)
        return 2
    from perfbench.bench import main as run_benchmark

    return run_benchmark(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
