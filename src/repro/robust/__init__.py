"""repro.robust — resilient experiment execution.

The paper's headline results come from long multi-point, multi-scheme
sweeps; the process-pool fan-out in :mod:`repro.sim.parallel` makes
them fast, this layer makes them survivable.  Four capabilities, all
configured through one
:class:`~repro.robust.policy.ExecutionPolicy` object:

* **retry & timeout** (:mod:`repro.robust.retry`,
  :attr:`~repro.robust.policy.ExecutionPolicy.timeout`) — bounded
  attempts with deterministic exponential backoff and a per-attempt
  wall-clock budget;
* **checkpoint/resume** (:mod:`repro.robust.checkpoint`) — every
  completed run persisted as a ``repro.run-manifest/1`` record in a
  content-addressed directory, so an interrupted sweep restarts where
  it died and its final manifests stay byte-identical to an
  uninterrupted run;
* **fault injection** (:mod:`repro.robust.faults`) — a seed-driven,
  picklable :class:`~repro.robust.faults.FaultPlan` scripting worker
  crashes, hangs, result corruption, transient submission errors and
  hard pool breaks, so all of the above is testable without real
  flakiness;
* **the policy object** (:mod:`repro.robust.policy`) — the single
  execution-configuration path accepted by ``run_jobs``,
  ``compare_schemes`` and ``sweep_config``.

This package is also the tree's one sanctioned home for real-time
delays: lint rule RL008 bans bare ``time.sleep`` everywhere else, so
every wall-clock wait (injected hang, retry backoff) stays auditable
in one place.
"""

from repro.robust.checkpoint import CheckpointStore, checkpoint_key
from repro.robust.faults import (
    FaultKind,
    FaultPlan,
    InjectedWorkerCrash,
    perform_worker_fault,
    sleep,
)
from repro.robust.policy import ExecutionPolicy
from repro.robust.retry import RetryPolicy

__all__ = [
    "CheckpointStore",
    "checkpoint_key",
    "ExecutionPolicy",
    "FaultKind",
    "FaultPlan",
    "InjectedWorkerCrash",
    "RetryPolicy",
    "perform_worker_fault",
    "sleep",
]
