"""Paging-decision profiler: the per-page ledger behind ``repro profile``.

The metrics layer (PR 2) and the exec telemetry (PR 5) say *how much*
a scheme costs; this layer says *why*.  A :class:`PagingProfiler`
rides along one simulated run as a strictly passive observer — the
driver feeds it every paging decision through the ``ledger_*`` hook
family — and classifies:

* every **preload** into exactly one terminal bucket — ``useful``
  (touched while resident, before any eviction), ``late`` (the demand
  fault raced the channel: the page was still in flight or still
  queued when the application needed it), or **wasted** (evicted
  untouched, or still untouched when the run ended) — plus the
  non-terminal ``redundant`` / ``aborted-collateral`` /
  ``pending-at-exit`` outcomes needed for the enqueue ledger to
  reconcile against the channel counters;
* every **demand fault** by cause — ``cold`` (first touch, no active
  preloader), ``predictor_miss`` (first touch while the DFP preloader
  was live), ``refault`` (the page had been resident and was evicted —
  a premature CLOCK decision, recorded with the evicting context), or
  ``late`` (the fault was absorbed by, or aborted, the page's own
  preload);
* per-page **residency intervals** (load kind, touched-or-not, and
  for closed intervals the evicting decision: which page forced it
  and how many CLOCK second chances the sweep granted);
* run **phases**, segmented from windowed fault-rate and scan-credit
  (``AccPreloadCounter``) signals, plus a window×page-bucket access
  heatmap.

Everything exports as the deterministic, wall-clock-free
``repro.paging-profile/1`` artifact (:meth:`PagingProfiler.profile`),
which attaches to run manifests the way the exec-telemetry block does
and renders via :mod:`repro.analysis.profile_report`.

Passivity contract: the hooks only *read* simulation state handed to
them and mutate profiler-private structures.  A profiled run's
``RunResult`` — and its manifest bytes — are identical to a blind
run's (asserted in ``tests/obs/test_paging.py``).
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.errors import ObsError
from repro.obs.series import pairwise, runs

__all__ = [
    "PAGING_PROFILE_SCHEMA",
    "PagingProfiler",
    "validate_paging_profile",
    "write_paging_profile",
    "load_paging_profile",
]

#: Schema identifier carried by every exported profile block.
PAGING_PROFILE_SCHEMA = "repro.paging-profile/1"

#: Default phase-segmentation window, in application page accesses.
DEFAULT_WINDOW_ACCESSES = 1024

#: Caps keeping the exported artifact small and deterministic.
_MAX_HEATMAP_BUCKETS = 32
_MAX_HEATMAP_COLUMNS = 64
_MAX_PHASES = 32
_MAX_EXPORT_PAGES = 24
_MAX_EXPORT_INTERVALS = 64

_FAULT_CAUSES = ("cold", "predictor_miss", "refault", "late")
_PHASE_LABELS = ("resident", "steady", "bursty")


class _Interval:
    """One residency interval of one page (open until evict/run end)."""

    __slots__ = (
        "start",
        "end",
        "kind",
        "touched",
        "evicted_for_page",
        "evicted_for_kind",
        "second_chances",
    )

    def __init__(self, start: int, kind: str) -> None:
        self.start = start
        self.end = -1  # still open
        self.kind = kind
        self.touched = False
        self.evicted_for_page = -1  # -1: closed at run end, not evicted
        self.evicted_for_kind = ""
        self.second_chances = 0

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "start": self.start,
            "end": self.end,
            "kind": self.kind,
            "touched": self.touched,
        }
        if self.evicted_for_page >= 0:
            record["evicted_for_page"] = self.evicted_for_page
            record["evicted_for_kind"] = self.evicted_for_kind
            record["second_chances"] = self.second_chances
        return record


@dataclass(slots=True)
class _Window:
    """One phase window: ``window_accesses`` accesses, or a merge of several."""

    start_cycle: int
    end_cycle: int
    heat: List[int]
    accesses: int = 0
    faults: int = 0
    credits: int = 0


class _PageLedger:
    """Per-page tallies plus the page's residency interval history."""

    __slots__ = ("accesses", "faults", "refaults", "evictions", "open", "intervals")

    def __init__(self) -> None:
        self.accesses = 0
        self.faults = 0
        self.refaults = 0
        self.evictions = 0
        self.open: Optional[_Interval] = None
        self.intervals: List[_Interval] = []


class PagingProfiler:
    """Passive per-page decision ledger for exactly one simulated run.

    Construct one, pass it to :func:`repro.sim.engine.simulate` via
    ``profiler=``, then read :meth:`profile` after the run.  The hook
    methods (``ledger_*``) are the driver-facing API; lint rule RL010
    confines their call sites to :mod:`repro.enclave.driver` so every
    ledger entry stays attributable to one emission path.
    """

    def __init__(self, *, window_accesses: int = DEFAULT_WINDOW_ACCESSES) -> None:
        if window_accesses <= 0:
            raise ObsError("window_accesses must be positive")
        self._window_accesses = window_accesses
        self._bound = False
        self._finished = False
        self._base_page = 0
        self._elrange_pages = 0
        self._bucket_pages = 1
        self._buckets = 1
        # Run totals.
        self.accesses = 0
        self.faults = 0
        self.scans = 0
        self.scan_credited = 0
        # Preload outcome buckets (terminal + channel bookkeeping).
        self.enqueued = 0
        self.completed = 0
        self.useful = 0
        self.late_inflight = 0
        self.late_queued = 0
        self.wasted_evicted = 0
        self.wasted_leftover = 0
        self.redundant = 0
        self.aborted_collateral = 0
        self.pending_at_exit = 0
        # Fault causes.
        self.cause_cold = 0
        self.cause_predictor_miss = 0
        self.cause_refault = 0
        self.cause_late = 0
        # Eviction attribution.
        self.evictions = 0
        self.second_chances = 0
        self.victims_accessed = 0
        self.victims_preloaded_untouched = 0
        self.premature_refaulted = 0
        # Internal state.
        self._pages: Dict[int, _PageLedger] = defaultdict(_PageLedger)
        self._pending: Dict[int, int] = {}
        self._windows: List[_Window] = []
        self._window: Optional[_Window] = None

    # ------------------------------------------------------------------
    # Driver-facing hooks (RL010: call sites confined to the driver)
    # ------------------------------------------------------------------

    def ledger_bind(self, base_page: int, elrange_pages: int) -> None:
        """Bind to one enclave's ELRANGE; a profiler observes one run."""
        if self._bound or self._finished:
            raise ObsError(
                "PagingProfiler observes exactly one run; "
                "construct a fresh profiler per simulate() call"
            )
        self._bound = True
        self._base_page = base_page
        self._elrange_pages = max(1, elrange_pages)
        self._buckets = min(_MAX_HEATMAP_BUCKETS, self._elrange_pages)
        self._bucket_pages = -(-self._elrange_pages // self._buckets)

    def ledger_hit(self, page: int, now: int) -> None:
        """Resident fast-path touch: first touch decides ``useful``."""
        ledger = self._touch(page, now, fault=False)
        ledger.accesses += 1
        interval = ledger.open
        if interval is None:  # defensive: resident page always has one
            interval = _Interval(now, "demand")
            ledger.open = interval
        if interval.kind == "preload" and not interval.touched:
            self.useful += 1
        interval.touched = True

    def ledger_fault(
        self, page: int, now: int, outcome: str, *, preloader_active: bool = False
    ) -> None:
        """One demand fault, attributed to its cause.

        ``outcome`` is how the fault was serviced: ``"absorbed"`` (the
        page's preload landed during the AEX or was ridden to
        completion on the channel), ``"queued"`` (the fault hit a
        still-queued burst page — in-stream abort, then demand load),
        or ``"miss"`` (no preload anywhere near it — demand load).
        """
        ledger = self._touch(page, now, fault=True)
        ledger.accesses += 1
        ledger.faults += 1
        self.faults += 1
        interval = ledger.open
        if outcome == "absorbed":
            self.cause_late += 1
            if interval is not None:
                if interval.kind == "preload" and not interval.touched:
                    self.late_inflight += 1
                interval.touched = True
        elif outcome == "queued":
            # The trigger page of an in-stream abort: its own preload
            # was too late to ever complete.
            self.cause_late += 1
            self.late_queued += 1
            if interval is not None:
                interval.touched = True
        else:
            if ledger.evictions > 0:
                self.cause_refault += 1
                ledger.refaults += 1
                self.premature_refaulted += 1
            elif preloader_active:
                self.cause_predictor_miss += 1
            else:
                self.cause_cold += 1
            if interval is not None:
                interval.touched = True

    def ledger_enqueue(self, pages: Iterable[int], now: int) -> None:
        """A predicted burst was queued on the load channel."""
        for page in pages:
            self.enqueued += 1
            self._pending[page] = now

    def ledger_insert(self, page: int, kind: str, now: int) -> None:
        """A load landed in the EPC: open a residency interval."""
        ledger = self._pages[page]
        if ledger.open is not None:  # defensive: insert implies absent
            self._close(ledger, ledger.open, now)
        ledger.open = _Interval(now, kind)
        if kind == "preload":
            self.completed += 1
            self._pending.pop(page, None)

    def ledger_redundant(self, page: int, now: int) -> None:
        """A queued preload completed for an already-resident page."""
        self.redundant += 1
        self._pending.pop(page, None)

    def ledger_abort(
        self, pages: Iterable[int], now: int, cause: str, *, trigger: int = -1
    ) -> None:
        """Queued pages dropped by an in-stream or valve abort.

        The in-stream ``trigger`` page is *not* collateral — its
        lateness is charged by :meth:`ledger_fault` (``"queued"``).
        """
        for page in pages:
            self._pending.pop(page, None)
            if page != trigger:
                self.aborted_collateral += 1

    def ledger_evict(
        self,
        page: int,
        now: int,
        *,
        accessed: bool,
        preloaded: bool,
        second_chances: int,
        for_page: int,
        for_kind: str,
    ) -> None:
        """A CLOCK eviction of one of this enclave's pages.

        ``for_page``/``for_kind`` record the load that forced the
        decision; ``second_chances`` is how many A-bits the sweep
        cleared before settling on this victim.
        """
        ledger = self._pages[page]
        ledger.evictions += 1
        self.evictions += 1
        self.second_chances += second_chances
        if accessed:
            self.victims_accessed += 1
        interval = ledger.open
        if interval is not None:
            interval.evicted_for_page = for_page
            interval.evicted_for_kind = for_kind
            interval.second_chances = second_chances
            if interval.kind == "preload" and not interval.touched:
                self.wasted_evicted += 1
                self.victims_preloaded_untouched += 1
            self._close(ledger, interval, now)

    def ledger_scan(self, now: int, credited: int) -> None:
        """The service-thread scan ran; ``credited`` pages were credited."""
        self.scans += 1
        self.scan_credited += credited
        if credited and self._window is not None:
            self._window.credits += credited

    def ledger_finish(self, now: int) -> None:
        """Close the ledger at run end (idempotent)."""
        if self._finished:
            return
        self._finished = True
        for page in sorted(self._pages):
            ledger = self._pages[page]
            interval = ledger.open
            if interval is not None:
                if interval.kind == "preload" and not interval.touched:
                    self.wasted_leftover += 1
                self._close(ledger, interval, now)
        self.pending_at_exit = len(self._pending)
        window = self._window
        if window is not None and window.accesses > 0:
            self._windows.append(window)
        self._window = None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _close(ledger: _PageLedger, interval: _Interval, now: int) -> None:
        interval.end = now
        ledger.intervals.append(interval)
        ledger.open = None

    def _touch(self, page: int, now: int, *, fault: bool) -> _PageLedger:
        """Count one access in its phase window; return the page's ledger."""
        self.accesses += 1
        window = self._window
        if window is None or window.accesses >= self._window_accesses:
            if window is not None:
                self._windows.append(window)
            window = self._window = _Window(now, now, [0] * self._buckets)
        window.accesses += 1
        window.end_cycle = now
        if fault:
            window.faults += 1
        offset = page - self._base_page
        if 0 <= offset < self._elrange_pages:
            window.heat[offset // self._bucket_pages] += 1
        return self._pages[page]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def profile(self) -> Dict[str, object]:
        """Export the deterministic ``repro.paging-profile/1`` block."""
        if not self._finished:
            raise ObsError(
                "profile() before the run finished; "
                "simulate() closes the ledger via the driver"
            )
        totals = {
            "accesses": self.accesses,
            "epc_hits": self.accesses - self.faults,
            "faults": self.faults,
            "scans": self.scans,
            "scan_credited_pages": self.scan_credited,
            "preloads": {
                "enqueued": self.enqueued,
                "completed": self.completed,
                "useful": self.useful,
                "late_inflight": self.late_inflight,
                "late_queued": self.late_queued,
                "wasted_evicted": self.wasted_evicted,
                "wasted_leftover": self.wasted_leftover,
                "redundant": self.redundant,
                "aborted_collateral": self.aborted_collateral,
                "pending_at_exit": self.pending_at_exit,
            },
            "fault_causes": {
                "cold": self.cause_cold,
                "predictor_miss": self.cause_predictor_miss,
                "refault": self.cause_refault,
                "late": self.cause_late,
            },
            "evictions": {
                "total": self.evictions,
                "second_chances": self.second_chances,
                "victims_accessed": self.victims_accessed,
                "victims_preloaded_untouched": self.victims_preloaded_untouched,
                "premature_refaulted": self.premature_refaulted,
            },
        }
        return {
            "schema": PAGING_PROFILE_SCHEMA,
            "window_accesses": self._window_accesses,
            "elrange_pages": self._elrange_pages,
            "base_page": self._base_page,
            "totals": totals,
            "effectiveness": self._effectiveness(),
            "phases": self._phases(),
            "heatmap": self._heatmap(),
            "pages": self._top_pages(),
        }

    def _effectiveness(self) -> Dict[str, float]:
        """Preload quality ratios (all in [0, 1], 0.0 when undefined).

        ``preload_precision`` — completed preloads touched in time;
        ``preload_recall`` — page needs served by a timely preload
        (every fault was a need the preloader failed to serve, every
        useful preload a need it served); ``late_rate`` /
        ``refault_rate`` — fault share attributable to channel
        lateness resp. premature eviction; ``waste_rate`` — completed
        preloads that never got touched.
        """

        def ratio(num: int, den: int) -> float:
            return round(num / den, 6) if den else 0.0

        wasted = self.wasted_evicted + self.wasted_leftover
        return {
            "preload_precision": ratio(self.useful, self.completed),
            "preload_recall": ratio(self.useful, self.useful + self.faults),
            "late_rate": ratio(self.cause_late, self.faults),
            "refault_rate": ratio(self.cause_refault, self.faults),
            "waste_rate": ratio(wasted, self.completed),
        }

    def _phases(self) -> List[Dict[str, object]]:
        """Merge same-band windows into phases; coarsen until <= cap."""
        windows = self._windows
        if not windows:
            return []
        mean_rate = self.faults / self.accesses if self.accesses else 0.0
        while True:
            phases = _segment(windows, mean_rate)
            if len(phases) <= _MAX_PHASES or len(windows) <= 2:
                break
            windows = pairwise(windows, _merge_windows)
        for index, phase in enumerate(phases):
            phase["phase"] = index
        return phases

    def _heatmap(self) -> Dict[str, object]:
        """Time-major access heatmap: counts[column][page_bucket]."""
        windows = self._windows
        columns = min(_MAX_HEATMAP_COLUMNS, len(windows)) or 1
        per_column = -(-len(windows) // columns) if windows else 1
        counts: List[List[int]] = []
        for start in range(0, len(windows), per_column):
            merged = [0] * self._buckets
            for window in windows[start : start + per_column]:
                for bucket, count in enumerate(window.heat):
                    merged[bucket] += count
            counts.append(merged)
        return {
            "page_buckets": self._buckets,
            "bucket_pages": self._bucket_pages,
            "columns": len(counts),
            "windows_per_column": per_column,
            "counts": counts,
        }

    def _top_pages(self) -> List[Dict[str, object]]:
        """Hottest pages by fault count, with their interval history."""
        ranked = sorted(
            self._pages.items(),
            key=lambda item: (-item[1].faults, -item[1].accesses, item[0]),
        )[:_MAX_EXPORT_PAGES]
        export = []
        for page, ledger in ranked:
            intervals = ledger.intervals[:_MAX_EXPORT_INTERVALS]
            export.append(
                {
                    "page": page,
                    "accesses": ledger.accesses,
                    "faults": ledger.faults,
                    "refaults": ledger.refaults,
                    "evictions": ledger.evictions,
                    "intervals": [interval.as_dict() for interval in intervals],
                    "intervals_truncated": len(ledger.intervals) - len(intervals),
                }
            )
        return export


def _band(window: _Window, mean_rate: float) -> str:
    """Label one window by its fault rate against the run mean."""
    accesses = window.accesses
    rate = window.faults / accesses if accesses else 0.0
    if mean_rate <= 0.0 or rate < 0.25 * mean_rate:
        return "resident"
    if rate > 2.0 * mean_rate:
        return "bursty"
    return "steady"


def _segment(windows: List[_Window], mean_rate: float) -> List[Dict[str, object]]:
    """Band each window by fault rate vs the run mean; merge runs."""
    phases: List[Dict[str, object]] = []
    for label, start, stop in runs([_band(w, mean_rate) for w in windows]):
        span = windows[start:stop]
        accesses = sum(w.accesses for w in span)
        faults = sum(w.faults for w in span)
        phases.append(
            {
                "label": label,
                "windows": stop - start,
                "accesses": accesses,
                "faults": faults,
                "scan_credited_pages": sum(w.credits for w in span),
                "start_cycle": span[0].start_cycle,
                "end_cycle": span[-1].end_cycle,
                "fault_rate": round(faults / accesses, 6) if accesses else 0.0,
            }
        )
    return phases


def _merge_windows(first: _Window, last: _Window) -> _Window:
    """One window spanning two adjacent ones."""
    return _Window(
        first.start_cycle,
        last.end_cycle,
        [a + b for a, b in zip(first.heat, last.heat)],
        first.accesses + last.accesses,
        first.faults + last.faults,
        first.credits + last.credits,
    )


def validate_paging_profile(block: object) -> Dict[str, int]:
    """Schema- and reconciliation-check one profile block.

    Raises :class:`~repro.errors.ObsError` on a malformed block or on
    any broken ledger identity; returns a small summary on success.
    """
    if not isinstance(block, dict):
        raise ObsError("paging profile is not a JSON object")
    schema = block.get("schema")
    if schema != PAGING_PROFILE_SCHEMA:
        raise ObsError(
            f"paging profile has schema {schema!r}, "
            f"expected {PAGING_PROFILE_SCHEMA!r}"
        )
    for key in ("totals", "effectiveness", "phases", "heatmap", "pages"):
        if key not in block:
            raise ObsError(f"paging profile lacks required section {key!r}")
    totals = block["totals"]
    if not isinstance(totals, dict):
        raise ObsError("paging profile totals is not an object")
    try:
        preloads = dict(totals["preloads"])
        causes = dict(totals["fault_causes"])
        evictions = dict(totals["evictions"])
        accesses = int(totals["accesses"])
        faults = int(totals["faults"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ObsError(f"paging profile totals are malformed: {exc}") from exc

    if faults != sum(int(causes.get(cause, 0)) for cause in _FAULT_CAUSES):
        raise ObsError(
            "fault causes do not partition the fault count: "
            f"{causes} vs {faults} faults"
        )
    terminal = (
        int(preloads["useful"])
        + int(preloads["late_inflight"])
        + int(preloads["wasted_evicted"])
        + int(preloads["wasted_leftover"])
    )
    if int(preloads["completed"]) != terminal:
        raise ObsError(
            "completed preloads do not partition into "
            f"useful/late/wasted: {preloads}"
        )
    accounted = (
        int(preloads["completed"])
        + int(preloads["redundant"])
        + int(preloads["late_queued"])
        + int(preloads["aborted_collateral"])
        + int(preloads["pending_at_exit"])
    )
    if int(preloads["enqueued"]) != accounted:
        raise ObsError(
            f"enqueued preloads do not reconcile: {preloads['enqueued']} "
            f"enqueued vs {accounted} accounted"
        )
    if int(evictions["premature_refaulted"]) != int(causes["refault"]):
        raise ObsError("premature-eviction count disagrees with refault cause")
    if int(evictions["victims_preloaded_untouched"]) != int(
        preloads["wasted_evicted"]
    ):
        raise ObsError("untouched-victim count disagrees with wasted preloads")
    phases = block["phases"]
    if not isinstance(phases, list):
        raise ObsError("paging profile phases is not a list")
    phase_accesses = sum(int(p["accesses"]) for p in phases)
    if phase_accesses != accesses:
        raise ObsError(
            f"phase accesses sum to {phase_accesses}, totals say {accesses}"
        )
    for phase in phases:
        if phase.get("label") not in _PHASE_LABELS:
            raise ObsError(f"unknown phase label {phase.get('label')!r}")
    heatmap = block["heatmap"]
    if not isinstance(heatmap, dict):
        raise ObsError("paging profile heatmap is not an object")
    heat_total = sum(sum(column) for column in heatmap.get("counts", []))
    if heat_total != accesses:
        raise ObsError(
            f"heatmap counts sum to {heat_total}, totals say {accesses}"
        )
    return {
        "accesses": accesses,
        "faults": faults,
        "preloads_completed": int(preloads["completed"]),
        "phases": len(phases),
        "pages": len(block["pages"]),  # type: ignore[arg-type]
    }


def write_paging_profile(
    path: Union[str, Path], block: Dict[str, object]
) -> Path:
    """Write one profile block as stable (sorted, indented) JSON."""
    target = Path(path)
    target.write_text(
        json.dumps(block, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return target


def load_paging_profile(path: Union[str, Path]) -> Dict[str, object]:
    """Load and validate one ``repro.paging-profile/1`` file."""
    target = Path(path)
    try:
        document = json.loads(target.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ObsError(f"cannot read paging profile {target}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ObsError(
            f"paging profile {target} is not valid JSON: {exc}"
        ) from exc
    validate_paging_profile(document)
    return document
