"""Opt-in runtime sanitizer for the enclave simulation.

The engine already proves one invariant at run end (the per-bucket time
breakdown reconstructs the clock); everything else — EPC occupancy,
channel/residency exclusion, counter monotonicity — is enforced only
locally by each component.  Accounting drift *between* components
(exactly the failure mode that invalidates paging results; see the
fault-pattern and EDMM literature cited in DESIGN.md) would surface
only as silently wrong numbers.

:class:`SimSanitizer` closes that gap.  When a run is built with
``SimConfig(sanitize=True)`` (CLI: ``--sanitize``), the driver invokes
the sanitizer at every structural event and the sanitizer asserts:

* the EPC resident-page count never exceeds capacity;
* no page is simultaneously resident and on the load channel
  (queued or in flight);
* ``AccPreloadCounter ≤ PreloadCounter``, and both are monotone
  non-decreasing;
* the in-stream abort only ever cancels *queued* (never
  already-loaded) pages;
* at every service-thread tick — not only at run end — the per-bucket
  cycle accounting sums to the application clock.

The sanitizer is read-only: it never changes timing or stats, so a
sanitized run produces bit-identical :class:`~repro.sim.results.RunResult`
numbers (the integration suite asserts this).  A violation raises
:class:`~repro.errors.SanitizerError` carrying the tail of the event
trace (a bounded ring buffer, recorded even when full event recording
is off) so the offending sequence is visible in the failure itself.

A clean run pays for no text it never shows: each check is a plain
condition whose message is formatted only when it fails, and the ring
buffer holds raw event and note values that are formatted only when
:attr:`SimSanitizer.trace_tail` is read or a ``SanitizerError`` is
raised.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, TYPE_CHECKING

from repro.enclave.events import EventKind
from repro.errors import SanitizerError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.enclave.epc import Epc
    from repro.enclave.loader import LoadChannel, LoadKind
    from repro.enclave.stats import RunStats

__all__ = ["SimSanitizer", "TRACE_TAIL_LENGTH"]

#: How many trailing trace entries a :class:`SanitizerError` carries.
TRACE_TAIL_LENGTH = 24


# Trace-tail lines.  The ring buffer stores ``(line, *values)`` and
# calls ``line(*values)`` only when the tail is read.
_ENQUEUE = "[{}] enqueue burst {}".format
_ABORT = "[{}] abort drops {}".format
_SCAN = "[{}] scan: PreloadCounter={} AccPreloadCounter={}".format
_END = "[{}] run end".format


def _event_line(kind: EventKind, start: int, end: int, page: int) -> str:
    suffix = f" page={page}" if page >= 0 else ""
    return f"[{start}..{end}] {kind.value}{suffix}"


class SimSanitizer:
    """Cross-component invariant checker for one driver's run."""

    def __init__(
        self,
        epc: "Epc",
        channel: "LoadChannel",
        *,
        label: str = "",
        trace_length: int = TRACE_TAIL_LENGTH,
    ) -> None:
        self._epc = epc
        self._channel = channel
        self._label = label
        self._trace: Deque[tuple] = deque(maxlen=trace_length)
        # High-water marks for the monotonicity checks.
        self._last_preload_counter = 0
        self._last_acc_counter = 0
        #: Number of individual assertions evaluated (overhead metric
        #: and a cheap way for tests to prove the sanitizer was live).
        self.checks = 0
        #: Number of violations raised (0 on a clean run).
        self.violations = 0

    # ------------------------------------------------------------------
    # Trace recording
    # ------------------------------------------------------------------

    @property
    def trace_tail(self) -> "tuple[str, ...]":
        """The recorded event tail as text (oldest first)."""
        return tuple(line(*values) for line, *values in self._trace)

    def record_event(
        self, kind: EventKind, start: int, end: int, page: int = -1
    ) -> None:
        """Record one driver timeline event into the ring buffer."""
        self._trace.append((_event_line, kind, start, end, page))

    def _fail(self, evaluated: int, message: str) -> None:
        """Count a hook's checks up to its ``evaluated``-th, which failed; raise."""
        self.checks += evaluated
        self.violations += 1
        if self._label:
            message = f"{self._label}: {message}"
        raise SanitizerError(message, trace=self.trace_tail)

    # ------------------------------------------------------------------
    # Hooks (driven by SgxDriver / the engine)
    # ------------------------------------------------------------------

    def check_enqueue(self, pages: Iterable[int], now: int) -> None:
        """A predicted burst is about to be queued for preloading."""
        pages = list(pages)
        self._trace.append((_ENQUEUE, now, pages))
        epc = self._epc
        channel = self._channel
        for page in pages:
            if epc.is_resident(page):
                self._fail(
                    1,
                    f"page {page} enqueued for preload at t={now} while "
                    "already resident in the EPC (burst filtering is broken)",
                )
            if channel.current_page == page:
                self._fail(
                    2,
                    f"page {page} enqueued for preload at t={now} while "
                    "already in flight on the load channel",
                )
            if channel.is_queued(page):
                self._fail(
                    3,
                    f"page {page} enqueued for preload at t={now} while "
                    "already queued on the load channel",
                )
            self.checks += 3

    def check_load(self, page: int, kind: "LoadKind", finish: int) -> None:
        """One page load just landed in the EPC."""
        epc = self._epc
        if epc.resident_count > epc.capacity:
            self._fail(
                1,
                f"EPC over-committed after loading page {page} at t={finish}: "
                f"{epc.resident_count} resident pages > capacity {epc.capacity}",
            )
        if not epc.is_resident(page):
            self._fail(
                2,
                f"{kind.value} load of page {page} completed at t={finish} but "
                "the page is not resident",
            )
        if self._channel.is_queued(page):
            self._fail(
                3,
                f"page {page} is resident and still queued on the load channel "
                f"at t={finish}",
            )
        self.checks += 3

    def check_redundant_preload(self, page: int, finish: int) -> None:
        """A speculative load landed on an already-resident page."""
        self._fail(
            0,
            f"preload of page {page} completed at t={finish} for a page "
            "that is already resident — it was enqueued without filtering "
            "or a demand load raced past the in-stream abort",
        )

    def check_abort(self, pages: Iterable[int], now: int) -> None:
        """Queued preloads are about to be dropped by an abort."""
        pages = list(pages)
        self._trace.append((_ABORT, now, pages))
        epc = self._epc
        for page in pages:
            if epc.is_resident(page):
                self._fail(
                    1,
                    f"abort at t={now} would cancel page {page}, which is "
                    "already loaded into the EPC; aborts may only drop "
                    "queued (not-yet-started) preloads",
                )
            self.checks += 1

    def check_counters(self, preload_counter: int, acc_counter: int, now: int) -> None:
        """The service-thread scan just updated the valve counters."""
        self._trace.append((_SCAN, now, preload_counter, acc_counter))
        if preload_counter < self._last_preload_counter:
            self._fail(
                1,
                f"PreloadCounter decreased at t={now}: "
                f"{self._last_preload_counter} -> {preload_counter}",
            )
        if acc_counter < self._last_acc_counter:
            self._fail(
                2,
                f"AccPreloadCounter decreased at t={now}: "
                f"{self._last_acc_counter} -> {acc_counter}",
            )
        if acc_counter > preload_counter:
            self._fail(
                3,
                f"AccPreloadCounter {acc_counter} exceeds PreloadCounter "
                f"{preload_counter} at t={now}: more preloads credited as "
                "accessed than were ever completed",
            )
        self.checks += 3
        self._last_preload_counter = preload_counter
        self._last_acc_counter = acc_counter

    def check_tick(self, stats: "RunStats", clock: int, now: int) -> None:
        """Per-tick accounting: buckets must reconstruct the clock.

        ``clock`` is the driver's application-time high-water mark at
        the tick (scan time ``now`` may lag it; the buckets are only
        mutated at access boundaries, where they equal the clock).
        """
        total = stats.time.total
        if total != clock:
            self._fail(
                1,
                f"cycle accounting drifted at scan t={now}: buckets sum to "
                f"{total} but the application clock reads {clock} "
                f"(delta {total - clock:+d})",
            )
        self.checks += 1

    def check_final(self, stats: "RunStats", clock: int) -> None:
        """End-of-run sweep once the driver has drained."""
        self._trace.append((_END, clock))
        self.check_tick(stats, clock, clock)
        epc = self._epc
        if epc.resident_count > epc.capacity:
            self._fail(
                1,
                f"EPC over-committed at run end: {epc.resident_count} "
                f"resident pages > capacity {epc.capacity}",
            )
        if stats.preloads_aborted > stats.preloads_enqueued:
            self._fail(
                2,
                f"more preloads aborted ({stats.preloads_aborted}) than were "
                f"ever enqueued ({stats.preloads_enqueued})",
            )
        self.checks += 2
