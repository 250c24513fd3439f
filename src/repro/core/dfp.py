"""DFP — dynamic page-fault-history based preloading (Section 3.1/4.1/4.2).

The engine couples the multiple-stream predictor with the two abort
mechanisms the paper describes:

* the **in-stream abort** — when a demand fault arrives while a
  predicted burst is still queued, the not-yet-started remainder of the
  burst is dropped (implemented on the load channel; the engine is
  notified for accounting);
* the **safety valve** — the driver's service thread credits preloaded
  pages that were actually accessed (``AccPreloadCounter``) against the
  total preloaded (``PreloadCounter``), and the preload thread stops
  itself permanently once
  ``AccPreloadCounter + slack < PreloadCounter / 2``
  (the paper's empirical formula, Section 4.2).  Figure 8 calls the
  valve-enabled variant *DFP-stop*.

The engine is OS-side state: it never touches enclave memory, which is
why DFP adds nothing to the TCB.
"""

from __future__ import annotations

from typing import List

from repro.core.config import SimConfig
from repro.core.predictor import MultiStreamPredictor

__all__ = ["DfpEngine"]


class DfpEngine:
    """OS-side preloading engine: predictor + counters + valve.

    The engine reads six fields of ``config``: the predictor's
    ``stream_list_length``, ``load_length`` and
    ``track_backward_streams``, and the valve's ``valve_enabled``,
    ``valve_slack`` and ``valve_ratio``.  ``predictor`` defaults to the
    paper's multiple-stream predictor; any object with the same
    ``on_fault(npn) -> list[int]`` protocol (e.g.
    :mod:`repro.core.alt_predictors`) can be substituted for ablation
    studies.
    """

    def __init__(self, config: SimConfig, *, predictor=None, metrics=None) -> None:
        self._config = config
        self.predictor = predictor or MultiStreamPredictor(
            config.stream_list_length,
            config.load_length,
            track_backward=config.track_backward_streams,
        )
        #: Total pages preloaded (the paper's ``PreloadCounter``).
        self.preload_counter = 0
        #: Preloaded pages later seen accessed (``AccPreloadCounter``).
        self.acc_preload_counter = 0
        #: Burst remainders dropped by the in-stream abort.
        self.aborted_preloads = 0
        self._stopped = False
        self._register_metrics(metrics)

    def _register_metrics(self, metrics) -> None:
        """Publish the engine and predictor counters as callback gauges.

        Gauges are sampled at dump time, so observation adds nothing to
        the fault path; predictor internals are read via ``getattr``
        because substituted ablation predictors need not expose them.
        """
        if metrics is None or not metrics.enabled:
            from repro.obs.metrics import NULL_REGISTRY

            metrics = NULL_REGISTRY
        else:
            predictor = self.predictor
            for name, fn in (
                ("dfp.preload_counter", lambda: self.preload_counter),
                ("dfp.acc_preload_counter", lambda: self.acc_preload_counter),
                ("dfp.aborted_preloads", lambda: self.aborted_preloads),
                ("dfp.active", lambda: int(self.active)),
                ("dfp.stream_hits", lambda: getattr(predictor, "stream_hits", 0)),
                ("dfp.stream_misses", lambda: getattr(predictor, "stream_misses", 0)),
                (
                    "dfp.stream_recycles",
                    lambda: getattr(predictor, "stream_recycles", 0),
                ),
                (
                    "dfp.streams_active",
                    lambda: len(getattr(predictor, "streams", ())),
                ),
            ):
                metrics.gauge(name, fn=fn)
        self._m_valve_trips = metrics.counter(
            "dfp.valve_trips", "times the safety valve stopped the preload thread"
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def config(self) -> SimConfig:
        """The engine's immutable configuration."""
        return self._config

    @property
    def active(self) -> bool:
        """False once the safety valve has stopped the preload thread."""
        return not self._stopped

    # ------------------------------------------------------------------
    # Fault-handler hook
    # ------------------------------------------------------------------

    def on_fault(self, npn: int) -> List[int]:
        """Feed one fault to the predictor; return pages to preload.

        Returns an empty list when the valve has fired: the fault
        history keeps being *observed* (the handler runs regardless)
        but no speculative work is scheduled any more.
        """
        burst = self.predictor.on_fault(npn)
        if self._stopped:
            return []
        return burst

    # ------------------------------------------------------------------
    # Accounting hooks (driven by the driver)
    # ------------------------------------------------------------------

    def note_preload_completed(self) -> None:
        """A speculative load finished occupying the channel."""
        self.preload_counter += 1

    def note_aborted(self, count: int) -> None:
        """``count`` queued preloads were dropped by the in-stream abort."""
        self.aborted_preloads += count

    def credit_accessed(self, count: int) -> None:
        """The scan thread found ``count`` preloaded pages accessed."""
        self.acc_preload_counter += count

    def check_valve(self) -> bool:
        """Evaluate the stop formula; return True if it fired just now.

        The stop is permanent, as in the prototype: the preload thread
        exits once it is demonstrably doing more harm than good.
        """
        if self._stopped or not self._config.valve_enabled:
            return False
        threshold = self._config.valve_ratio * self.preload_counter
        if self.acc_preload_counter + self._config.valve_slack < threshold:
            self._stopped = True
            self._m_valve_trips.inc()
            return True
        return False
