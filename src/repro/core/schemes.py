"""Scheme selection: baseline, DFP, DFP-stop, SIP, hybrid.

The paper evaluates five execution configurations; :func:`make_scheme`
builds each one from a :class:`~repro.core.config.SimConfig` (and, for
the SIP-bearing ones, a compiled :class:`~repro.core.instrumentation.SipPlan`):

================  ====================================================
``baseline``      vanilla SGX paging, no preloading
``dfp``           DFP without the safety valve (Figure 8's "DFP")
``dfp-stop``      DFP with the safety valve (Figure 8's "DFP-stop";
                  this is the default DFP configuration elsewhere)
``sip``           SIP only
``hybrid``        SIP + DFP-stop together (Section 5.4)
================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from repro.core.config import SimConfig
from repro.core.dfp import DfpEngine
from repro.core.instrumentation import SipPlan
from repro.errors import ConfigError

__all__ = ["Scheme", "make_scheme", "SCHEME_NAMES"]

SCHEME_NAMES: Tuple[str, ...] = ("baseline", "dfp", "dfp-stop", "sip", "hybrid")


@dataclass(frozen=True)
class Scheme:
    """One execution configuration.

    Immutable description: DFP runs when ``dfp_config`` is set and SIP
    when ``sip_plan`` is.  The per-run DFP engine is built fresh by
    :meth:`build_dfp` for every simulation so runs never share state;
    SIP needs no per-run object, as the run reads the plan's
    ``instrumented`` set.
    """

    name: str
    dfp_config: Optional[SimConfig] = None
    sip_plan: Optional[SipPlan] = None
    #: Optional factory for a non-default predictor (the ablation
    #: studies swap in :mod:`repro.core.alt_predictors` here); must
    #: return a fresh predictor per call.
    predictor_factory: Optional[Callable[[], object]] = field(
        default=None, compare=False
    )

    @property
    def dfp_enabled(self) -> bool:
        """True when the scheme runs DFP."""
        return self.dfp_config is not None

    @property
    def sip_enabled(self) -> bool:
        """True when the scheme runs SIP."""
        return self.sip_plan is not None

    def build_dfp(self, *, metrics=None) -> Optional[DfpEngine]:
        """Fresh DFP engine for one run (None when DFP is off).

        ``metrics`` is an optional :class:`repro.obs.metrics.MetricsRegistry`
        the engine publishes its counters into.
        """
        if self.dfp_config is None:
            return None
        predictor = self.predictor_factory() if self.predictor_factory else None
        return DfpEngine(self.dfp_config, predictor=predictor, metrics=metrics)


def make_scheme(
    name: str,
    config: SimConfig,
    *,
    sip_plan: Optional[SipPlan] = None,
) -> Scheme:
    """Build one of the paper's five schemes by name.

    ``sip_plan`` is required for ``sip`` and ``hybrid`` — compile one
    with :func:`repro.core.profiler.profile_workload` followed by
    :func:`repro.core.instrumentation.build_sip_plan`.  The name
    decides the valve, whatever ``config.valve_enabled`` says: off for
    ``dfp``, on for ``dfp-stop`` and ``hybrid``.
    """
    if name not in SCHEME_NAMES:
        raise ConfigError(
            f"unknown scheme {name!r}; expected one of {', '.join(SCHEME_NAMES)}"
        )
    needs_sip = name in ("sip", "hybrid")
    if needs_sip and sip_plan is None:
        raise ConfigError(f"scheme {name!r} requires a SIP plan")
    dfp_config: Optional[SimConfig] = None
    if name in ("dfp", "dfp-stop", "hybrid"):
        dfp_config = config.replace(valve_enabled=name != "dfp")
    return Scheme(
        name=name,
        dfp_config=dfp_config,
        sip_plan=sip_plan if needs_sip else None,
    )
