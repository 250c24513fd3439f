"""Core contribution of the paper: the two preloading schemes.

* :mod:`repro.core.config` — cost model and simulation configuration.
* :mod:`repro.core.predictor` — the multiple-stream predictor
  (paper Algorithm 1) used by DFP and by the SIP classifier.
* :mod:`repro.core.dfp` — dynamic fault-history based preloading.
* :mod:`repro.core.classify` — Class 1/2/3 access classification.
* :mod:`repro.core.profiler` — PGO-style profiling runs for SIP.
* :mod:`repro.core.instrumentation` — the SIP "compiler pass"; its
  runtime stub is :meth:`repro.enclave.driver.SgxDriver.sip_prefetch`.
* :mod:`repro.core.schemes` — scheme factory (baseline/DFP/SIP/hybrid).
"""

from repro.core.config import CostModel, SimConfig
from repro.core.predictor import MultiStreamPredictor, StreamEntry
from repro.core.dfp import DfpEngine
from repro.core.classify import AccessClass, StreamClassifier
from repro.core.profiler import InstructionProfile, WorkloadProfile, profile_workload
from repro.core.instrumentation import SipPlan, build_sip_plan
from repro.core.schemes import Scheme, make_scheme, SCHEME_NAMES

__all__ = [
    "CostModel",
    "SimConfig",
    "MultiStreamPredictor",
    "StreamEntry",
    "DfpEngine",
    "AccessClass",
    "StreamClassifier",
    "InstructionProfile",
    "WorkloadProfile",
    "profile_workload",
    "SipPlan",
    "build_sip_plan",
    "Scheme",
    "make_scheme",
    "SCHEME_NAMES",
]
