"""Cost model and simulation configuration.

The paper's evaluation is driven by a handful of measured architectural
constants (Section 2, Figure 2, Figure 4):

=====================  ===============  =====================================
Constant               Paper value      Where it comes from
=====================  ===============  =====================================
AEX                    ~10,000 cycles   asynchronous enclave exit on a fault
ELDU/ELDB page load    ~44,000 cycles   swapping one EPC page back in
ERESUME                ~10,000 cycles   re-entering the enclave
regular page fault     ~2,000 cycles    non-enclave fault, for comparison
EPC usable by apps     ~96 MB           128 MB reserved minus metadata
=====================  ===============  =====================================

Everything is configurable so that experiments can scale the system down
(to run a full parameter sweep in seconds) while keeping the *ratios*
between costs identical — all of the paper's results are normalized
execution times, so relative shapes are preserved under scaling.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro import units
from repro.errors import ConfigError

__all__ = ["CostModel", "SimConfig"]


@dataclass(frozen=True)
class CostModel:
    """Cycle costs of the architectural events the simulator models.

    Attributes mirror the paper's measured numbers; see the module
    docstring for provenance.  ``ewb_cycles`` (eviction write-back,
    12,000 by default) is kept out of :attr:`fault_cycles`, because the
    paper folds eviction into its 60k–64k fault total; the channel pays
    it after a load that needed a victim, and 0 removes it.
    """

    #: Asynchronous enclave exit taken when an enclave access faults.
    aex_cycles: int = 10_000
    #: Re-entering the enclave after the OS serviced the fault.
    eresume_cycles: int = 10_000
    #: Loading one page into the EPC (ELDU/ELDB), exclusive and
    #: non-preemptible on the paper's hardware.
    page_load_cycles: int = 44_000
    #: Evicting one EPC page (EWB): channel *housekeeping* after a
    #: load that required a victim.  Hidden inside a lone demand
    #: fault's inter-fault gap (keeping the fault's latency at the
    #: paper's 60k–64k), but it limits back-to-back load throughput —
    #: one of the reasons preloading cannot hide all fault cost even
    #: with perfect prediction (Section 5.6).
    ewb_cycles: int = 12_000
    #: A regular (non-enclave) page fault, used by the motivation
    #: experiment that compares in-enclave vs native execution.
    regular_fault_cycles: int = 2_000
    #: One execution of the SIP ``BIT_MAP_CHECK`` stub: a call into the
    #: notification function plus a read of the shared residency
    #: bitmap.  The bitmap lives in untrusted memory shared with the
    #: OS, so the common case is a cross-boundary cache miss, not a
    #: register compare — this cost on Class 1 accesses is what makes
    #: instrumenting hit-dominated instructions a wash (Section 5.2).
    bitmap_check_cycles: int = 1_400
    #: Extra cost of one ``page_loadin_function`` notification round
    #: trip (shared-memory message to the kernel thread plus the wait
    #: bookkeeping), *on top of* the page load itself.
    notification_cycles: int = 2_500

    def __post_init__(self) -> None:
        for name in (
            "aex_cycles",
            "eresume_cycles",
            "page_load_cycles",
            "ewb_cycles",
            "regular_fault_cycles",
            "bitmap_check_cycles",
            "notification_cycles",
        ):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be non-negative, got {value}")
        if self.page_load_cycles == 0:
            raise ConfigError("page_load_cycles must be positive")

    @property
    def fault_cycles(self) -> int:
        """Latency of one isolated demand enclave page fault.

        ``AEX + load + ERESUME`` — the paper's 60k–64k total.  EWB is
        channel housekeeping, not fault latency (see ``ewb_cycles``).
        """
        return self.aex_cycles + self.page_load_cycles + self.eresume_cycles

    @property
    def world_switch_cycles(self) -> int:
        """Cost removed by SIP when a fault is converted into a
        notification: the AEX + ERESUME pair."""
        return self.aex_cycles + self.eresume_cycles


#: Default number of usable EPC frames: 96 MB of 4 KiB pages.
DEFAULT_EPC_PAGES = units.pages_of(units.EPC_USABLE_BYTES)


@dataclass(frozen=True)
class SimConfig:
    """Full configuration of one simulated platform.

    The defaults reproduce the paper's platform (Section 5): 96 MB
    usable EPC, ``stream_list`` length 30, ``LOADLENGTH`` 4, SIP
    irregular-ratio threshold 5%, and the abort valve enabled with the
    paper's empirical slack formula ``Acc + slack < Preload / 2``.
    """

    #: Number of usable EPC frames (4 KiB each).
    epc_pages: int = DEFAULT_EPC_PAGES
    #: Length of the DFP predictor's LRU ``stream_list`` (Figure 6).
    stream_list_length: int = 30
    #: Pages preloaded per stream hit, ``LOADLENGTH`` (Figure 7).
    load_length: int = 4
    #: Virtual-time period of the driver's service thread that scans
    #: and clears page-table access bits (the CLOCK aging pass that the
    #: preloaded-page accounting piggybacks on).
    scan_period_cycles: int = 2_000_000
    #: Whether the DFP safety-valve abort is active.  The scheme name
    #: decides it: :func:`~repro.core.schemes.make_scheme` turns it off
    #: for ``dfp`` and on for ``dfp-stop`` and ``hybrid`` (Fig 8), so
    #: the value given here reaches only a hand-built
    #: :class:`~repro.core.schemes.Scheme`.
    valve_enabled: bool = True
    #: Slack constant in the valve formula
    #: ``AccPreloadCounter + valve_slack < valve_ratio * PreloadCounter``.
    #: The paper uses 200,000 at full scale; scaled configs shrink it
    #: proportionally so the valve trips at the same *fraction* of work.
    valve_slack: int = 200_000
    #: Accuracy ratio in the valve formula.  The paper's empirical
    #: formula uses 1/2; at reduced scale the probability that a
    #: *wasted* preload is coincidentally touched before eviction is
    #: much higher than on a 100k-page footprint, so scaled configs
    #: raise the ratio to keep the valve sensitive to the same real
    #: misprediction level.
    valve_ratio: float = 0.5
    #: SIP instrumentation threshold on the irregular-access ratio
    #: (Figure 9 finds ~5% to be the sweet spot).
    sip_threshold: float = 0.05
    #: Whether the predictor also tracks descending (backward) streams.
    #: Algorithm 1 carries a ``direction`` field; forward-only matches
    #: the paper's description most conservatively.
    track_backward_streams: bool = False
    #: Enable the runtime invariant sanitizer
    #: (:class:`repro.enclave.sanitizer.SimSanitizer`): every structural
    #: event is cross-checked against the EPC/channel/counter invariants
    #: and a violation raises :class:`~repro.errors.SanitizerError` with
    #: the offending event tail.  Read-only — results are bit-identical
    #: with it on or off — but adds per-event checking cost, so it is
    #: off by default and enabled via the CLI's ``--sanitize``.
    sanitize: bool = False
    #: Cycle costs of architectural events.
    cost: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.epc_pages <= 0:
            raise ConfigError(f"epc_pages must be positive, got {self.epc_pages}")
        if self.stream_list_length <= 0:
            raise ConfigError(
                f"stream_list_length must be positive, got {self.stream_list_length}"
            )
        if self.load_length <= 0:
            raise ConfigError(f"load_length must be positive, got {self.load_length}")
        if self.scan_period_cycles <= 0:
            raise ConfigError(
                f"scan_period_cycles must be positive, got {self.scan_period_cycles}"
            )
        if self.valve_slack < 0:
            raise ConfigError(f"valve_slack must be non-negative, got {self.valve_slack}")
        if not 0.0 < self.valve_ratio <= 1.0:
            raise ConfigError(
                f"valve_ratio must be within (0, 1], got {self.valve_ratio}"
            )
        if not 0.0 <= self.sip_threshold <= 1.0:
            raise ConfigError(
                f"sip_threshold must be within [0, 1], got {self.sip_threshold}"
            )

    def replace(self, **changes: object) -> "SimConfig":
        """Return a copy with ``changes`` applied (frozen-dataclass idiom)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def scaled(cls, factor: int, **overrides: object) -> "SimConfig":
        """Return a configuration scaled down by ``factor``.

        EPC frame count and the valve slack shrink by ``factor``;
        per-event cycle costs and the predictor parameters are
        unchanged, so every *normalized* result keeps its shape.
        Workloads must be scaled by the same factor (see
        :func:`repro.workloads.registry.build_workload`).
        """
        if factor <= 0:
            raise ConfigError(f"scale factor must be positive, got {factor}")
        # The valve slack is an absolute preload count, so it must
        # shrink faster than the linear scale: scaled runs are shorter
        # in *events*, not just smaller in footprint.  Quadratic
        # scaling keeps the valve firing at a comparable fraction of a
        # misbehaving run.
        base = cls(
            epc_pages=max(1, DEFAULT_EPC_PAGES // factor),
            valve_slack=max(32, 200_000 // (8 * factor * factor)),
            valve_ratio=0.5 if factor == 1 else 0.8,
            scan_period_cycles=max(1, 2_000_000 // max(1, factor // 4)),
        )
        if overrides:
            base = base.replace(**overrides)
        return base
