"""The runtime sanitizer end to end: transparency and bug detection.

Two contracts:

* **Transparency** — the sanitizer is read-only, so a sanitized run
  must produce bit-identical :class:`RunResult` numbers for every
  scheme (the ISSUE acceptance criterion).
* **Detection** — when a core invariant is deliberately broken
  (burst filtering, valve-counter crediting, EPC occupancy, cycle
  accounting), the run dies with :class:`SanitizerError` carrying the
  event-trace tail, instead of silently producing wrong numbers.

``golden_sanitizer.json`` pins the sanitizer's exact output: the check
counts and event tails of five lbm runs, and the full text of one
violation.  The sanitizer formats its messages and tail lazily, so
these bytes are what proves the deferred text equals the eager one.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import SimConfig
from repro.core.dfp import DfpEngine
from repro.enclave import driver as driver_module
from repro.enclave.driver import SgxDriver
from repro.enclave.epc import Epc
from repro.enclave.eviction import ClockEvictor
from repro.enclave.sanitizer import SimSanitizer
from repro.errors import SanitizerError
from repro.sim.engine import simulate
from repro.sim.fleet import FleetScenario, TenantSpec, simulate_fleet
from repro.workloads.base import SyntheticWorkload
from repro.workloads.registry import build_workload
from repro.workloads.synthetic import sequential, uniform_random

SCHEMES = ["baseline", "dfp", "dfp-stop", "sip", "hybrid"]

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_sanitizer.json").read_text(encoding="utf-8")
)


@pytest.fixture
def config():
    """Small EPC + short scan period: faults, preloads, and many
    service-thread ticks within a fast run."""
    return SimConfig(
        epc_pages=96,
        stream_list_length=8,
        load_length=4,
        scan_period_cycles=400_000,
        valve_slack=24,
        valve_ratio=0.8,
    )


def seq_workload():
    """The sequential micro workload: streaming passes over 4x EPC."""
    return SyntheticWorkload(
        "mini-seq",
        384,
        {0: "scan"},
        [sequential(0, 0, 384, compute=5_000, passes=3)],
    )


def over_credit(self, count):
    """Over-credit AccPreloadCounter so it overtakes PreloadCounter."""
    self.acc_preload_counter += 100 * count + 100


def noisy_workload():
    return SyntheticWorkload(
        "mini-noise",
        768,
        {0: "probe"},
        [
            uniform_random(
                [0],
                0,
                768,
                3_000,
                compute=4_000,
                run_length=(2, 3),
                multi_run_prob=0.5,
            )
        ],
    )


class TestTransparency:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_sanitized_run_is_bit_identical(self, config, scheme):
        plain = simulate(seq_workload(), config, scheme)
        checked = simulate(seq_workload(), config.replace(sanitize=True), scheme)
        assert checked.total_cycles == plain.total_cycles
        assert checked.stats == plain.stats

    def test_sanitized_noisy_valve_run_is_bit_identical(self, config):
        """The valve-stop path (in-stream abort + counter checks) is
        exercised and still changes nothing."""
        plain = simulate(noisy_workload(), config, "dfp-stop")
        checked = simulate(
            noisy_workload(), config.replace(sanitize=True), "dfp-stop"
        )
        assert plain.stats.valve_stops >= 1
        assert checked.stats == plain.stats

    def test_sanitized_shared_platform_run_is_bit_identical(self, config):
        schemes = ["dfp", "dfp-stop"]

        def run(cfg):
            scenario = FleetScenario(
                name="sanitized-shared",
                tenants=tuple(
                    TenantSpec(workload=w, scheme=s)
                    for w, s in zip([seq_workload(), noisy_workload()], schemes)
                ),
                config=cfg,
            )
            return simulate_fleet(scenario).results

        plain = run(config)
        checked = run(config.replace(sanitize=True))
        for before, after in zip(plain, checked):
            assert after.total_cycles == before.total_cycles
            assert after.stats == before.stats


class TestDetection:
    def test_broken_burst_filter_is_caught(self, config, monkeypatch):
        """Drop the residency/queue filtering before enqueue: the
        sanitizer must flag the first redundant preload request."""

        def leaky_filter(self, burst):
            return [p for p in burst if self._enclave.contains_page(p)]

        monkeypatch.setattr(SgxDriver, "_filter_burst", leaky_filter)
        with pytest.raises(SanitizerError, match="enqueued for preload") as excinfo:
            simulate(seq_workload(), config.replace(sanitize=True), "dfp")
        assert any("enqueue burst" in entry for entry in excinfo.value.trace)

    def test_broken_counter_crediting_is_caught(self, config, monkeypatch):
        """Over-credit AccPreloadCounter: the scan-time valve-counter
        check must see it exceed PreloadCounter."""
        monkeypatch.setattr(DfpEngine, "credit_accessed", over_credit)
        with pytest.raises(
            SanitizerError, match="exceeds PreloadCounter"
        ) as excinfo:
            simulate(seq_workload(), config.replace(sanitize=True), "dfp")
        assert any("scan:" in entry for entry in excinfo.value.trace)

    def test_broken_eviction_policy_is_caught(self, config, monkeypatch):
        """An eviction path that triggers one frame late over-commits
        the EPC on the first load past capacity; the load-landing
        occupancy check must fire.  The CLOCK ring is grown in step so
        only the sanitizer can see the violation."""

        class OvercommittingEpc(Epc):
            @property
            def is_full(self):
                return self.resident_count >= self.capacity + 1

        real_init = ClockEvictor.__init__

        def roomy_init(self, epc):
            real_init(self, epc)
            self._ring.append(None)
            self._free_slots.insert(0, len(self._ring) - 1)

        monkeypatch.setattr("repro.enclave.platform.Epc", OvercommittingEpc)
        monkeypatch.setattr(ClockEvictor, "__init__", roomy_init)
        with pytest.raises(SanitizerError, match="EPC over-committed"):
            simulate(seq_workload(), config.replace(sanitize=True), "baseline")

    def test_lost_cycle_is_caught(self, config, monkeypatch):
        """Leak a single cycle out of the AEX bucket: the per-tick
        bucket-sum-equals-clock identity must catch the drift."""
        real_access = SgxDriver.access

        def leaky_access(self, page, now):
            end = real_access(self, page, now)
            if self.stats.time.aex > 0 and not getattr(self, "_leaked", False):
                self._leaked = True
                self.stats.time.aex -= 1
            return end

        monkeypatch.setattr(SgxDriver, "access", leaky_access)
        with pytest.raises(
            SanitizerError, match="cycle accounting drifted"
        ) as excinfo:
            simulate(seq_workload(), config.replace(sanitize=True), "baseline")
        assert "delta -1" in str(excinfo.value)
        assert excinfo.value.trace  # the event tail rode along

    def test_unsanitized_run_does_not_police(self, config, monkeypatch):
        """Without --sanitize the same cycle leak sails through (the
        engine's own end check sees the mismatch instead) — the checks
        really are opt-in."""
        monkeypatch.setattr(DfpEngine, "credit_accessed", over_credit)
        result = simulate(seq_workload(), config, "dfp")
        assert result.total_cycles > 0


class TestPinnedOutput:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_lbm_checks_and_tail_match_golden(self, scheme, monkeypatch):
        made = []

        class Recording(SimSanitizer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(driver_module, "SimSanitizer", Recording)
        config = SimConfig.scaled(64).replace(sanitize=True)
        simulate(build_workload("lbm", scale=64), config, scheme)
        (sanitizer,) = made
        assert {
            "checks": sanitizer.checks,
            "violations": sanitizer.violations,
            "trace_tail": list(sanitizer.trace_tail),
        } == GOLDEN["lbm_scale_64"][scheme]

    def test_counter_violation_text_matches_golden(self, config, monkeypatch):
        """The whole message, every tail line included, byte for byte."""
        monkeypatch.setattr(DfpEngine, "credit_accessed", over_credit)
        with pytest.raises(SanitizerError) as excinfo:
            simulate(seq_workload(), config.replace(sanitize=True), "dfp")
        assert str(excinfo.value) == "\n".join(GOLDEN["counter_violation"])
