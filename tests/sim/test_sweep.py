"""Sweep and scheme-comparison drivers."""

import pytest

from repro.core.config import SimConfig
from repro.errors import ConfigError
from repro.sim.engine import simulate
from repro.sim.parallel import WorkloadSpec
from repro.sim.sweep import SweepProgress, compare_schemes, sweep_config
from repro.sim.tracecache import shared_trace_cache, trace_key
from repro.workloads.base import SyntheticWorkload
from repro.workloads.synthetic import sequential


def make_workload():
    # Compute above the channel rate (load + EWB = 56k): pages land
    # before their touch, so faults occur once per LOADLENGTH+1 pages
    # and the sweep genuinely varies with the parameter.
    return SyntheticWorkload(
        "seq", 128, {0: "scan"}, [sequential(0, 0, 128, compute=60_000)]
    )


@pytest.fixture
def config():
    return SimConfig(epc_pages=32, scan_period_cycles=500_000, valve_slack=16)


class TestCompareSchemes:
    def test_runs_every_scheme(self, config):
        results = compare_schemes(
            make_workload(), config, ["baseline", "dfp", "dfp-stop"]
        )
        assert set(results) == {"baseline", "dfp", "dfp-stop"}
        for name, result in results.items():
            assert result.scheme == name

    def test_sip_plan_compiled_once_and_shared(self, config):
        results = compare_schemes(make_workload(), config, ["sip", "hybrid"])
        assert results["sip"].sip_points == results["hybrid"].sip_points

    def test_baseline_not_affected_by_sip_plan(self, config):
        a = compare_schemes(make_workload(), config, ["baseline"])["baseline"]
        b = compare_schemes(make_workload(), config, ["baseline", "sip"])["baseline"]
        assert a.total_cycles == b.total_cycles

    def test_live_workloads_sharing_name_and_footprint_do_not_collide(self, config):
        """Two different live workloads with one name and footprint each
        replay their own trace, in one process."""
        for passes in (1, 3):
            workload = SyntheticWorkload(
                "seq",
                128,
                {0: "scan"},
                [sequential(0, 0, 128, compute=60_000, passes=passes)],
            )
            expected = simulate(workload, config, "baseline")
            result = compare_schemes(workload, config, ["baseline"])["baseline"]
            assert result.stats.accesses == 128 * passes
            assert result == expected

    def test_two_scales_with_one_floored_footprint_get_their_own_traces(self):
        """Registry footprints are floored at 192 pages, so leela at
        scales 32 and 64 share a footprint; the shared cache must still
        serve each scale its own trace."""
        shared_trace_cache().clear()
        compare_schemes(WorkloadSpec("leela", 32), SimConfig.scaled(32), ["baseline"])
        config = SimConfig.scaled(64)
        result = compare_schemes(WorkloadSpec("leela", 64), config, ["baseline"])["baseline"]
        expected = simulate(WorkloadSpec("leela", 64).build(), config, "baseline")
        assert result == expected
        assert (result.total_cycles, result.stats.accesses) == (44_801_835, 6_500)

    def test_live_workload_stays_out_of_the_shared_cache(self, config):
        workload = SyntheticWorkload(
            "live-only", 64, {0: "scan"}, [sequential(0, 0, 64, compute=60_000)]
        )
        compare_schemes(workload, config, ["baseline", "dfp"])
        assert trace_key(workload, 0, "ref") not in shared_trace_cache()


class TestSweepConfig:
    def test_labels_attach_to_points(self, config):
        configs = [config.replace(load_length=n) for n in (2, 4)]
        points = sweep_config(
            make_workload, configs, ["baseline"], values=[2, 4]
        )
        assert [p.value for p in points] == [2, 4]

    def test_default_labels_are_indices(self, config):
        points = sweep_config(make_workload, [config], ["baseline"])
        assert points[0].value == 0

    def test_label_count_mismatch_rejected(self, config):
        with pytest.raises(ConfigError):
            sweep_config(make_workload, [config], ["baseline"], values=[1, 2])

    def test_sweep_varies_results(self, config):
        """LOADLENGTH genuinely changes DFP behaviour on a stream: a
        longer burst means fewer burst-boundary faults."""
        configs = [config.replace(load_length=n) for n in (1, 8)]
        points = sweep_config(
            make_workload, configs, ["dfp-stop"], values=[1, 8]
        )
        short = points[0].results["dfp-stop"]
        long = points[1].results["dfp-stop"]
        assert long.stats.faults < short.stats.faults
        assert long.total_cycles < short.total_cycles

    def test_spec_sweep_hits_the_shared_cache_across_points(self):
        cache = shared_trace_cache()
        configs = [SimConfig.scaled(64).replace(load_length=n) for n in (1, 2, 4)]
        hits, misses = cache.hits, cache.misses
        sweep_config(
            WorkloadSpec("microbenchmark", 64), configs, ["baseline"], values=[1, 2, 4]
        )
        assert cache.misses - misses <= 1
        assert cache.hits - hits >= 2

    def test_repr_mentions_value(self, config):
        points = sweep_config(make_workload, [config], ["baseline"], values=["x"])
        assert "x" in repr(points[0])

    def test_non_sip_sweep_never_touches_the_profiler(self, config, monkeypatch):
        """The needs_sip check is hoisted into sweep_config: a DFP-only
        sweep (Fig. 6 style) must not run a single profiling pass."""
        import repro.sim.sweep as sweep_mod

        def boom(*_args, **_kwargs):
            raise AssertionError("profiler invoked for a non-SIP sweep")

        monkeypatch.setattr(sweep_mod, "profile_workload", boom)
        configs = [config.replace(load_length=n) for n in (2, 4)]
        points = sweep_config(
            make_workload, configs, ["baseline", "dfp-stop"], values=[2, 4]
        )
        assert len(points) == 2

    def test_sip_sweep_profiles_once_across_points(self, config, monkeypatch):
        """A non-SIP-parameter sweep shares one profiling run (and one
        plan) across every point instead of recompiling per point."""
        import repro.sim.sweep as sweep_mod

        calls = []
        real = sweep_mod.profile_workload

        def counting(workload, cfg, **kwargs):
            calls.append(workload.name)
            return real(workload, cfg, **kwargs)

        monkeypatch.setattr(sweep_mod, "profile_workload", counting)
        configs = [config.replace(load_length=n) for n in (2, 4, 8)]
        points = sweep_config(
            make_workload, configs, ["sip"], values=[2, 4, 8]
        )
        assert len(calls) == 1
        plans = {p.results["sip"].sip_points for p in points}
        assert len(plans) == 1

    def test_threshold_sweep_shares_the_profile(self, config, monkeypatch):
        """A Figure 9 threshold sweep re-decides instrumentation per
        threshold but profiles exactly once."""
        import repro.sim.sweep as sweep_mod

        calls = []
        real = sweep_mod.profile_workload

        def counting(workload, cfg, **kwargs):
            calls.append(workload.name)
            return real(workload, cfg, **kwargs)

        monkeypatch.setattr(sweep_mod, "profile_workload", counting)
        configs = [config.replace(sip_threshold=t) for t in (0.01, 0.05, 0.5)]
        sweep_config(make_workload, configs, ["sip"], values=[0.01, 0.05, 0.5])
        assert len(calls) == 1


class TestSweepProgress:
    def test_callback_receives_one_tick_per_point(self, config):
        ticks = []
        configs = [config.replace(load_length=n) for n in (2, 4)]
        sweep_config(
            make_workload,
            configs,
            ["baseline"],
            values=[2, 4],
            progress=ticks.append,
        )
        assert [(t.completed, t.total, t.label) for t in ticks] == [
            (1, 2, 2),
            (2, 2, 4),
        ]
        assert all(t.elapsed_s >= 0 for t in ticks)
        assert ticks[-1].eta_s == 0.0
        assert ticks[0].fraction == 0.5

    def test_render_is_one_line(self):
        tick = SweepProgress(
            completed=1, total=4, label="load_length=2", elapsed_s=1.5, eta_s=4.5
        )
        line = tick.render()
        assert "\n" not in line
        assert "[1/4]" in line
        assert "load_length=2" in line
        assert "25%" in line

    def test_first_tick_eta_guards_zero_duration(self):
        """A first point faster than the clock's resolution must not
        extrapolate a hard 0.0 ETA for the rest of the sweep."""
        tick = SweepProgress.tick(completed=1, total=5, label=0, elapsed_s=0.0)
        assert tick.eta_s > 0.0
        assert tick.eta_s < 1.0  # the clamp is an epsilon, not a guess

    def test_tick_eta_zero_only_when_done(self):
        done = SweepProgress.tick(completed=5, total=5, label=4, elapsed_s=0.0)
        assert done.eta_s == 0.0

    def test_tick_with_nothing_completed_has_no_estimate(self):
        tick = SweepProgress.tick(completed=0, total=5, label=None, elapsed_s=0.1)
        assert tick.eta_s == float("inf")

    def test_tick_extrapolates_linearly(self):
        tick = SweepProgress.tick(completed=2, total=6, label=1, elapsed_s=3.0)
        assert tick.eta_s == pytest.approx(6.0)

    def test_render_omits_health_segment_when_all_is_well(self):
        tick = SweepProgress(
            completed=1, total=4, label="load_length=2", elapsed_s=1.5, eta_s=4.5
        )
        assert "health" not in tick.render()

    def test_render_shows_health_segment_once_something_went_wrong(self):
        tick = SweepProgress(
            completed=1, total=4, label="load_length=2", elapsed_s=1.5,
            eta_s=4.5, retries=2, timeouts=1, faults=3,
        )
        line = tick.render()
        assert "[health: 2 retries, 1 timeout(s), 3 fault(s)]" in line

    def test_ticks_carry_cumulative_health_under_faults(self):
        from repro.robust import (
            ExecutionPolicy,
            FaultKind,
            FaultPlan,
            RetryPolicy,
        )
        from repro.sim.parallel import WorkloadSpec

        base = SimConfig.scaled(64)
        configs = [base.replace(load_length=n) for n in (1, 4)]
        ticks = []
        sweep_config(
            WorkloadSpec("microbenchmark", 64),
            configs,
            ["dfp-stop"],
            values=[1, 4],
            policy=ExecutionPolicy(
                retry=RetryPolicy(max_attempts=2, base_delay=0.01),
                fault_plan=FaultPlan.script({(0, 1): FaultKind.CRASH}),
            ),
            progress=ticks.append,
        )
        assert [(t.retries, t.faults) for t in ticks] == [(1, 1), (1, 1)]
        assert "health" in ticks[-1].render()

    def test_progress_does_not_change_results(self, config):
        configs = [config.replace(load_length=4)]
        quiet = sweep_config(make_workload, configs, ["dfp-stop"], values=[4])
        noisy = sweep_config(
            make_workload,
            configs,
            ["dfp-stop"],
            values=[4],
            progress=lambda tick: None,
        )
        assert (
            quiet[0].results["dfp-stop"].total_cycles
            == noisy[0].results["dfp-stop"].total_cycles
        )
