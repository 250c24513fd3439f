"""Unit tests for the DFP engine: counters and the safety valve."""

import pytest

from repro.core.config import SimConfig
from repro.core.dfp import DfpEngine
from repro.errors import ConfigError


def make(valve=True, slack=10, ratio=0.5):
    return DfpEngine(
        SimConfig(valve_enabled=valve, valve_slack=slack, valve_ratio=ratio)
    )


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stream_list_length": 0},
            {"load_length": 0},
            {"valve_slack": -1},
            {"valve_ratio": 0.0},
            {"valve_ratio": 1.1},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            DfpEngine(SimConfig(**kwargs))

    def test_predictor_reads_the_sim_config(self):
        engine = DfpEngine(
            SimConfig(stream_list_length=3, load_length=2, track_backward_streams=True)
        )
        assert engine.predictor.length == 3
        assert engine.predictor.load_length == 2
        engine.on_fault(10)
        assert engine.on_fault(9) == [8, 7]  # a descending stream


class TestFaultHook:
    def test_burst_flows_through(self):
        engine = make()
        engine.on_fault(10)
        assert engine.on_fault(11) == [12, 13, 14, 15]

    def test_stopped_engine_returns_empty(self):
        engine = make(slack=0)
        engine.preload_counter = 100
        assert engine.check_valve()
        engine.on_fault(10)
        assert engine.on_fault(11) == []

    def test_stopped_engine_still_observes(self):
        """The fault handler runs regardless; history keeps updating."""
        engine = make(slack=0)
        engine.preload_counter = 100
        engine.check_valve()
        engine.on_fault(10)
        engine.on_fault(11)
        assert engine.predictor.stream_hits == 1


class TestValve:
    def test_paper_formula_shape(self):
        """Stops exactly when acc + slack < ratio * preload."""
        engine = make(slack=10, ratio=0.5)
        engine.preload_counter = 40
        engine.acc_preload_counter = 10
        assert not engine.check_valve()  # 10 + 10 = 20 >= 20
        engine.preload_counter = 41
        assert engine.check_valve()  # 20 < 20.5

    def test_stop_is_permanent(self):
        engine = make(slack=0)
        engine.preload_counter = 100
        assert engine.check_valve()
        engine.acc_preload_counter = 1000  # even if accuracy recovers
        assert not engine.check_valve()  # no second firing
        assert not engine.active

    def test_disabled_valve_never_fires(self):
        engine = make(valve=False, slack=0)
        engine.preload_counter = 10**6
        assert not engine.check_valve()
        assert engine.active

    def test_counters_accumulate(self):
        engine = make()
        engine.note_preload_completed()
        engine.note_preload_completed()
        engine.credit_accessed(1)
        engine.note_aborted(3)
        assert engine.preload_counter == 2
        assert engine.acc_preload_counter == 1
        assert engine.aborted_preloads == 3
