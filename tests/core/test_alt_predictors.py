"""Unit tests for the ablation predictors."""

import pytest

from repro.core.alt_predictors import (
    MarkovPredictor,
    NextLinePredictor,
    StridePredictor,
)
from repro.errors import ConfigError


class TestNextLine:
    def test_always_prefetches(self):
        p = NextLinePredictor(4)
        assert p.on_fault(10) == [11, 12, 13, 14]
        assert p.on_fault(500) == [501, 502, 503, 504]

    def test_invalid_length_rejected(self):
        with pytest.raises(ConfigError):
            NextLinePredictor(0)

    def test_negative_page_rejected(self):
        with pytest.raises(ConfigError):
            NextLinePredictor(4).on_fault(-1)


class TestStride:
    def test_needs_two_confirmations(self):
        p = StridePredictor(4)
        assert p.on_fault(10) == []  # no history
        assert p.on_fault(12) == []  # first delta seen
        assert p.on_fault(14) == [16, 18, 20, 22]  # confirmed stride 2

    def test_unit_stride(self):
        p = StridePredictor(2)
        p.on_fault(5)
        p.on_fault(6)
        assert p.on_fault(7) == [8, 9]

    def test_negative_stride(self):
        p = StridePredictor(2)
        p.on_fault(100)
        p.on_fault(98)
        assert p.on_fault(96) == [94, 92]

    def test_broken_stride_resets_confirmation(self):
        p = StridePredictor(4)
        p.on_fault(10)
        p.on_fault(12)
        p.on_fault(14)
        assert p.on_fault(500) == []  # pattern broken
        assert p.on_fault(502) == []  # new delta, unconfirmed

    def test_interleaved_streams_defeat_it(self):
        """The ablation's key point: alternating streams never show a
        stable global delta."""
        p = StridePredictor(4)
        for a, b in zip(range(0, 50), range(1000, 1050)):
            assert p.on_fault(a) == []
            assert p.on_fault(b) == []
        assert p.stream_hits == 0

    def test_huge_jumps_ignored(self):
        p = StridePredictor(4, max_stride=64)
        p.on_fault(0)
        p.on_fault(10_000)
        p.on_fault(20_000)
        assert p.stream_hits == 0

    def test_no_negative_pages_in_burst(self):
        p = StridePredictor(4)
        p.on_fault(6)
        p.on_fault(4)
        burst = p.on_fault(2)
        assert all(page >= 0 for page in burst)

    def test_reset(self):
        p = StridePredictor(4)
        p.on_fault(10)
        p.on_fault(12)
        p.reset()
        assert p.on_fault(14) == []


class TestMarkov:
    def test_learns_repeating_chain(self):
        p = MarkovPredictor(2)
        chain = [5, 900, 33, 5, 900, 33]
        bursts = [p.on_fault(page) for page in chain]
        # Second time around, each page predicts its recorded successor.
        assert 900 in bursts[3]
        assert 33 in bursts[4]

    def test_no_prediction_without_history(self):
        p = MarkovPredictor(4)
        assert p.on_fault(1) == []
        assert p.on_fault(2) == []  # transition learned, none known for 2

    def test_most_recent_successor_first(self):
        # Learned transitions: 5->10 then later 5->20; the more recent
        # one must be predicted first.
        p = MarkovPredictor(1)
        for page in (5, 10, 99, 5, 20, 99):
            p.on_fault(page)
        burst = p.on_fault(5)
        assert burst == [20]

    def test_table_bounded(self):
        p = MarkovPredictor(2, table_size=4)
        for page in range(100):
            p.on_fault(page)
        assert len(p._table) <= 4

    def test_successor_list_bounded(self):
        p = MarkovPredictor(8, successors_per_page=2)
        for successor in (10, 20, 30, 40):
            p.on_fault(1)
            p.on_fault(successor)
        burst = p.on_fault(1)
        assert len(burst) <= 2

    def test_reset(self):
        p = MarkovPredictor(2)
        for page in (5, 9, 5, 9):
            p.on_fault(page)
        p.reset()
        assert p.on_fault(5) == []

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"load_length": 0},
            {"load_length": 2, "table_size": 0},
            {"load_length": 2, "successors_per_page": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            MarkovPredictor(**kwargs)


class TestDfpIntegration:
    """All three drop into the DFP engine unchanged."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: NextLinePredictor(4),
            lambda: StridePredictor(4),
            lambda: MarkovPredictor(4),
        ],
    )
    def test_pluggable_into_engine(self, factory):
        from repro.core.config import SimConfig
        from repro.core.dfp import DfpEngine

        engine = DfpEngine(SimConfig(), predictor=factory())
        for page in (10, 11, 12, 13):
            burst = engine.on_fault(page)
            assert isinstance(burst, list)
