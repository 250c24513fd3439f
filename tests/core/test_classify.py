"""Unit tests for the Class 1/2/3 access classifier (Section 4.4)."""

import pytest

from repro.core.classify import AccessClass, StreamClassifier
from repro.errors import ConfigError


def make(window=16, stream_list_length=4, load_length=4):
    return StreamClassifier(
        window=window,
        stream_list_length=stream_list_length,
        load_length=load_length,
    )


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 0},
            {"window": 8, "stream_list_length": 0},
            {"window": 8, "load_length": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            StreamClassifier(**kwargs)

    def test_negative_page_rejected(self):
        with pytest.raises(ConfigError):
            make().classify(-1)


class TestClass1:
    def test_repeated_page_is_class1(self):
        c = make()
        c.classify(5)
        assert c.classify(5) is AccessClass.CLASS1

    def test_window_eviction_forgets_old_pages(self):
        c = make(window=2)
        c.classify(1)
        c.classify(100)
        c.classify(200)  # 1 falls out of the 2-entry window
        assert c.classify(1) is AccessClass.CLASS3

    def test_recency_refresh_keeps_hot_page(self):
        c = make(window=2)
        c.classify(1)
        c.classify(100)
        c.classify(1)  # refresh
        c.classify(200)  # evicts 100, not 1
        assert c.classify(1) is AccessClass.CLASS1


class TestClass2:
    def test_sequential_successor_is_class2(self):
        c = make()
        c.classify(10)
        assert c.classify(11) is AccessClass.CLASS2

    def test_windowed_successor_is_class2(self):
        c = make(load_length=4)
        c.classify(10)
        assert c.classify(15) is AccessClass.CLASS2  # within window 5

    def test_beyond_window_is_class3(self):
        c = make(load_length=4)
        c.classify(10)
        assert c.classify(16) is AccessClass.CLASS3

    def test_class1_takes_precedence_over_class2(self):
        """A recently touched page is 'in EPC with high probability'
        even if it also continues a stream."""
        c = make()
        c.classify(10)
        c.classify(11)
        c.classify(10)
        assert c.classify(11) is AccessClass.CLASS1

    def test_class1_access_still_extends_its_stream(self):
        """A recent page that extends a stream moves the stream's tail
        to it, so the next page past it is Class 2."""
        c = make(stream_list_length=1)
        c.classify(14)
        c.classify(10)  # recycles the one stream to tail 10
        assert c.classify(14) is AccessClass.CLASS1  # extends it to 14
        assert c.classify(19) is AccessClass.CLASS2


class TestClass3:
    def test_cold_random_page_is_class3(self):
        c = make()
        assert c.classify(1000) is AccessClass.CLASS3

    def test_class3_seeds_a_stream(self):
        c = make()
        c.classify(1000)
        assert c.classify(1001) is AccessClass.CLASS2


class TestSequences:
    def test_pure_scan_is_class2_dominated(self):
        c = make(window=8)
        counts = c.classify_trace(list(range(100)))
        assert counts[AccessClass.CLASS2] >= 98
        assert counts[AccessClass.CLASS3] <= 1

    def test_hot_loop_is_class1_dominated(self):
        c = make(window=8)
        counts = c.classify_trace([1, 2, 3, 4] * 25)
        assert counts[AccessClass.CLASS1] >= 90

    def test_cold_scatter_is_class3_dominated(self):
        c = make(window=4, stream_list_length=2)
        pages = [i * 1000 for i in range(100)]
        counts = c.classify_trace(pages)
        assert counts[AccessClass.CLASS3] >= 95

    def test_classify_trace_counts_sum(self):
        c = make()
        counts = c.classify_trace(list(range(50)))
        assert sum(counts.values()) == 50
