"""Property-based tests: classifier invariants."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify import AccessClass, StreamClassifier

pages_lists = st.lists(
    st.integers(min_value=0, max_value=5_000), min_size=1, max_size=300
)


@given(pages_lists)
@settings(max_examples=150)
def test_every_access_gets_exactly_one_class(pages):
    c = StreamClassifier(window=16)
    counts = c.classify_trace(list(pages))
    assert sum(counts.values()) == len(pages)


@given(pages_lists)
@settings(max_examples=150)
def test_immediate_repeat_is_class1(pages):
    """Touching the same page twice in a row is always Class 1."""
    c = StreamClassifier(window=16)
    prev = None
    for page in pages:
        cls = c.classify(page)
        if prev is not None and page == prev:
            assert cls is AccessClass.CLASS1
        prev = page


@given(pages_lists)
@settings(max_examples=150)
def test_deterministic(pages):
    a = StreamClassifier(window=16)
    b = StreamClassifier(window=16)
    for page in pages:
        assert a.classify(page) is b.classify(page)


@given(st.integers(min_value=1, max_value=64), pages_lists)
@settings(max_examples=100)
def test_larger_window_never_decreases_class1(window, pages):
    """Monotonicity: growing the recency window can only move accesses
    *into* Class 1 (the window is the EPC-residency proxy)."""
    small = StreamClassifier(window=window)
    large = StreamClassifier(window=window * 2)
    small_counts = small.classify_trace(list(pages))
    large_counts = large.classify_trace(list(pages))
    assert large_counts[AccessClass.CLASS1] >= small_counts[AccessClass.CLASS1]


class _TailListClassifier:
    """The classifier with its own list of stream tails, before it
    replayed the DFP predictor: the oracle.

    A page in the recency window is Class 1, else Class 2 when it lands
    within ``LOADLENGTH + 1`` pages above a tail, else Class 3.  A match
    moves its stream to the head with the page as its tail; a page that
    is neither recent nor a match seeds a stream, recycling the least
    recently used one when the list is full.
    """

    def __init__(self, *, window, stream_list_length, load_length):
        self._window = window
        self._length = stream_list_length
        self._match_window = load_length + 1
        self._recent = OrderedDict()
        self._tails = []

    def classify(self, page):
        was_recent = page in self._recent
        index = next(
            (
                i
                for i, tail in enumerate(self._tails)
                if 0 < page - tail <= self._match_window
            ),
            None,
        )
        if was_recent:
            result = AccessClass.CLASS1
        elif index is not None:
            result = AccessClass.CLASS2
        else:
            result = AccessClass.CLASS3
        if index is not None:
            self._tails.insert(0, self._tails.pop(index))
            self._tails[0] = page
        elif not was_recent:
            if len(self._tails) >= self._length:
                self._tails.pop()
            self._tails.insert(0, page)
        if was_recent:
            self._recent.move_to_end(page)
        else:
            self._recent[page] = None
            if len(self._recent) > self._window:
                self._recent.popitem(last=False)
        return result


def _walk(args):
    moves, cursors = args
    cursors = list(cursors)
    pages = []
    for cursor, step in moves:
        cursors[cursor] = max(0, cursors[cursor] + step)
        pages.append(cursors[cursor])
    return pages


#: Page runs of two kinds.  Four interleaved cursors over a small page
#: range: short steps either way make sequential runs, revisits and
#: overlapping streams; long jumps make irregular accesses.  Ascending
#: scans of overlapping segments: a scan that re-enters pages it
#: touched recently extends its stream through them.
_runs = st.one_of(
    st.tuples(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.one_of(
                    st.integers(min_value=-6, max_value=7),
                    st.integers(min_value=-60, max_value=60),
                ),
            ),
            min_size=1,
            max_size=300,
        ),
        st.lists(st.integers(min_value=0, max_value=60), min_size=4, max_size=4),
    ).map(_walk),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=80), st.integers(min_value=1, max_value=24)
        ),
        min_size=1,
        max_size=12,
    ).map(lambda segments: [p for start, n in segments for p in range(start, start + n)]),
)


@given(
    _runs,
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=200)
def test_classifier_matches_the_tail_list_reference(pages, window, length, load_length):
    """Replaying the predictor gives the class the tail list gave, on
    every access."""
    fast = StreamClassifier(
        window=window, stream_list_length=length, load_length=load_length
    )
    oracle = _TailListClassifier(
        window=window, stream_list_length=length, load_length=load_length
    )
    for page in pages:
        assert fast.classify(page) is oracle.classify(page)
