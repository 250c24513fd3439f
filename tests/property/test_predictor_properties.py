"""Property-based tests: multiple-stream predictor invariants."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predictor import MultiStreamPredictor, StreamEntry

fault_streams = st.lists(
    st.integers(min_value=0, max_value=10_000), min_size=1, max_size=300
)
lengths = st.integers(min_value=1, max_value=16)
load_lengths = st.integers(min_value=1, max_value=16)


@given(fault_streams, lengths, load_lengths)
@settings(max_examples=150)
def test_stream_list_bounded(pages, length, load_length):
    p = MultiStreamPredictor(length, load_length)
    for page in pages:
        p.on_fault(page)
    assert len(p.streams) <= length


@given(fault_streams, lengths, load_lengths)
@settings(max_examples=150)
def test_burst_size_and_contents(pages, length, load_length):
    """Every burst has exactly load_length pages, all non-negative,
    strictly ahead of the faulting page, consecutive."""
    p = MultiStreamPredictor(length, load_length)
    for page in pages:
        burst = p.on_fault(page)
        if burst:
            assert len(burst) <= load_length
            assert all(q > page for q in burst)
            assert burst == list(range(page + 1, page + 1 + len(burst)))


@given(fault_streams, lengths, load_lengths)
@settings(max_examples=150)
def test_hits_plus_misses_equals_faults(pages, length, load_length):
    p = MultiStreamPredictor(length, load_length)
    for page in pages:
        p.on_fault(page)
    assert p.stream_hits + p.stream_misses == len(pages)


@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=2, max_value=50))
@settings(max_examples=50)
def test_pure_sequence_hits_after_warmup(start, count):
    """A strictly sequential fault stream misses exactly once."""
    p = MultiStreamPredictor(8, 4)
    for page in range(start, start + count):
        p.on_fault(page)
    assert p.stream_misses == 1
    assert p.stream_hits == count - 1


@given(fault_streams)
@settings(max_examples=100)
def test_deterministic(pages):
    a = MultiStreamPredictor(8, 4)
    b = MultiStreamPredictor(8, 4)
    for page in pages:
        assert a.on_fault(page) == b.on_fault(page)


class _ListWalkPredictor:
    """The list-walk predictor the multiset one replaced: the oracle.

    Each stream is a ``StreamEntry`` in an LRU list, most recently used
    first; every fault walks the list for the first stream it extends.
    """

    def __init__(self, length, load_length, *, track_backward=False):
        self._length = length
        self._load_length = load_length
        self._track_backward = track_backward
        self._streams = []
        self.stream_hits = 0
        self.stream_misses = 0
        self.stream_recycles = 0

    @property
    def streams(self):
        return tuple(StreamEntry(e.stpn, e.direction, e.hits) for e in self._streams)

    def counters(self):
        return {
            "stream_hits": self.stream_hits,
            "stream_misses": self.stream_misses,
            "stream_recycles": self.stream_recycles,
            "streams_active": len(self._streams),
        }

    def on_fault(self, npn):
        window = self._load_length + 1
        index = None
        for i, entry in enumerate(self._streams):
            if 0 < (npn - entry.stpn) * entry.direction <= window:
                index = i
                break
        if index is None and self._track_backward:
            for i, entry in enumerate(self._streams):
                if entry.hits == 0 and 0 < entry.stpn - npn <= window:
                    entry.direction = -1
                    index = i
                    break
        if index is not None:
            entry = self._streams.pop(index)
            entry.stpn = npn
            entry.hits += 1
            self._streams.insert(0, entry)
            self.stream_hits += 1
            burst = [npn + entry.direction * k for k in range(1, self._load_length + 1)]
            return [page for page in burst if page >= 0]
        self.stream_misses += 1
        if len(self._streams) >= self._length:
            self.stream_recycles += 1
            recycled = self._streams.pop()
            recycled.stpn = npn
            recycled.direction = 1
            recycled.hits = 0
            self._streams.insert(0, recycled)
        else:
            self._streams.insert(0, StreamEntry(stpn=npn))
        return []

    def reset(self):
        self._streams.clear()


#: Faults from four interleaved cursors over a small page range, each
#: moving by a short step either way: streams extend, interleave,
#: overlap (two streams in one window), collide on a tail, descend to
#: page 0 and get recycled.
_moves = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=-3, max_value=9)),
    min_size=10,
    max_size=200,
)


@given(
    _moves,
    _moves,
    st.lists(st.integers(min_value=0, max_value=60), min_size=4, max_size=4),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=6),
    st.booleans(),
)
@settings(max_examples=300)
def test_multiset_predictor_matches_the_list_walk(
    before, after, cursors, length, load_length, backward
):
    """Bursts, ``streams`` and counters equal the list walk's after every
    fault, and after a ``reset`` between two runs of faults."""
    fast = MultiStreamPredictor(length, load_length, track_backward=backward)
    oracle = _ListWalkPredictor(length, load_length, track_backward=backward)
    for moves in (before, after):
        for cursor, step in moves:
            page = cursors[cursor] = max(0, cursors[cursor] + step)
            assert fast.on_fault(page) == oracle.on_fault(page)
            assert fast.streams == oracle.streams
            assert fast.counters() == oracle.counters()
            # The miss probes read one key per stream, and no stale key.
            assert fast._key_count == Counter(s.direction * s.stpn for s in fast.streams)
        fast.reset()
        oracle.reset()
        assert fast.streams == oracle.streams == ()


@given(
    _moves,
    st.lists(st.integers(min_value=0, max_value=60), min_size=4, max_size=4),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=6),
    st.booleans(),
)
@settings(max_examples=300)
def test_extends_agrees_with_on_fault(moves, cursors, length, load_length, backward):
    """``extends(npn)`` is True exactly when ``on_fault(npn)`` extends a
    stream (counts a stream hit), and asking it changes no state."""
    p = MultiStreamPredictor(length, load_length, track_backward=backward)
    for cursor, step in moves:
        page = cursors[cursor] = max(0, cursors[cursor] + step)
        state = (p.streams, p.counters(), dict(p._key_count))
        extends = p.extends(page)
        assert (p.streams, p.counters(), dict(p._key_count)) == state
        hits = p.stream_hits
        p.on_fault(page)
        assert extends == (p.stream_hits == hits + 1)


def test_extends_sees_a_never_extended_stream_flip_to_descending():
    forward = MultiStreamPredictor(4, 4)
    forward.on_fault(10)
    assert not forward.extends(9)
    backward = MultiStreamPredictor(4, 4, track_backward=True)
    backward.on_fault(10)
    assert backward.extends(9)
    assert backward.on_fault(9) == [8, 7, 6, 5]
