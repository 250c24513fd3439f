"""Unit tests for the synthetic pattern generators."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads import synthetic as syn


def run(phase, seed=0, input_set="ref"):
    return list(phase(seed, input_set))


class TestDraws:
    @given(
        seed=st.integers(min_value=0, max_value=2**64),
        low=st.integers(min_value=-(2**40), max_value=2**40),
        width=st.integers(min_value=1, max_value=2**40),
        count=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_draws_equal_randrange(self, seed, low, width, count):
        """Each ``next()`` consumes the RNG as ``randrange`` would."""
        ours, reference = random.Random(seed), random.Random(seed)
        draws = syn._draws(ours, low, width)
        assert [next(draws) for _ in range(count)] == [
            reference.randrange(low, low + width) for _ in range(count)
        ]
        assert ours.getstate() == reference.getstate()


class TestSequential:
    def test_covers_range_in_order(self):
        events = run(syn.sequential(0, 10, 5, compute=100))
        assert [p for _i, p, _c in events] == [10, 11, 12, 13, 14]

    def test_passes_repeat(self):
        events = run(syn.sequential(0, 0, 4, compute=100, passes=3))
        assert len(events) == 12

    def test_compute_jitter_bounded(self):
        events = run(syn.sequential(0, 0, 100, compute=1000, jitter=100))
        assert all(900 <= c <= 1100 for _i, _p, c in events)

    def test_train_input_shorter(self):
        factory = syn.sequential(0, 0, 10, compute=100, passes=10)
        assert len(run(factory, input_set="train")) < len(run(factory))

    def test_invalid_region_rejected(self):
        with pytest.raises(WorkloadError):
            syn.sequential(0, -1, 5, compute=100)

    def test_invalid_passes_rejected(self):
        with pytest.raises(WorkloadError):
            syn.sequential(0, 0, 5, compute=100, passes=0)


class TestInterleavedStreams:
    def test_round_robin_order(self):
        phase = syn.interleaved_streams(
            [0, 1], [(0, 4), (100, 104)], compute=10, block=1
        )
        pages = [p for _i, p, _c in run(phase)]
        assert pages[:4] == [0, 100, 1, 101]

    def test_shorter_region_wraps(self):
        phase = syn.interleaved_streams(
            [0, 1], [(0, 2), (100, 104)], compute=10, block=1
        )
        pages = [p for i, p, _c in run(phase) if i == 0]
        assert pages == [0, 1, 0, 1]

    def test_noise_interspersed(self):
        phase = syn.interleaved_streams(
            [0],
            [(0, 200)],
            compute=10,
            noise_instr=9,
            noise_rate=0.5,
            noise_region=(500, 600),
        )
        events = run(phase)
        noise = [p for i, p, _c in events if i == 9]
        assert noise
        assert all(500 <= p < 600 for p in noise)

    def test_strides_skip_pages(self):
        phase = syn.interleaved_streams(
            [0], [(0, 8)], compute=10, strides=(2,)
        )
        pages = [p for _i, p, _c in run(phase)]
        assert pages == [0, 2, 4, 6, 0, 2, 4, 6]

    def test_rounds_multiply_length(self):
        one = run(syn.interleaved_streams([0], [(0, 8)], compute=10, rounds=1))
        three = run(syn.interleaved_streams([0], [(0, 8)], compute=10, rounds=3))
        assert len(three) == 3 * len(one)

    def test_mismatched_instrs_rejected(self):
        with pytest.raises(WorkloadError):
            syn.interleaved_streams([0], [(0, 4), (4, 8)], compute=10)

    def test_noise_without_region_rejected(self):
        with pytest.raises(WorkloadError):
            syn.interleaved_streams(
                [0], [(0, 4)], compute=10, noise_rate=0.1, noise_instr=1
            )


class TestUniformRandom:
    def test_stays_in_region(self):
        phase = syn.uniform_random([0], 100, 200, 500, compute=10)
        assert all(100 <= p < 200 for _i, p, _c in run(phase))

    @pytest.mark.parametrize("generator", [syn.uniform_random, syn.zipf_random])
    @pytest.mark.parametrize("run_length", [(1, 1), (2, 2), (5, 5), (3, 7)])
    def test_runs_wrap_inside_region(self, generator, run_length):
        """A run longer than its region wraps, and stays inside it."""
        phase = generator([0], 10, 12, 40, compute=1, run_length=run_length)
        assert {p for _i, p, _c in run(phase)} <= {10, 11}

    def test_exact_count(self):
        phase = syn.uniform_random([0], 0, 100, 123, compute=10)
        assert len(run(phase)) == 123

    def test_runs_are_consecutive(self):
        phase = syn.uniform_random([0], 0, 10_000, 300, compute=10, run_length=(3, 3))
        pages = [p for _i, p, _c in run(phase)]
        for i in range(0, 297, 3):
            a, b, c = pages[i : i + 3]
            # runs may wrap at the region edge
            assert (b - a) % 10_000 == 1 and (c - b) % 10_000 == 1

    def test_multi_run_prob_zero_means_singletons(self):
        phase = syn.uniform_random(
            [0], 0, 10_000, 400, compute=10, run_length=(2, 4), multi_run_prob=0.0
        )
        pages = [p for _i, p, _c in run(phase)]
        consecutive = sum(1 for a, b in zip(pages, pages[1:]) if b - a == 1)
        assert consecutive <= 4  # only chance adjacency

    def test_instr_pool_round_robin(self):
        phase = syn.uniform_random([7, 8, 9], 0, 100, 9, compute=10)
        instrs = [i for i, _p, _c in run(phase)]
        assert set(instrs) == {7, 8, 9}

    def test_determinism(self):
        phase = syn.uniform_random([0], 0, 1000, 100, compute=10)
        assert run(phase, seed=5) == run(phase, seed=5)
        assert run(phase, seed=5) != run(phase, seed=6)


class TestZipfRandom:
    def test_skew_concentrates_touches(self):
        phase = syn.zipf_random(
            [0], 0, 1000, 5000, alpha=1.2, compute=10, shuffle_ranks=False
        )
        pages = [p for _i, p, _c in run(phase)]
        top = sum(1 for p in pages if p < 100)
        assert top > len(pages) * 0.5  # head gets most touches

    def test_shuffle_decorrelates_inputs(self):
        """Train and ref inputs share the skew but not the hot pages."""
        phase = syn.zipf_random([0], 0, 1000, 2000, alpha=1.2, compute=10)
        ref_hot = {p for _i, p, _c in run(phase, input_set="ref")}
        train_hot = {p for _i, p, _c in run(phase, input_set="train")}
        assert ref_hot != train_hot

    def test_invalid_alpha_rejected(self):
        with pytest.raises(WorkloadError):
            syn.zipf_random([0], 0, 100, 10, alpha=0, compute=10)

    def test_stays_in_region(self):
        phase = syn.zipf_random([0], 50, 150, 500, compute=10)
        assert all(50 <= p < 150 for _i, p, _c in run(phase))


class TestHotLoop:
    def test_cycles_over_pages(self):
        phase = syn.hot_loop(0, [5, 6], 6, compute=10)
        assert [p for _i, p, _c in run(phase)] == [5, 6, 5, 6, 5, 6]

    def test_empty_pages_rejected(self):
        with pytest.raises(WorkloadError):
            syn.hot_loop(0, [], 5, compute=10)


class TestCombinators:
    def test_concat_runs_in_order(self):
        phase = syn.concat(
            syn.sequential(0, 0, 2, compute=10),
            syn.sequential(1, 10, 2, compute=10),
        )
        pages = [p for _i, p, _c in run(phase)]
        assert pages == [0, 1, 10, 11]

    def test_interleave_phases_mixes(self):
        phase = syn.interleave_phases(
            [syn.sequential(0, 0, 4, compute=10), syn.sequential(1, 10, 4, compute=10)],
            chunk=1,
        )
        instrs = [i for i, _p, _c in run(phase)]
        assert instrs == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_interleave_weighted_chunks(self):
        phase = syn.interleave_phases(
            [syn.sequential(0, 0, 6, compute=10), syn.sequential(1, 10, 2, compute=10)],
            chunk=[3, 1],
        )
        instrs = [i for i, _p, _c in run(phase)]
        assert instrs == [0, 0, 0, 1, 0, 0, 0, 1]

    def test_interleave_drains_uneven_phases(self):
        phase = syn.interleave_phases(
            [syn.sequential(0, 0, 10, compute=10), syn.sequential(1, 10, 2, compute=10)],
            chunk=1,
        )
        events = run(phase)
        assert len(events) == 12

    def test_chunk_count_mismatch_rejected(self):
        with pytest.raises(WorkloadError):
            syn.interleave_phases(
                [syn.sequential(0, 0, 2, compute=10)], chunk=[1, 2]
            )
