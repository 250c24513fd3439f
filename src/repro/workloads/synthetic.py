"""Reusable access-pattern generators.

Benchmark models are assembled from a small vocabulary of page-level
patterns, mirroring how the paper characterizes its workloads
(Table 1, Figure 3):

* :func:`sequential` — one linear scan (the *bwaves*/*lbm* signature);
* :func:`interleaved_streams` — several concurrent linear scans, the
  pattern multi-array stencil codes produce and the reason the DFP
  predictor tracks *multiple* streams;
* :func:`uniform_random` — irregular touches spread uniformly over a
  region, optionally in short sequential runs (real irregular codes
  touch a few consecutive pages per object);
* :func:`zipf_random` — irregular touches with a hot/cold skew, the
  signature of pointer-heavy codes whose hot structures stay resident;
* :func:`hot_loop` — repeated touches of a small fixed set.

Every generator is a *factory*: it returns a phase callable taking
``(seed, input_set)`` and yielding ``(instruction, page,
compute_cycles)`` tuples.  Determinism: the phase RNG is seeded from
``(seed, salt, input_set)``, so the same workload replays identically
and the train/ref inputs differ in content but not in structure.
``train`` phases emit ``train_fraction`` of the ref event count.

Integer draws go through :func:`_draws`, which consumes the RNG exactly
as ``Random.randrange`` and ``Random.randint`` do, draw for draw, but
without a method call and argument checks per event.  Trace bytes
therefore rest on two things: the seeding above, and drawing in the
same order with the same rejection loop as those methods.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Iterator, List, Sequence, Tuple

from repro.errors import WorkloadError
from repro.workloads.base import PhaseFactory, TraceEvent

__all__ = [
    "sequential",
    "interleaved_streams",
    "uniform_random",
    "zipf_random",
    "hot_loop",
    "concat",
    "interleave_phases",
    "phase_rng",
]

#: Fraction of the ref event count emitted under the ``train`` input.
TRAIN_FRACTION = 0.3


def phase_rng(seed: int, salt: int, input_set: str) -> random.Random:
    """Deterministic RNG for one phase of one run."""
    return random.Random(f"{seed}/{salt}/{input_set}")


def _scaled_count(count: int, input_set: str) -> int:
    if input_set == "train":
        return max(1, int(count * TRAIN_FRACTION))
    return count


def _check_region(lo: int, hi: int) -> None:
    if lo < 0 or hi <= lo:
        raise WorkloadError(f"invalid page region [{lo}, {hi})")


def _draws(rng: random.Random, low: int, width: int) -> Iterator[int]:
    """Endless ``rng.randrange(low, low + width)`` values, one per ``next()``.

    CPython (3.10 through 3.13) computes ``randrange(a, b)`` as ``a +
    _randbelow(b - a)``, and ``_randbelow(n)`` draws ``getrandbits(k)``,
    with ``k = n.bit_length()``, until the value is below ``n``;
    ``randint(a, b)`` is ``randrange(a, b + 1)``.  This runs that loop,
    so each ``next()`` consumes the RNG exactly as the call it replaces,
    and draws only when it is called.
    """
    getrandbits = rng.getrandbits
    bits = width.bit_length()
    while True:
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        yield low + r


def _jittered(rng: random.Random, compute: int, jitter: int) -> Iterator[int]:
    """Endless per-event compute cycles, uniform over ``compute ± jitter``."""
    if jitter <= 0:
        return itertools.repeat(compute)
    return _draws(rng, compute - jitter, 2 * jitter + 1)


def _check_runs(run_length: Tuple[int, int], multi_run_prob: "float | None") -> None:
    run_lo, run_hi = run_length
    if run_lo <= 0 or run_hi < run_lo:
        raise WorkloadError(f"invalid run_length {run_length}")
    if multi_run_prob is not None and not 0.0 <= multi_run_prob <= 1.0:
        raise WorkloadError(f"multi_run_prob must be in [0, 1], got {multi_run_prob}")


def _run_lengths(
    rng: random.Random,
    run_length: Tuple[int, int],
    multi_run_prob: "float | None",
) -> Iterator[int]:
    """Endless lengths of sequential micro-runs, one per ``next()``.

    With ``multi_run_prob`` unset, uniform over ``run_length``.  When
    set, most touches are singletons and a run of 2..max pages starts
    with that probability — the sparse short-run structure that makes
    irregular codes occasionally look sequential to the DFP detector.
    """
    run_lo, run_hi = run_length
    if multi_run_prob is None:
        if run_lo == run_hi:
            return itertools.repeat(run_lo)
        return _draws(rng, run_lo, run_hi - run_lo + 1)
    if run_hi < 2:
        return itertools.repeat(1)
    random = rng.random
    multi = _draws(rng, 2, run_hi - 1)
    return (1 if random() >= multi_run_prob else next(multi) for _ in itertools.count())


def sequential(
    instr: int,
    start: int,
    npages: int,
    *,
    compute: int,
    jitter: int = 0,
    passes: int = 1,
    salt: int = 0,
) -> PhaseFactory:
    """One instruction scanning ``npages`` pages linearly, ``passes`` times."""
    _check_region(start, start + npages)
    if passes <= 0:
        raise WorkloadError(f"passes must be positive, got {passes}")

    def phase(seed: int, input_set: str) -> Iterator[TraceEvent]:
        cycles = _jittered(phase_rng(seed, salt, input_set), compute, jitter)
        reps = passes if input_set == "ref" else max(1, int(passes * TRAIN_FRACTION))
        for _ in range(reps):
            for page in range(start, start + npages):
                yield (instr, page, next(cycles))

    return phase


def interleaved_streams(
    instrs: Sequence[int],
    regions: Sequence[Tuple[int, int]],
    *,
    compute: int,
    jitter: int = 0,
    block: int = 1,
    noise_instr: "int | None" = None,
    noise_rate: float = 0.0,
    noise_region: "Tuple[int, int] | None" = None,
    rounds: int = 1,
    strides: "Sequence[int] | None" = None,
    salt: int = 0,
) -> PhaseFactory:
    """Several linear scans advancing in lockstep (stencil signature).

    ``regions`` are half-open page ranges, one per stream; each stream
    has its own instruction id from ``instrs``.  The scans advance
    ``block`` pages at a time in round-robin order until the *longest*
    region is exhausted (shorter regions wrap around, as reused arrays
    do).  With ``noise_rate > 0``, uniformly random touches of
    ``noise_region`` are interspersed — the irregular residue that
    churns the DFP stream list in otherwise regular codes.

    ``strides`` (one per stream, default all 1) make a stream touch
    every ``stride``-th page — the access-with-gaps signature of
    array-of-struct sweeps.  A strided stream still looks sequential
    to the windowed detector, but next-page preloads for it are partly
    wasted, which is what separates the paper's mid-pack regular
    benchmarks from the perfectly dense microbenchmark.
    """
    if len(instrs) != len(regions):
        raise WorkloadError("one instruction id is required per stream")
    if not regions:
        raise WorkloadError("at least one stream region is required")
    for lo, hi in regions:
        _check_region(lo, hi)
    if block <= 0:
        raise WorkloadError(f"block must be positive, got {block}")
    if noise_rate and (noise_instr is None or noise_region is None):
        raise WorkloadError("noise requires noise_instr and noise_region")
    if noise_region is not None:
        _check_region(*noise_region)
    if rounds <= 0:
        raise WorkloadError(f"rounds must be positive, got {rounds}")
    stride_list = list(strides) if strides is not None else [1] * len(regions)
    if len(stride_list) != len(regions):
        raise WorkloadError("one stride is required per stream")
    if any(st <= 0 for st in stride_list):
        raise WorkloadError(f"strides must be positive, got {stride_list}")

    def phase(seed: int, input_set: str) -> Iterator[TraceEvent]:
        rng = phase_rng(seed, salt, input_set)
        random = rng.random
        cycles = _jittered(rng, compute, jitter)
        if noise_rate:
            nlo, nhi = noise_region  # type: ignore[misc]
            noise_pages = _draws(rng, nlo, nhi - nlo)
        lengths = [hi - lo for lo, hi in regions]
        blocks_per_round = (max(lengths) + block - 1) // block
        total_blocks = _scaled_count(blocks_per_round * rounds, input_set)
        for blk in range(total_blocks):
            for sid, (lo, _hi) in enumerate(regions):
                length = lengths[sid]
                instr = instrs[sid]
                stride = stride_list[sid]
                for off in range(block):
                    page = lo + ((blk * block + off) * stride) % length
                    yield (instr, page, next(cycles))
                    if noise_rate and random() < noise_rate:
                        yield (noise_instr, next(noise_pages), next(cycles))  # type: ignore[misc]

    return phase


def uniform_random(
    instrs: Sequence[int],
    lo: int,
    hi: int,
    count: int,
    *,
    compute: int,
    jitter: int = 0,
    run_length: Tuple[int, int] = (1, 1),
    multi_run_prob: "float | None" = None,
    salt: int = 0,
) -> PhaseFactory:
    """Irregular touches uniform over ``[lo, hi)``.

    Each touch starts a short sequential run of ``run_length`` =
    ``(min, max)`` pages — real irregular codes (hash probes, graph
    edges, tree nodes) usually touch a couple of consecutive pages per
    object, and those micro-runs are what occasionally fools the DFP
    stream detector into a useless burst.  ``multi_run_prob`` makes
    multi-page runs sparse (see :func:`_pick_run`).  Instruction ids
    are drawn round-robin from ``instrs`` so the SIP profiler sees a
    stable per-site population.
    """
    _check_region(lo, hi)
    if count <= 0:
        raise WorkloadError(f"count must be positive, got {count}")
    _check_runs(run_length, multi_run_prob)
    if not instrs:
        raise WorkloadError("at least one instruction id is required")

    def phase(seed: int, input_set: str) -> Iterator[TraceEvent]:
        rng = phase_rng(seed, salt, input_set)
        region = hi - lo
        runs = _run_lengths(rng, run_length, multi_run_prob)
        starts = _draws(rng, lo, region)
        cycles = _jittered(rng, compute, jitter)
        remaining = _scaled_count(count, input_set)
        instr_cycle = itertools.cycle(instrs)
        while remaining > 0:
            run = min(next(runs), remaining)
            start = next(starts)
            instr = next(instr_cycle)
            for off in range(run):
                yield (instr, lo + (start - lo + off) % region, next(cycles))
            remaining -= run

    return phase


def _zipf_cdf(n: int, alpha: float) -> List[float]:
    """Cumulative Zipf(alpha) weights over ranks 1..n."""
    weights = [1.0 / (rank ** alpha) for rank in range(1, n + 1)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    return cdf


def zipf_random(
    instrs: Sequence[int],
    lo: int,
    hi: int,
    count: int,
    *,
    alpha: float = 0.9,
    compute: int,
    jitter: int = 0,
    run_length: Tuple[int, int] = (1, 1),
    multi_run_prob: "float | None" = None,
    shuffle_ranks: bool = True,
    salt: int = 0,
) -> PhaseFactory:
    """Irregular touches with a Zipf hot/cold skew over ``[lo, hi)``.

    Hot ranks map to pages through a per-input-set permutation when
    ``shuffle_ranks`` is set, so the *train* and *ref* inputs share the
    skew but not the identity of the hot pages — exactly the
    profile-vs-run divergence a PGO scheme must tolerate.
    """
    _check_region(lo, hi)
    if count <= 0:
        raise WorkloadError(f"count must be positive, got {count}")
    if alpha <= 0:
        raise WorkloadError(f"alpha must be positive, got {alpha}")
    _check_runs(run_length, multi_run_prob)
    if not instrs:
        raise WorkloadError("at least one instruction id is required")

    def phase(seed: int, input_set: str) -> Iterator[TraceEvent]:
        rng = phase_rng(seed, salt, input_set)
        random = rng.random
        region = hi - lo
        cdf = _zipf_cdf(region, alpha)
        ranked = list(range(lo, hi))  # the page of each rank
        if shuffle_ranks:
            rng.shuffle(ranked)
        cycles = _jittered(rng, compute, jitter)
        remaining = _scaled_count(count, input_set)
        instr_cycle = itertools.cycle(instrs)
        if run_length[1] == 1:
            # Single-page runs: every run length would be 1, drawn from nothing.
            for _ in range(remaining):
                page = ranked[bisect.bisect_left(cdf, random())]
                yield (next(instr_cycle), page, next(cycles))
            return
        runs = _run_lengths(rng, run_length, multi_run_prob)
        while remaining > 0:
            run = min(next(runs), remaining)
            start = ranked[bisect.bisect_left(cdf, random())]
            instr = next(instr_cycle)
            for off in range(run):
                yield (instr, lo + (start - lo + off) % region, next(cycles))
            remaining -= run

    return phase


def hot_loop(
    instr: int,
    pages: Sequence[int],
    count: int,
    *,
    compute: int,
    jitter: int = 0,
    salt: int = 0,
) -> PhaseFactory:
    """Repeated touches of a small fixed page set (resident hot data)."""
    if not pages:
        raise WorkloadError("hot_loop needs at least one page")
    if count <= 0:
        raise WorkloadError(f"count must be positive, got {count}")

    def phase(seed: int, input_set: str) -> Iterator[TraceEvent]:
        cycles = _jittered(phase_rng(seed, salt, input_set), compute, jitter)
        page_list = list(pages)
        n = len(page_list)
        for i in range(_scaled_count(count, input_set)):
            yield (instr, page_list[i % n], next(cycles))

    return phase


def concat(*factories: PhaseFactory) -> PhaseFactory:
    """Compose several phase factories into one sequential phase."""
    if not factories:
        raise WorkloadError("concat needs at least one phase")

    def phase(seed: int, input_set: str) -> Iterator[TraceEvent]:
        for factory in factories:
            yield from factory(seed, input_set)

    return phase


def interleave_phases(
    factories: Sequence[PhaseFactory],
    *,
    chunk: "int | Sequence[int]" = 64,
    salt: int = 0,
) -> PhaseFactory:
    """Round-robin interleaving of several phases.

    Models program phases that are logically concurrent (e.g. a scan
    instruction and an irregular lookup in the same loop body) rather
    than back-to-back.  ``chunk`` is the number of events taken from
    each phase per round; pass a sequence to give phases different
    weights (size the chunks proportionally to phase event counts to
    spread a sparse phase evenly across a dense one).
    """
    if not factories:
        raise WorkloadError("interleave_phases needs at least one phase")
    if isinstance(chunk, int):
        chunks = [chunk] * len(factories)
    else:
        chunks = list(chunk)
    if len(chunks) != len(factories):
        raise WorkloadError(
            f"{len(factories)} phases but {len(chunks)} chunk sizes"
        )
    if any(c <= 0 for c in chunks):
        raise WorkloadError(f"chunk sizes must be positive, got {chunks}")

    def phase(seed: int, input_set: str) -> Iterator[TraceEvent]:
        slots: List[Tuple[Iterator[TraceEvent], int]] = [
            (iter(factory(seed, input_set)), chunks[i])
            for i, factory in enumerate(factories)
        ]
        while slots:
            survivors: List[Tuple[Iterator[TraceEvent], int]] = []
            for it, take in slots:
                emitted = 0
                for event in it:
                    yield event
                    emitted += 1
                    if emitted >= take:
                        break
                if emitted >= take:
                    survivors.append((it, take))
            slots = survivors

    return phase
