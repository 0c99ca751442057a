from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedchain import fixedpoint, netsim, sharedring
from fedchain.errors import (
    AggregationShapeError,
    MaskShapeError,
    ModelTooSmallError,
    NodeNotFoundError,
    ReadyTimeCountError,
    TimeTravelError,
)
from conftest import split, uniform_links


def column_sum_oracle(vectors, parts):
    """Direct-summation reference: sum the raw vectors, then split."""
    total = np.sum(np.stack(vectors), axis=0)
    return split(total, parts)


# --- hop-by-hop reference of the ring ---------------------------------------
# `RingSession` sums the vectors in one column sum; these build the payloads
# and the sum one chunk and one hop at a time, for the tests to compare against.


def concat(chunks: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate(chunks)


def mask_own_chunk(chunks: Sequence[np.ndarray], position: int, noise: np.ndarray) -> list[np.ndarray]:
    """Add the private noise to the owner's chunk, leaving the rest untouched.

    Returns a new list that shares the untouched chunks with `chunks`; only
    the owner's entry is a new array."""
    if noise.shape != chunks[position].shape:
        raise MaskShapeError(
            f"noise length {noise.shape[0]} != chunk length {chunks[position].shape[0]}"
        )
    masked = list(chunks)
    masked[position] = chunks[position] + noise
    return masked


def unmask_own_sum(acc: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Strip the owner's noise from its accumulated chunk (exact in fixed point)."""
    return acc - noise


def ring_reduce_scatter(
    masked_splits: Sequence[Sequence[np.ndarray]],
    transcript: list[sharedring.TranscriptEntry] | None = None,
) -> list[np.ndarray]:
    """Accumulate each chunk slot around the ring, returning to its owner.

    Miner i's stream starts with its own noisy chunk; each of the other k-1
    miners adds its matching chunk as the stream passes, and the completed
    (still noisy) sum arrives back at miner i on the final hop. Returns, per
    miner, the accumulated own chunk: noise_i + sum over miners of chunk i.
    """
    k = len(masked_splits)
    if k == 1:
        return [masked_splits[0][0].copy()]
    accs: list[np.ndarray | None] = [None] * k
    for s in range(k):
        partial = masked_splits[s][s].copy()
        for hop in range(k):
            src, dst = (s + hop) % k, (s + hop + 1) % k
            if transcript is not None:
                transcript.append(
                    sharedring.TranscriptEntry(sharedring.REDUCE, hop, src, dst, s, partial.copy(), True)
                )
            if dst == s:
                accs[s] = partial.copy()
            else:
                partial = partial + masked_splits[dst][s]
    return accs


def walk_ring(vectors, masks=None):
    """Every message of a ring over `vectors` in stream-major order, and the
    sum, by walking each stream one hop at a time: the stream leaves its
    owner with the owner's (masked) chunk, each member it reaches adds its
    own chunk (or, back at the owner, strips the noise), and the finished
    sum then travels k - 1 gather hops. Returns `(messages, total)`."""
    k, masked = len(vectors), masks is not None
    if k == 1:
        return [], np.array(vectors[0])
    reduce, gather, sums = [], [], []
    for s, (a, b) in enumerate(sharedring.chunk_spans(len(vectors[0]), k)):
        pos, acc = s, vectors[s][a:b] + (masks[s] if masked else 0)
        for step in range(k if masked else k - 1):
            nxt = (pos + 1) % k
            reduce.append(
                sharedring.TranscriptEntry(sharedring.REDUCE, step, pos, nxt, s, acc, masked)
            )
            acc = acc - masks[s] if nxt == s else acc + vectors[nxt][a:b]
            pos = nxt
        sums.append(acc)
        for step in range(k - 1):
            nxt = (pos + 1) % k
            gather.append(
                sharedring.TranscriptEntry(sharedring.GATHER, step, pos, nxt, s, acc, False)
            )
            pos = nxt
    return reduce + gather, np.concatenate(sums)


def seeded_masks(vectors, noise_seed):
    """Member i's noise over its own chunk, drawn from seed `noise_seed + i`."""
    spans = sharedring.chunk_spans(vectors[0].shape[0], len(vectors))
    return [fixedpoint.generate_noise(b - a, noise_seed + i) for i, (a, b) in enumerate(spans)]


def run_ring(vectors, masks=None):
    """One `RingSession` over nodes 0..k-1 of a small network, from clock 0."""
    k = len(vectors)
    lat = uniform_links(max(k, 2), k, 5, 20)
    session = sharedring.RingSession(lat, list(range(k)), vectors, masks=masks)
    session.start(0.0, [0.0] * k)
    return session


def done(session):
    return len(session.completion) == session.k


class TestSplit:
    def test_even(self):
        lengths = [len(c) for c in split(np.arange(6), 3)]
        assert lengths == [2, 2, 2]

    def test_remainder_to_first_chunks(self):
        lengths = [len(c) for c in split(np.arange(7), 3)]
        assert lengths == [3, 2, 2]

    def test_values(self):
        chunks = split(np.arange(1, 8), 3)
        assert [c.tolist() for c in chunks] == [[1, 2, 3], [4, 5], [6, 7]]

    def test_too_small(self):
        with pytest.raises(ModelTooSmallError):
            split(np.arange(2), 3)

    @given(st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, m, k):
        if k > m:
            k = m
        w = np.arange(m, dtype=np.int64) * 3 - 7
        assert np.array_equal(concat(split(w, k)), w)

    def test_chunk_spans_match_array_split(self):
        for length in range(1, 61):
            for parts in range(1, length + 1):
                sizes = [c.shape[0] for c in np.array_split(np.arange(length), parts)]
                bounds = np.concatenate([[0], np.cumsum(sizes)]).tolist()
                assert sharedring.chunk_spans(length, parts) == list(zip(bounds, bounds[1:]))

    @pytest.mark.parametrize("length,parts", [(5, 0), (5, -1), (5, 6), (0, 1)])
    def test_chunk_spans_rejects_both_edges(self, length, parts):
        with pytest.raises(ModelTooSmallError):
            sharedring.chunk_spans(length, parts)


class TestMask:
    def test_zero_noise_identity(self):
        chunks = split(np.arange(6, dtype=np.int64), 3)
        masked = mask_own_chunk(chunks, 1, np.zeros(2, dtype=np.int64))
        for a, b in zip(chunks, masked):
            assert np.array_equal(a, b)

    def test_elementwise_add(self):
        chunks = [np.array([1, 2], dtype=np.int64), np.array([5, 6], dtype=np.int64)]
        masked = mask_own_chunk(chunks, 0, np.array([10, -10], dtype=np.int64))
        assert masked[0].tolist() == [11, -8]
        assert masked[1].tolist() == [5, 6]

    def test_mask_unmask_roundtrip(self):
        chunks = split(np.arange(9, dtype=np.int64), 3)
        noise = fixedpoint.generate_noise(3, seed=5)
        masked = mask_own_chunk(chunks, 0, noise)
        assert np.array_equal(unmask_own_sum(masked[0], noise), chunks[0])

    def test_shape_error(self):
        chunks = split(np.arange(6, dtype=np.int64), 3)
        with pytest.raises(MaskShapeError):
            mask_own_chunk(chunks, 0, np.zeros(5, dtype=np.int64))


class TestReduceScatter:
    def test_degenerate_ring(self):
        splits = [[np.array([3, 4], dtype=np.int64)]]
        noise = np.array([7, -2], dtype=np.int64)
        masked = [mask_own_chunk(splits[0], 0, noise)]
        transcript = []
        accs = ring_reduce_scatter(masked, transcript)
        assert np.array_equal(accs[0], np.array([10, 2]))
        assert transcript == []

    def test_two_miners_eq8(self):
        v0 = np.array([1, 2, 3, 4], dtype=np.int64)
        v1 = np.array([10, 20, 30, 40], dtype=np.int64)
        splits = [split(v, 2) for v in (v0, v1)]
        masks = [fixedpoint.generate_noise(2, seed=s) for s in (1, 2)]
        masked = [mask_own_chunk(splits[i], i, masks[i]) for i in range(2)]
        accs = ring_reduce_scatter(masked)
        # miner 0 ends with b_0 + own chunk 0 + miner 1's chunk 0
        assert np.array_equal(accs[0], masks[0] + splits[0][0] + splits[1][0])
        assert np.array_equal(accs[1], masks[1] + splits[0][1] + splits[1][1])

    def test_three_miners_against_oracle(self):
        rng = np.random.default_rng(3)
        vectors = [rng.integers(-50, 50, size=10).astype(np.int64) for _ in range(3)]
        splits = [split(v, 3) for v in vectors]
        masks = [fixedpoint.generate_noise(len(splits[i][i]), seed=40 + i) for i in range(3)]
        masked = [mask_own_chunk(splits[i], i, masks[i]) for i in range(3)]
        accs = ring_reduce_scatter(masked)
        oracle = column_sum_oracle(vectors, 3)
        for i in range(3):
            assert np.array_equal(accs[i], oracle[i] + masks[i])
            assert np.array_equal(unmask_own_sum(accs[i], masks[i]), oracle[i])

    def test_unmask_with_wrong_mask_differs(self):
        rng = np.random.default_rng(4)
        vectors = [rng.integers(-50, 50, size=9).astype(np.int64) for _ in range(3)]
        session = run_ring(vectors, seeded_masks(vectors, 77))
        acc0 = session.total[: len(session.raw_splits[0][0])] + session.masks[0]
        wrong = unmask_own_sum(acc0, session.masks[1])
        oracle = column_sum_oracle(vectors, 3)
        assert not np.array_equal(wrong, oracle[0])

    def test_all_zero_models_leaves_noise(self):
        vectors = [np.zeros(6, dtype=np.int64) for _ in range(2)]
        session = run_ring(vectors, seeded_masks(vectors, 9))
        assert np.array_equal(session.total, np.zeros(6, dtype=np.int64))


class TestAllGather:
    def test_degenerate(self):
        vectors = [np.array([5, 6], dtype=np.int64)]
        session = run_ring(vectors, seeded_masks(vectors, 1))
        assert len(session.transcript) == 0
        assert np.array_equal(session.total, np.array([5, 6]))

    def test_total_matches_oracle(self):
        rng = np.random.default_rng(8)
        vectors = [rng.integers(-100, 100, size=11).astype(np.int64) for _ in range(3)]
        session = run_ring(vectors, seeded_masks(vectors, 123))
        assert np.array_equal(session.total, np.sum(np.stack(vectors), axis=0))

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_masked_message_count(self, k):
        vectors = [np.arange(16, dtype=np.int64) + i for i in range(k)]
        session = run_ring(vectors, seeded_masks(vectors, 2))
        # k reduce hops per stream (full cycle back to the noise owner)
        # plus k-1 gather hops per stream.
        assert len(session.transcript) == k * k + k * (k - 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_plain_message_count(self, k):
        vectors = [np.arange(16, dtype=np.int64) + i for i in range(k)]
        session = run_ring(vectors)
        assert len(session.transcript) == 2 * (k - 1) * k

    def test_plain_matches_oracle(self):
        rng = np.random.default_rng(12)
        vectors = [rng.integers(-100, 100, size=13).astype(np.int64) for _ in range(4)]
        session = run_ring(vectors)
        assert np.array_equal(session.total, np.sum(np.stack(vectors), axis=0))


class TestMaskNeutrality:
    def test_output_independent_of_noise_seed(self):
        rng = np.random.default_rng(21)
        vectors = [rng.integers(-1000, 1000, size=23).astype(np.int64) for _ in range(5)]
        a = run_ring(vectors, seeded_masks(vectors, 111))
        b = run_ring(vectors, seeded_masks(vectors, 9999))
        assert np.array_equal(a.total, b.total)

    @given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_mask_cancellation_exact(self, seed_a, seed_b):
        rng = np.random.default_rng(5)
        vectors = [rng.integers(-9, 9, size=7).astype(np.int64) for _ in range(3)]
        a = run_ring(vectors, seeded_masks(vectors, seed_a))
        b = run_ring(vectors, seeded_masks(vectors, seed_b))
        assert np.array_equal(a.total, b.total)


class TestLeakage:
    def test_two_node_transcript_blends(self):
        rng = np.random.default_rng(6)
        vectors = [rng.integers(-50, 50, size=8).astype(np.int64) for _ in range(2)]
        session = run_ring(vectors, seeded_masks(vectors, 31))
        report = sharedring.transcript_leakage_check(
            session.transcript, session.raw_splits, session.masks
        )
        assert report.passed, report.violations
        # miner 1 sees blends carrying miner 0's noise, never a raw chunk
        for entry in session.transcript:
            if entry.phase == sharedring.REDUCE and entry.dst == 1:
                for slot in range(2):
                    assert not np.array_equal(entry.payload, session.raw_splits[0][slot])

    def test_zero_noise_fails(self):
        rng = np.random.default_rng(7)
        vectors = [rng.integers(-50, 50, size=9).astype(np.int64) for _ in range(3)]
        splits = [split(v, 3) for v in vectors]
        zero_masks = [np.zeros_like(splits[i][i]) for i in range(3)]
        masked = [mask_own_chunk(splits[i], i, zero_masks[i]) for i in range(3)]
        transcript = []
        ring_reduce_scatter(masked, transcript)
        report = sharedring.transcript_leakage_check(transcript, splits, zero_masks)
        assert not report.passed

    def test_three_node_random_run_no_raw_matches(self):
        rng = np.random.default_rng(8)
        vectors = [rng.integers(-500, 500, size=10).astype(np.int64) for _ in range(3)]
        session = run_ring(vectors, seeded_masks(vectors, 55))
        report = sharedring.transcript_leakage_check(
            session.transcript, session.raw_splits, session.masks
        )
        assert report.passed, report.violations


class TestFixedPoint:
    def test_roundtrip_precision(self):
        rng = np.random.default_rng(9)
        w = rng.normal(0, 3, size=100)
        back = fixedpoint.decode(fixedpoint.encode(w))
        assert np.max(np.abs(back - w)) <= 2.0 ** -fixedpoint.SCALE_BITS

    def test_noise_deterministic(self):
        a = fixedpoint.generate_noise(10, seed=4)
        b = fixedpoint.generate_noise(10, seed=4)
        assert np.array_equal(a, b)
        assert a.dtype == np.int64


class TestNoisePrg:
    """Masks are SHAKE-128 expansions of the owner's seed, exactly uniform
    on [-2^w, 2^w) for the width w = `fixedpoint.NOISE_BITS`, and for every
    width an int64 word holds that the constant could be set to."""

    @pytest.mark.parametrize("width", [0, 1, 40, 63])
    def test_values_in_range(self, monkeypatch, width):
        monkeypatch.setattr(fixedpoint, "NOISE_BITS", width)
        for seed in (0, 1, 2**63 - 1, 2**64 - 1):
            noise = fixedpoint.generate_noise(500, seed)
            assert noise.dtype == np.int64 and noise.shape == (500,)
            assert -(1 << width) <= noise.min() and noise.max() < 1 << width

    @pytest.mark.parametrize("width", [0, 1, 2])
    def test_narrow_widths_cover_the_range(self, monkeypatch, width):
        monkeypatch.setattr(fixedpoint, "NOISE_BITS", width)
        noise = fixedpoint.generate_noise(4000, seed=9)
        assert set(noise.tolist()) == set(range(-(1 << width), 1 << width))

    def test_top_bits_of_the_shake_stream(self):
        words = np.frombuffer(hashlib.shake_128((77).to_bytes(8, "little")).digest(24), "<u8")
        want = [int(w) >> (63 - 40) for w in words]
        assert fixedpoint.NOISE_BITS == 40
        got = fixedpoint.generate_noise(3, 77)
        assert [int(v) + (1 << 40) for v in got] == want

    @given(st.integers(0, 2**64 - 1), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_same_seed_same_mask(self, seed, length):
        a = fixedpoint.generate_noise(length, seed)
        assert np.array_equal(a, fixedpoint.generate_noise(length, seed))
        # a shorter mask is a prefix of a longer one from the same seed
        assert np.array_equal(a[: length // 2], fixedpoint.generate_noise(length // 2, seed))

    def test_different_seeds_differ(self):
        masks = {fixedpoint.generate_noise(8, seed).tobytes() for seed in range(200)}
        assert len(masks) == 200

    def test_length_zero(self):
        noise = fixedpoint.generate_noise(0, seed=3)
        assert noise.shape == (0,) and noise.dtype == np.int64

    @pytest.mark.parametrize("width", [0, 63])
    def test_edge_widths_cancel_in_the_ring(self, monkeypatch, width):
        monkeypatch.setattr(fixedpoint, "NOISE_BITS", width)
        rng = np.random.default_rng(width)
        vectors = [fixedpoint.encode(rng.normal(0, 2, size=19)) for _ in range(4)]
        masks = [fixedpoint.generate_noise(len(c), seed=i)
                 for i, c in enumerate(split(vectors[0], 4))]
        session = run_ring(vectors, masks)
        expected = np.sum(np.stack(vectors), axis=0)
        assert np.array_equal(session.total, expected)


class TestRingSession:
    def run_session(self, k, masked, seed=0, m=20):
        rng = np.random.default_rng(seed)
        lat = uniform_links(max(k, 2), seed, 5, 20)
        vectors = [rng.integers(-40, 40, size=m).astype(np.int64) for _ in range(k)]
        masks = None
        if masked:
            splits = [split(v, k) for v in vectors]
            masks = [
                fixedpoint.generate_noise(len(splits[i][i]), seed=100 + i) for i in range(k)
            ]
        session = sharedring.RingSession(lat, list(range(k)), vectors, masks=masks)
        session.start(10.0, [10.0] * k)
        return session, vectors

    @pytest.mark.parametrize("k,masked", [(1, True), (2, True), (4, True), (4, False)])
    def test_total_matches_direct_sum(self, k, masked):
        session, vectors = self.run_session(k, masked)
        assert done(session)
        expected = np.sum(np.stack(vectors), axis=0)
        assert np.array_equal(session.total, expected)

    def test_simulated_message_count_matches_pure_path(self):
        k = 4
        session, _ = self.run_session(k, masked=True)
        assert len(session.transcript) == k * k + k * (k - 1)

    def test_completion_after_ready(self):
        session, _ = self.run_session(3, masked=True)
        assert session.completion.keys() == {0, 1, 2}
        assert all(t > 10.0 for t in session.completion.values())


class TestRingSessionTotal:
    """A session sums its vectors by one column sum and builds the payloads
    only for its transcript: both equal a hop-by-hop walk of the ring, also
    where int64 sums wrap."""

    @pytest.mark.parametrize("masked", [True, False])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_total_and_transcript_equal_a_hop_by_hop_walk(self, k, masked):
        rng = np.random.default_rng(k)
        lat = uniform_links(max(k, 2), k, 5, 20)
        near = np.iinfo(np.int64).max - rng.integers(0, 1000, size=(k, 23))
        vectors = [v * sign for v, sign in zip(near, rng.choice([-1, 1], size=(k, 1)))]
        spans = sharedring.chunk_spans(23, k)
        masks = None
        if masked:
            masks = [fixedpoint.generate_noise(b - a, seed=i) for i, (a, b) in enumerate(spans)]
        session = sharedring.RingSession(lat, list(range(k)), vectors, masks=masks)
        session.start(0.0, [0.0] * k)
        want, total = walk_ring(vectors, masks)
        assert session.total.tobytes() == total.tobytes()
        got = session.transcript
        assert [(e.phase, e.step, e.src, e.dst, e.slot, e.masked) for e in got] == [
            (e.phase, e.step, e.src, e.dst, e.slot, e.masked) for e in want]
        assert all(g.payload.tobytes() == w.payload.tobytes() for g, w in zip(got, want))
        if masked:
            report = sharedring.transcript_leakage_check(got, session.raw_splits, masks)
            assert report.passed, report.violations


class TestRingSessionAudit:
    """The ring the chain runs, checked by the leakage audit and against the
    hop-by-hop reference. The transcript holds the payload arrays themselves,
    so these checks also fail if a payload is mutated after it is built."""

    def run_session(self, k, seed, zero_masks=False, m=37):
        rng = np.random.default_rng(seed)
        n = k + 3
        lat = uniform_links(n, seed, 5, 60)
        members = [int(v) for v in rng.permutation(n)[:k]]
        vectors = [fixedpoint.encode(rng.normal(0, 2, size=m)) for _ in range(k)]
        lengths = [c.shape[0] for c in split(vectors[0], k)]
        if zero_masks:
            masks = [np.zeros(lengths[i], dtype=np.int64) for i in range(k)]
        else:
            masks = [fixedpoint.generate_noise(lengths[i], seed=seed * 10 + i) for i in range(k)]
        session = sharedring.RingSession(lat, members, vectors, masks=masks)
        session.start(0.0, [float(t) for t in rng.uniform(0, 200, size=k)])
        assert done(session)
        return session, vectors, masks

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_masked_session_passes_leakage_check(self, k):
        session, vectors, _ = self.run_session(k, seed=k)
        report = sharedring.transcript_leakage_check(
            session.transcript, session.raw_splits, session.masks
        )
        assert report.passed, report.violations
        expected = np.sum(np.stack(vectors), axis=0)
        assert np.array_equal(session.total, expected)

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_zero_mask_session_fails_leakage_check(self, k):
        session, _, _ = self.run_session(k, seed=k, zero_masks=True)
        report = sharedring.transcript_leakage_check(
            session.transcript, session.raw_splits, session.masks
        )
        assert not report.passed

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_reduce_payloads_equal_pure_path(self, k):
        session, vectors, masks = self.run_session(k, seed=40 + k)
        splits = [split(v, k) for v in vectors]
        masked = [mask_own_chunk(splits[i], i, masks[i]) for i in range(k)]
        pure = []
        ring_reduce_scatter(masked, pure)
        simulated = [e for e in session.transcript if e.phase == sharedring.REDUCE]
        assert len(simulated) == len(pure) == k * k

        def by_hop(entries):
            return {(e.slot, e.step): e for e in entries}

        want, got = by_hop(pure), by_hop(simulated)
        assert want.keys() == got.keys()
        for key, entry in want.items():
            assert (got[key].src, got[key].dst, got[key].masked) == (entry.src, entry.dst, True)
            assert np.array_equal(got[key].payload, entry.payload)


class TestRingSessionSharesInputs:
    """`RingSession` slices the caller's vectors into views and shares the
    untouched chunks, so no handler may write into an array in place."""

    @pytest.mark.parametrize("masked", [True, False])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_caller_vectors_unchanged(self, k, masked):
        rng = np.random.default_rng(70 + k)
        lat = uniform_links(max(k, 2), k, 5, 20)
        vectors = [rng.integers(-40, 40, size=23).astype(np.int64) for _ in range(k)]
        before = [v.copy() for v in vectors]
        masks = None
        if masked:
            masks = [
                fixedpoint.generate_noise(len(c), seed=i)
                for i, c in enumerate(split(vectors[0], k))
            ]
        session = sharedring.RingSession(lat, list(range(k)), vectors, masks=masks)
        for v, raw in zip(vectors, session.raw_splits):
            assert [c.tolist() for c in raw] == [c.tolist() for c in split(v, k)]
        session.start(5.0, [5.0] * k)
        assert done(session)
        assert all(np.array_equal(v, b) for v, b in zip(vectors, before))
        expected = np.sum(np.stack(before), axis=0)
        assert np.array_equal(session.total, expected)

    def test_too_many_members_still_rejected(self):
        lat = netsim.build_topology(4, seed=0)
        with pytest.raises(ModelTooSmallError):
            sharedring.RingSession(lat, [0, 1, 2, 3], [np.arange(3, dtype=np.int64)] * 4)

    @pytest.mark.parametrize("members", [[0, 2, 0], [0, 1, 4], [-1, 0, 1]])
    def test_members_must_be_distinct_nodes(self, members):
        lat = netsim.build_topology(4, seed=0)
        with pytest.raises(NodeNotFoundError):
            sharedring.RingSession(lat, members, [np.arange(6, dtype=np.int64)] * 3)

    def test_mask_of_wrong_length_rejected(self):
        lat = netsim.build_topology(4, seed=0)
        masks = [np.zeros(n, dtype=np.int64) for n in (2, 3, 2)]
        with pytest.raises(MaskShapeError):
            sharedring.RingSession(lat, [0, 1, 2], [np.arange(6, dtype=np.int64)] * 3, masks=masks)

    @pytest.mark.parametrize("vectors", [
        [np.arange(6, dtype=np.int64)] * 2,
        [np.arange(6, dtype=np.int64)] * 4,
        [np.arange(6, dtype=np.int64), np.arange(7, dtype=np.int64), np.arange(6, dtype=np.int64)],
        np.arange(6, dtype=np.int64),
        np.zeros((3, 6, 2), dtype=np.int64),
    ], ids=["two-rows", "four-rows", "ragged", "flat", "three-d"])
    def test_vectors_not_one_row_per_member_rejected(self, vectors):
        lat = netsim.build_topology(4, seed=0)
        with pytest.raises(AggregationShapeError):
            sharedring.RingSession(lat, [0, 1, 2], vectors)

    @pytest.mark.parametrize("n_masks", [2, 4])
    def test_mask_count_not_one_per_member_rejected(self, n_masks):
        lat = netsim.build_topology(4, seed=0)
        masks = [np.zeros(2, dtype=np.int64)] * n_masks
        with pytest.raises(MaskShapeError):
            sharedring.RingSession(lat, [0, 1, 2], [np.arange(6, dtype=np.int64)] * 3, masks=masks)

    @pytest.mark.parametrize("k, n_ready", [(3, 2), (3, 4), (1, 2)])
    def test_ready_times_not_one_per_member_rejected(self, k, n_ready):
        lat = netsim.build_topology(4, seed=0)
        session = sharedring.RingSession(lat, list(range(k)), [np.arange(6, dtype=np.int64)] * k)
        with pytest.raises(ReadyTimeCountError):
            session.start(0.0, [1.0] * n_ready)
        assert session.completion == {}

    def test_mask_own_chunk_leaves_inputs_and_shares_the_rest(self):
        chunks = split(np.arange(10, dtype=np.int64), 3)
        before = [c.copy() for c in chunks]
        masked = mask_own_chunk(chunks, 1, np.full(3, 7, dtype=np.int64))
        assert all(np.array_equal(c, b) for c, b in zip(chunks, before))
        assert masked is not chunks
        assert masked[0] is chunks[0] and masked[2] is chunks[2]
        assert masked[1].tolist() == [c + 7 for c in before[1].tolist()]


class OracleRingSession:
    """The ring replayed message by message on the event simulator.

    Every chunk message and every member's start timer is an event; each
    member forwards an arriving stream at once. `RingSession` computes the
    same schedule in closed form and must match this replay exactly.
    """

    def __init__(self, sim, members, vectors, masks=None, kind="ring"):
        self.sim = sim
        self.members = list(members)
        self.k = len(self.members)
        self.position = {node: pos for pos, node in enumerate(self.members)}
        self.kind = kind
        model_len = vectors[0].shape[0]
        chunks = [split(v, self.k) for v in vectors]
        self.masks = list(masks) if masks is not None else None
        if self.masks is not None:
            self.work = [
                mask_own_chunk(chunks[i], i, self.masks[i]) for i in range(self.k)
            ]
        else:
            self.work = [list(c) for c in chunks]
        self.chunk_units = [
            netsim.chunk_size_units(c.shape[0], model_len) for c in chunks[0]
        ]
        self.final = [dict() for _ in range(self.k)]
        self.completion = {}
        self.results = {}
        self.transcript = []

    def start(self, ready_times):
        if self.k == 1:
            self.sim.schedule(ready_times[0] - self.sim.now, self.members[0], ("solo",), self.kind)
            self.sim.register(self.members[0], self._handle)
            return
        for pos, node in enumerate(self.members):
            self.sim.register(node, self._handle)
            self.sim.schedule(ready_times[pos] - self.sim.now, node, ("start", pos), self.kind)

    def _send(self, pos, phase, step, slot, payload):
        nxt = (pos + 1) % self.k
        masked = self.masks is not None and phase == sharedring.REDUCE
        self.transcript.append(
            sharedring.TranscriptEntry(phase, step, pos, nxt, slot, payload, masked)
        )
        self.sim.send(
            self.members[pos],
            self.members[nxt],
            (phase, step, slot, pos, payload),
            size_units=self.chunk_units[slot],
            kind=f"{self.kind}-{phase}",
        )

    def _finish_member(self, pos):
        self.completion[self.members[pos]] = self.sim.now
        self.results[self.members[pos]] = concat(
            [self.final[pos][s] for s in range(self.k)]
        )

    def _handle(self, sim, event):
        payload = event.payload
        if payload[0] == "solo":
            chunk = self.work[0][0]
            if self.masks is not None:
                chunk = unmask_own_sum(chunk, self.masks[0])
            self.final[0][0] = chunk
            self._finish_member(0)
            return
        if payload[0] == "start":
            pos = payload[1]
            self._send(pos, sharedring.REDUCE, 0, pos, self.work[pos][pos])
            return
        phase, step, slot, _, data = payload
        pos = self.position[event.dst]
        if phase == sharedring.REDUCE:
            if self.masks is not None and slot == pos:
                clean = unmask_own_sum(data, self.masks[pos])
                self.final[pos][slot] = clean
                self._send(pos, sharedring.GATHER, 0, slot, clean)
                if len(self.final[pos]) == self.k:
                    self._finish_member(pos)
                return
            accumulated = data + self.work[pos][slot]
            self.work[pos][slot] = accumulated
            if self.masks is not None or step + 1 <= self.k - 2:
                self._send(pos, sharedring.REDUCE, step + 1, slot, accumulated)
            else:
                self.final[pos][slot] = accumulated
                self._send(pos, sharedring.GATHER, 0, slot, accumulated)
                if len(self.final[pos]) == self.k:
                    self._finish_member(pos)
        else:
            self.final[pos][slot] = data
            if step + 1 <= self.k - 2:
                self._send(pos, sharedring.GATHER, step + 1, slot, data)
            if len(self.final[pos]) == self.k:
                self._finish_member(pos)


def start_session(cls, latency, clock, ready, *args, **kwargs):
    """A `cls` session over `latency`, started from `clock` with streams
    leaving at `ready`, and the clock after it. `RingSession` is computed
    directly and ends at its last completion; `OracleRingSession` is replayed
    on a `Simulator` set to `clock` until it is idle."""
    if cls is sharedring.RingSession:
        session = cls(latency, *args, **kwargs)
        session.start(clock, ready)
        return session, max(session.completion.values())
    sim = netsim.Simulator(latency)
    sim.now = clock
    session = cls(sim, *args, **kwargs)
    session.start(ready)
    return session, sim.run_until_idle()


def oracle_case(k, masked, clock, integer, seed):
    """Inputs for one ring: random member order, latencies and ready times.

    Integer latencies and integer ready times make many arrivals land at
    equal times."""
    rng = np.random.default_rng(seed)
    n = k + 3
    if integer:
        latency = rng.integers(1, 4, size=(n, n))
        np.fill_diagonal(latency, 0)
        ready = clock + rng.integers(0, 6, size=k).astype(np.float64)
    else:
        latency = uniform_links(n, seed, 5, 60)
        ready = clock + rng.uniform(0, 200, size=k)
    members = [int(v) for v in rng.permutation(n)[:k]]
    m = int(rng.integers(k, 4 * k + 20))
    vectors = [fixedpoint.encode(rng.normal(0, 2, size=m)) for _ in range(k)]
    masks = None
    if masked:
        masks = [
            fixedpoint.generate_noise(c.shape[0], seed=seed * 10 + i)
            for i, c in enumerate(split(vectors[0], k))
        ]
    return latency, members, vectors, masks, ready.tolist()


class TestRingSessionOracle:
    """The closed-form `RingSession` against the event-driven replay."""

    @pytest.mark.parametrize("integer", [False, True])
    @pytest.mark.parametrize("clock", [0.0, 1234.567])
    @pytest.mark.parametrize("masked", [True, False])
    @pytest.mark.parametrize("k", range(1, 10))
    def test_matches_event_driven_replay(self, k, masked, clock, integer):
        for seed in range(3):
            latency, members, vectors, masks, ready = oracle_case(
                k, masked, clock, integer, seed=1000 * k + seed
            )
            (got, got_now), (want, want_now) = [
                start_session(cls, latency, clock, ready, members, vectors, masks=masks)
                for cls in (sharedring.RingSession, OracleRingSession)
            ]
            assert got.completion == want.completion
            assert got_now == want_now == max(want.completion.values())
            assert want.results.keys() == set(members)
            for result in want.results.values():
                assert np.array_equal(got.total, result)

            def by_key(entries):
                return {(e.phase, e.slot, e.step): e for e in entries}

            got_t, want_t = by_key(got.transcript), by_key(want.transcript)
            assert len(got_t) == len(got.transcript) == len(want.transcript)
            assert got_t.keys() == want_t.keys()
            for key, entry in want_t.items():
                other = got_t[key]
                assert (other.src, other.dst, other.masked) == (entry.src, entry.dst, entry.masked)
                assert np.array_equal(other.payload, entry.payload)

    @pytest.mark.parametrize("masked", [True, False])
    def test_stream_starts_when_a_delay_timer_would_fire(self, masked):
        # For this pair, clock + (ready - clock) is one ulp away from ready.
        clock, ready = 0.5277764017096607, 3.4762437629867367
        assert clock + (ready - clock) != ready
        latency, members, vectors, masks, _ = oracle_case(1, masked, clock, False, seed=2)
        got, want = [
            start_session(cls, latency, clock, [ready], members, vectors, masks=masks)[0]
            for cls in (sharedring.RingSession, OracleRingSession)
        ]
        assert got.completion == want.completion == {members[0]: clock + (ready - clock)}

    @pytest.mark.parametrize("cls", [sharedring.RingSession, OracleRingSession])
    def test_ready_time_before_clock_rejected(self, cls):
        latency, members, vectors, masks, ready = oracle_case(3, True, 50.0, False, seed=1)
        with pytest.raises(TimeTravelError):
            start_session(cls, latency, 50.0, [ready[0], 49.0, ready[2]], members, vectors,
                          masks=masks)


class TestRingLayout:
    """`ring_layout` is built once per ring shape and shared read-only by
    every session of that shape."""

    def test_arrays_are_read_only(self):
        layout = sharedring.ring_layout(4, 23, True)
        for array in (layout.units, layout.hop_pos, layout.arrival):
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1

    def test_one_layout_per_shape(self):
        layout = sharedring.ring_layout(5, 31, True)
        assert sharedring.ring_layout(5, 31, True) is layout
        assert sharedring.ring_layout(5, 31, False) is not layout
        assert layout.spans == tuple(sharedring.chunk_spans(31, 5))

    @pytest.mark.parametrize("masked", [True, False])
    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    def test_back_to_back_sessions_match_the_replay(self, k, masked):
        """Two sessions with the same (k, model_len), the second on the
        cached layout, both match the event-driven replay."""
        m = 3 * k + 4
        layouts = []
        for seed in range(2):
            latency, members, _, masks, ready = oracle_case(k, masked, 7.5, False, seed=seed)
            rng = np.random.default_rng(seed)
            vectors = [fixedpoint.encode(rng.normal(0, 2, size=m)) for _ in range(k)]
            if masked:
                masks = [fixedpoint.generate_noise(c.shape[0], seed=seed * 10 + i)
                         for i, c in enumerate(split(vectors[0], k))]
            (got, got_now), (want, want_now) = [
                start_session(cls, latency, 7.5, ready, members, vectors, masks=masks)
                for cls in (sharedring.RingSession, OracleRingSession)
            ]
            layouts.append(got.layout)
            assert got.completion == want.completion and got_now == want_now
            for result in want.results.values():
                assert np.array_equal(got.total, result)
            want_t = {(e.phase, e.slot, e.step): e.payload for e in want.transcript}
            got_t = {(e.phase, e.slot, e.step): e.payload for e in got.transcript}
            assert want_t.keys() == got_t.keys()
            assert all(np.array_equal(got_t[key], want_t[key]) for key in want_t)
        assert layouts[0] is layouts[1]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_reduce_payloads_accumulate_hop_by_hop(self, data):
        """Slot s on reduce hop j holds its owner's (masked) chunk plus the
        next j members' chunks, for any ring size and model length."""
        k = data.draw(st.integers(1, 6))
        m = data.draw(st.integers(k, 7 * k))
        spans = sharedring.chunk_spans(m, k)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        vectors = [rng.integers(-2**62, 2**62, size=m) for _ in range(k)]
        masked = data.draw(st.booleans())
        masks = [fixedpoint.generate_noise(b - a, seed=i) for i, (a, b) in enumerate(spans)]
        session = sharedring.RingSession(uniform_links(max(k, 2), k, 5, 20), list(range(k)),
                                         vectors, masks=masks if masked else None)
        assert np.array_equal(session.total, np.sum(np.stack(vectors), axis=0))
        hops = {(e.slot, e.step): e.payload for e in session.transcript
                if e.phase == sharedring.REDUCE}
        assert len(hops) == (0 if k == 1 else k * k if masked else k * (k - 1))
        for (s, j), payload in hops.items():
            a, b = spans[s]
            acc = masks[s].copy() if masked else np.zeros(b - a, dtype=np.int64)
            for i in range(j + 1):
                acc = acc + vectors[(s + i) % k][a:b]
            assert np.array_equal(payload, acc)
