import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedchain import fixedpoint, netsim, sharedring
from fedchain.errors import MaskShapeError, ModelTooSmallError


def column_sum_oracle(vectors, parts):
    """Direct-summation reference: sum the raw vectors, then split."""
    total = np.sum(np.stack(vectors), axis=0)
    return sharedring.split(total, parts)


class TestSplit:
    def test_even(self):
        lengths = [len(c) for c in sharedring.split(np.arange(6), 3)]
        assert lengths == [2, 2, 2]

    def test_remainder_to_first_chunks(self):
        lengths = [len(c) for c in sharedring.split(np.arange(7), 3)]
        assert lengths == [3, 2, 2]

    def test_values(self):
        chunks = sharedring.split(np.arange(1, 8), 3)
        assert [c.tolist() for c in chunks] == [[1, 2, 3], [4, 5], [6, 7]]

    def test_too_small(self):
        with pytest.raises(ModelTooSmallError):
            sharedring.split(np.arange(2), 3)

    @given(st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, m, k):
        if k > m:
            k = m
        w = np.arange(m, dtype=np.int64) * 3 - 7
        assert np.array_equal(sharedring.concat(sharedring.split(w, k)), w)


class TestMask:
    def test_zero_noise_identity(self):
        chunks = sharedring.split(np.arange(6, dtype=np.int64), 3)
        masked = sharedring.mask_own_chunk(chunks, 1, np.zeros(2, dtype=np.int64))
        for a, b in zip(chunks, masked):
            assert np.array_equal(a, b)

    def test_elementwise_add(self):
        chunks = [np.array([1, 2], dtype=np.int64), np.array([5, 6], dtype=np.int64)]
        masked = sharedring.mask_own_chunk(chunks, 0, np.array([10, -10], dtype=np.int64))
        assert masked[0].tolist() == [11, -8]
        assert masked[1].tolist() == [5, 6]

    def test_mask_unmask_roundtrip(self):
        chunks = sharedring.split(np.arange(9, dtype=np.int64), 3)
        noise = fixedpoint.generate_noise(3, seed=5)
        masked = sharedring.mask_own_chunk(chunks, 0, noise)
        assert np.array_equal(sharedring.unmask_own_sum(masked[0], noise), chunks[0])

    def test_shape_error(self):
        chunks = sharedring.split(np.arange(6, dtype=np.int64), 3)
        with pytest.raises(MaskShapeError):
            sharedring.mask_own_chunk(chunks, 0, np.zeros(5, dtype=np.int64))


class TestReduceScatter:
    def test_degenerate_ring(self):
        splits = [[np.array([3, 4], dtype=np.int64)]]
        noise = np.array([7, -2], dtype=np.int64)
        masked = [sharedring.mask_own_chunk(splits[0], 0, noise)]
        transcript = []
        accs = sharedring.ring_reduce_scatter(masked, transcript)
        assert np.array_equal(accs[0], np.array([10, 2]))
        assert transcript == []

    def test_two_miners_eq8(self):
        v0 = np.array([1, 2, 3, 4], dtype=np.int64)
        v1 = np.array([10, 20, 30, 40], dtype=np.int64)
        splits = [sharedring.split(v, 2) for v in (v0, v1)]
        masks = [fixedpoint.generate_noise(2, seed=s) for s in (1, 2)]
        masked = [sharedring.mask_own_chunk(splits[i], i, masks[i]) for i in range(2)]
        accs = sharedring.ring_reduce_scatter(masked)
        # miner 0 ends with b_0 + own chunk 0 + miner 1's chunk 0
        assert np.array_equal(accs[0], masks[0] + splits[0][0] + splits[1][0])
        assert np.array_equal(accs[1], masks[1] + splits[0][1] + splits[1][1])

    def test_three_miners_against_oracle(self):
        rng = np.random.default_rng(3)
        vectors = [rng.integers(-50, 50, size=10).astype(np.int64) for _ in range(3)]
        splits = [sharedring.split(v, 3) for v in vectors]
        masks = [fixedpoint.generate_noise(len(splits[i][i]), seed=40 + i) for i in range(3)]
        masked = [sharedring.mask_own_chunk(splits[i], i, masks[i]) for i in range(3)]
        accs = sharedring.ring_reduce_scatter(masked)
        oracle = column_sum_oracle(vectors, 3)
        for i in range(3):
            assert np.array_equal(accs[i], oracle[i] + masks[i])
            assert np.array_equal(sharedring.unmask_own_sum(accs[i], masks[i]), oracle[i])

    def test_unmask_with_wrong_mask_differs(self):
        rng = np.random.default_rng(4)
        vectors = [rng.integers(-50, 50, size=9).astype(np.int64) for _ in range(3)]
        result = sharedring.run_masked_all_reduce(vectors, noise_seed=77)
        acc0 = result.sums[0][: len(result.raw_splits[0][0])] + result.masks[0]
        wrong = sharedring.unmask_own_sum(acc0, result.masks[1])
        oracle = column_sum_oracle(vectors, 3)
        assert not np.array_equal(wrong, oracle[0])

    def test_all_zero_models_leaves_noise(self):
        vectors = [np.zeros(6, dtype=np.int64) for _ in range(2)]
        result = sharedring.run_masked_all_reduce(vectors, noise_seed=9)
        assert np.array_equal(result.sums[0], np.zeros(6, dtype=np.int64))


class TestAllGather:
    def test_degenerate(self):
        result = sharedring.run_masked_all_reduce([np.array([5, 6], dtype=np.int64)], noise_seed=1)
        assert result.message_count == 0
        assert np.array_equal(result.sums[0], np.array([5, 6]))

    def test_all_miners_identical_and_match_oracle(self):
        rng = np.random.default_rng(8)
        vectors = [rng.integers(-100, 100, size=11).astype(np.int64) for _ in range(3)]
        result = sharedring.run_masked_all_reduce(vectors, noise_seed=123)
        expected = np.sum(np.stack(vectors), axis=0)
        for s in result.sums:
            assert np.array_equal(s, expected)

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_masked_message_count(self, k):
        vectors = [np.arange(16, dtype=np.int64) + i for i in range(k)]
        result = sharedring.run_masked_all_reduce(vectors, noise_seed=2)
        # k reduce hops per stream (full cycle back to the noise owner)
        # plus k-1 gather hops per stream.
        assert result.message_count == k * k + k * (k - 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_plain_message_count(self, k):
        vectors = [np.arange(16, dtype=np.int64) + i for i in range(k)]
        result = sharedring.run_plain_all_reduce(vectors)
        assert result.message_count == 2 * (k - 1) * k

    def test_plain_matches_oracle(self):
        rng = np.random.default_rng(12)
        vectors = [rng.integers(-100, 100, size=13).astype(np.int64) for _ in range(4)]
        result = sharedring.run_plain_all_reduce(vectors)
        expected = np.sum(np.stack(vectors), axis=0)
        for s in result.sums:
            assert np.array_equal(s, expected)


class TestMaskNeutrality:
    def test_output_independent_of_noise_seed(self):
        rng = np.random.default_rng(21)
        vectors = [rng.integers(-1000, 1000, size=23).astype(np.int64) for _ in range(5)]
        a = sharedring.run_masked_all_reduce(vectors, noise_seed=111)
        b = sharedring.run_masked_all_reduce(vectors, noise_seed=9999)
        for x, y in zip(a.sums, b.sums):
            assert np.array_equal(x, y)

    @given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_mask_cancellation_exact(self, seed_a, seed_b):
        rng = np.random.default_rng(5)
        vectors = [rng.integers(-9, 9, size=7).astype(np.int64) for _ in range(3)]
        a = sharedring.run_masked_all_reduce(vectors, noise_seed=seed_a)
        b = sharedring.run_masked_all_reduce(vectors, noise_seed=seed_b)
        assert all(np.array_equal(x, y) for x, y in zip(a.sums, b.sums))


class TestLeakage:
    def test_two_node_transcript_blends(self):
        rng = np.random.default_rng(6)
        vectors = [rng.integers(-50, 50, size=8).astype(np.int64) for _ in range(2)]
        result = sharedring.run_masked_all_reduce(vectors, noise_seed=31)
        report = sharedring.transcript_leakage_check(
            result.transcript, result.raw_splits, result.masks
        )
        assert report.passed, report.violations
        # miner 1 sees blends carrying miner 0's noise, never a raw chunk
        for entry in result.transcript:
            if entry.phase == sharedring.REDUCE and entry.dst == 1:
                for slot in range(2):
                    assert not np.array_equal(entry.payload, result.raw_splits[0][slot])

    def test_zero_noise_fails(self):
        rng = np.random.default_rng(7)
        vectors = [rng.integers(-50, 50, size=9).astype(np.int64) for _ in range(3)]
        splits = [sharedring.split(v, 3) for v in vectors]
        zero_masks = [np.zeros_like(splits[i][i]) for i in range(3)]
        masked = [sharedring.mask_own_chunk(splits[i], i, zero_masks[i]) for i in range(3)]
        transcript = []
        sharedring.ring_reduce_scatter(masked, transcript)
        report = sharedring.transcript_leakage_check(transcript, splits, zero_masks)
        assert not report.passed

    def test_three_node_random_run_no_raw_matches(self):
        rng = np.random.default_rng(8)
        vectors = [rng.integers(-500, 500, size=10).astype(np.int64) for _ in range(3)]
        result = sharedring.run_masked_all_reduce(vectors, noise_seed=55)
        report = sharedring.transcript_leakage_check(
            result.transcript, result.raw_splits, result.masks
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


class TestRingSession:
    def run_session(self, k, masked, seed=0, m=20):
        rng = np.random.default_rng(seed)
        lat = netsim.build_topology(max(k, 2), seed=seed, model=netsim.UniformTopology(5, 20))
        sim = netsim.Simulator(lat)
        vectors = [rng.integers(-40, 40, size=m).astype(np.int64) for _ in range(k)]
        masks = None
        if masked:
            splits = [sharedring.split(v, k) for v in vectors]
            masks = [
                fixedpoint.generate_noise(len(splits[i][i]), seed=100 + i) for i in range(k)
            ]
        session = sharedring.RingSession(sim, list(range(k)), vectors, masks=masks)
        session.start([10.0] * k)
        sim.run_until_idle()
        return session, vectors, sim

    @pytest.mark.parametrize("k,masked", [(1, True), (2, True), (4, True), (4, False)])
    def test_results_match_direct_sum(self, k, masked):
        session, vectors, _ = self.run_session(k, masked)
        assert session.done()
        expected = np.sum(np.stack(vectors), axis=0)
        for node in range(k):
            assert np.array_equal(session.results[node], expected)

    def test_simulated_message_count_matches_pure_path(self):
        k = 4
        session, _, sim = self.run_session(k, masked=True)
        assert len(session.transcript) == k * k + k * (k - 1)

    def test_completion_after_ready(self):
        session, _, sim = self.run_session(3, masked=True)
        assert all(t >= 10.0 for t in session.completion.values())
        assert sim.now == max(session.completion.values())


class TestRingSessionAudit:
    """The event-driven ring the chain runs, checked by the same audit as the
    pure path. The transcript holds the sent arrays themselves, so these
    checks also fail if a handler mutates a payload after sending it."""

    def run_session(self, k, seed, zero_masks=False, m=37):
        rng = np.random.default_rng(seed)
        n = k + 3
        lat = netsim.build_topology(n, seed=seed, model=netsim.UniformTopology(5, 60))
        sim = netsim.Simulator(lat)
        members = [int(v) for v in rng.permutation(n)[:k]]
        vectors = [fixedpoint.encode(rng.normal(0, 2, size=m)) for _ in range(k)]
        lengths = [c.shape[0] for c in sharedring.split(vectors[0], k)]
        if zero_masks:
            masks = [np.zeros(lengths[i], dtype=np.int64) for i in range(k)]
        else:
            masks = [fixedpoint.generate_noise(lengths[i], seed=seed * 10 + i) for i in range(k)]
        session = sharedring.RingSession(sim, members, vectors, masks=masks)
        session.start([float(t) for t in rng.uniform(0, 200, size=k)])
        sim.run_until_idle()
        assert session.done()
        return session, vectors, masks

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_masked_session_passes_leakage_check(self, k):
        session, vectors, _ = self.run_session(k, seed=k)
        report = sharedring.transcript_leakage_check(
            session.transcript, session.raw_splits, session.masks
        )
        assert report.passed, report.violations
        expected = np.sum(np.stack(vectors), axis=0)
        assert all(np.array_equal(r, expected) for r in session.results.values())

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
        splits = [sharedring.split(v, k) for v in vectors]
        masked = [sharedring.mask_own_chunk(splits[i], i, masks[i]) for i in range(k)]
        pure = []
        sharedring.ring_reduce_scatter(masked, pure)
        simulated = [e for e in session.transcript if e.phase == sharedring.REDUCE]
        assert len(simulated) == len(pure) == k * k

        def by_hop(entries):
            return {(e.slot, e.step): e for e in entries}

        want, got = by_hop(pure), by_hop(simulated)
        assert want.keys() == got.keys()
        for key, entry in want.items():
            assert (got[key].src, got[key].dst, got[key].masked) == (entry.src, entry.dst, True)
            assert np.array_equal(got[key].payload, entry.payload)


class TestHardenedMode:
    def test_shares_cancel(self):
        shares = sharedring.pairwise_shares(4, 9, seed=3)
        assert np.array_equal(np.sum(np.stack(shares), axis=0), np.zeros(9, dtype=np.int64))

    def test_sum_matches_oracle(self):
        rng = np.random.default_rng(13)
        vectors = [rng.integers(-200, 200, size=12).astype(np.int64) for _ in range(4)]
        result = sharedring.run_hardened_all_reduce(vectors, noise_seed=5)
        expected = np.sum(np.stack(vectors), axis=0)
        for s in result.sums:
            assert np.array_equal(s, expected)

    def test_standard_message_count(self):
        k = 5
        vectors = [np.arange(15, dtype=np.int64) + i for i in range(k)]
        result = sharedring.run_hardened_all_reduce(vectors, noise_seed=2)
        assert result.message_count == 2 * (k - 1) * k

    def test_every_slot_blinded_on_wire(self):
        rng = np.random.default_rng(14)
        vectors = [rng.integers(-200, 200, size=12).astype(np.int64) for _ in range(3)]
        result = sharedring.run_hardened_all_reduce(vectors, noise_seed=6)
        raw = [sharedring.split(v, 3) for v in vectors]
        for entry in result.transcript:
            if entry.phase != sharedring.REDUCE:
                continue
            for m in range(3):
                for s in range(3):
                    if raw[m][s].shape == entry.payload.shape:
                        assert not np.array_equal(entry.payload, raw[m][s])


def test_transcript_dump(tmp_path):
    rng = np.random.default_rng(10)
    vectors = [rng.integers(-5, 5, size=6).astype(np.int64) for _ in range(3)]
    result = sharedring.run_masked_all_reduce(vectors, noise_seed=3)
    out = tmp_path / "transcript.csv"
    sharedring.write_transcript(str(out), result.transcript)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "hop,round,from,to,slot,masked"
    assert len(lines) == 1 + result.message_count
