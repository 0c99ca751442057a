import re

import numpy as np
import pytest

from fedchain import netsim, pools
from fedchain.errors import (
    InvalidObservationError,
    InvalidTopologyError,
    NodeNotFoundError,
    TimeTravelError,
)
from conftest import uniform_links


class TestBuildTopology:
    def test_uniform_two_nodes(self):
        lat = netsim.build_topology(2, seed=7)
        assert lat.shape == (2, 2)
        assert lat[0, 0] == 0.0 and lat[1, 1] == 0.0
        assert 10 <= lat[0, 1] <= 100
        assert 10 <= lat[1, 0] <= 100

    def test_zero_diagonal(self):
        lat = netsim.build_topology(30, seed=3)
        assert np.all(np.diag(lat) == 0.0)

    @pytest.mark.parametrize("n, seed", [(2, 0), (7, 3), (30, 1)])
    def test_one_uniform_draw_at_the_link_range(self, n, seed):
        # int and float bounds of U(10, 100) draw the same floats
        assert netsim.LINK_RANGE == (10.0, 100.0)
        expected = np.random.default_rng(seed).uniform(10, 100, size=(n, n))
        np.fill_diagonal(expected, 0.0)
        lat = netsim.build_topology(n, seed=seed)
        assert lat.tobytes() == expected.tobytes()
        assert lat.tobytes() == uniform_links(n, seed, 10, 100).tobytes()

    def test_deterministic(self):
        a = netsim.build_topology(20, seed=5)
        b = netsim.build_topology(20, seed=5)
        assert np.array_equal(a, b)

    def test_too_few_nodes(self):
        with pytest.raises(InvalidTopologyError):
            netsim.build_topology(1, seed=0)


class TestSend:
    def make_sim(self, lat_value=50.0, n=3):
        lat = np.full((n, n), lat_value)
        np.fill_diagonal(lat, 0.0)
        return netsim.Simulator(lat)

    def test_deliver_time_basic(self):
        sim = self.make_sim(50.0)
        ev = sim.send(0, 1, "ping")
        assert ev.deliver_time == 50.0

    def test_deliver_time_size_units(self):
        sim = self.make_sim(20.0)
        sim.now = 100.0
        ev = sim.send(0, 1, "chunk", size_units=4)
        assert ev.deliver_time == 180.0

    def test_equal_times_delivered_in_send_order(self):
        sim = self.make_sim(50.0)
        order = []
        sim.register(1, lambda s, e: order.append(e.payload))
        sim.send(0, 1, "first")
        sim.send(2, 1, "second")
        sim.run_until_idle()
        assert order == ["first", "second"]

    def test_many_equal_times_fire_in_send_order(self):
        # Sends, timers and handler-issued sends that land on one instant
        # must fire in the order they were issued.
        sim = self.make_sim(50.0, n=4)
        order = []

        def handler(s, e):
            order.append(e.payload)
            if e.payload == "t0":
                s.schedule(0.0, 3, "t0-child")

        for node in range(4):
            sim.register(node, handler)
        sim.now = 0.0
        expected = []
        for idx in range(12):
            src, dst = idx % 3, 3
            sim.send(src, dst, f"m{idx}")
            expected.append(f"m{idx}")
        sim.schedule(50.0, 3, "t0")
        sim.schedule(50.0, 3, "t1")
        sim.run_until_idle()
        assert order == expected + ["t0", "t1", "t0-child"]
        assert sim.now == 50.0

    def test_send_returns_the_event(self):
        sim = self.make_sim(10.0)
        ev = sim.send(0, 1, "x", size_units=3, kind="chunk")
        assert (ev.kind, ev.size_units, ev.src, ev.dst, ev.payload) == ("chunk", 3, 0, 1, "x")
        assert len(sim._queue) == 1

    def test_unknown_node(self):
        sim = self.make_sim()
        with pytest.raises(NodeNotFoundError):
            sim.send(0, 99, "x")

    def test_self_send_rejected(self):
        sim = self.make_sim()
        with pytest.raises(NodeNotFoundError):
            sim.send(1, 1, "x")


class TestLatencyHistory:
    def test_first_record(self):
        hist = netsim.LatencyHistory(2)
        hist.record(0, 1, 30)
        assert (hist.total[0, 1], hist.counts[0, 1]) == (30.0, 1)

    def test_append(self):
        hist = netsim.LatencyHistory(2)
        for v in (10, 20, 30):
            hist.record(0, 1, v)
        assert (hist.total[0, 1], hist.counts[0, 1]) == (60.0, 3)

    def test_self_loop_rejected(self):
        hist = netsim.LatencyHistory(3)
        with pytest.raises(InvalidObservationError):
            hist.record(2, 2, 10)

    def test_non_positive_rejected(self):
        hist = netsim.LatencyHistory(2)
        with pytest.raises(InvalidObservationError):
            hist.record(0, 1, 0)

    def test_one_observation_per_round(self):
        hist = netsim.LatencyHistory(2)
        hist.record(0, 1, 12)
        assert hist.counts[0, 1] == 1
        hist.record(0, 1, 14)
        assert hist.counts[0, 1] == 2

    @pytest.mark.parametrize("n_nodes", [-1, -2, -10**12])
    def test_negative_size_rejected_before_allocating(self, monkeypatch, n_nodes):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated an array for a negative size")

        monkeypatch.setattr(netsim.np, "zeros", no_allocation)
        with pytest.raises(InvalidTopologyError, match=re.escape(f"got {n_nodes}")):
            netsim.LatencyHistory(n_nodes)

    @pytest.mark.parametrize("n_nodes", [0, 1])
    def test_empty_and_one_node_sizes_are_valid(self, n_nodes):
        hist = netsim.LatencyHistory(n_nodes)
        assert hist.n_nodes == n_nodes and len(hist) == 0 and hist.pairs() == []

    @pytest.mark.parametrize("n_nodes", [0, 3])
    @pytest.mark.parametrize("i, j", [(-1, 2), (2, -1), (-2, -1), (-1, -1)])
    def test_negative_node_rejected(self, n_nodes, i, j):
        # negative indexing would otherwise record another pair, or the
        # self-loop (2, 2)
        hist = netsim.LatencyHistory.adopt(np.full((3, 3), 5.0)) if n_nodes else netsim.LatencyHistory(0)
        before = (len(hist), hist.total.copy(), hist.uniform_count)
        with pytest.raises(NodeNotFoundError, match=re.escape(f"pair ({i}, {j}) outside [0, {n_nodes})")):
            hist.record(i, j, 5.0)
        assert hist.n_nodes == n_nodes and len(hist) == before[0]
        assert np.array_equal(hist.total, before[1]) and hist.uniform_count == before[2]

    @pytest.mark.parametrize("adopted", [False, True])
    @pytest.mark.parametrize("i, j", [(3, 0), (0, 3), (5, 4), (3, 3)])
    def test_node_past_the_last_rejected(self, adopted, i, j):
        # a history never grows: an id past its last node has no entry
        hist = netsim.LatencyHistory.adopt(np.full((3, 3), 5.0)) if adopted else netsim.LatencyHistory(3)
        before = (len(hist), hist.total.copy(), hist.uniform_count)
        with pytest.raises(NodeNotFoundError, match=re.escape(f"pair ({i}, {j}) outside [0, 3)")):
            hist.record(i, j, 5.0)
        assert hist.n_nodes == 3 and len(hist) == before[0]
        assert np.array_equal(hist.total, before[1]) and hist.uniform_count == before[2]


def assert_same_history(got, want):
    """Equal sums (bit for bit) and counts, over the same node range."""
    assert got.n_nodes == want.n_nodes
    assert got.total.tobytes() == want.total.tobytes()
    assert np.array_equal(got.counts, want.counts)


def record_row_major(hist, observed):
    """`record` every off-diagonal pair of `observed` in row-major order."""
    n = observed.shape[0]
    for i in range(n):
        for j in range(n):
            if i != j:
                hist.record(i, j, observed[i, j])


class TestDenseLatencyHistory:
    def test_len_counts_observed_ordered_pairs(self):
        hist = netsim.LatencyHistory(4)
        hist.record(0, 1, 5)
        hist.record(0, 1, 6)
        hist.record(1, 0, 7)
        hist.record(3, 2, 8)
        assert len(hist) == 3
        assert hist.pairs() == [(0, 1), (1, 0), (3, 2)]
        assert hist.n_nodes == 4 and hist.counts[2, 3] == 0 and hist.total[2, 3] == 0.0

    def test_adopt_equals_row_major_records(self):
        rng = np.random.default_rng(8)
        n = 7
        observed = rng.uniform(1, 100, size=(n, n))
        looped = netsim.LatencyHistory(n)
        record_row_major(looped, observed)
        adopted = netsim.LatencyHistory.adopt(observed.copy())
        assert len(adopted) == len(looped) == n * (n - 1)
        assert adopted.pairs() == looped.pairs()
        assert_same_history(adopted, looped)

    @pytest.mark.parametrize("seed", range(6))
    def test_adopt_then_records_at_mixed_depths_equals_records(self, seed):
        # single records after the adopted matrix leave the pairs at
        # different counts
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        observed = rng.uniform(1, 100, size=(n, n))
        looped = netsim.LatencyHistory(n)
        record_row_major(looped, observed)
        adopted = netsim.LatencyHistory.adopt(observed)
        for _ in range(12):
            i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
            value = float(rng.uniform(1, 9))
            looped.record(i, j, value)
            adopted.record(i, j, value)
        assert adopted.pairs() == looped.pairs()
        assert_same_history(adopted, looped)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("n_nodes", [0, 2, 7, 9])
    def test_fresh_history_matrix_equals_records(self, n_nodes, dtype):
        # a matrix of every size, adopted, against records into an empty one
        rng = np.random.default_rng(n_nodes)
        observed = (rng.uniform(3, 300, size=(n_nodes, n_nodes)) / 3).astype(dtype)
        np.fill_diagonal(observed, -5)  # the diagonal is never recorded
        looped = netsim.LatencyHistory(n_nodes)
        record_row_major(looped, observed)
        adopted = netsim.LatencyHistory.adopt(observed)
        # a float64 matrix is taken over, any other is copied
        assert (adopted.total is observed) is (dtype is np.float64)
        assert adopted.total.dtype == np.float64 and adopted.counts.dtype == np.int64
        assert adopted.pairs() == looped.pairs()
        assert_same_history(adopted, looped)
        assert not np.diag(adopted.total).any() and not np.diag(adopted.counts).any()

    @pytest.mark.parametrize("bad", [0.0, -2.5])
    def test_fresh_history_refuses_non_positive_entry(self, bad):
        observed = np.full((4, 4), 7.0)
        observed[2, 1] = bad
        observed[3, 0] = -1.0
        observed[0, 0] = -9.0  # the diagonal is not validated
        with pytest.raises(InvalidObservationError, match=f"got {bad}"):
            netsim.LatencyHistory.adopt(observed)
        observed[2, 1] = observed[3, 0] = 7.0
        hist = netsim.LatencyHistory.adopt(observed)
        assert len(hist) == 12 and (hist.total[2, 1], hist.counts[2, 1]) == (7.0, 1)
        assert (hist.total[0, 0], hist.counts[0, 0]) == (0.0, 0)

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (3,), (2, 2, 2)])
    @pytest.mark.parametrize("n_nodes", [0, 3, 5])
    def test_record_matrix_refuses_non_square(self, n_nodes, shape):
        # a non-square matrix is refused on its way into a history; neither
        # it nor a history already recorded out to n_nodes is changed
        hist = netsim.LatencyHistory(max(n_nodes, 2))
        hist.record(0, 1, 2.0)
        if n_nodes > 2:
            hist.record(n_nodes - 1, 0, 3.0)
        before = (hist.total.copy(), hist.counts.copy())
        observed = np.full(shape, 5.0)
        with pytest.raises(InvalidObservationError, match="square"):
            netsim.LatencyHistory.adopt(observed)
        assert (observed == 5.0).all()
        assert np.array_equal(hist.total, before[0]) and np.array_equal(hist.counts, before[1])

    def test_adopt_reports_first_invalid_in_row_major(self):
        observed = np.full((3, 3), 5.0)
        observed[1, 2] = -1.0
        observed[2, 0] = 0.0
        looped = netsim.LatencyHistory(3)
        with pytest.raises(InvalidObservationError, match="got -1.0") as want:
            record_row_major(looped, observed)
        with pytest.raises(InvalidObservationError, match=re.escape(str(want.value))):
            netsim.LatencyHistory.adopt(observed)


class TestNonFiniteObservations:
    """NaN and +-inf are refused on every path into a history, naming the
    first bad entry in row-major order; NaN would otherwise compare as
    neither small nor large and become the farthest pair."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_record(self, bad):
        hist = netsim.LatencyHistory(2)
        with pytest.raises(InvalidObservationError, match=f"got {bad}$"):
            hist.record(0, 1, bad)
        with pytest.raises(InvalidObservationError, match=f"got {bad}$"):
            hist.record(1, 0, float(bad))
        assert hist.n_nodes == 2 and len(hist) == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("path", ["adopt", "bootstrap"])
    def test_matrix(self, path, bad):
        observed = np.full((5, 5), 7.0)
        observed[1, 3] = bad
        observed[2, 0] = 0.0
        observed[4, 4] = np.nan  # the diagonal is not validated
        with pytest.raises(InvalidObservationError, match=rf"pair \(1, 3\).*got {bad}$"):
            if path == "adopt":
                netsim.LatencyHistory.adopt(observed)
            else:  # the ping scales each latency by noise in [0.9, 1.1]
                pools.bootstrap_history(observed, seed=2)
        assert np.isnan(observed[4, 4])  # a refused array is not taken over


class TestUniformCount:
    """An adopted history holds its counts as the int 1 and answers `len`
    and `pairs` from it; a history made empty holds a count array."""

    def test_empty_history_counts_and_adopted_stays_uniform(self):
        hist = netsim.LatencyHistory(3)
        assert (hist.uniform_count, len(hist), hist.pairs()) == (None, 0, [])
        assert hist.counts.dtype == np.int64 and not hist.counts.any()
        hist = netsim.LatencyHistory.adopt(np.full((3, 3), 3.0))
        assert hist.uniform_count == 1 and len(hist) == 6
        assert hist.pairs() == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
        assert pools.estimate_latency(hist)[0, 1] == 3.0
        assert hist.uniform_count == 1

    def test_counts_read_changes_nothing(self):
        hist = netsim.LatencyHistory.adopt(np.full((3, 3), 2.0))
        counts = hist.counts
        assert counts.dtype == np.int64 and np.array_equal(counts, 1 - np.eye(3))
        assert hist.uniform_count == 1 and hist.counts is not counts
        counts[0, 1] = 5  # the array read is the caller's
        assert hist.counts[0, 1] == 1 and len(hist) == 6

    @pytest.mark.parametrize("change", ["record", "read then record"])
    def test_breaking_uniformity_builds_the_array(self, change):
        hist = netsim.LatencyHistory.adopt(np.full((3, 3), 2.0))
        if change == "read then record":
            hist.counts
            assert hist.uniform_count == 1
        hist.record(0, 1, 4.0)
        assert hist.uniform_count is None
        assert np.array_equal(hist.counts, [[0, 2, 1], [1, 0, 1], [1, 1, 0]])
        assert hist.counts is hist.counts

    def test_adopt_takes_the_array_over(self):
        observed = np.full((4, 4), 6.0)
        hist = netsim.LatencyHistory.adopt(observed)
        assert hist.total is observed and not np.diag(observed).any()
        assert (hist.uniform_count, len(hist)) == (1, 12)


class TestRunUntilIdle:
    def test_empty_queue(self):
        sim = netsim.Simulator(np.zeros((2, 2)))
        assert sim.run_until_idle() == 0.0

    def test_single_event(self):
        lat = np.array([[0.0, 50.0], [50.0, 0.0]])
        sim = netsim.Simulator(lat)
        sim.send(0, 1, "x")
        assert sim.run_until_idle() == 50.0

    def test_ring_hops_after_compute(self):
        # 4 nodes, each hop 10 ms; a token relayed for 6 hops after a 25 ms
        # compute delay must finish at 25 + 60.
        n, hops, compute = 4, 6, 25.0
        lat = np.full((n, n), 10.0)
        np.fill_diagonal(lat, 0.0)
        sim = netsim.Simulator(lat)

        def relay(s, event):
            remaining = event.payload
            if event.kind == "timer":
                s.send(event.dst, (event.dst + 1) % n, remaining - 1)
            elif remaining > 0:
                s.send(event.dst, (event.dst + 1) % n, remaining - 1)

        for i in range(n):
            sim.register(i, relay)
        sim.schedule(compute, 0, hops)
        assert sim.run_until_idle() == compute + hops * 10.0

    def test_time_travel_rejected(self):
        sim = netsim.Simulator(np.zeros((2, 2)))
        sim.now = 10.0
        with pytest.raises(TimeTravelError):
            sim.schedule(-5.0, 0)

    def test_monotone_clock_and_conservation(self):
        lat = uniform_links(5, 11, 5, 30)
        sim = netsim.Simulator(lat, record_trace=True)

        def chatter(s, event):
            if event.payload > 0:
                s.send(event.dst, (event.dst + 2) % 5, event.payload - 1)

        for i in range(5):
            sim.register(i, chatter)
        sim.send(0, 1, 10)
        sim.run_until_idle()
        times = [row[0] for row in sim.trace]
        assert times == sorted(times)
        assert sim.stats["sent"] == sim.stats["delivered"]

    def test_deterministic_trace(self):
        def run():
            lat = netsim.build_topology(6, seed=2)
            sim = netsim.Simulator(lat, record_trace=True)
            rng = np.random.default_rng(42)

            def forward(s, event):
                if event.payload > 0:
                    nxt = (event.dst + 1 + int(rng.integers(0, 5))) % 6
                    s.send(event.dst, nxt, event.payload - 1)

            for i in range(6):
                sim.register(i, forward)
            sim.send(0, 1, 20)
            sim.run_until_idle()
            return sim.trace, sim.now

        t1, end1 = run()
        t2, end2 = run()
        assert t1 == t2
        assert end1 == end2


class TestChunkSizeUnits:
    def test_whole_model(self):
        assert netsim.chunk_size_units(170, 170) == 10

    def test_small_chunk_floor(self):
        assert netsim.chunk_size_units(1, 1000) == 1

    def test_proportional(self):
        assert netsim.chunk_size_units(50, 100) == 5


def test_compute_times_deterministic_and_in_range():
    a = netsim.draw_compute_times(10, seed=3)
    b = netsim.draw_compute_times(10, seed=3)
    assert np.array_equal(a, b)
    assert np.all((a >= 50) & (a <= 200))
