import numpy as np
import pytest

from fedchain import netsim
from fedchain.errors import (
    InvalidObservationError,
    InvalidTopologyError,
    NodeNotFoundError,
    TimeTravelError,
)


class TestBuildTopology:
    def test_uniform_two_nodes(self):
        lat = netsim.build_topology(2, seed=7, model=netsim.UniformTopology(10, 100))
        assert lat.shape == (2, 2)
        assert lat[0, 0] == 0.0 and lat[1, 1] == 0.0
        assert 10 <= lat[0, 1] <= 100
        assert 10 <= lat[1, 0] <= 100

    @pytest.mark.parametrize(
        "model",
        [netsim.UniformTopology(10, 100), netsim.ClusteredTopology(n_clusters=3)],
    )
    def test_zero_diagonal(self, model):
        lat = netsim.build_topology(30, seed=3, model=model)
        assert np.all(np.diag(lat) == 0.0)

    def test_clustered_intra_below_inter(self):
        model = netsim.ClusteredTopology(
            n_clusters=5, intra_lo=5, intra_hi=15, inter_lo=80, inter_hi=120
        )
        lat = netsim.build_topology(100, seed=1, model=model)
        labels = netsim.cluster_labels(100, 5)
        same = labels[:, None] == labels[None, :]
        off_diag = ~np.eye(100, dtype=bool)
        intra_mean = lat[same & off_diag].mean()
        inter_mean = lat[~same].mean()
        assert intra_mean < inter_mean

    def test_deterministic(self):
        a = netsim.build_topology(20, seed=5, model=netsim.UniformTopology())
        b = netsim.build_topology(20, seed=5, model=netsim.UniformTopology())
        assert np.array_equal(a, b)

    def test_too_few_nodes(self):
        with pytest.raises(InvalidTopologyError):
            netsim.build_topology(1, seed=0, model=netsim.UniformTopology())


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
        assert sim.pending == 1

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
        hist = netsim.LatencyHistory()
        hist.record(0, 1, 30)
        assert hist.series(0, 1) == [30]

    def test_append(self):
        hist = netsim.LatencyHistory()
        for v in (10, 20, 30):
            hist.record(0, 1, v)
        assert hist.series(0, 1) == [10, 20, 30]

    def test_self_loop_rejected(self):
        hist = netsim.LatencyHistory()
        with pytest.raises(InvalidObservationError):
            hist.record(2, 2, 10)

    def test_non_positive_rejected(self):
        hist = netsim.LatencyHistory()
        with pytest.raises(InvalidObservationError):
            hist.record(0, 1, 0)

    def test_one_observation_per_round(self):
        hist = netsim.LatencyHistory()
        hist.record(0, 1, 12)
        assert len(hist.series(0, 1)) == 1
        hist.record(0, 1, 14)
        assert len(hist.series(0, 1)) == 2


class TestDenseLatencyHistory:
    def test_len_counts_observed_ordered_pairs(self):
        hist = netsim.LatencyHistory()
        hist.record(0, 1, 5)
        hist.record(0, 1, 6)
        hist.record(1, 0, 7)
        hist.record(3, 2, 8)
        assert len(hist) == 3
        assert hist.pairs() == [(0, 1), (1, 0), (3, 2)]
        assert hist.series(2, 3) == [] and hist.series(9, 0) == []

    def test_grows_and_keeps_series(self):
        hist = netsim.LatencyHistory(2)
        hist.record(0, 1, 1.5)
        hist.record(4, 0, 2.5)
        hist.record(0, 1, 3.5)
        assert hist.n_nodes == 5
        assert hist.series(0, 1) == [1.5, 3.5]
        assert hist.series(4, 0) == [2.5]
        assert hist.counts[0, 1] == 2 and hist.layers[1][0, 1] == 3.5

    def test_record_matrix_equals_row_major_records(self):
        rng = np.random.default_rng(8)
        n = 7
        looped, matrixed = netsim.LatencyHistory(), netsim.LatencyHistory(n)
        # earlier observations on some pairs, so the matrix lands at mixed depths
        for _ in range(15):
            i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
            value = float(rng.uniform(1, 9))
            looped.record(i, j, value)
            matrixed.record(i, j, value)
        for _ in range(2):
            observed = rng.uniform(1, 100, size=(n, n))
            for i in range(n):
                for j in range(n):
                    if i != j:
                        looped.record(i, j, observed[i, j])
            matrixed.record_matrix(observed)
        assert len(matrixed) == len(looped) == n * (n - 1)
        for i in range(n):
            for j in range(n):
                assert matrixed.series(i, j) == looped.series(i, j)

    def test_record_matrix_reports_first_invalid_in_row_major(self):
        observed = np.full((3, 3), 5.0)
        observed[1, 2] = -1.0
        observed[2, 0] = 0.0
        hist = netsim.LatencyHistory(3)
        with pytest.raises(InvalidObservationError, match="got -1.0"):
            hist.record_matrix(observed)
        assert len(hist) == 0


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
        lat = netsim.build_topology(5, seed=11, model=netsim.UniformTopology(5, 30))
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
            lat = netsim.build_topology(6, seed=2, model=netsim.UniformTopology())
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


def test_trace_dump_format(tmp_path):
    lat = np.array([[0.0, 10.0], [10.0, 0.0]])
    sim = netsim.Simulator(lat, record_trace=True)
    sim.send(0, 1, "a", size_units=2, kind="chunk")
    sim.run_until_idle()
    out = tmp_path / "trace.csv"
    sim.dump_trace(str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "time,src,dst,kind,size_units"
    assert lines[1] == "20.000000,0,1,chunk,2"


class TestChunkSizeUnits:
    def test_whole_model(self):
        assert netsim.chunk_size_units(170, 170, multiplier=10) == 10

    def test_small_chunk_floor(self):
        assert netsim.chunk_size_units(1, 1000, multiplier=10) == 1

    def test_proportional(self):
        assert netsim.chunk_size_units(50, 100, multiplier=10) == 5


def test_compute_times_deterministic_and_in_range():
    a = netsim.draw_compute_times(10, seed=3, lo=50, hi=200)
    b = netsim.draw_compute_times(10, seed=3, lo=50, hi=200)
    assert np.array_equal(a, b)
    assert np.all((a >= 50) & (a <= 200))
