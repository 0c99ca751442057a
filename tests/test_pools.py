import itertools
import re

import numpy as np
import pytest

from fedchain import netsim, pools
from fedchain.errors import InsufficientHistoryError, TooManyPoolsError
from fedchain.netsim import LatencyHistory


def history_for_pair(values, n=2):
    hist = LatencyHistory()
    for v in values:
        hist.record(0, 1, v)
    for v in values:
        hist.record(1, 0, v)
    return hist


class TestEstimateLatency:
    @pytest.mark.parametrize(
        "series,expected",
        [([30], 30.0), ([10, 20, 30], 20.0), ([7, 9, 14, 10], 10.0)],
    )
    def test_arithmetic_mean(self, series, expected):
        hist = history_for_pair(series)
        l_hat = pools.estimate_latency(hist, 2)
        assert l_hat[0, 1] == pytest.approx(expected, abs=0)

    def test_zero_diagonal(self):
        hist = history_for_pair([10])
        assert pools.estimate_latency(hist, 2)[0, 0] == 0.0

    def test_tau_truncates(self):
        hist = history_for_pair([10, 20, 1000])
        l_hat = pools.estimate_latency(hist, 2, tau=3)
        assert l_hat[0, 1] == 15.0

    def test_missing_pair(self):
        hist = LatencyHistory()
        hist.record(0, 1, 5)
        with pytest.raises(InsufficientHistoryError):
            pools.estimate_latency(hist, 2)

    def test_matches_mean_oracle(self):
        rng = np.random.default_rng(17)
        hist = LatencyHistory()
        n = 4
        series = {}
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                vals = rng.uniform(1, 100, size=rng.integers(1, 6)).tolist()
                series[(i, j)] = vals
                for v in vals:
                    hist.record(i, j, v)
        l_hat = pools.estimate_latency(hist, n)
        for (i, j), vals in series.items():
            assert l_hat[i, j] == pytest.approx(np.mean(vals), rel=1e-15)


class TestBootstrapHistory:
    def test_noise_band_and_determinism(self):
        lat = netsim.build_topology(5, seed=2, model=netsim.UniformTopology(10, 50))
        h1 = pools.bootstrap_history(lat, seed=9)
        h2 = pools.bootstrap_history(lat, seed=9)
        for i in range(5):
            for j in range(5):
                if i == j:
                    continue
                (obs,) = h1.series(i, j)
                assert 0.9 * lat[i, j] <= obs <= 1.1 * lat[i, j]
                assert h2.series(i, j) == [obs]


class TestAnnounceHeads:
    def test_saturation(self):
        l_hat = np.ones((5, 5))
        heads = pools.announce_heads(5, 5, l_hat=l_hat)
        assert sorted(heads) == [0, 1, 2, 3, 4]

    def test_single_head_pool_holds_all_nodes(self):
        l_hat = netsim.build_topology(100, seed=4, model=netsim.UniformTopology())
        heads = pools.announce_heads(100, 1, l_hat=l_hat)
        assert len(heads) == 1
        assignment = pools.assign_pools(100, heads, l_hat, t_p=[0.0], seed=1)
        assert sorted(assignment.pools[0].members) == list(range(100))

    def test_spread_matches_bruteforce_maxmin(self):
        # Symmetric 4-node distances with {0, 3} the mutually farthest pair.
        d = np.array(
            [
                [0, 10, 20, 100],
                [10, 0, 30, 40],
                [20, 30, 0, 50],
                [100, 40, 50, 0],
            ],
            dtype=float,
        )
        best_pair = max(
            itertools.combinations(range(4), 2), key=lambda pair: d[pair[0], pair[1]]
        )
        heads = pools.announce_heads(4, 2, l_hat=d, policy="spread")
        assert sorted(heads) == sorted(best_pair) == [0, 3]

    def test_random_policy_seeded(self):
        a = pools.announce_heads(20, 4, policy="random", seed=5)
        b = pools.announce_heads(20, 4, policy="random", seed=5)
        assert a == b
        assert len(set(a)) == 4

    def test_too_many_pools(self):
        with pytest.raises(TooManyPoolsError):
            pools.announce_heads(3, 4, l_hat=np.zeros((3, 3)))


class TestPoolCost:
    def setup_method(self):
        # l_hat[0] row gives node 0's latency to members 1 and 2.
        self.l_hat = np.array([[0, 20, 40], [20, 0, 5], [40, 5, 0]], dtype=float)

    def test_compute_bound(self):
        assert pools.pool_cost(0, [1, 2], 100.0, self.l_hat) == 100.0

    def test_latency_bound(self):
        assert pools.pool_cost(0, [1, 2], 10.0, self.l_hat) == 40.0

    def test_tie(self):
        l_hat = np.array([[0, 50], [50, 0]], dtype=float)
        assert pools.pool_cost(0, [1], 50.0, l_hat) == 50.0

    def test_monotone_in_new_worst_member(self):
        base = pools.pool_cost(0, [1], 0.0, self.l_hat)
        grown = pools.pool_cost(0, [1, 2], 0.0, self.l_hat)
        assert grown > base


class TestAssignPools:
    def test_tie_breaks_to_lower_head(self):
        n = 6
        l_hat = np.full((n, n), 25.0)
        np.fill_diagonal(l_hat, 0.0)
        assignment = pools.assign_pools(n, heads=[2, 4], l_hat=l_hat, t_p=[0.0, 0.0], seed=1)
        lower = assignment.pools[0]
        assert lower.head == 2
        assert sorted(lower.members) == [0, 1, 2, 3, 5]
        assert assignment.pools[1].members == [4]

    def test_dominant_choice(self):
        l_hat = np.array(
            [[0, 5, 500], [5, 0, 300], [500, 300, 0]], dtype=float
        )
        assignment = pools.assign_pools(3, heads=[1, 2], l_hat=l_hat, t_p=[0.0, 0.0], seed=0)
        assert assignment.pool_of(0) == 0  # joins head 1's pool over head 2's

    def test_recovers_clusters_against_enumeration(self):
        # Two 3-node latency clusters; heads 0 and 3. Enumerate all 2^4
        # placements of the non-heads and verify greedy matches the unique
        # final-cost-minimal assignment (the clustering).
        n = 6
        intra, inter = 10.0, 200.0
        l_hat = np.full((n, n), inter)
        for group in ([0, 1, 2], [3, 4, 5]):
            for i in group:
                for j in group:
                    l_hat[i, j] = 0.0 if i == j else intra
        heads = [0, 3]
        non_heads = [1, 2, 4, 5]

        def total_cost(placement):
            members = {0: [0], 1: [3]}
            for node, pool_idx in zip(non_heads, placement):
                members[pool_idx].append(node)
            cost = 0.0
            for node, pool_idx in zip(non_heads, placement):
                others = [m for m in members[pool_idx] if m != node]
                cost += pools.pool_cost(node, others, 0.0, l_hat)
            return cost

        best = min(itertools.product([0, 1], repeat=4), key=total_cost)
        expected = {node: pool for node, pool in zip(non_heads, best)}
        assignment = pools.assign_pools(n, heads, l_hat, t_p=[0.0, 0.0], seed=3)
        for node in non_heads:
            assert assignment.pool_of(node) == expected[node]
        assert sorted(assignment.pools[0].members) == [0, 1, 2]
        assert sorted(assignment.pools[1].members) == [3, 4, 5]

    def test_partition_invariant(self):
        l_hat = netsim.build_topology(20, seed=8, model=netsim.UniformTopology())
        heads = pools.announce_heads(20, 4, l_hat=l_hat)
        assignment = pools.assign_pools(20, heads, l_hat, t_p=[0.0] * 4, seed=5)
        assert sorted(assignment.all_members()) == list(range(20))

    def test_greedy_local_optimality_replay(self):
        # Rebuild memberships in join order and check each node's chosen pool
        # was cost-minimal at the moment it joined.
        n, k = 15, 3
        l_hat = netsim.build_topology(n, seed=21, model=netsim.UniformTopology())
        heads = pools.announce_heads(n, k, l_hat=l_hat)
        t_p = [40.0, 10.0, 90.0]
        seed = 13
        assignment = pools.assign_pools(n, heads, l_hat, t_p, seed=seed)
        members = {idx: [pool.head] for idx, pool in enumerate(assignment.pools)}
        for node in pools.join_order(n, heads, seed):
            chosen = assignment.pool_of(node)
            costs = {
                idx: pools.pool_cost(node, members[idx], t_p[idx], l_hat)
                for idx in members
            }
            assert costs[chosen] == min(costs.values())
            members[chosen].append(node)


class TestPoolTimeEstimate:
    def test_singleton_no_comm_term(self):
        compute = np.array([100.0])
        t = pools.pool_time_estimate([0], compute, np.zeros((1, 1)), rounds_hint=1)
        assert t == 100.0

    def test_pair_formula(self):
        compute = np.array([80.0, 100.0])
        l_hat = np.array([[0.0, 10.0], [10.0, 0.0]])
        t = pools.pool_time_estimate([0, 1], compute, l_hat, rounds_hint=1, chunk_units=1)
        assert t == 100.0 + 2 * 1 * 10.0

    def test_rounds_hint_linear(self):
        compute = np.array([80.0, 100.0])
        l_hat = np.array([[0.0, 10.0], [10.0, 0.0]])
        one = pools.pool_time_estimate([0, 1], compute, l_hat, rounds_hint=1)
        three = pools.pool_time_estimate([0, 1], compute, l_hat, rounds_hint=3)
        assert three == pytest.approx(3 * one)


def test_assignment_csv(tmp_path):
    l_hat = netsim.build_topology(6, seed=1, model=netsim.UniformTopology())
    heads = pools.announce_heads(6, 2, l_hat=l_hat)
    assignment = pools.assign_pools(6, heads, l_hat, t_p=[0.0, 0.0], seed=2)
    out = tmp_path / "assignment.csv"
    assignment.write_csv(str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "node_id,pool_id,is_head"
    assert len(lines) == 7
    assert sum(int(line.split(",")[2]) for line in lines[1:]) == 2


# --- loop oracles for the array kernels -------------------------------------
# Per-pair / per-candidate loop references. The array kernels must reproduce
# them exactly (==), not within a tolerance.


def oracle_estimate_latency(series, n_nodes, tau=None):
    l_hat = np.zeros((n_nodes, n_nodes))
    for i in range(n_nodes):
        for j in range(n_nodes):
            if i == j:
                continue
            values = series.get((i, j), [])
            if tau is not None:
                values = values[: tau - 1]
            if not values:
                raise InsufficientHistoryError(f"no observations for pair ({i}, {j})")
            l_hat[i, j] = sum(values) / len(values)
    return l_hat


def oracle_announce_heads(n_nodes, pool_count, l_hat, policy, seed):
    if policy == "random":
        rng = np.random.default_rng(seed)
        return [int(h) for h in rng.choice(n_nodes, size=pool_count, replace=False)]
    dist = (l_hat + l_hat.T) / 2.0
    if pool_count == 1:
        return [int(np.argmin(dist.sum(axis=1)))]
    iu = np.triu_indices(n_nodes, k=1)
    best = int(np.argmax(dist[iu]))
    heads = [int(iu[0][best]), int(iu[1][best])]
    while len(heads) < pool_count:
        candidates = [n for n in range(n_nodes) if n not in heads]
        min_dists = [min(dist[c, h] for h in heads) for c in candidates]
        heads.append(candidates[int(np.argmax(min_dists))])
    return heads


def oracle_assign_pools(n_nodes, heads, l_hat, t_p, seed):
    members = [[h] for h in heads]
    for node in pools.join_order(n_nodes, heads, seed):
        best_idx, best_key = None, None
        for idx, pool_members in enumerate(members):
            key = (pools.pool_cost(node, pool_members, t_p[idx], l_hat), heads[idx])
            if best_key is None or key < best_key:
                best_idx, best_key = idx, key
        members[best_idx].append(node)
    return members


def random_history(rng, n, max_len=6, missing=0.0):
    """A history with series of different lengths, plus the same series as a dict.

    Observations are recorded interleaved across pairs (each pair keeps its
    own order), so the depths of different pairs fill in arbitrary order."""
    series = {}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() >= missing:
                series[(i, j)] = rng.uniform(1, 500, size=int(rng.integers(1, max_len + 1))).tolist()
    tokens = [pair for pair, values in series.items() for _ in values]
    taken = dict.fromkeys(series, 0)
    hist = LatencyHistory()
    for idx in rng.permutation(len(tokens)):
        pair = tokens[idx]
        hist.record(*pair, series[pair][taken[pair]])
        taken[pair] += 1
    return hist, series


class TestKernelOracles:
    @pytest.mark.parametrize("n", [2, 3, 5, 9, 17])
    @pytest.mark.parametrize("tau", [None, -1, 0, 1, 2, 3, 4, 8])
    def test_estimate_latency_matches_loop(self, n, tau):
        rng = np.random.default_rng(1000 * n + (tau if tau is not None else 99))
        hist, series = random_history(rng, n)
        try:
            expected = oracle_estimate_latency(series, n, tau)
        except InsufficientHistoryError as exc:
            with pytest.raises(InsufficientHistoryError, match=re.escape(str(exc))):
                pools.estimate_latency(hist, n, tau=tau)
            return
        assert np.array_equal(pools.estimate_latency(hist, n, tau=tau), expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_estimate_latency_missing_pair_reported_first_in_row_major(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        hist, series = random_history(rng, n, missing=0.2)
        with pytest.raises(InsufficientHistoryError) as want:
            oracle_estimate_latency(series, n)
        with pytest.raises(InsufficientHistoryError) as got:
            pools.estimate_latency(hist, n)
        assert str(got.value) == str(want.value)

    def test_estimate_latency_on_bootstrap_matches_loop(self):
        lat = netsim.build_topology(40, seed=3, model=netsim.UniformTopology())
        hist = pools.bootstrap_history(lat, seed=4)
        series = {pair: hist.series(*pair) for pair in hist.pairs()}
        assert len(series) == 40 * 39
        assert np.array_equal(pools.estimate_latency(hist, 40), oracle_estimate_latency(series, 40))

    def test_estimate_latency_smaller_and_larger_than_history(self):
        rng = np.random.default_rng(5)
        hist, series = random_history(rng, 6)
        sub = {pair: v for pair, v in series.items() if max(pair) < 4}
        assert np.array_equal(pools.estimate_latency(hist, 4), oracle_estimate_latency(sub, 4))
        with pytest.raises(InsufficientHistoryError, match=r"pair \(0, 6\)"):
            pools.estimate_latency(hist, 7)

    @pytest.mark.parametrize("policy", ["spread", "random"])
    def test_announce_and_assign_match_loops(self, policy):
        for n in range(2, 41):
            rng = np.random.default_rng(n)
            if n % 2:
                l_hat = pools.estimate_latency(
                    pools.bootstrap_history(
                        netsim.build_topology(n, seed=n, model=netsim.UniformTopology()), seed=n
                    ),
                    n,
                )
            else:
                # coarse integer latencies, zeros included: many tied distances and costs
                l_hat = rng.integers(0, 4, size=(n, n)).astype(float)
                np.fill_diagonal(l_hat, 0.0)
            for p in range(1, n + 1):
                heads = pools.announce_heads(n, p, l_hat=l_hat, policy=policy, seed=p)
                assert heads == oracle_announce_heads(n, p, l_hat, policy, seed=p)
                t_p = rng.integers(0, 4, size=p).astype(float).tolist()
                assignment = pools.assign_pools(n, heads, l_hat, t_p, seed=n + p)
                expected = oracle_assign_pools(n, heads, l_hat, t_p, seed=n + p)
                assert [pool.members for pool in assignment.pools] == expected
                assert assignment.heads() == heads

    def test_assign_ties_go_to_lower_head_id_not_lower_pool_index(self):
        n = 7
        l_hat = np.full((n, n), 10.0)
        np.fill_diagonal(l_hat, 0.0)
        heads = [5, 1, 3]  # pool 0 has the highest head id
        assignment = pools.assign_pools(n, heads, l_hat, t_p=[20.0, 20.0, 20.0], seed=0)
        assert [pool.members for pool in assignment.pools] == oracle_assign_pools(
            n, heads, l_hat, [20.0, 20.0, 20.0], seed=0
        )
        assert assignment.pools[0].members == [5]
        assert assignment.pools[2].members == [3]
        assert sorted(assignment.pools[1].members) == [0, 1, 2, 4, 6]
