import gc
import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedchain import chain, netsim, pools
from fedchain.errors import (
    EstimateCountError,
    InsufficientHistoryError,
    InvalidTopologyError,
    NodeNotFoundError,
    TooManyPoolsError,
)
from fedchain.netsim import LatencyHistory
from conftest import oracle_pool_cost, random_heads, uniform_links


def history_for_pair(values, n=2):
    hist = LatencyHistory(n)
    for v in values:
        hist.record(0, 1, v)
    for v in values:
        hist.record(1, 0, v)
    return hist


def pool_of(assignment, node):
    for idx, pool in enumerate(assignment.pools):
        if node in pool.members:
            return idx
    raise KeyError(f"node {node} not assigned")


class TestEstimateLatency:
    @pytest.mark.parametrize(
        "series,expected",
        [([30], 30.0), ([10, 20, 30], 20.0), ([7, 9, 14, 10], 10.0)],
    )
    def test_arithmetic_mean(self, series, expected):
        hist = history_for_pair(series)
        l_hat = pools.estimate_latency(hist)
        assert l_hat[0, 1] == pytest.approx(expected, abs=0)

    def test_zero_diagonal(self):
        hist = history_for_pair([10])
        assert pools.estimate_latency(hist)[0, 0] == 0.0

    def test_missing_pair(self):
        hist = LatencyHistory(2)
        hist.record(0, 1, 5)
        with pytest.raises(InsufficientHistoryError):
            pools.estimate_latency(hist)

    def test_matches_mean_oracle(self):
        rng = np.random.default_rng(17)
        n = 4
        hist = LatencyHistory(n)
        series = {}
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                vals = rng.uniform(1, 100, size=rng.integers(1, 6)).tolist()
                series[(i, j)] = vals
                for v in vals:
                    hist.record(i, j, v)
        l_hat = pools.estimate_latency(hist)
        for (i, j), vals in series.items():
            assert l_hat[i, j] == pytest.approx(np.mean(vals), rel=1e-15)


class TestBootstrapHistory:
    def test_noise_band_and_determinism(self):
        lat = uniform_links(5, 2, 10, 50)
        h1 = pools.bootstrap_history(lat, seed=9)
        h2 = pools.bootstrap_history(lat, seed=9)
        for i in range(5):
            for j in range(5):
                if i == j:
                    assert (h1.total[i, j], h1.counts[i, j]) == (0.0, 0)
                    continue
                assert h1.counts[i, j] == 1
                assert 0.9 * lat[i, j] <= h1.total[i, j] <= 1.1 * lat[i, j]
        assert h2.total.tobytes() == h1.total.tobytes()
        assert np.array_equal(h2.counts, h1.counts)


class TestAnnounceHeads:
    def test_saturation(self):
        l_hat = np.ones((5, 5))
        heads = pools.announce_heads(5, 5, l_hat=l_hat)
        assert sorted(heads) == [0, 1, 2, 3, 4]

    def test_single_head_pool_holds_all_nodes(self):
        l_hat = netsim.build_topology(100, seed=4)
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
        heads = pools.announce_heads(4, 2, l_hat=d)
        assert sorted(heads) == sorted(best_pair) == [0, 3]

    def test_too_many_pools(self):
        with pytest.raises(TooManyPoolsError):
            pools.announce_heads(3, 4, l_hat=np.zeros((3, 3)))


class TestPoolCost:
    """`assign_pools` joins each node to the pool of least cost
    max(t_p, worst link to a current member), the lower head on a tie. Each
    case fails under one wrong rule: the links alone, the time estimates
    alone, the first pool on a tie, the head's link alone."""

    def setup_method(self):
        # node 0 is 20 from head 1 and 40 from head 2
        self.l_hat = np.array([[0, 20, 40], [20, 0, 5], [40, 5, 0]], dtype=float)

    def members(self, heads, t_p, l_hat=None):
        l_hat = self.l_hat if l_hat is None else l_hat
        assignment = pools.assign_pools(len(l_hat), heads, l_hat, t_p, seed=0)
        return [pool.members for pool in assignment.pools]

    def test_compute_bound(self):
        # max(100, 20) > max(50, 40): the nearer head's pool is slower
        assert self.members([1, 2], [100.0, 50.0]) == [[1], [2, 0]]

    def test_latency_bound(self):
        # max(10, 20) < max(5, 40): the links outweigh both estimates
        assert self.members([1, 2], [10.0, 5.0]) == [[1, 0], [2]]

    def test_tie(self):
        # max(30, 40) == max(40, 20): head 1 wins, though it leads pool 1
        assert self.members([2, 1], [30.0, 40.0]) == [[2], [1, 0]]

    def test_monotone_in_new_worst_member(self):
        # The first joiner sits by head 0, 50 from the second joiner, so the
        # second's cost for head 0's pool grows from its head link 10 to 50,
        # above the 30 of head 3's pool.
        first, second = pools.join_order(4, [0, 3], seed=0)
        l_hat = np.full((4, 4), 100.0)
        np.fill_diagonal(l_hat, 0.0)
        l_hat[first, 0] = 5.0
        l_hat[second, [0, 3, first]] = [10.0, 30.0, 50.0]
        assert self.members([0, 3], [0.0, 0.0], l_hat) == [[0, first], [3, second]]


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
        assert pool_of(assignment, 0) == 0  # joins head 1's pool over head 2's

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
                cost += oracle_pool_cost(node, others, 0.0, l_hat)
            return cost

        best = min(itertools.product([0, 1], repeat=4), key=total_cost)
        expected = {node: pool for node, pool in zip(non_heads, best)}
        assignment = pools.assign_pools(n, heads, l_hat, t_p=[0.0, 0.0], seed=3)
        for node in non_heads:
            assert pool_of(assignment, node) == expected[node]
        assert sorted(assignment.pools[0].members) == [0, 1, 2]
        assert sorted(assignment.pools[1].members) == [3, 4, 5]

    def test_partition_invariant(self):
        l_hat = netsim.build_topology(20, seed=8)
        heads = pools.announce_heads(20, 4, l_hat=l_hat)
        assignment = pools.assign_pools(20, heads, l_hat, t_p=[0.0] * 4, seed=5)
        assert sorted(m for pool in assignment.pools for m in pool.members) == list(range(20))

    def test_greedy_local_optimality_replay(self):
        # Rebuild memberships in join order and check each node's chosen pool
        # was cost-minimal at the moment it joined.
        n, k = 15, 3
        l_hat = netsim.build_topology(n, seed=21)
        heads = pools.announce_heads(n, k, l_hat=l_hat)
        t_p = [40.0, 10.0, 90.0]
        seed = 13
        assignment = pools.assign_pools(n, heads, l_hat, t_p, seed=seed)
        members = {idx: [pool.head] for idx, pool in enumerate(assignment.pools)}
        for node in pools.join_order(n, heads, seed):
            chosen = pool_of(assignment, node)
            costs = {
                idx: oracle_pool_cost(node, members[idx], t_p[idx], l_hat)
                for idx in members
            }
            assert costs[chosen] == min(costs.values())
            members[chosen].append(node)


# --- loop oracles for the array kernels -------------------------------------
# Per-pair / per-candidate loop references. The array kernels must reproduce
# them exactly (==), not within a tolerance.


def oracle_estimate_latency(series, n_nodes):
    l_hat = np.zeros((n_nodes, n_nodes))
    for i in range(n_nodes):
        for j in range(n_nodes):
            if i == j:
                continue
            values = series.get((i, j), [])
            if not values:
                raise InsufficientHistoryError(f"no observations for pair ({i}, {j})")
            l_hat[i, j] = sum(values) / len(values)
    return l_hat


def oracle_announce_heads(n_nodes, pool_count, l_hat):
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
            key = (oracle_pool_cost(node, pool_members, t_p[idx], l_hat), heads[idx])
            if best_key is None or key < best_key:
                best_idx, best_key = idx, key
        members[best_idx].append(node)
    return members


def random_history(rng, n, max_len=6, missing=0.0, stop=None):
    """A history with series of different lengths, plus the same series as a dict.

    Each pair draws up to `max_len` observations and keeps `values[:stop]`
    of them; a pair left with none is not recorded. Observations are
    recorded interleaved across pairs (each pair keeps its own order), so
    the counts of different pairs grow in arbitrary order."""
    series = {}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() >= missing:
                values = rng.uniform(1, 500, size=int(rng.integers(1, max_len + 1))).tolist()
                if values[:stop]:
                    series[(i, j)] = values[:stop]
    tokens = [pair for pair, values in series.items() for _ in values]
    taken = dict.fromkeys(series, 0)
    hist = LatencyHistory(n)
    for idx in rng.permutation(len(tokens)):
        pair = tokens[idx]
        hist.record(*pair, series[pair][taken[pair]])
        taken[pair] += 1
    return hist, series


class TestKernelOracles:
    @pytest.mark.parametrize("n", [2, 3, 5, 9, 17])
    @pytest.mark.parametrize("stop", [None, -1, 0, 1, 2, 3, 4, 8])
    def test_estimate_latency_matches_loop(self, n, stop):
        # `stop` caps each pair's series (`values[:stop]`): the histories
        # range from missing pairs to six observations per pair
        rng = np.random.default_rng(1000 * n + (stop if stop is not None else 99))
        hist, series = random_history(rng, n, stop=stop)
        try:
            expected = oracle_estimate_latency(series, n)
        except InsufficientHistoryError as exc:
            with pytest.raises(InsufficientHistoryError, match=re.escape(str(exc))):
                pools.estimate_latency(hist)
            return
        assert np.array_equal(pools.estimate_latency(hist), expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_estimate_latency_missing_pair_reported_first_in_row_major(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        hist, series = random_history(rng, n, missing=0.2)
        with pytest.raises(InsufficientHistoryError) as want:
            oracle_estimate_latency(series, n)
        with pytest.raises(InsufficientHistoryError) as got:
            pools.estimate_latency(hist)
        assert str(got.value) == str(want.value)

    def test_estimate_latency_on_bootstrap_matches_loop(self):
        lat = netsim.build_topology(40, seed=3)
        hist = pools.bootstrap_history(lat, seed=4)
        # the one noisy ping per pair that bootstrap_history draws
        observed = np.random.default_rng(4).uniform(*pools.BOOTSTRAP_NOISE, size=(40, 40)) * lat
        series = {(i, j): [float(observed[i, j])] for i in range(40) for j in range(40) if i != j}
        assert hist.pairs() == sorted(series)
        assert np.array_equal(pools.estimate_latency(hist), oracle_estimate_latency(series, 40))

    @pytest.mark.parametrize("policy", ["spread", "random"])
    def test_announce_and_assign_match_loops(self, policy):
        # "random" assigns on seeded random heads, which announce_heads
        # would not pick
        for n in range(2, 41):
            rng = np.random.default_rng(n)
            if n % 2:
                l_hat = pools.estimate_latency(
                    pools.bootstrap_history(netsim.build_topology(n, seed=n), seed=n)
                )
            else:
                # coarse integer latencies, zeros included: many tied distances and costs
                l_hat = rng.integers(0, 4, size=(n, n)).astype(float)
                np.fill_diagonal(l_hat, 0.0)
            for p in range(1, n + 1):
                if policy == "spread":
                    heads = pools.announce_heads(n, p, l_hat=l_hat)
                    assert heads == oracle_announce_heads(n, p, l_hat)
                else:
                    heads = random_heads(n, p, seed=p)
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


    def test_announce_diagonal_global_max_asymmetric(self):
        # the diagonal holds the largest entries, and l_hat is not symmetric
        rng = np.random.default_rng(31)
        for n in (2, 3, 7, 16):
            l_hat = rng.uniform(1, 100, size=(n, n))
            np.fill_diagonal(l_hat, 1000.0 + np.arange(n))
            for p in range(1, n + 1):
                assert pools.announce_heads(n, p, l_hat=l_hat) == oracle_announce_heads(n, p, l_hat)

    def test_announce_integer_dtype(self):
        rng = np.random.default_rng(32)
        for n in (2, 5, 12, 25):
            l_hat = rng.integers(0, 50, size=(n, n))
            assert l_hat.dtype.kind == "i"
            for p in range(1, n + 1):
                assert pools.announce_heads(n, p, l_hat=l_hat) == oracle_announce_heads(n, p, l_hat)

    @pytest.mark.parametrize("pairs", [
        [(1, 4), (4, 1)],                  # mirrored only
        [(2, 5), (0, 3)],                  # non-mirrored, lower row first
        [(5, 1), (3, 2)],                  # both in the lower triangle
        [(4, 0), (1, 2), (2, 1), (0, 5)],  # mixed
    ])
    def test_announce_tied_maximum(self, pairs):
        n = 6
        l_hat = np.random.default_rng(33).uniform(1, 50, size=(n, n))
        for i, j in pairs:
            l_hat[i, j] = l_hat[j, i] = 100.0
        for p in range(1, n + 1):
            assert pools.announce_heads(n, p, l_hat=l_hat) == oracle_announce_heads(n, p, l_hat)

    @pytest.mark.parametrize("seed", range(3))
    def test_assign_matches_loop_at_200_nodes(self, seed):
        n = 200
        rng = np.random.default_rng(200 + seed)
        l_hat = rng.uniform(1, 100, size=(n, n))
        np.fill_diagonal(l_hat, 0.0)
        for p in (2, 9, 40):
            heads = pools.announce_heads(n, p, l_hat=l_hat)
            t_p = rng.uniform(0, 100, size=p).tolist()
            assignment = pools.assign_pools(n, heads, l_hat, t_p, seed=seed)
            assert [pool.members for pool in assignment.pools] == oracle_assign_pools(
                n, heads, l_hat, t_p, seed=seed)

    def test_estimate_latency_is_fresh_and_silent(self):
        rng = np.random.default_rng(34)
        hist, series = random_history(rng, 5)
        total = hist.total.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            l_hat = pools.estimate_latency(hist)
        assert np.array_equal(l_hat, oracle_estimate_latency(series, 5))
        l_hat[:] = -1.0
        assert hist.total.tobytes() == total.tobytes()

    @pytest.mark.parametrize("n_nodes", [0, 1])
    def test_estimate_latency_empty_history(self, n_nodes):
        got = pools.estimate_latency(LatencyHistory(n_nodes))
        assert got.dtype == np.float64
        assert got.tobytes() == oracle_estimate_latency({}, n_nodes).tobytes()


class TestMemoryOrder:
    """`estimate_latency` returns a column-major array, and the formation
    kernels read any layout the same."""

    def test_estimate_is_fortran_ordered_and_fresh(self):
        lat = netsim.build_topology(30, seed=6)
        adopted = pools.bootstrap_history(lat, seed=7)
        for hist in (adopted, random_history(np.random.default_rng(8), 6)[0]):
            n = hist.n_nodes
            total = hist.total.copy()
            l_hat = pools.estimate_latency(hist)
            assert l_hat.flags.f_contiguous and l_hat.flags.owndata
            assert not np.shares_memory(l_hat, hist.total)
            l_hat[:] = -1.0
            assert hist.total.tobytes() == total.tobytes()

    @pytest.mark.parametrize("n", [2, 7, 31])
    def test_announce_and_assign_equal_on_c_and_f_copies(self, n):
        rng = np.random.default_rng(n)
        estimates = [
            pools.estimate_latency(pools.bootstrap_history(netsim.build_topology(n, seed=n), seed=n)),
            rng.integers(0, 4, size=(n, n)),  # integer, with many ties
        ]
        for l_hat in estimates:
            layouts = [np.ascontiguousarray(l_hat), np.asfortranarray(l_hat)]
            assert layouts[0].flags.c_contiguous and layouts[1].flags.f_contiguous
            for p in range(1, n + 1):
                t_p = rng.integers(0, 4, size=p).astype(float).tolist()
                got = []
                for layout in layouts:
                    heads = pools.announce_heads(n, p, l_hat=layout)
                    assignment = pools.assign_pools(n, heads, layout, t_p, seed=p)
                    got.append((heads, [pool.members for pool in assignment.pools]))
                assert got[0] == got[1]
                heads = got[0][0]
                assert heads == oracle_announce_heads(n, p, l_hat)
                assert got[0][1] == oracle_assign_pools(n, heads, l_hat, t_p, seed=p)


class TestFormationInputs:
    """Mismatched formation inputs fail with a named error before any n x n work."""

    def setup_method(self):
        self.l_hat = np.full((5, 5), 10.0)
        np.fill_diagonal(self.l_hat, 0.0)

    def test_announce_latency_larger_than_network(self):
        with pytest.raises(InvalidTopologyError):
            pools.announce_heads(4, 3, l_hat=self.l_hat)

    def test_announce_latency_smaller_than_network(self):
        with pytest.raises(InvalidTopologyError):
            pools.announce_heads(5, 2, l_hat=self.l_hat[:3, :3])

    @pytest.mark.parametrize("shape", [(3, 3), (5, 4), (6, 6)])
    def test_assign_latency_of_wrong_shape(self, shape):
        l_hat = np.ones(shape)
        with pytest.raises(InvalidTopologyError):
            pools.assign_pools(5, [0, 2], l_hat, [0.0, 0.0])

    @pytest.mark.parametrize("t_p", [[0.0], [0.0, 0.0, 0.0], []])
    def test_assign_estimates_not_one_per_head(self, t_p):
        with pytest.raises(EstimateCountError, match=f"{len(t_p)} time estimates for 2 pools"):
            pools.assign_pools(5, [0, 2], self.l_hat, t_p)

    @pytest.mark.parametrize("heads", [[1, 1], [0, 5], [-1, 2], [3, 2, 3]])
    def test_assign_heads_not_distinct_nodes(self, heads):
        with pytest.raises(NodeNotFoundError):
            pools.assign_pools(5, heads, self.l_hat, [0.0] * len(heads))

    def test_assign_without_heads(self):
        with pytest.raises(TooManyPoolsError):
            pools.assign_pools(5, [], self.l_hat, [])


def formation_before(setup):
    """`chain._form_pools`' heads and members, formed as before the estimate
    copied the adopted ping: the estimate divides the ping by its count 1,
    `dist` is a fresh array read through a transposed view and halved with
    `/ 2.0`, and each join slices its pool costs out of `cost`."""
    n, p = setup.n_nodes, setup.n_pools
    history = pools.bootstrap_history(setup.latency, seed=chain._derive_seed(setup.seed, "ping"))
    with np.errstate(invalid="ignore"):
        l_hat = np.divide(history.total, history.uniform_count, order="F")
    np.fill_diagonal(l_hat, 0.0)
    dist = np.add(l_hat, l_hat.T, dtype=np.float64)
    dist /= 2.0
    if p == 1:
        heads = [int(np.argmin(dist.sum(axis=1)))]
    else:
        np.fill_diagonal(dist, -np.inf)
        heads = list(divmod(int(np.argmax(dist)), n))
        min_dist = np.minimum(dist[heads[0]], dist[heads[1]])
        min_dist[heads] = -np.inf
        while len(heads) < p:
            head = int(np.argmax(min_dist))
            heads.append(head)
            np.minimum(min_dist, dist[head], out=min_dist)
            min_dist[head] = -np.inf
    t_p = [setup.train.epochs * float(setup.compute_times[h]) for h in heads]
    by_head = np.argsort(np.asarray(heads), kind="stable")
    members = [[h] for h in heads]
    members_by_head = [members[idx] for idx in by_head]
    cost = np.maximum(l_hat[:, np.asarray(heads)[by_head]].T,
                      np.asarray(t_p)[by_head][:, None], order="C")
    for node in pools.join_order(n, heads, chain._derive_seed(setup.seed, "join")):
        c = int(cost[:, node].argmin())
        members_by_head[c].append(node)
        np.maximum(cost[c], l_hat[:, node], out=cost[c])
    return heads, members


def formation_setup(latency, p, seed):
    return chain.RoundSetup(task=None, latency=latency,
                            compute_times=netsim.draw_compute_times(len(latency), seed=seed + 3),
                            miner_data=[], n_pools=p, seed=seed)


class TestFormationBefore:
    """`chain._form_pools` forms the pools of `formation_before`."""

    @pytest.mark.parametrize("n,p,seed", [(600, 60, s) for s in (0, 1, 2, 20231)]
                             + [(50, 5, 3), (40, 1, 4), (9, 9, 5)])
    def test_same_pools(self, n, p, seed):
        latency = netsim.build_topology(n, seed=seed * 31 + 5)
        setup = formation_setup(latency, p, seed)
        assignment, _ = chain._form_pools(setup)
        heads, members = formation_before(setup)
        assert assignment.heads() == heads
        assert [pool.members for pool in assignment.pools] == members

    @pytest.mark.parametrize("p", [1, 3, 12])
    def test_same_pools_on_integer_latency(self, p):
        latency = np.random.default_rng(p).integers(1, 4, size=(30, 30))
        np.fill_diagonal(latency, 0)
        setup = formation_setup(latency, p, seed=p)
        assignment, _ = chain._form_pools(setup)
        heads, members = formation_before(setup)
        assert assignment.heads() == heads
        assert [pool.members for pool in assignment.pools] == members


class TestFormationMemory:
    def test_form_pools_peak(self):
        # Formation holds at most two n x n float64 arrays at once: the
        # adopted ping (the history's `total`) and the estimate copied from
        # it. `announce_heads` symmetrizes into the ping, which is dropped
        # before assignment. A history that copies the ping into a
        # zero-filled `total` next to a `counts` array reads 3.1.
        n, p = 400, 40
        setup = chain.RoundSetup(
            task=None,
            latency=netsim.build_topology(n, seed=5),
            compute_times=netsim.draw_compute_times(n, seed=3),
            miner_data=[],
            n_pools=p,
            seed=1,
        )
        chain._form_pools(setup)
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            chain._form_pools(setup)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * n * 8


positive_floats = st.floats(min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False)
positive_ints = st.integers(min_value=1, max_value=10**9)


@st.composite
def record_ops(draw, n):
    """A list of `record` calls: single observations among nodes [0, n)."""
    ops = []
    for _ in range(draw(st.integers(0, 10 if n > 1 else 0))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        ops.append((i, j, draw(st.one_of(positive_floats, positive_ints))))
    return ops


@st.composite
def history_ops(draw):
    """A network of 1 to 8 nodes; a float or int matrix of its size to
    adopt, or None for an empty history; and a list of `record` calls
    after it, so that its pairs reach different counts."""
    n = draw(st.integers(1, 8))
    observed = None
    if draw(st.booleans()):
        dtype, elements = draw(st.sampled_from([(np.float64, positive_floats),
                                                (np.int64, positive_ints)]))
        observed = draw(hnp.arrays(dtype, (n, n), elements=elements))
        np.fill_diagonal(observed, draw(st.sampled_from([0, -3, 1])))  # never recorded
    return n, observed, draw(record_ops(n))


def history_of(n, observed):
    return LatencyHistory(n) if observed is None else LatencyHistory.adopt(observed)


class TestHistoryProperty:
    """Records on an empty or an adopted history give the bytes of a
    per-pair `sum(series) / len(series)` over the observations as floats,
    and InsufficientHistoryError exactly when some pair has no
    observation."""

    @settings(max_examples=200, deadline=None)
    @given(history_ops())
    def test_estimate_equals_running_mean_oracle(self, plan):
        n, observed, ops = plan
        series = {}
        if observed is not None:
            for i, j in itertools.permutations(range(n), 2):
                series[(i, j)] = [float(observed[i, j])]
        hist = history_of(n, observed)
        for i, j, value in ops:
            hist.record(i, j, value)
            series.setdefault((i, j), []).append(float(value))
        assert hist.pairs() == sorted(series)
        assert {pair: int(hist.counts[pair]) for pair in series} == {
            pair: len(values) for pair, values in series.items()}
        missing = [(i, j) for i in range(n) for j in range(n)
                   if i != j and (i, j) not in series]
        if missing:
            with pytest.raises(InsufficientHistoryError,
                               match=re.escape(f"no observations for pair {missing[0]}")):
                pools.estimate_latency(hist)
        else:
            got = pools.estimate_latency(hist)
            assert got.tobytes() == oracle_estimate_latency(series, n).tobytes()


def estimate_or_error(hist):
    """The estimate's bytes, or the InsufficientHistoryError message."""
    try:
        return pools.estimate_latency(hist).tobytes()
    except InsufficientHistoryError as exc:
        return str(exc)


def histories_equal(got, want):
    """Same sums (bit for bit), counts, pairs and estimate bytes."""
    assert got.n_nodes == want.n_nodes
    assert got.total.dtype == want.total.dtype == np.float64
    assert got.total.tobytes() == want.total.tobytes()
    assert len(got) == len(want) and got.pairs() == want.pairs()
    assert estimate_or_error(got) == estimate_or_error(want)
    assert np.array_equal(got.counts, want.counts)


class TestCountsReadProperty:
    """Reading `counts` changes nothing: a history whose counts are read
    between its records keeps the representation, sums, length and
    estimate bytes of one whose counts are never read."""

    @settings(max_examples=200, deadline=None)
    @given(history_ops(), st.data())
    def test_read_and_unread_histories_agree(self, plan, data):
        n, observed, ops = plan
        read = history_of(n, None if observed is None else observed.copy())
        unread = history_of(n, observed)

        def agree():
            assert read.uniform_count == unread.uniform_count
            assert read.total.tobytes() == unread.total.tobytes()
            assert len(read) == len(unread)
            assert estimate_or_error(read) == estimate_or_error(unread)

        for op in [*ops, None]:
            if data.draw(st.booleans(), label="read counts"):
                read.counts
                agree()
            if op is not None:
                read.record(*op)
                unread.record(*op)
        agree()


@st.composite
def pings(draw):
    """A latency matrix with a zero diagonal, as `build_topology` makes,
    and a seed for `bootstrap_history`'s noise."""
    n = draw(st.integers(1, 8))
    latency = draw(hnp.arrays(np.float64, (n, n), elements=st.floats(1e-3, 1e6)))
    np.fill_diagonal(latency, 0.0)
    return latency, draw(st.integers(0, 2**32 - 1))


class TestAdoptedPingProperty:
    """`bootstrap_history` adopts its ping with a uniform count of 1; the
    history equals an empty one that records the same ping pair by pair
    in row-major order, and stays equal under further records."""

    @settings(max_examples=150, deadline=None)
    @given(pings(), st.data())
    def test_adopted_equals_recorded(self, ping, data):
        latency, seed = ping
        n = latency.shape[0]
        observed = np.random.default_rng(seed).uniform(*pools.BOOTSTRAP_NOISE, size=(n, n))
        observed *= latency
        adopted = pools.bootstrap_history(latency, seed)
        recorded = LatencyHistory(n)
        for i, j in itertools.permutations(range(n), 2):  # row-major
            recorded.record(i, j, observed[i, j])
        assert adopted.uniform_count == 1 and recorded.uniform_count is None
        histories_equal(adopted, recorded)
        for op in data.draw(record_ops(n), label="ops"):
            for hist in (adopted, recorded):
                hist.record(*op)
            histories_equal(adopted, recorded)


@st.composite
def adopted_pings(draw):
    """A row-major float64 ping with a zero diagonal, as an adopted history
    holds it, drawn from few values so that distances tie, and a pool count."""
    n = draw(st.integers(1, 9))
    values = st.one_of(st.sampled_from([1.0, 2.0, 3.0]), positive_floats)
    ping = draw(hnp.arrays(np.float64, (n, n), elements=values))
    np.fill_diagonal(ping, 0.0)
    return ping, draw(st.integers(1, n))


class TestAnnounceWithPing:
    """Symmetrizing into the ping picks the heads of a fresh `dist`."""

    @settings(max_examples=200, deadline=None)
    @given(adopted_pings())
    def test_same_heads_with_and_without_ping(self, case):
        ping, p = case
        n = len(ping)
        l_hat = np.array(ping, order="F")
        without = pools.announce_heads(n, p, l_hat=l_hat)
        with_ping = pools.announce_heads(n, p, l_hat=l_hat, ping=ping.copy())
        assert with_ping == without == oracle_announce_heads(n, p, l_hat)

    def test_ping_is_overwritten_with_dist(self):
        ping = netsim.build_topology(7, seed=2)
        l_hat = np.array(ping, order="F")
        target = ping.copy()
        pools.announce_heads(7, 1, l_hat=l_hat, ping=target)
        assert target.tobytes() == ((ping + ping.T) / 2.0).tobytes()

    @pytest.mark.parametrize("shape", [(4, 4), (5, 6), (6, 6)])
    def test_ping_of_wrong_shape(self, shape):
        l_hat = np.ones((5, 5))
        with pytest.raises(InvalidTopologyError):
            pools.announce_heads(5, 2, l_hat=l_hat, ping=np.ones(shape))
