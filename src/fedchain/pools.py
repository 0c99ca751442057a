"""Mining-pool aggregation: latency estimation, head announcement, membership.

Nodes estimate pairwise latency from observation history, a configurable
number of heads announce themselves, and the remaining nodes greedily join
the pool with the smallest estimated time cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientHistoryError, TooManyPoolsError
from .netsim import LatencyHistory

BOOTSTRAP_NOISE = (0.9, 1.1)


@dataclass
class Pool:
    head: int
    members: list[int]  # head first, then join order


@dataclass
class PoolAssignment:
    pools: list[Pool]

    @property
    def n_pools(self) -> int:
        return len(self.pools)

    def heads(self) -> list[int]:
        return [p.head for p in self.pools]

    def pool_of(self, node: int) -> int:
        for idx, pool in enumerate(self.pools):
            if node in pool.members:
                return idx
        raise KeyError(f"node {node} not assigned")

    def all_members(self) -> list[int]:
        return [m for pool in self.pools for m in pool.members]

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("node_id,pool_id,is_head\n")
            for idx, pool in enumerate(self.pools):
                for member in sorted(pool.members):
                    fh.write(f"{member},{idx},{int(member == pool.head)}\n")


def bootstrap_history(latency: np.ndarray, seed: int) -> LatencyHistory:
    """Seed one observation per directed pair from a noisy one-shot ping.

    Used in the first round, before any real exchange has been measured:
    the observation is the true link latency scaled by U(0.9, 1.1).
    """
    n = latency.shape[0]
    rng = np.random.default_rng(seed)
    factors = rng.uniform(*BOOTSTRAP_NOISE, size=(n, n))
    history = LatencyHistory(n)
    history.record_matrix(np.asarray(latency, dtype=np.float64) * factors)
    return history


def estimate_latency(history: LatencyHistory, n_nodes: int, tau: int | None = None) -> np.ndarray:
    """Estimated latency matrix: per-pair arithmetic mean of the history.

    With `tau` given, only the first tau-1 observations of each pair are
    averaged (`series[:tau - 1]`); otherwise the full series is used. The
    layers are summed in depth order, so every mean is bit-identical to
    `sum(series) / len(series)` (see `LatencyHistory`).
    """
    size = min(n_nodes, history.n_nodes)
    counts = np.zeros((n_nodes, n_nodes), dtype=np.int64)
    counts[:size, :size] = history.counts[:size, :size]
    if tau is not None:
        stop = tau - 1
        counts = np.minimum(counts, stop) if stop >= 0 else np.maximum(counts + stop, 0)
    np.fill_diagonal(counts, 1)  # the diagonal divides an all-zero total
    if not counts.all():
        i, j = np.unravel_index(int(np.argmin(counts)), counts.shape)
        raise InsufficientHistoryError(f"no observations for pair ({i}, {j})")
    total = np.zeros((n_nodes, n_nodes))
    for depth, layer in enumerate(history.layers[: counts.max(initial=0)]):
        total[:size, :size] += np.where(counts[:size, :size] > depth, layer[:size, :size], 0.0)
    return total / counts


def announce_heads(
    n_nodes: int,
    pool_count: int,
    l_hat: np.ndarray | None = None,
    policy: str = "spread",
    seed: int | None = None,
) -> list[int]:
    """Select the pool heads.

    `random` draws a seeded uniform sample. `spread` picks heads by greedy
    farthest-point selection on the symmetrized estimated latency: the two
    mutually farthest nodes first, then repeatedly the node maximizing the
    minimum distance to the chosen heads (a single head is the medoid).
    """
    if pool_count < 1:
        raise TooManyPoolsError(f"pool count must be >= 1, got {pool_count}")
    if pool_count > n_nodes:
        raise TooManyPoolsError(f"{pool_count} pools for {n_nodes} nodes")

    if policy == "random":
        rng = np.random.default_rng(seed)
        return [int(h) for h in rng.choice(n_nodes, size=pool_count, replace=False)]
    if policy != "spread":
        raise ValueError(f"unknown head policy: {policy!r}")

    if l_hat is None:
        raise ValueError("spread policy requires an estimated latency matrix")
    dist = (l_hat + l_hat.T) / 2.0
    if pool_count == 1:
        return [int(np.argmin(dist.sum(axis=1)))]

    iu = np.triu_indices(n_nodes, k=1)
    best = int(np.argmax(dist[iu]))
    heads = [int(iu[0][best]), int(iu[1][best])]
    # Running min distance to the chosen heads; chosen heads are masked to
    # -inf so argmax keeps the first (lowest-id) farthest candidate.
    min_dist = np.minimum(dist[:, heads[0]], dist[:, heads[1]])
    min_dist[heads] = -np.inf
    while len(heads) < pool_count:
        head = int(np.argmax(min_dist))
        heads.append(head)
        np.minimum(min_dist, dist[:, head], out=min_dist)
        min_dist[head] = -np.inf
    return heads


def pool_cost(node: int, members: Sequence[int], t_p: float, l_hat: np.ndarray) -> float:
    """Estimated time cost for `node` to join a pool with the given members.

    The outer term is the pool's training-time estimate; the inner term is
    the worst estimated latency from the node to any current member.
    """
    worst_link = max(float(l_hat[node, m]) for m in members)
    return max(float(t_p), worst_link)


def join_order(n_nodes: int, heads: Iterable[int], seed: int) -> list[int]:
    """Seeded random order in which non-head nodes pick their pool."""
    head_set = set(heads)
    rng = np.random.default_rng(seed)
    non_heads = [n for n in range(n_nodes) if n not in head_set]
    return [non_heads[i] for i in rng.permutation(len(non_heads))]


def assign_pools(
    n_nodes: int,
    heads: Sequence[int],
    l_hat: np.ndarray,
    t_p: Sequence[float],
    seed: int = 0,
) -> PoolAssignment:
    """Sequential greedy pool membership.

    Non-head nodes are processed in a seeded random order; each joins the
    pool minimizing `pool_cost` against that pool's membership at the moment
    of joining. Ties go to the pool with the lower head id.

    `worst[node, c]` is the worst estimated link from `node` to the current
    members of the pool in column c, so `np.maximum(t_p, worst[node])` is
    `pool_cost` for every pool at once. Columns are ordered by head id, so
    argmin's first-minimum rule breaks ties toward the lower head.
    """
    pools = [Pool(head=h, members=[h]) for h in heads]
    by_head = np.argsort(np.asarray(heads), kind="stable")
    t_p_sorted = np.asarray(t_p, dtype=np.float64)[by_head]
    worst = np.asarray(l_hat, dtype=np.float64)[:, [heads[idx] for idx in by_head]]
    for node in join_order(n_nodes, heads, seed):
        col = int(np.argmin(np.maximum(t_p_sorted, worst[node])))
        pools[by_head[col]].members.append(node)
        np.maximum(worst[:, col], l_hat[:, node], out=worst[:, col])
    return PoolAssignment(pools=pools)


def pool_time_estimate(
    members: Sequence[int],
    compute_times: np.ndarray,
    l_hat: np.ndarray,
    rounds_hint: int = 1,
    chunk_units: int = 1,
) -> float:
    """A-priori estimate of the pool's training duration under ring all-reduce.

    One round costs the slowest member's compute time plus 2(|p|-1) ring hops
    at the mean intra-pool estimated latency, scaled by the chunk size units.
    """
    k = len(members)
    if k == 0:
        raise ValueError("pool must be non-empty")
    max_compute = max(float(compute_times[m]) for m in members)
    if k == 1:
        return rounds_hint * max_compute
    links = [float(l_hat[i, j]) for i in members for j in members if i != j]
    mean_latency = sum(links) / len(links)
    return rounds_hint * (max_compute + 2 * (k - 1) * mean_latency * chunk_units)
