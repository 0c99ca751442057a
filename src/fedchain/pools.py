"""Mining-pool aggregation: latency estimation, head announcement, membership.

Nodes estimate pairwise latency from observation history, a configurable
number of heads announce themselves, and the remaining nodes greedily join
the pool with the smallest estimated time cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EstimateCountError,
    InsufficientHistoryError,
    InvalidTopologyError,
    NodeNotFoundError,
    TooManyPoolsError,
)
from .netsim import LatencyHistory

BOOTSTRAP_NOISE = (0.9, 1.1)


@dataclass
class Pool:
    head: int
    members: list[int]  # head first, then join order


@dataclass
class PoolAssignment:
    pools: list[Pool]

    def heads(self) -> list[int]:
        return [p.head for p in self.pools]


def bootstrap_history(latency: np.ndarray, seed: int) -> LatencyHistory:
    """Seed one observation per directed pair from a noisy one-shot ping.

    Used in the first round, before any real exchange has been measured:
    the observation is the true link latency scaled by U(0.9, 1.1). The
    history adopts the freshly drawn ping as its `total` (see
    `LatencyHistory.adopt`), so no n x n array is filled or added.
    """
    n = latency.shape[0]
    rng = np.random.default_rng(seed)
    observed = rng.uniform(*BOOTSTRAP_NOISE, size=(n, n))
    observed *= np.asarray(latency, dtype=np.float64)
    return LatencyHistory.adopt(observed)


def estimate_latency(history: LatencyHistory) -> np.ndarray:
    """Estimated latency matrix of the history's nodes: per-pair arithmetic
    mean of the history.

    A fresh column-major (Fortran-ordered) array, so that column
    `l_hat[:, node]`, the links from every node to `node`, is contiguous:
    `history.total` divided by the counts, with the diagonal (0 / 0 on a
    counts array) filled with 0. An adopted history (see `LatencyHistory`)
    has every pair and is copied (its count is 1, and x / 1 == x); a
    counted one divides by its counts array. Every mean is bit-identical to
    `sum(series) / len(series)` over the pair's observations as floats.
    Since the count diagonal is always 0, every pair has an observation
    exactly when the counts have `n * (n - 1)` nonzero entries. Otherwise
    InsufficientHistoryError names the first pair in row-major order that
    has no observation.
    """
    if history.uniform_count == 1:
        l_hat = np.array(history.total, order="F")
    else:
        counts, n = history.counts, history.n_nodes
        if np.count_nonzero(counts) < n * (n - 1):
            missing = counts == 0
            np.fill_diagonal(missing, False)
            i, j = np.unravel_index(int(np.argmax(missing)), missing.shape)
            raise InsufficientHistoryError(f"no observations for pair ({i}, {j})")
        with np.errstate(invalid="ignore"):
            l_hat = np.divide(history.total, counts, order="F")
    np.fill_diagonal(l_hat, 0.0)
    return l_hat


def announce_heads(pool_count: int, l_hat: np.ndarray,
                   ping: np.ndarray | None = None) -> list[int]:
    """Select the pool heads among the nodes of the square estimate `l_hat`.

    Heads are picked by greedy farthest-point selection on the symmetrized
    estimated latency: the two mutually farthest nodes first, then
    repeatedly the node maximizing the minimum distance to the chosen heads
    (a single head is the medoid).

    `dist` is one float64 array, `(l_hat + l_hat.T) * 0.5`, the bits of
    `/ 2`. `ping`, the row-major float64 array an adopted history's
    estimate was copied from (`history.total`), is overwritten with it as
    `ping + l_hat.T`: both operands contiguous, and the same fl(a + b). An
    `l_hat` that is not square, or a `ping` not of its shape, raises
    InvalidTopologyError. `dist` is exactly symmetric: both mirrored
    entries are fl(fl(a + b) / 2), and fl(a + b) = fl(b + a). So with the
    diagonal set to -inf, the first maximum of the whole matrix in
    row-major order lies in the upper triangle (its mirror would come
    first otherwise), and it is the first maximum of the upper triangle in
    row-major order, the pair an upper-triangle scan picks. For the same
    reason row `dist[h]` equals column `dist[:, h]`, so the farthest-point
    loop reads contiguous rows.
    """
    if pool_count < 1:
        raise TooManyPoolsError(f"pool count must be >= 1, got {pool_count}")
    n_nodes = _check_latency(l_hat, ping)
    if pool_count > n_nodes:
        raise TooManyPoolsError(f"{pool_count} pools for {n_nodes} nodes")
    if ping is None:
        dist = np.add(l_hat, l_hat.T, dtype=np.float64)
    else:
        dist = np.add(ping, l_hat.T, out=ping)
    dist *= 0.5
    if pool_count == 1:
        return [int(np.argmin(dist.sum(axis=1)))]

    np.fill_diagonal(dist, -np.inf)
    heads = list(divmod(int(np.argmax(dist)), n_nodes))
    # Running min distance to the chosen heads; chosen heads are masked to
    # -inf so argmax keeps the first (lowest-id) farthest candidate.
    min_dist = np.minimum(dist[heads[0]], dist[heads[1]])
    min_dist[heads] = -np.inf
    while len(heads) < pool_count:
        head = int(np.argmax(min_dist))
        heads.append(head)
        np.minimum(min_dist, dist[head], out=min_dist)
        min_dist[head] = -np.inf
    return heads


def _check_latency(l_hat: np.ndarray, ping: np.ndarray | None = None) -> int:
    """The node count of a square estimate `l_hat`; InvalidTopologyError if
    it is not square, or if `ping` is given and is not of its shape."""
    if l_hat.ndim != 2 or l_hat.shape[0] != l_hat.shape[1]:
        raise InvalidTopologyError(f"latency estimate of shape {l_hat.shape} is not square")
    if ping is not None and ping.shape != l_hat.shape:
        raise InvalidTopologyError(
            f"ping of shape {ping.shape} for a latency estimate of shape {l_hat.shape}")
    return l_hat.shape[0]


def _check_heads(n_nodes: int, heads: Sequence[int]) -> None:
    if len(heads) == 0:
        raise TooManyPoolsError("pool count must be >= 1, got 0")
    if len(set(heads)) != len(heads) or not all(0 <= h < n_nodes for h in heads):
        raise NodeNotFoundError(f"pool heads {list(heads)} are not distinct nodes")


def join_order(n_nodes: int, heads: Iterable[int], seed: int) -> list[int]:
    """Seeded random order in which non-head nodes pick their pool."""
    head_set = set(heads)
    rng = np.random.default_rng(seed)
    non_heads = [n for n in range(n_nodes) if n not in head_set]
    return [non_heads[i] for i in rng.permutation(len(non_heads))]


def assign_pools(
    heads: Sequence[int],
    l_hat: np.ndarray,
    t_p: Sequence[float],
    seed: int = 0,
) -> PoolAssignment:
    """Sequential greedy pool membership of the nodes of the square
    estimate `l_hat`.

    Non-head nodes are processed in a seeded random order; each joins the
    pool with the smallest estimated time cost against that pool's
    membership at the moment of joining: `max(t_p[c], l_hat[node, m])` over
    the pool's current members m, the pool's training-time estimate or the
    worst estimated link to a member, whichever is larger. Ties go to the
    pool with the lower head id.

    The pool costs are kept as a (p, n) C-contiguous array: `cost[c, node]`
    is that cost for pool c, the pool-time floor folded into the worst link.
    A join into pool c raises row c to the links to the new member,
    `np.maximum(cost[c], l_hat[:, node])`, which is exact because `max` is
    exact and associative. Rows are ordered by head id, so argmin's
    first-minimum rule breaks ties toward the lower head. The column
    `l_hat[:, node]` is contiguous in the column-major `estimate_latency`
    output; any layout gives the same pools. Raises NodeNotFoundError unless
    the heads are distinct nodes, InvalidTopologyError unless `l_hat` is
    square, and EstimateCountError unless `t_p` has one entry per head.
    """
    n_nodes = _check_latency(l_hat)
    _check_heads(n_nodes, heads)
    if len(t_p) != len(heads):
        raise EstimateCountError(f"{len(t_p)} time estimates for {len(heads)} pools")
    by_head = np.argsort(np.asarray(heads), kind="stable")
    pools = [Pool(head=h, members=[h]) for h in heads]
    pools_by_head = [pools[idx] for idx in by_head]
    t_p_sorted = np.asarray(t_p, dtype=np.float64)[by_head]
    cost = np.maximum(l_hat[:, [pool.head for pool in pools_by_head]].T, t_p_sorted[:, None],
                      order="C")
    # views made once: rows[c] = cost[c], costs[v] = cost[:, v], columns[v] = l_hat[:, v]
    rows, costs, columns = list(cost), list(cost.T), l_hat.T
    for node in join_order(n_nodes, heads, seed):
        c = int(costs[node].argmin())
        pools_by_head[c].members.append(node)
        np.maximum(rows[c], columns[node], out=rows[c])
    return PoolAssignment(pools=pools)

