"""Deterministic discrete-event simulation of N nodes exchanging messages.

All protocol latencies in the library are measured against this clock. The
simulator is single-threaded: events are processed in (deliver_time, seq)
order, so identical configuration and seed give a bit-identical trace.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import (
    InvalidObservationError,
    InvalidTopologyError,
    NodeNotFoundError,
    TimeTravelError,
)

DEFAULT_SIZE_MULTIPLIER = 10.0
DEFAULT_COMPUTE_RANGE = (50.0, 200.0)


@dataclass(frozen=True)
class UniformTopology:
    """All distinct links draw latency from U(lo, hi) milliseconds."""

    lo: float = 10.0
    hi: float = 100.0


@dataclass(frozen=True)
class ClusteredTopology:
    """Low-latency clusters with high-latency links between them.

    Nodes are split into `n_clusters` contiguous, balanced groups;
    intra-cluster links draw from U(intra_lo, intra_hi) and inter-cluster
    links from U(inter_lo, inter_hi).
    """

    n_clusters: int = 5
    intra_lo: float = 5.0
    intra_hi: float = 15.0
    inter_lo: float = 80.0
    inter_hi: float = 120.0


def cluster_labels(n_nodes: int, n_clusters: int) -> np.ndarray:
    """Ground-truth cluster ids used by ClusteredTopology (contiguous blocks)."""
    labels = np.empty(n_nodes, dtype=np.int64)
    for cid, block in enumerate(np.array_split(np.arange(n_nodes), n_clusters)):
        labels[block] = cid
    return labels


def build_topology(n_nodes: int, seed: int, model: UniformTopology | ClusteredTopology) -> np.ndarray:
    """Generate a dense directed latency matrix in milliseconds.

    Deterministic for a given (seed, model). The diagonal is zero; the matrix
    is not required to be symmetric.
    """
    if n_nodes < 2:
        raise InvalidTopologyError(f"need at least 2 nodes, got {n_nodes}")
    rng = np.random.default_rng(seed)
    if isinstance(model, UniformTopology):
        latency = rng.uniform(model.lo, model.hi, size=(n_nodes, n_nodes))
    elif isinstance(model, ClusteredTopology):
        labels = cluster_labels(n_nodes, model.n_clusters)
        latency = rng.uniform(model.inter_lo, model.inter_hi, size=(n_nodes, n_nodes))
        intra = labels[:, None] == labels[None, :]
        latency[intra] = rng.uniform(model.intra_lo, model.intra_hi, size=int(intra.sum()))
    else:
        raise InvalidTopologyError(f"unknown topology model: {model!r}")
    np.fill_diagonal(latency, 0.0)
    return latency


def draw_compute_times(
    n_nodes: int,
    seed: int,
    lo: float = DEFAULT_COMPUTE_RANGE[0],
    hi: float = DEFAULT_COMPUTE_RANGE[1],
) -> np.ndarray:
    """Per-node constant cost (ms) of one local training round, drawn once at setup."""
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=n_nodes)


def chunk_size_units(chunk_len: int, model_len: int, multiplier: float = DEFAULT_SIZE_MULTIPLIER) -> int:
    """Latency multiplier for a weight chunk of `chunk_len` out of `model_len` entries.

    A whole model costs `multiplier` units; a chunk costs its proportional
    share, never less than one unit (control messages use one unit).
    """
    return max(1, round(chunk_len * multiplier / model_len))


class LatencyHistory:
    """Append-only per-pair record of observed link latencies.

    Storage is dense: `layers[d]` is an (n, n) float64 array whose entry
    (i, j) holds the d-th observation of the directed pair (i, j), and
    `counts` is an (n, n) int64 array with the number of observations of
    each pair. An entry of `layers[d]` is meaningful only where
    `counts > d`; elsewhere it is 0.0. A history made without `n_nodes`
    grows its arrays to fit the largest node id recorded.

    The layout lets `pools.estimate_latency` average every pair at once
    and stay bit-identical to `sum(series) / len(series)`: it adds the
    layers one at a time in depth order, which is the left-to-right order
    of Python's `sum`, and a pair with fewer observations adds exact 0.0
    for its missing depths.
    """

    def __init__(self, n_nodes: int = 0) -> None:
        self.counts = np.zeros((n_nodes, n_nodes), dtype=np.int64)
        self.layers: list[np.ndarray] = []

    @property
    def n_nodes(self) -> int:
        return self.counts.shape[0]

    def _grow(self, n_nodes: int) -> None:
        old = self.n_nodes
        pad = ((0, n_nodes - old), (0, n_nodes - old))
        self.counts = np.pad(self.counts, pad)
        self.layers = [np.pad(layer, pad) for layer in self.layers]

    def _layer(self, depth: int) -> np.ndarray:
        while len(self.layers) <= depth:
            self.layers.append(np.zeros_like(self.counts, dtype=np.float64))
        return self.layers[depth]

    def record(self, i: int, j: int, observed: float) -> None:
        if i == j:
            raise InvalidObservationError(f"self-loop observation for node {i}")
        if observed <= 0:
            raise InvalidObservationError(f"latency must be positive, got {observed}")
        if max(i, j) >= self.n_nodes:
            self._grow(max(i, j) + 1)
        depth = int(self.counts[i, j])
        self._layer(depth)[i, j] = float(observed)
        self.counts[i, j] = depth + 1

    def record_matrix(self, observed: np.ndarray) -> None:
        """Record one observation for every off-diagonal pair of an (n, n) matrix.

        Same result as `record(i, j, observed[i, j])` for each pair in
        row-major order. If any entry is invalid, nothing is recorded and the
        error names the first invalid entry in that order.
        """
        n = observed.shape[0]
        off_diag = ~np.eye(n, dtype=bool)
        bad = off_diag & (observed <= 0)
        if bad.any():
            i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
            raise InvalidObservationError(f"latency must be positive, got {observed[i, j]}")
        if n > self.n_nodes:
            self._grow(n)
        counts = self.counts[:n, :n]
        for depth in np.unique(counts[off_diag]):
            at_depth = off_diag & (counts == depth)
            self._layer(int(depth))[:n, :n][at_depth] = observed[at_depth]
        counts[off_diag] += 1

    def series(self, i: int, j: int) -> list[float]:
        if max(i, j) >= self.n_nodes:
            return []
        return [float(self.layers[d][i, j]) for d in range(self.counts[i, j])]

    def pairs(self) -> list[tuple[int, int]]:
        """Observed pairs in row-major order."""
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(self.counts))]

    def __len__(self) -> int:
        return int(np.count_nonzero(self.counts))


@dataclass(slots=True)
class Event:
    deliver_time: float
    seq: int
    src: int
    dst: int
    kind: str = "msg"
    payload: Any = None
    size_units: int = 1


Handler = Callable[["Simulator", Event], None]


class Simulator:
    """Single-threaded event loop over a fixed latency matrix.

    Handlers are registered per node and invoked with the simulator and the
    delivered event; anything they send is scheduled relative to the current
    clock. Events with equal deliver_time fire in send order.
    """

    def __init__(self, latency: np.ndarray, record_trace: bool = False) -> None:
        self.latency = latency
        self.n_nodes = latency.shape[0]
        self.now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._handlers: dict[int, Handler] = {}
        self._sent = 0
        self._delivered = 0
        self.trace: list[tuple[float, int, int, str, int]] | None = [] if record_trace else None

    def register(self, node: int, handler: Handler) -> None:
        self._check_node(node)
        self._handlers[node] = handler

    def unregister(self, node: int) -> None:
        self._handlers.pop(node, None)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise NodeNotFoundError(f"node {node} outside [0, {self.n_nodes})")

    def _push(self, event: Event) -> Event:
        if event.deliver_time < self.now:
            raise TimeTravelError(
                f"event scheduled at {event.deliver_time} before clock {self.now}"
            )
        heapq.heappush(self._queue, (event.deliver_time, event.seq, event))
        self._sent += 1
        return event

    def send(self, src: int, dst: int, payload: Any, size_units: int = 1, kind: str = "msg") -> Event:
        """Enqueue delivery of `payload` at now + latency[src][dst] * size_units."""
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            raise NodeNotFoundError(f"cannot send from node {src} to itself")
        deliver = self.now + float(self.latency[src, dst]) * size_units
        return self._push(Event(deliver, next(self._seq), src, dst, kind, payload, size_units))

    def schedule(self, delay: float, node: int, payload: Any = None, kind: str = "timer") -> Event:
        """Enqueue a local (self-addressed) event `delay` ms from now."""
        self._check_node(node)
        return self._push(Event(self.now + delay, next(self._seq), node, node, kind, payload, 0))

    def run_until_idle(self) -> float:
        """Process events in (deliver_time, seq) order until the queue drains."""
        queue, pop, handlers = self._queue, heapq.heappop, self._handlers
        while queue:
            event = pop(queue)[2]
            if event.deliver_time < self.now:
                raise TimeTravelError("event queue went backwards")
            self.now = event.deliver_time
            self._delivered += 1
            if self.trace is not None:
                self.trace.append(
                    (event.deliver_time, event.src, event.dst, event.kind, event.size_units)
                )
            handler = handlers.get(event.dst)
            if handler is not None:
                handler(self, event)
        return self.now

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def stats(self) -> dict[str, int]:
        return {"sent": self._sent, "delivered": self._delivered}

    def dump_trace(self, path: str) -> None:
        """Write the recorded trace as `time,src,dst,kind,size_units` lines."""
        if self.trace is None:
            raise ValueError("simulator was created with record_trace=False")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("time,src,dst,kind,size_units\n")
            for time, src, dst, kind, size_units in self.trace:
                fh.write(f"{time:.6f},{src},{dst},{kind},{size_units}\n")
