"""Network model of N nodes: a latency matrix, compute times, message
sizes, latency history, and a discrete-event loop.

Rounds compute their latencies in closed form over the latency matrix and
never run the event loop; the tests replay them on `Simulator` and require
equal times. The loop is single-threaded and processes events in
(deliver_time, seq) order, so identical configuration and seed give a
bit-identical trace.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import (
    InvalidObservationError,
    InvalidTopologyError,
    NodeNotFoundError,
    TimeTravelError,
)

SIZE_MULTIPLIER = 10.0  # size units of a whole model
LINK_RANGE = (10.0, 100.0)  # ms, every directed link
DEFAULT_COMPUTE_RANGE = (50.0, 200.0)


def build_topology(n_nodes: int, seed: int) -> np.ndarray:
    """A dense directed latency matrix in milliseconds, every link drawn
    from U(*`LINK_RANGE`) by one seeded draw.

    Deterministic for a given seed. The diagonal is zero; the matrix is not
    required to be symmetric. Raises InvalidTopologyError for fewer than
    two nodes.
    """
    if n_nodes < 2:
        raise InvalidTopologyError(f"need at least 2 nodes, got {n_nodes}")
    latency = np.random.default_rng(seed).uniform(*LINK_RANGE, size=(n_nodes, n_nodes))
    np.fill_diagonal(latency, 0.0)
    return latency


def draw_compute_times(n_nodes: int, seed: int) -> np.ndarray:
    """Per-node constant cost (ms) of one local training round, drawn once at
    setup from U(`DEFAULT_COMPUTE_RANGE`)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(*DEFAULT_COMPUTE_RANGE, size=n_nodes)


def chunk_size_units(chunk_len: int, model_len: int) -> int:
    """Latency multiplier for a weight chunk of `chunk_len` out of `model_len` entries.

    A whole model costs `SIZE_MULTIPLIER` units; a chunk costs its
    proportional share, never less than one unit (control messages use one
    unit).
    """
    return max(1, round(chunk_len * SIZE_MULTIPLIER / model_len))


def _check_observations(observed: np.ndarray) -> None:
    """Raise InvalidObservationError unless `observed` is square and every
    off-diagonal entry is a positive, finite latency; the error names the
    first entry in row-major order that is not. The diagonal is not checked."""
    if observed.ndim != 2 or observed.shape[0] != observed.shape[1]:
        raise InvalidObservationError(f"observations must be square, got {observed.shape}")
    ok = observed > 0  # False for NaN
    ok &= observed < np.inf
    np.fill_diagonal(ok, True)
    if not ok.all():
        i, j = np.unravel_index(int(np.argmin(ok)), ok.shape)
        raise InvalidObservationError(
            f"latency of pair ({i}, {j}) must be positive and finite, got {observed[i, j]}")


class LatencyHistory:
    """Per-pair running record of observed link latencies among a fixed
    set of `n_nodes` nodes, ids in [0, n_nodes).

    Storage is dense: `total` is an (n, n) float64 array whose entry
    (i, j) is the sum of the observations of the directed pair (i, j),
    added in the order they were recorded, and `counts` is an (n, n) int64
    array with the number of those observations. The diagonal of both is
    always 0. The counts are held in one of two ways:

    - counted: an int64 array, held from the start by a history made
      empty, and built by an adopted one at its first `record`;
    - adopted (`adopt`): one observation per off-diagonal pair, the count
      held as the int 1, `uniform_count`, and no n x n count array.

    Only `record` changes the representation; reading `counts` does not.
    `pools.estimate_latency` divides `total` by the counts, and every mean
    is bit-identical to `sum(series) / len(series)` over the pair's
    observations as floats: Python's `sum` adds left to right starting
    from 0, and `0 + x == x`, so it makes the same float additions as a
    running `+=` in recording order (and `x / 1 == x`).
    """

    def __init__(self, n_nodes: int) -> None:
        """An empty history; InvalidTopologyError for a negative `n_nodes`."""
        if n_nodes < 0:
            raise InvalidTopologyError(f"a history needs n_nodes >= 0, got {n_nodes}")
        self.total = np.zeros((n_nodes, n_nodes))
        self._counts: np.ndarray | int = np.zeros((n_nodes, n_nodes), dtype=np.int64)

    @classmethod
    def adopt(cls, observed: np.ndarray) -> LatencyHistory:
        """A history of one observation per off-diagonal pair of `observed`.

        Same history, and same first error, as `record(i, j, observed[i, j])`
        on an empty history of as many nodes for each off-diagonal pair in
        row-major order, and InvalidObservationError unless `observed` is
        square; the diagonal is not checked. Nothing is copied: a float64
        `observed` becomes `total` itself, its diagonal set to 0 in place,
        so the caller hands it over and must not use it again.
        """
        _check_observations(observed)
        history = cls(0)
        history.total = np.asarray(observed, dtype=np.float64)
        np.fill_diagonal(history.total, 0.0)
        history._counts = 1
        return history

    @property
    def n_nodes(self) -> int:
        return self.total.shape[0]

    @property
    def uniform_count(self) -> int | None:
        """1 for an adopted history, None for a counted one."""
        return self._counts if isinstance(self._counts, int) else None

    @property
    def counts(self) -> np.ndarray:
        """The (n, n) int64 counts: a counted history's own array, or a new
        one built from an adopted history's uniform count."""
        if isinstance(self._counts, np.ndarray):
            return self._counts
        counts = np.ones(self.total.shape, dtype=np.int64)
        np.fill_diagonal(counts, 0)
        return counts

    def record(self, i: int, j: int, observed: float) -> None:
        if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
            raise NodeNotFoundError(f"pair ({i}, {j}) outside [0, {self.n_nodes})")
        if i == j:
            raise InvalidObservationError(f"self-loop observation for node {i}")
        if not 0 < observed < math.inf:
            raise InvalidObservationError(
                f"latency of pair ({i}, {j}) must be positive and finite, got {observed}")
        self._counts = self.counts  # an adopted history builds its array here
        self.total[i, j] += float(observed)
        self._counts[i, j] += 1

    def pairs(self) -> list[tuple[int, int]]:
        """Observed pairs in row-major order."""
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(self.counts))]

    def __len__(self) -> int:
        if self.uniform_count is not None:
            return self.n_nodes * (self.n_nodes - 1)
        return int(np.count_nonzero(self._counts))


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
        return self.schedule_at(self.now + delay, node, payload, kind)

    def schedule_at(self, time: float, node: int, payload: Any = None, kind: str = "timer") -> Event:
        """Enqueue a local (self-addressed) event at absolute time `time` ms."""
        self._check_node(node)
        return self._push(Event(time, next(self._seq), node, node, kind, payload, 0))

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
    def stats(self) -> dict[str, int]:
        return {"sent": self._sent, "delivered": self._delivered}
