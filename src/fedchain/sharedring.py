"""Secret-sharing ring all-reduce over fixed-point weight chunks.

Each miner splits its weight vector into one chunk per pool member, adds
private noise to its own chunk, and the chunks are summed around the ring.
A miner's noisy chunk stream makes a full cycle: the partial sums passing
between miners always carry the owner's noise, and only the owner strips it
when the completed sum returns. A gather pass then circulates the clean
chunk sums so every miner ends with the identical summed vector.

The plain (unmasked) variant used by the whole-network baseline is the
standard 2(k-1)-step ring; the masked variant spends one extra message per
stream, k in all (k(2k-1) hops against 2k(k-1)), returning each completed
chunk to its noise owner.

`RingSession` computes one such round in closed form over the latency
matrix and is the only all-reduce here: the chain runs it, and
`transcript_leakage_check` audits the transcript it builds on request,
one stream at a time and one hop at a time. No event loop runs it; the tests
check it against a message-by-message replay on the event loop in `netsim`.
Everything a round needs that the latencies, weights and masks do not
change comes from `ring_layout`, built once per ring shape.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (AggregationShapeError, MaskShapeError, ModelTooSmallError,
                     NodeNotFoundError, ReadyTimeCountError, TimeTravelError)
from .netsim import chunk_size_units

REDUCE, GATHER = "reduce", "gather"


def chunk_spans(length: int, parts: int) -> list[tuple[int, int]]:
    """`(start, stop)` of each of `parts` balanced contiguous chunks of a
    `length`-element vector: the first (length mod parts) chunks carry one
    extra element."""
    if parts < 1:
        raise ModelTooSmallError(f"parts must be >= 1, got {parts}")
    if length < parts:
        raise ModelTooSmallError(f"cannot split {length} weights into {parts} chunks")
    q, r = divmod(length, parts)
    bounds = [i * q + min(i, r) for i in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


@dataclass(frozen=True, eq=False)
class RingLayout:
    """What a ring round over k members and a model_len-weight vector needs
    that no latency, weight or mask changes; every array is read-only.

    - `spans`: `chunk_spans(model_len, k)`;
    - `units`: each chunk's size units, `chunk_size_units(b - a, ...)`;
    - `hop_pos`: (k, n_hops + 1), the ring positions stream s visits, from
      its owner s on;
    - `arrival`: (k, k), `[p, s]` is the flat index into a stream-major
      (k, n_hops + 1) time table of the hop that brings member p slot s's
      final value: position s + reduce_hops, then one gather hop per
      further position.
    """

    spans: tuple[tuple[int, int], ...]
    units: np.ndarray
    hop_pos: np.ndarray
    arrival: np.ndarray


@functools.lru_cache(maxsize=128)
def ring_layout(k: int, model_len: int, masked: bool) -> RingLayout:
    """The `RingLayout` of a ring shape, built once and shared: masked rings
    take k reduce hops per stream, plain ones k - 1, and both k - 1 gather
    hops. Raises ModelTooSmallError as `chunk_spans` does."""
    spans = tuple(chunk_spans(model_len, k))
    reduce_hops = k if masked else k - 1
    n_hops = reduce_hops + k - 1
    pos = np.arange(k)
    layout = RingLayout(
        spans=spans,
        units=np.array([chunk_size_units(b - a, model_len) for a, b in spans]),
        hop_pos=(pos[:, None] + np.arange(n_hops + 1)) % k,
        arrival=pos * (n_hops + 1) + reduce_hops + (pos[:, None] - pos - reduce_hops) % k,
    )
    for array in (layout.units, layout.hop_pos, layout.arrival):
        array.setflags(write=False)
    return layout


def stream_starts(now: float, ready_times: Sequence[float]) -> np.ndarray:
    """When each member's stream leaves on a ring run from clock `now`:
    `now + (ready - now)`, the float operations of an event loop that
    schedules each start as a delay from `now`. `RingSession.start` and the
    chain's race bound both take the starts from here."""
    return now + (np.asarray(ready_times, dtype=np.float64) - now)


@dataclass
class TranscriptEntry:
    phase: str  # REDUCE or GATHER
    step: int
    src: int
    dst: int
    slot: int
    payload: np.ndarray
    masked: bool


@dataclass
class LeakageReport:
    passed: bool
    violations: list[str]


def transcript_leakage_check(
    transcript: Sequence[TranscriptEntry],
    raw_splits: Sequence[Sequence[np.ndarray]],
    masks: Sequence[np.ndarray],
) -> LeakageReport:
    """Audit a recorded round for raw-parameter exposure.

    Checks that no reduce-phase message received by a miner equals another
    miner's raw chunk, and that the first value carrying each ring slot
    (which holds only the owner's contribution) is actually masked by the
    owner's noise.
    """
    violations: list[str] = []
    k = len(raw_splits)
    first_seen: set[int] = set()
    for entry in transcript:
        if entry.phase != REDUCE:
            continue
        for miner in range(k):
            if miner == entry.dst:
                continue
            for slot in range(k):
                raw = raw_splits[miner][slot]
                if raw.shape == entry.payload.shape and np.array_equal(raw, entry.payload):
                    violations.append(
                        f"reduce step {entry.step}: miner {entry.dst} received miner "
                        f"{miner}'s raw chunk {slot}"
                    )
        if entry.slot not in first_seen:
            first_seen.add(entry.slot)
            owner = entry.slot
            expected = raw_splits[owner][owner] + masks[owner]
            if not np.array_equal(entry.payload, expected):
                violations.append(
                    f"first message for slot {owner} is not the owner's masked chunk"
                )
            if np.array_equal(entry.payload, raw_splits[owner][owner]):
                violations.append(f"first message for slot {owner} left the owner unmasked")
    return LeakageReport(passed=not violations, violations=violations)


class RingSession:
    """One all-reduce round for a pool over a latency matrix, in closed form.

    Members are in ring order. Stream s carries chunk slot s from member
    s's ready time through 2k - 1 hops when masked (k reduce hops back to
    the mask owner, then k - 1 gather hops) or 2k - 2 when plain. Hop h
    costs `L[m_(s+h), m_(s+h+1)] * units[s]` ms, units being the chunk's
    share of `netsim.SIZE_MULTIPLIER`. Nothing in a ring contends for a
    node or a link and members forward on arrival, so the streams are
    independent chains: one cumsum from `now + (ready[s] - now)` over the
    hop costs makes the float additions an event loop replaying every
    message makes, in its order. Member p completes at the max over slots
    of the hop that brings it that slot's final value. Every index comes
    from the shared `ring_layout`.

    `total`, the summed vector every member ends with, is one column sum of
    the vectors (int64 addition wraps, so order does not matter); only the
    audit `transcript` builds payloads. Times, sum and transcript are
    bit-identical to the replay. `start(now, ready_times)` fills
    `completion`; the round's end is `max(completion.values())`.

    `vectors` are one equal-length row per member (else
    AggregationShapeError), and `masks`, if given, one per member of its
    chunk's length (else MaskShapeError).
    """

    def __init__(
        self,
        latency: np.ndarray,
        members: Sequence[int],
        vectors: Sequence[np.ndarray],
        masks: Sequence[np.ndarray] | None = None,
    ) -> None:
        self.latency = latency
        self.members = list(members)
        self.k = len(self.members)
        n_nodes = latency.shape[0]
        if len(set(self.members)) != self.k or not all(0 <= m < n_nodes for m in self.members):
            raise NodeNotFoundError(f"ring members {self.members} are not distinct nodes")
        try:
            self.vectors = np.asarray(vectors)
        except ValueError as err:  # numpy refuses ragged rows
            raise AggregationShapeError(f"ring vectors differ in length: {err}") from err
        if self.vectors.ndim != 2 or len(self.vectors) != self.k:
            raise AggregationShapeError(f"{self.k} members need one vector row each, "
                                        f"got shape {self.vectors.shape}")
        self.masks = list(masks) if masks is not None else None
        self.layout = ring_layout(self.k, self.vectors.shape[1], self.masks is not None)
        if self.masks is not None:
            got, want = [m.shape for m in self.masks], [(b - a,) for a, b in self.layout.spans]
            if got != want:
                raise MaskShapeError(f"noise shapes {got} != chunk shapes {want}")
        self.total = np.add.reduce(self.vectors, axis=0)
        self.completion: dict[int, float] = {}

    @property
    def raw_splits(self) -> list[list[np.ndarray]]:
        return [[v[a:b] for a, b in self.layout.spans] for v in self.vectors]

    @property
    def transcript(self) -> list[TranscriptEntry]:
        """Every message of the round: each stream's reduce hops (k when
        masked, back to the mask owner; k - 1 when plain), then each stream's
        k - 1 gather hops, which carry `total`'s chunk. Stream s's r-th hop
        goes from position s + r to s + r + 1; its reduce hop j carries the
        owner's (masked) chunk plus the next j members' chunks."""
        k, masked = self.k, self.masks is not None
        if k == 1:
            return []
        r = k if masked else k - 1
        reduce, gather = [], []
        for s, (a, b) in enumerate(self.layout.spans):
            chunks = self.vectors[:, a:b]
            payload = chunks[s] + self.masks[s] if masked else chunks[s].copy()
            for j in range(r):
                if j:
                    payload = payload + chunks[(s + j) % k]
                reduce.append(TranscriptEntry(REDUCE, j, (s + j) % k, (s + j + 1) % k, s,
                                              payload, masked))
            gather += [TranscriptEntry(GATHER, j, (s + r + j) % k, (s + r + j + 1) % k, s,
                                       self.total[a:b], False) for j in range(k - 1)]
        return reduce + gather

    def start(self, now: float, ready_times: Sequence[float]) -> None:
        """Run the round from clock `now`; member i's stream leaves at
        `ready_times[i]`, which must not be before `now` (else
        TimeTravelError) and is one per member (else ReadyTimeCountError)."""
        k = self.k
        ready = stream_starts(now, ready_times)
        if ready.shape != (k,):
            raise ReadyTimeCountError(f"{ready.size} ready times for {k} ring members")
        if (ready < now).any():
            raise TimeTravelError(f"ring stream starts at {ready.min()} before clock {now}")
        finish = ready
        if k > 1:
            layout = self.layout
            at = np.asarray(self.members)[layout.hop_pos]
            times = np.empty(at.shape)
            times[:, 0] = ready
            np.multiply(self.latency[at[:, :-1], at[:, 1:]].astype(np.float64, copy=False),
                        layout.units[:, None], out=times[:, 1:])
            np.cumsum(times, axis=1, out=times)
            finish = np.take(times, layout.arrival).max(axis=1)
        self.completion = dict(zip(self.members, finish.tolist()))
