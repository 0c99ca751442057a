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
`transcript_leakage_check` audits the transcript it builds from
`ring_payloads` and `ring_transcript`. No event loop runs it; the tests
check it against a message-by-message replay on the event loop in `netsim`.
Everything a round needs that the latencies, weights and masks do not
change comes from `ring_layout`, built once per ring shape.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import MaskShapeError, ModelTooSmallError, NodeNotFoundError, TimeTravelError
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


def payload_index(spans: Sequence[tuple[int, int]], row_len: int) -> np.ndarray:
    """Flat index into stacked (k, row_len) vectors of every reduce payload
    element: in slot s's elements, row j takes the element of the member j
    places after the slot's owner. `spans` are contiguous from 0."""
    k = len(spans)
    slot = np.repeat(np.arange(k), [b - a for a, b in spans])
    member = (slot + np.arange(k)[:, None]) % k
    return member * row_len + np.arange(slot.size)


@dataclass(frozen=True, eq=False)
class RingLayout:
    """What a ring round over k members and a model_len-weight vector needs
    that no latency, weight or mask changes; every array is read-only.

    - `spans`: `chunk_spans(model_len, k)`;
    - `index`: `payload_index(spans, model_len)`, the (k, model_len) gather of
      `ring_payloads`;
    - `units`: each chunk's size units, `chunk_size_units(b - a, ...)`;
    - `hop_pos`: (k, n_hops + 1), the ring positions stream s visits, from
      its owner s on;
    - `arrival`: (k, k), `[p, s]` is the flat index into a stream-major
      (k, n_hops + 1) time table of the hop that brings member p slot s's
      final value: position s + reduce_hops, then one gather hop per
      further position.
    """

    spans: tuple[tuple[int, int], ...]
    index: np.ndarray
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
        index=payload_index(spans, model_len),
        units=np.array([chunk_size_units(b - a, model_len) for a, b in spans]),
        hop_pos=(pos[:, None] + np.arange(n_hops + 1)) % k,
        arrival=pos * (n_hops + 1) + reduce_hops + (pos[:, None] - pos - reduce_hops) % k,
    )
    for array in (layout.index, layout.units, layout.hop_pos, layout.arrival):
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


def ring_payloads(
    vectors: Sequence[np.ndarray] | np.ndarray,
    spans: Sequence[tuple[int, int]],
    masks: Sequence[np.ndarray] | None,
    index: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Every reduce payload of one ring all-reduce, and the summed vector.

    Returns `(hops, total)`. In slot s's elements, row j of the (k,
    model_len) array `hops` is what stream s carries on reduce hop j: the
    owner's (masked) chunk plus the chunks of the next j members. One cumsum
    down the rows makes the members' additions in forwarding order, and
    int64 addition wraps exactly, so every value is bit-identical to
    forwarding hop by hop. `total` is the clean sum every member ends with.
    `index` is `payload_index(spans, model_len)`, which `ring_layout`
    caches for balanced spans.
    """
    _check_masks(spans, masks)
    stacked = np.asarray(vectors)
    if index is None:
        index = payload_index(spans, stacked.shape[1])
    hops = np.take(stacked, index)
    noise = np.concatenate(masks) if masks is not None else 0
    hops[0] += noise
    np.cumsum(hops, axis=0, out=hops)
    return hops, hops[-1] - noise


def _check_masks(spans: Sequence[tuple[int, int]], masks: Sequence[np.ndarray] | None) -> None:
    if masks is not None:
        for (a, b), mask in zip(spans, masks, strict=True):
            if mask.shape != (b - a,):
                raise MaskShapeError(f"noise length {mask.shape[0]} != chunk length {b - a}")


def ring_transcript(
    hops: np.ndarray,
    total: np.ndarray,
    spans: Sequence[tuple[int, int]],
    masked: bool,
) -> list[TranscriptEntry]:
    """Every message of a ring all-reduce, built from `ring_payloads`' arrays.

    Stream-major order: every stream's reduce hops (k when masked, back to
    the mask owner; k - 1 when plain), then every stream's k - 1 gather
    hops. Stream s's r-th hop overall goes from position s + r to s + r + 1.
    """
    k = len(spans)
    if k == 1:
        return []
    r = k if masked else k - 1
    return [
        TranscriptEntry(REDUCE, j, (s + j) % k, (s + j + 1) % k, s, hops[j, a:b], masked)
        for s, (a, b) in enumerate(spans) for j in range(r)
    ] + [
        TranscriptEntry(GATHER, j, (s + r + j) % k, (s + r + j + 1) % k, s, total[a:b], False)
        for s, (a, b) in enumerate(spans) for j in range(k - 1)
    ]


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
    message makes, in its order. Member p completes at the max over slots of the hop that
    brings it that slot's final value. The sum is one column sum of the
    vectors (int64 addition wraps, so order does not matter), and only the
    lazily built audit `transcript` builds payloads, by `ring_payloads`:
    times, sums and transcript are bit-identical to the replay. Every index
    comes from the shared `ring_layout`, so a round is one column sum, one
    link gather, one cumsum and one max.

    `total` is the summed vector every member ends with, and
    `start(now, ready_times)` fills `completion`; the round's end is
    `max(completion.values())`.
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
        self.vectors = np.asarray(vectors)
        self.masks = list(masks) if masks is not None else None
        self.layout = ring_layout(self.k, self.vectors.shape[1], self.masks is not None)
        _check_masks(self.layout.spans, self.masks)
        self.total = np.add.reduce(self.vectors, axis=0)
        self.completion: dict[int, float] = {}

    @property
    def raw_splits(self) -> list[list[np.ndarray]]:
        return [[v[a:b] for a, b in self.layout.spans] for v in self.vectors]

    @property
    def transcript(self) -> list[TranscriptEntry]:
        """The round's messages in stream-major order (see `ring_transcript`)."""
        hops, _ = ring_payloads(self.vectors, self.layout.spans, self.masks, self.layout.index)
        return ring_transcript(hops, self.total, self.layout.spans, self.masks is not None)

    def start(self, now: float, ready_times: Sequence[float]) -> None:
        """Run the round from clock `now`; member i's stream leaves at
        `ready_times[i]`, which must not be before `now`."""
        k = self.k
        ready = stream_starts(now, ready_times)
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
