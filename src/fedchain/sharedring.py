"""Secret-sharing ring all-reduce over fixed-point weight chunks.

Each miner splits its weight vector into one chunk per pool member, adds
private noise to its own chunk, and the chunks are summed around the ring.
A miner's noisy chunk stream makes a full cycle: the partial sums passing
between miners always carry the owner's noise, and only the owner strips it
when the completed sum returns. A gather pass then circulates the clean
chunk sums so every miner ends with the identical summed vector.

The plain (unmasked) variant used by the whole-network baseline is the
standard 2(k-1)-step ring; the masked variant spends k-1 extra messages
(one per stream) returning each completed chunk to its noise owner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np

from . import fixedpoint
from .errors import MaskShapeError, ModelTooSmallError, NodeNotFoundError, TimeTravelError
from .netsim import Simulator, chunk_size_units

REDUCE, GATHER = "reduce", "gather"


def split(w: np.ndarray, parts: int) -> list[np.ndarray]:
    """Split a flat vector into `parts` balanced contiguous chunks.

    The first (len(w) mod parts) chunks carry one extra element;
    concatenating the chunks restores the original vector.
    """
    w = np.asarray(w)
    if parts < 1:
        raise ModelTooSmallError(f"parts must be >= 1, got {parts}")
    if w.shape[0] < parts:
        raise ModelTooSmallError(f"cannot split {w.shape[0]} weights into {parts} chunks")
    return np.array_split(w, parts)


def concat(chunks: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate(chunks)


def mask_own_chunk(chunks: Sequence[np.ndarray], position: int, noise: np.ndarray) -> list[np.ndarray]:
    """Add the private noise to the owner's chunk, leaving the rest untouched.

    Returns a new list that shares the untouched chunks with `chunks`; only
    the owner's entry is a new array."""
    if noise.shape != chunks[position].shape:
        raise MaskShapeError(
            f"noise length {noise.shape[0]} != chunk length {chunks[position].shape[0]}"
        )
    masked = list(chunks)
    masked[position] = chunks[position] + noise
    return masked


def unmask_own_sum(acc: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Strip the owner's noise from its accumulated chunk (exact in fixed point)."""
    return acc - noise


@dataclass
class TranscriptEntry:
    phase: str  # REDUCE or GATHER
    step: int
    src: int
    dst: int
    slot: int
    payload: np.ndarray
    masked: bool


def ring_reduce_scatter(
    masked_splits: Sequence[Sequence[np.ndarray]],
    transcript: list[TranscriptEntry] | None = None,
) -> list[np.ndarray]:
    """Accumulate each chunk slot around the ring, returning to its owner.

    Miner i's stream starts with its own noisy chunk; each of the other k-1
    miners adds its matching chunk as the stream passes, and the completed
    (still noisy) sum arrives back at miner i on the final hop. Returns, per
    miner, the accumulated own chunk: noise_i + sum over miners of chunk i.
    """
    k = len(masked_splits)
    if k == 1:
        return [masked_splits[0][0].copy()]
    accs: list[np.ndarray | None] = [None] * k
    for s in range(k):
        partial = masked_splits[s][s].copy()
        for hop in range(k):
            src, dst = (s + hop) % k, (s + hop + 1) % k
            if transcript is not None:
                transcript.append(TranscriptEntry(REDUCE, hop, src, dst, s, partial.copy(), True))
            if dst == s:
                accs[s] = partial.copy()
            else:
                partial = partial + masked_splits[dst][s]
    return accs


@dataclass
class AllReduceResult:
    sums: list[np.ndarray]  # per-miner full summed vector (identical)
    raw_splits: list[list[np.ndarray]]
    masks: list[np.ndarray] | None
    transcript: list[TranscriptEntry] = field(repr=False, default_factory=list)

    @property
    def message_count(self) -> int:
        return len(self.transcript)


def chunk_spans(w: np.ndarray, parts: int) -> list[tuple[int, int]]:
    """`(start, stop)` of each chunk `split(w, parts)` returns."""
    bounds = [0, *accumulate(c.shape[0] for c in split(w, parts))]
    return list(zip(bounds, bounds[1:]))


def ring_payloads(
    vectors: Sequence[np.ndarray],
    spans: Sequence[tuple[int, int]],
    masks: Sequence[np.ndarray] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Every reduce payload of one ring all-reduce, and the summed vector.

    Returns `(hops, total)`. In slot s's elements, row j of the (k,
    model_len) array `hops` is what stream s carries on reduce hop j: the
    owner's (masked) chunk plus the chunks of the next j members. One cumsum
    down the rows makes the members' additions in forwarding order, and
    int64 addition wraps exactly, so every value is bit-identical to
    forwarding hop by hop. `total` is the clean sum every member ends with.
    """
    k = len(vectors)
    if masks is not None:
        for (a, b), mask in zip(spans, masks, strict=True):
            if mask.shape != (b - a,):
                raise MaskShapeError(f"noise length {mask.shape[0]} != chunk length {b - a}")
    slot = np.repeat(np.arange(k), [b - a for a, b in spans])
    # Row j takes each element from the member j places after its slot's owner.
    member = (slot + np.arange(k)[:, None]) % k
    hops = np.stack(vectors)[member, np.arange(slot.size)]
    noise = np.concatenate(masks) if masks is not None else 0
    hops[0] += noise
    np.cumsum(hops, axis=0, out=hops)
    return hops, hops[-1] - noise


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


def run_masked_all_reduce(
    vectors: Sequence[np.ndarray],
    noise_seed: int,
    noise_bits: int = fixedpoint.DEFAULT_NOISE_BITS,
) -> AllReduceResult:
    """Full masked all-reduce over fixed-point vectors, one per miner."""
    spans = chunk_spans(vectors[0], len(vectors))
    masks = [
        fixedpoint.generate_noise(b - a, noise_seed + i, noise_bits)
        for i, (a, b) in enumerate(spans)
    ]
    return _all_reduce(vectors, spans, masks)


def pairwise_shares(
    k: int, length: int, seed: int, width_bits: int = fixedpoint.DEFAULT_NOISE_BITS
) -> list[np.ndarray]:
    """Per-miner share vectors that sum to zero across the pool.

    Every unordered miner pair draws one seeded noise vector; the lower
    index adds it and the higher index subtracts it, so the pool-wide sum
    cancels exactly while each individual vector stays blinded."""
    shares = [np.zeros(length, dtype=np.int64) for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            pair = fixedpoint.generate_noise(length, seed * (k * k) + i * k + j, width_bits)
            shares[i] = shares[i] + pair
            shares[j] = shares[j] - pair
    return shares


def run_hardened_all_reduce(
    vectors: Sequence[np.ndarray],
    noise_seed: int,
    noise_bits: int = fixedpoint.DEFAULT_NOISE_BITS,
) -> AllReduceResult:
    """Hardened (non-default) mode: every slot of every miner is blinded by
    pairwise-cancelling shares, so even first-hop chunks are masked. The
    shares vanish in the full sum, so no unmasking step is needed and the
    standard 2(k-1)-step ring applies."""
    k = len(vectors)
    shares = pairwise_shares(k, vectors[0].shape[0], noise_seed, noise_bits)
    result = run_plain_all_reduce([v + s for v, s in zip(vectors, shares)])
    result.raw_splits = [split(v, k) for v in vectors]
    return result


def run_plain_all_reduce(vectors: Sequence[np.ndarray]) -> AllReduceResult:
    """Standard unmasked ring all-reduce (2(k-1) steps), used by the baseline."""
    return _all_reduce(vectors, chunk_spans(vectors[0], len(vectors)), None)


def _all_reduce(
    vectors: Sequence[np.ndarray],
    spans: Sequence[tuple[int, int]],
    masks: list[np.ndarray] | None,
) -> AllReduceResult:
    hops, total = ring_payloads(vectors, spans, masks)
    return AllReduceResult(
        sums=[total] * len(vectors),
        raw_splits=[[v[a:b] for a, b in spans] for v in vectors],
        masks=masks,
        transcript=ring_transcript(hops, total, spans, masks is not None),
    )


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


def write_transcript(path: str, transcript: Sequence[TranscriptEntry]) -> None:
    """Dump a transcript as `hop,round,from,to,slot,masked` lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("hop,round,from,to,slot,masked\n")
        for hop, entry in enumerate(transcript):
            fh.write(
                f"{hop},{entry.step},{entry.src},{entry.dst},{entry.slot},{entry.masked}\n"
            )


class RingSession:
    """One all-reduce round for a pool on the simulator's clock, in closed form.

    Members are in ring order. Stream s carries chunk slot s from member
    s's ready time through 2k - 1 hops when masked (k reduce hops back to
    the mask owner, then k - 1 gather hops) or 2k - 2 when plain. Hop h
    costs `L[m_(s+h), m_(s+h+1)] * units[s]` ms, units being the chunk's
    share of `size_multiplier`. Nothing in a ring contends for a node or a
    link and members forward on arrival, so the streams are independent
    chains: one cumsum from `now + (ready[s] - now)` over the hop costs
    makes the float additions an event loop replaying every message makes,
    in its order. Member p completes at the max over slots of the hop that
    brings it that slot's final value. Payloads come from `ring_payloads`,
    shared with the pure path, so times, sums and the lazily built audit
    `transcript` are bit-identical to the replay.

    `start` fills `completion` and `results` (one shared summed array) and
    puts a single event on the simulator at the last completion time, in
    place of k(2k - 1) chunk messages and k start timers (masked).
    """

    def __init__(
        self,
        sim: Simulator,
        members: Sequence[int],
        vectors: Sequence[np.ndarray],
        masks: Sequence[np.ndarray] | None = None,
        size_multiplier: float = 10.0,
        kind: str = "ring",
    ) -> None:
        self.sim = sim
        self.members = list(members)
        self.k = len(self.members)
        if len(set(self.members)) != self.k or not all(0 <= m < sim.n_nodes for m in self.members):
            raise NodeNotFoundError(f"ring members {self.members} are not distinct nodes")
        self.kind = kind
        self.vectors = list(vectors)
        model_len = self.vectors[0].shape[0]
        self.spans = chunk_spans(self.vectors[0], self.k)
        self.masks = list(masks) if masks is not None else None
        self._hops, self._total = ring_payloads(self.vectors, self.spans, self.masks)
        self.chunk_units = np.array(
            [chunk_size_units(b - a, model_len, size_multiplier) for a, b in self.spans]
        )
        self.completion: dict[int, float] = {}
        self.results: dict[int, np.ndarray] = {}

    @property
    def raw_splits(self) -> list[list[np.ndarray]]:
        return [[v[a:b] for a, b in self.spans] for v in self.vectors]

    @property
    def transcript(self) -> list[TranscriptEntry]:
        """The round's messages in the pure path's stream-major order."""
        return ring_transcript(self._hops, self._total, self.spans, self.masks is not None)

    def start(self, ready_times: Sequence[float]) -> None:
        sim, k = self.sim, self.k
        now = sim.now
        ready = now + (np.asarray(ready_times, dtype=np.float64) - now)
        if (ready < now).any():
            raise TimeTravelError(f"ring stream starts at {ready.min()} before clock {now}")
        finish = ready
        if k > 1:
            reduce_hops = k if self.masks is not None else k - 1
            n_hops = reduce_hops + k - 1
            nodes = np.asarray(self.members)
            links = sim.latency[nodes, np.roll(nodes, -1)].astype(np.float64, copy=False)
            pos = np.arange(k)
            times = np.empty((k, n_hops + 1))
            times[:, 0] = ready
            times[:, 1:] = links[(pos[:, None] + np.arange(n_hops)) % k] * self.chunk_units[:, None]
            np.cumsum(times, axis=1, out=times)
            # [p, s]: slot s is final at position s + reduce_hops after that
            # many hops; each gather hop takes it one position further.
            arrival = reduce_hops + (pos[:, None] - pos - reduce_hops) % k
            finish = times[pos, arrival].max(axis=1)
        completion = finish.tolist()
        self.completion = dict(zip(self.members, completion))
        self.results = dict.fromkeys(self.members, self._total)
        last = max(completion)
        sim.schedule_at(last, self.members[completion.index(last)], kind=self.kind)

    def done(self) -> bool:
        return len(self.completion) == self.k
