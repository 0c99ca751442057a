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
from typing import Any, Sequence

import numpy as np

from . import fixedpoint
from .errors import MaskShapeError, ModelTooSmallError
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
    """Add the private noise to the owner's chunk, leaving the rest untouched."""
    if noise.shape != chunks[position].shape:
        raise MaskShapeError(
            f"noise length {noise.shape[0]} != chunk length {chunks[position].shape[0]}"
        )
    masked = [c.copy() for c in chunks]
    masked[position] = masked[position] + noise
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


def ring_allgather(
    clean_chunks: Sequence[np.ndarray],
    transcript: list[TranscriptEntry] | None = None,
) -> list[np.ndarray]:
    """Circulate each miner's completed chunk sum; every miner gets the full vector."""
    k = len(clean_chunks)
    if k == 1:
        return [clean_chunks[0].copy()]
    slots: list[dict[int, np.ndarray]] = [{i: clean_chunks[i]} for i in range(k)]
    for s in range(k):
        payload = clean_chunks[s]
        for hop in range(k - 1):
            src, dst = (s + hop) % k, (s + hop + 1) % k
            if transcript is not None:
                transcript.append(TranscriptEntry(GATHER, hop, src, dst, s, payload.copy(), False))
            slots[dst][s] = payload
    return [concat([slots[i][s] for s in range(k)]) for i in range(k)]


@dataclass
class AllReduceResult:
    sums: list[np.ndarray]  # per-miner full summed vector (identical)
    raw_splits: list[list[np.ndarray]]
    masks: list[np.ndarray] | None
    transcript: list[TranscriptEntry] = field(repr=False, default_factory=list)

    @property
    def message_count(self) -> int:
        return len(self.transcript)


def run_masked_all_reduce(
    vectors: Sequence[np.ndarray],
    noise_seed: int,
    noise_bits: int = fixedpoint.DEFAULT_NOISE_BITS,
) -> AllReduceResult:
    """Full masked all-reduce over fixed-point vectors, one per miner."""
    k = len(vectors)
    raw_splits = [split(v, k) for v in vectors]
    masks = [
        fixedpoint.generate_noise(raw_splits[i][i].shape[0], noise_seed + i, noise_bits)
        for i in range(k)
    ]
    masked = [mask_own_chunk(raw_splits[i], i, masks[i]) for i in range(k)]
    transcript: list[TranscriptEntry] = []
    accs = ring_reduce_scatter(masked, transcript)
    clean = [unmask_own_sum(accs[i], masks[i]) for i in range(k)]
    sums = ring_allgather(clean, transcript)
    return AllReduceResult(sums=sums, raw_splits=raw_splits, masks=masks, transcript=transcript)


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
    raw_splits = [split(v, k) for v in vectors]
    if k == 1:
        return AllReduceResult(sums=[vectors[0].copy()], raw_splits=raw_splits, masks=None)
    shares = pairwise_shares(k, vectors[0].shape[0], noise_seed, noise_bits)
    blinded = [v + s for v, s in zip(vectors, shares)]
    result = run_plain_all_reduce(blinded)
    return AllReduceResult(
        sums=result.sums, raw_splits=raw_splits, masks=None, transcript=result.transcript
    )


def run_plain_all_reduce(vectors: Sequence[np.ndarray]) -> AllReduceResult:
    """Standard unmasked ring all-reduce (2(k-1) steps), used by the baseline."""
    k = len(vectors)
    raw_splits = [split(v, k) for v in vectors]
    transcript: list[TranscriptEntry] = []
    if k == 1:
        return AllReduceResult(
            sums=[vectors[0].copy()], raw_splits=raw_splits, masks=None, transcript=transcript
        )
    complete: dict[int, np.ndarray] = {}
    for s in range(k):
        partial = raw_splits[s][s].copy()
        for hop in range(k - 1):
            src, dst = (s + hop) % k, (s + hop + 1) % k
            transcript.append(TranscriptEntry(REDUCE, hop, src, dst, s, partial.copy(), False))
            partial = partial + raw_splits[dst][s]
        complete[s] = partial  # finishes at miner (s - 1) % k
    slots: list[dict[int, np.ndarray]] = [dict() for _ in range(k)]
    for s in range(k):
        slots[(s - 1) % k][s] = complete[s]
        payload = complete[s]
        for hop in range(k - 1):
            src, dst = (s - 1 + hop) % k, (s + hop) % k
            transcript.append(TranscriptEntry(GATHER, hop, src, dst, s, payload.copy(), False))
            slots[dst][s] = payload
    sums = [concat([slots[i][s] for s in range(k)]) for i in range(k)]
    return AllReduceResult(sums=sums, raw_splits=raw_splits, masks=None, transcript=transcript)


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
    """One all-reduce round for a pool, driven by simulator events.

    Members are given in ring order; each begins its stream at its ready
    time. Chunk messages cost latency proportional to their share of the
    model. The arithmetic is identical to the pure-path functions above.
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
        self.position = {node: pos for pos, node in enumerate(self.members)}
        self.kind = kind
        model_len = vectors[0].shape[0]
        self.raw_splits = [split(v, self.k) for v in vectors]
        self.masks = list(masks) if masks is not None else None
        if self.masks is not None:
            self.work = [
                mask_own_chunk(self.raw_splits[i], i, self.masks[i]) for i in range(self.k)
            ]
        else:
            self.work = [[c.copy() for c in s] for s in self.raw_splits]
        self.chunk_units = [
            chunk_size_units(self.work[0][s].shape[0], model_len, size_multiplier)
            for s in range(self.k)
        ]
        self.final: list[dict[int, np.ndarray]] = [dict() for _ in range(self.k)]
        self.completion: dict[int, float] = {}
        self.results: dict[int, np.ndarray] = {}
        self.transcript: list[TranscriptEntry] = []

    def start(self, ready_times: Sequence[float]) -> None:
        if self.k == 1:
            self.sim.schedule(ready_times[0] - self.sim.now, self.members[0], ("solo",), self.kind)
            self.sim.register(self.members[0], self._handle)
            return
        for pos, node in enumerate(self.members):
            self.sim.register(node, self._handle)
            self.sim.schedule(ready_times[pos] - self.sim.now, node, ("start", pos), self.kind)

    def _send(self, pos: int, phase: str, step: int, slot: int, payload: np.ndarray) -> None:
        nxt = (pos + 1) % self.k
        # Handlers never mutate a payload in place, so the transcript can
        # hold the sent array itself rather than a copy.
        self.transcript.append(
            TranscriptEntry(phase, step, pos, nxt, slot, payload, self.masks is not None and phase == REDUCE)
        )
        self.sim.send(
            self.members[pos],
            self.members[nxt],
            (phase, step, slot, pos, payload),
            size_units=self.chunk_units[slot],
            kind=f"{self.kind}-{phase}",
        )

    def _finish_member(self, pos: int) -> None:
        self.completion[self.members[pos]] = self.sim.now
        self.results[self.members[pos]] = concat(
            [self.final[pos][s] for s in range(self.k)]
        )

    def _handle(self, sim: Simulator, event: Any) -> None:
        payload = event.payload
        if payload[0] == "solo":
            chunk = self.work[0][0]
            if self.masks is not None:
                chunk = unmask_own_sum(chunk, self.masks[0])
            self.final[0][0] = chunk
            self._finish_member(0)
            return
        if payload[0] == "start":
            # Each member's own chunk (noisy, in the masked schedule) opens its stream.
            pos = payload[1]
            self._send(pos, REDUCE, 0, pos, self.work[pos][pos])
            return
        phase, step, slot, _, data = payload
        pos = self.position[event.dst]
        if phase == REDUCE:
            if self.masks is not None and slot == pos:
                # Completed noisy sum back at its owner: strip noise, start gather.
                clean = unmask_own_sum(data, self.masks[pos])
                self.final[pos][slot] = clean
                self._send(pos, GATHER, 0, slot, clean)
                if len(self.final[pos]) == self.k:
                    self._finish_member(pos)
                return
            accumulated = data + self.work[pos][slot]
            self.work[pos][slot] = accumulated
            if self.masks is not None:
                self._send(pos, REDUCE, step + 1, slot, accumulated)
            elif step + 1 <= self.k - 2:
                self._send(pos, REDUCE, step + 1, slot, accumulated)
            else:
                # Plain schedule: slot complete here; start the gather pass.
                self.final[pos][slot] = accumulated
                self._send(pos, GATHER, 0, slot, accumulated)
                if len(self.final[pos]) == self.k:
                    self._finish_member(pos)
        else:  # GATHER
            self.final[pos][slot] = data
            if step + 1 <= self.k - 2:
                self._send(pos, GATHER, step + 1, slot, data)
            if len(self.final[pos]) == self.k:
                self._finish_member(pos)

    def done(self) -> bool:
        return len(self.completion) == self.k

    def detach(self) -> None:
        for node in self.members:
            self.sim.unregister(node)
