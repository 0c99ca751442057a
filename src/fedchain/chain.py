"""Blockchain state machine: task rounds, verification gating, rewards.

A task round runs pool formation and per-pool federated training, lets the
first pool whose model verifies propose a block, and settles the reward
among the winning pool's members. Every simulated time is computed in
closed form over the latency matrix, bit-identical to an event-driven
replay kept in the tests. The centralized aggregation and whole-network
ring baselines are one-pool runs of the same training engine (`_PoolRun`),
race (`_race`) and settlement (`_settle`), so their latencies are
comparable; proof-of-work's trial counts are one seeded geometric draw.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Sequence

import numpy as np

from . import fixedpoint, netsim, pools, sharedring, verify
from .data import Dataset, largest_remainder
from .errors import (
    DuplicateTaskBlockError,
    InsufficientSamplesError,
    InvalidCommitteeError,
    InvalidPowSettingsError,
    InvalidTaskError,
    LedgerIntegrityError,
    RoundFailedError,
)
from .fed import (
    DenseClassifier,
    RoundMetrics,
    TrainConfig,
    aggregate,
    aggregation_weights,
    evaluate,
    local_train,
)

TX_KINDS = (
    "TaskPublish",
    "PoolRegister",
    "ModelCommit",
    "ProofSubmit",
    "VerifyVote",
    "RewardSettle",
)
MODES = ("fedchain", "fedavg_central", "pow", "gfl_ring")
GENESIS_HASH = "0" * 64
PUBLISHER = 0  # the node that publishes every task
MAX_POW_DIFFICULTY = 56  # above it, `pow`'s geometric draw hits the int64 ceiling too often
_MODEL_UNITS = int(netsim.SIZE_MULTIPLIER)  # size units of a whole model, or of a proof


# `json.dumps(obj, sort_keys=True[, separators])` with the encoder built once,
# not per call, and no cycle markers: ledger records are acyclic.
_DIGEST_JSON = json.JSONEncoder(sort_keys=True, check_circular=False, separators=(",", ":")).encode
_RECORD_JSON = json.JSONEncoder(sort_keys=True, check_circular=False).encode


def _derive_seed(*parts) -> int:
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass
class Task:
    task_id: int
    arch: object
    example: Dataset  # publisher's example dataset: KL reference and public eval split
    held_out: Dataset  # verifier-side challenge source
    target: float = 0.90
    deadline: float = 1e9
    reward: int = 1000


# Each record's fields, declared once: a record's digest covers exactly the
# fields its export writes and its load reads.
_TX_FIELDS = ("kind", "author", "timestamp", "payload")
_BLOCK_FIELDS = ("height", "prev_hash", "timestamp", "proposer", "task_id", "model_commitment")


def _fields(record, names: tuple[str, ...]) -> dict:
    return {name: getattr(record, name) for name in names}


@dataclass
class Transaction:
    kind: str
    payload: dict
    author: int
    timestamp: float

    def digest(self) -> str:
        body = _DIGEST_JSON(_fields(self, _TX_FIELDS))
        return hashlib.sha256(body.encode()).hexdigest()


@dataclass
class Block:
    height: int
    prev_hash: str
    timestamp: float
    transactions: list[Transaction]
    proposer: int
    task_id: int
    model_commitment: str | None

    def hash(self) -> str:
        body = _DIGEST_JSON({**_fields(self, _BLOCK_FIELDS),
                             "tx": [t.digest() for t in self.transactions]})
        return hashlib.sha256(body.encode()).hexdigest()


class Chain:
    """Fork-free ledger; its balances are read off its blocks."""

    def __init__(self) -> None:
        genesis = Block(0, GENESIS_HASH, 0.0, [], -1, -1, None)
        self.blocks: list[Block] = [genesis]

    def head(self) -> Block:
        return self.blocks[-1]

    @property
    def balances(self) -> dict[int, int]:
        """Each node's credits summed over the blocks' `block_credits`."""
        balances: dict[int, int] = {}
        for block in self.blocks:
            for node, amount in block_credits(block).items():
                balances[node] = balances.get(node, 0) + amount
        return balances

    def append_block(self, block: Block) -> None:
        """Append a block that extends the head; a task gets at most one."""
        expected = self.head().hash()
        if block.prev_hash != expected or block.height != self.head().height + 1:
            raise ValueError("block does not extend the chain head")
        if any(b.task_id == block.task_id for b in self.blocks[1:]):
            raise DuplicateTaskBlockError(f"task {block.task_id} already has a block")
        self.blocks.append(block)

    def export_jsonl(self, path: str) -> None:
        """Line-delimited ledger dump: one record per block and transaction,
        all encoded before the file is opened and written once."""
        records = []
        for block in self.blocks:
            records.append({"type": "block", "hash": block.hash(), **_fields(block, _BLOCK_FIELDS)})
            records += ({"type": "tx", "height": block.height, **_fields(tx, _TX_FIELDS)}
                        for tx in block.transactions)
        text = "\n".join(map(_RECORD_JSON, records)) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# The fields an export line must hold, in the order a "lacks" message names them.
_LEDGER_FIELDS = {
    "block": _BLOCK_FIELDS[:2] + ("hash",) + _BLOCK_FIELDS[2:],
    "tx": ("height",) + _TX_FIELDS,
}


def _ledger_record(line: bytes, lineno: int) -> dict:
    """Parse one export line, checking its type, its fields and its height."""
    try:  # decoded as `json.loads` decodes UTF-8 bytes, without its per-call detection
        record = json.loads(line.decode("utf-8-sig", "surrogatepass"))
    except ValueError as err:
        raise LedgerIntegrityError(f"line {lineno}: not JSON") from err
    if not isinstance(record, dict) or record.get("type") not in ("block", "tx"):
        raise LedgerIntegrityError(f"line {lineno}: not a block or tx record")
    missing = [f for f in _LEDGER_FIELDS[record["type"]] if f not in record]
    if missing:
        raise LedgerIntegrityError(f"line {lineno}: {record['type']} record lacks {missing}")
    if type(record["height"]) is not int:
        raise LedgerIntegrityError(f"line {lineno}: height {record['height']!r} is not an integer")
    return record


def _node_credits(credits) -> dict[int, int] | None:
    """`credits` by int node id if it is a map of decimal node ids (ASCII
    digits, no leading zero) to int amounts, else None."""
    if not isinstance(credits, dict):
        return None
    try:
        paid = {int(node): amount for node, amount in credits.items() if type(node) is str
                and node.isascii() and node.isdecimal() and type(amount) is int}
    except ValueError:  # an id longer than `int` parses
        return None
    return paid if list(map(str, paid)) == list(credits) else None  # every key kept, as written


def block_credits(block: Block) -> dict[int, int]:
    """What a block pays, by int node id: its one `RewardSettle`'s credits
    or, in a block without one (`pow`), its `TaskPublish` reward to its
    proposer. A block with two settlements, or whose payment `_node_credits`
    refuses, pays nothing; `validate_chain` reports it."""
    settles = [tx.payload.get("credits", {}) if isinstance(tx.payload, dict) else None
               for tx in block.transactions if tx.kind == "RewardSettle"]
    if not settles and type(block.proposer) is int:
        settles = [{str(block.proposer): tx.payload.get("reward")} for tx in block.transactions
                   if tx.kind == "TaskPublish" and isinstance(tx.payload, dict)][:1]
    return (_node_credits(settles[0]) if len(settles) == 1 else None) or {}


def load_chain_jsonl(path: str) -> Chain:
    """Rebuild a Chain from an export; used by the validate-chain CLI.

    Raises LedgerIntegrityError naming the line for a line that is not JSON,
    a record that is not a block or tx or lacks a field, a height that is
    not an integer, a tx before its block record and a repeated block
    height; for a file with no genesis record (the height-0 block that every
    export starts with); and naming the lowest offending height if a block's
    recomputed hash differs from the hash stored with it."""
    chain = Chain()
    blocks: dict[int, Block] = {}
    stored_hashes: dict[int, object] = {}
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            record = _ledger_record(line, lineno)
            height = record["height"]
            if record["type"] == "block":
                if height in blocks:
                    raise LedgerIntegrityError(f"line {lineno}: repeated block height {height}")
                stored_hashes[height] = record["hash"]
                blocks[height] = Block(transactions=[],
                                       **{name: record[name] for name in _BLOCK_FIELDS})
            elif height not in blocks:
                raise LedgerIntegrityError(
                    f"line {lineno}: tx for height {height} before its block record"
                )
            else:
                blocks[height].transactions.append(
                    Transaction(**{name: record[name] for name in _TX_FIELDS})
                )
    if 0 not in blocks:
        raise LedgerIntegrityError("no genesis record: no block at height 0")
    for height in sorted(blocks):
        if blocks[height].hash() != stored_hashes[height]:
            raise LedgerIntegrityError(
                f"height {height}: stored block hash does not match the block's contents"
            )
        if height != 0:
            chain.blocks.append(blocks[height])
    return chain


def _is_finite_number(value) -> bool:
    """An int, or a float but the infinities and NaN (it fails every comparison)."""
    return type(value) is int or (type(value) is float and math.isfinite(value))


def _malformed_claim(tx: Transaction) -> str | None:
    """Why a transaction cannot be audited as a claim, or None if it can."""
    if not isinstance(tx.kind, str) or tx.kind not in TX_KINDS:
        return f"unknown transaction kind {tx.kind!r}"
    if not isinstance(tx.payload, dict):
        return f"{tx.kind} payload is not a map"
    if not _is_finite_number(tx.timestamp):
        return f"{tx.kind} timestamp {tx.timestamp!r} is not a finite number"
    if tx.kind in ("PoolRegister", "ModelCommit") and "pool" in tx.payload:
        if type(tx.payload["pool"]) is not int:
            return f"{tx.kind} pool {tx.payload['pool']!r} is not an integer"
    if tx.kind == "PoolRegister" and not isinstance(tx.payload.get("members", []), list):
        return "PoolRegister members are not a list"
    if tx.kind == "RewardSettle" and _node_credits(tx.payload.get("credits", {})) is None:
        return "RewardSettle credits are not a map of node to integer amount"
    return None


def validate_chain(chain: Chain) -> list[str]:
    """Audit a ledger; return its violations, each naming the block height.

    Per block: the hash link to the block before, a height one above it,
    an integer task id, a proposer that is a node id (an int not below 0)
    and a block timestamp that is a finite number. A malformed claim (an
    unknown kind, a payload or credits of the wrong shape, a timestamp that
    is not a finite number) is one violation, and a block that has one has
    no other claim audited. `_claim_violations` audits every other block:
    - transaction kinds in `TX_KINDS` order, and `PoolRegister`s in time order;
    - one time order for the winning pipeline: its `TaskPublish`,
      `ModelCommit`, `ProofSubmit`, `VerifyVote` and `RewardSettle`
      timestamps never decrease in ledger order (a pool may register after
      the winner commits), and each adjacent pair out of order is one
      violation;
    - the block no earlier than its last transaction, and the reward
      settled at the block timestamp;
    - the block's task id is its publication's, and its model commitment
      is its `ModelCommit`'s, or None without one;
    - a task target in (0, 1], a task reward not below 0, a measured
      accuracy in [0, 1] and a claimed accuracy equal to the task target;
    - the proposer is the model committer, every proof has a matching
      commitment, and every vote accepts;
    - every registered pool's members start with its head;
    - at most one `RewardSettle`, and none without a `ModelCommit`;
    - the credits are not below 0, sum to the task reward (0 without a
      publication) and go only to registered members of the committing pool.
    Across blocks: at most one block per task."""
    violations: list[str] = []
    for prev, block in zip(chain.blocks, chain.blocks[1:]):
        found = []
        if block.prev_hash != prev.hash():
            found.append("broken hash link")
        if block.height != prev.height + 1:
            found.append("non-monotone height")
        if type(block.task_id) is not int:
            found.append(f"task id {block.task_id!r} is not an integer")
        if type(block.proposer) is not int or block.proposer < 0:
            found.append(f"proposer {block.proposer!r} is not a node id")
        if not _is_finite_number(block.timestamp):
            found.append(f"block timestamp {block.timestamp!r} is not a finite number")
        malformed = [
            f"transaction {i}: {why}"
            for i, tx in enumerate(block.transactions)
            if (why := _malformed_claim(tx)) is not None
        ]
        found += malformed or _claim_violations(block)
        violations += [f"height {block.height}: {v}" for v in found]
    task_ids = [b.task_id for b in chain.blocks[1:] if type(b.task_id) is int]
    if len(task_ids) != len(set(task_ids)):
        violations.append("duplicate block for a task")
    return violations


def _claim_violations(block: Block) -> list[str]:
    """The violations of a block's well-formed claims (see `validate_chain`),
    without the height."""
    found = []
    order = [TX_KINDS.index(tx.kind) for tx in block.transactions]
    if order != sorted(order):
        found.append("transaction kinds out of order")
    by_kind: dict[str, list[Transaction]] = {kind: [] for kind in TX_KINDS}
    for tx in block.transactions:
        by_kind[tx.kind].append(tx)
    publishes, registers, commits, proofs, votes, settles = by_kind.values()
    times = [tx.timestamp for tx in registers]
    if times != sorted(times):
        found.append("PoolRegister timestamps out of order")
    pipeline = [tx for tx in block.transactions if tx.kind != "PoolRegister"]
    found += [
        f"timestamps out of order: {tx.kind} at {tx.timestamp} "
        f"before the {prev.kind} at {prev.timestamp}"
        for prev, tx in zip(pipeline, pipeline[1:]) if tx.timestamp < prev.timestamp
    ]
    last = block.transactions[-1] if block.transactions else None
    # a RewardSettle is held to the block timestamp below
    if (last is not None and last.kind != "RewardSettle" and _is_finite_number(block.timestamp)
            and block.timestamp < last.timestamp):
        found.append(f"block timestamp {block.timestamp} is before the {last.kind} "
                     f"at {last.timestamp}")
    for tx in publishes:
        target, reward = tx.payload.get("target"), tx.payload.get("reward")
        if not (_is_finite_number(target) and 0 < target <= 1):
            found.append(f"task target {target!r} is not a finite number in (0, 1]")
        if _is_finite_number(reward) and reward < 0:
            found.append(f"task reward {reward!r} is below 0")
        if tx.payload.get("task_id") != block.task_id:
            found.append(f"block task id {block.task_id!r} is not the published "
                         f"task id {tx.payload.get('task_id')!r}")
    commitment = commits[0].payload.get("com") if commits else None
    if block.model_commitment != commitment:
        found.append(f"block model commitment {block.model_commitment!r} is not "
                     f"the committed {commitment!r}")
    if any(c.author != block.proposer for c in commits):
        found.append("proposer is not the model committer")
    for proof in proofs:
        measured, claimed = proof.payload.get("measured"), proof.payload.get("claimed")
        if not (_is_finite_number(measured) and 0 <= measured <= 1):
            found.append(f"measured accuracy {measured!r} is not a finite number in [0, 1]")
        if publishes and not (_is_finite_number(claimed)
                              and claimed == publishes[0].payload.get("target")):
            found.append(f"claimed accuracy {claimed!r} is not the task target")
        if not any(c.payload.get("com") == proof.payload.get("com") for c in commits):
            found.append("proof without matching model commitment")
    for vote in votes:
        if vote.payload.get("accept") is not True:
            found.append(f"vote by {vote.author} does not accept")
    for tx in registers:
        members = tx.payload.get("members")
        if not members or members[0] != tx.payload.get("head"):
            found.append(f"pool {tx.payload.get('pool')} members do not start with its head")
    if registers:  # the committing pool's last registration names its members
        pool = commits[0].payload.get("pool") if commits else None
        committing = next(({str(m) for m in r.payload.get("members", [])}
                           for r in reversed(registers) if r.payload.get("pool") == pool), set())
    if len(settles) > 1:
        found.append(f"{len(settles)} RewardSettles in one block")
    if settles and not commits:
        found.append("reward settled without a model commitment")
    for settle in settles:
        if settle.timestamp != block.timestamp:
            found.append(f"reward settled at {settle.timestamp}, "
                         f"not at the block timestamp {block.timestamp}")
        credits = settle.payload.get("credits", {})
        negative = sorted(node for node, amount in credits.items() if amount < 0)
        if negative:
            found.append(f"credits below 0 to nodes {negative}")
        if sum(credits.values()) != (publishes[0].payload.get("reward") if publishes else 0):
            found.append("credits do not sum to the task reward")
        if registers:
            outside = sorted(node for node in credits if node not in committing)
            if outside:
                found.append(f"credits to nodes {outside} outside the committing pool")
    return found


def split_reward(reward: int, weights: np.ndarray, members: Sequence[int]) -> dict[int, int]:
    """Integer reward split proportional to aggregation weights, by
    `largest_remainder`, so the total is exactly the reward amount."""
    credits = largest_remainder(reward, weights)
    return {int(m): int(c) for m, c in zip(members, credits)}


def publish_task(task: Task) -> Transaction:
    """Validate a task and produce its publication transaction, by
    `PUBLISHER` at time 0."""
    if not 0.0 < task.target <= 1.0:
        raise InvalidTaskError(f"accuracy target must be in (0, 1], got {task.target}")
    if task.deadline <= 0.0:
        raise InvalidTaskError("task deadline is not in the future")
    if task.reward < 0:
        raise InvalidTaskError("reward must be non-negative")
    return Transaction(
        kind="TaskPublish",
        payload={"task_id": task.task_id, "target": task.target, "reward": task.reward},
        author=PUBLISHER,
        timestamp=0.0,
    )


@dataclass
class RoundSetup:
    """What one task round runs on. The protocol's fixed values are module
    constants, not fields: the publisher (`PUBLISHER`), the mask width
    (`fixedpoint.NOISE_BITS`), a whole model's size units
    (`netsim.SIZE_MULTIPLIER`), the challenge size (`verify.CHALLENGE_SIZE`)
    and the fedchain pools' KL weighting."""

    task: Task
    latency: np.ndarray
    compute_times: np.ndarray
    miner_data: list[Dataset]  # indexed by node id
    n_pools: int = 5
    seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    max_rounds: int = 30
    n_verifiers: int = 3
    pow_difficulty: int = 12
    pow_trial_ms: float = 1.0
    tamper_pools: frozenset = frozenset()  # pools whose proofs get corrupted

    @property
    def n_nodes(self) -> int:
        return self.latency.shape[0]


@dataclass
class PoolOutcome:
    """One pool's part in a round.

    `abandoned_at` is set on a pool that the race cut short once the block
    was decided, because the earliest vote its next round could produce
    (see `_race`) was not ahead of the block's: the start barrier of the
    first round it did not run, or, for a pool that finished but whose
    last vote would have arrived after the block's, its finish time. Such a
    finisher's exchange never ran: it keeps `finish_time` and its metrics,
    but its `commitment`, `accept_time`, `proof_time` and `vote_times` are
    unset and `accepted` is False. `None` means the pool ran to its natural
    end (target, deadline or round budget) and, if it finished, was
    verified. `metrics` holds the rounds the pool ran, in order, and
    `weights`, its aggregation weights, is computed at its first round:
    it is None exactly for a pool that never ran a round. A verified
    pool's head commits its model at `finish_time`."""

    pool_id: int
    head: int
    members: list[int]
    finish_time: float | None  # training barrier when target was reached, and the commit time
    accept_time: float | None  # all verifier votes in
    accepted: bool
    measured_accuracy: float
    weights: np.ndarray | None
    commitment: str | None
    proof_time: float | None = None
    vote_times: dict[int, float] = field(default_factory=dict)
    metrics: list[RoundMetrics] = field(default_factory=list)
    abandoned_at: float | None = None


@dataclass
class RoundResult:
    block: Block | None
    latency_ms: float
    winner_pool: int | None
    accuracy: float
    outcomes: list[PoolOutcome]
    assignment: pools.PoolAssignment | None
    start_times: dict[int, float]
    credits: dict[int, int]


def _task_arrivals(setup: RoundSetup) -> np.ndarray:
    """When each node has the task: over one link from the publisher, which
    has it at 0.0."""
    task = np.asarray(setup.latency, dtype=np.float64)[PUBLISHER].copy()
    task[PUBLISHER] = 0.0
    return task


def _simulate_formation(setup: RoundSetup, assignment: pools.PoolAssignment) -> dict[int, float]:
    """Each node's training start time after pool formation, in closed form.

    The modelled message schedule, each message one size unit over the
    latency matrix `L`:
    - the publisher sends the task to every other node (n - 1 messages);
    - on receiving the task, each of the p heads announces itself to every
      other node (p(n - 1) messages); heads ignore announcements;
    - a non-head node that has heard all p announcements sends a join to
      its head (n - p messages);
    - a head that has every join starts its pool and sends pool-start to
      its members (n - p messages); a solo pool starts on the task.

    Nothing in formation contends for a node or a link, so every start time
    is a max of sums of link latencies:
    - `task[v] = L[pub, v]`, and `task[pub] = 0.0`;
    - `last_announce[v] = max over heads h of task[h] + L[h, v]`;
    - `start[h] = max over non-head members m of last_announce[m] + L[m, h]`,
      or `task[h]` for a solo pool;
    - `start[m] = start[h] + L[h, m]`.

    These are bit-identical to running the schedule on the event loop: each
    delivery there is `now + float(L[src, dst]) * 1`, the closed form does
    the same float additions, and `max` is exact. The per-head maximum is
    one `np.maximum.at` over the non-head members, each against its own
    head; a pool of size one starts on the task. Not simulating the
    schedule saves (n - 1) + p(n - 1) + 2(n - p) messages and one timer
    event per round.
    """
    latency = np.asarray(setup.latency, dtype=np.float64)
    task = _task_arrivals(setup)
    heads = np.asarray(assignment.heads())
    last_announce = (task[heads, None] + latency[heads]).max(axis=0)
    sizes = np.asarray([len(pool.members) for pool in assignment.pools])
    nodes = np.fromiter(itertools.chain.from_iterable(pool.members for pool in assignment.pools),
                        dtype=np.int64, count=int(sizes.sum()))
    head_of = np.repeat(heads, sizes)
    joined = nodes != head_of
    members, member_heads = nodes[joined], head_of[joined]
    start = np.full_like(task, -np.inf)
    solo = heads[sizes == 1]
    start[solo] = task[solo]
    np.maximum.at(start, member_heads, last_announce[members] + latency[members, member_heads])
    start[members] = start[member_heads] + latency[member_heads, members]
    return dict(enumerate(start.tolist()))


def pow_range_problem(difficulty, trial_ms) -> str | None:
    """Why `pow` cannot run at this difficulty and trial cost, or None if it can."""
    if not 0 <= difficulty <= MAX_POW_DIFFICULTY:
        return f"pow_difficulty must be in [0, {MAX_POW_DIFFICULTY}], got {difficulty}"
    if not 0 <= trial_ms < math.inf:
        return f"pow_trial_ms must be finite and >= 0, got {trial_ms}"
    return None


def _exchange_constants(setup: RoundSetup) -> verify.PublicParams:
    """What every verification exchange of a race shares: the public
    parameters, which depend only on the seed and the task. `_race` builds
    them on its first exchange; they live no longer than the race."""
    return verify.keygen(_derive_seed(setup.seed, setup.task.task_id, "pp"))


def _sample_nodes(rng: np.random.Generator, n_nodes: int, excluded: list[int],
                  size: int) -> list[int]:
    """`min(size, candidates)` distinct nodes of `range(n_nodes)` outside the
    sorted, distinct `excluded`, as `rng.choice(candidates, ...,
    replace=False)` on the candidate list draws them. That draw picks its
    indices from the candidate count alone, so the count is drawn from and
    index i maps to the i-th node not excluded: i plus the number of
    excluded ids it passes, searched over `below[j]`, the count of
    candidates below `excluded[j]`."""
    below = [e - j for j, e in enumerate(excluded)]
    pop_size = n_nodes - len(excluded)
    idx = rng.choice(pop_size, size=min(size, pop_size), replace=False)
    return [i + bisect.bisect_right(below, i) for i in idx.tolist()]


def _draw_committee(setup: RoundSetup, outcome: PoolOutcome) -> list[int]:
    """The outcome's verifier committee, from outside the pool when the
    network is big enough, else from every node but the head. It depends
    only on the seed, the task, the pool id and the members, so a run
    draws it once, when it is made."""
    rng = np.random.default_rng(
        _derive_seed(setup.seed, setup.task.task_id, "committee", outcome.pool_id)
    )
    excluded = sorted({*outcome.members, outcome.head})
    if len(excluded) == setup.n_nodes:
        excluded = [outcome.head]
    return _sample_nodes(rng, setup.n_nodes, excluded, setup.n_verifiers)


def _committee_links(setup: RoundSetup, head: int,
                     committee: list[int]) -> list[tuple[float, float]]:
    """`(L[head, v], L[v, head])` for each verifier `v` of the committee."""
    return [(float(setup.latency[head, v]), float(setup.latency[v, head])) for v in committee]


def _vote_arrivals(t0: float, links: list[tuple[float, float]]) -> list[tuple]:
    """Each verifier's `(vote, proof, challenge, commit, committee index)`
    arrival times in an exchange from `t0`, unsorted: with `(down, up)` its
    `_committee_links`, the commit arrives at `t0 + down`, the challenge
    `up` later, the proof `down * _MODEL_UNITS` later and the vote `up`
    later. The one place these sums are made, for a finisher's
    `_PoolRun.votes` and for `_PoolRun.vote_bound` alike."""
    arrivals = []
    for idx, (down, up) in enumerate(links):
        commit_at = t0 + down
        challenge_at = commit_at + up
        proof_at = challenge_at + down * _MODEL_UNITS
        arrivals.append((proof_at + up, proof_at, challenge_at, commit_at, idx))
    return arrivals


def _verification_exchange(run: _PoolRun, pp: verify.PublicParams) -> None:
    """The crypto of the commit/challenge/prove/vote exchange between a
    finished run's head and its committee, and its result set on the run's
    outcome. No message is sent: `run.votes` holds the arrival times.

    The head commits to the model. Each verifier derives its challenge from
    the commitment, sends back only the rows, checks the proof and votes.
    The challenge depends only on the commitment, so every verifier draws
    the same one: it is derived once and the head proves once. The proof
    time is the first challenge arrival and the accept time the last vote
    arrival; votes count in the order of `run.votes`, so every field set on
    the outcome is bit-identical to replaying the messages. The outcome is
    accepted only if it has a committee and every vote accepts. `pp` comes
    from `_exchange_constants`."""
    setup, outcome, committee, votes = run.setup, run.outcome, run.committee, run.votes
    task, model = setup.task, run.model
    blind_seed = _derive_seed(setup.seed, task.task_id, "blind", outcome.pool_id)
    blinding = verify.make_blinding(blind_seed)
    com = verify.commit(model, pp, blinding)
    sample = verify.derive_challenge(task.held_out, com, verify.CHALLENGE_SIZE)
    proof = verify.prove(model, sample.x, pp, blinding)
    if run.tamper:
        bad_y = proof.y.copy()
        bad_y[0] = (bad_y[0] + 1) % task.example.n_classes
        proof = replace(proof, y=bad_y)
    ballots = []
    for _ in committee:
        result = verify.verify(com, sample, proof, pp)
        ok = result.accepted and verify.accuracy_claim_check(
            result.measured_accuracy, task.target, sample.count
        )
        ballots.append((ok, result.measured_accuracy))
    outcome.accepted = bool(votes) and all(ok for ok, _ in ballots)
    outcome.measured_accuracy = float(np.mean([ballots[i][1] for *_, i in votes])) if votes else 0.0
    outcome.accept_time = votes[-1][0] if votes else None
    outcome.commitment = com.hex
    outcome.proof_time = min((a[2] for a in votes), default=None)
    outcome.vote_times = {committee[i]: t for t, *_, i in votes}


class _PoolRun:
    """One pool's barrier-synchronized training on its own clock, one round
    per `step`; the one training loop of every learning mode.

    Each round: members train locally from the current model, `combine`
    aggregates their weighted updates into the next model and returns the
    round's end barrier, everyone evaluates the aggregate on the public
    example split (`fed.evaluate`), and the pool is done at the target,
    the deadline, or the round budget. The learning mode's `_ENGINES` entry
    gives the aggregation `scheme`, the `combine` and `latest_start`, the
    latest stream start of the combine's next round, from which
    `vote_bound` bounds the round's earliest last vote. `members[0]` is the
    head; only a fedchain pool listed in `tamper_pools` is tampered. A run's
    clock is its `barrier`, and it derives every seed from its pool id and
    the round's index, `len(outcome.metrics)`, so runs can be interleaved
    freely. Its aggregation weights are computed at its first `step`;
    `model` is the round's shared initial model (`_initial_model`).
    `committee` is its verifier committee (`_draw_committee`), and `votes`,
    set by `_race` once the run finishes, are the committee's
    `_vote_arrivals` from the finish time. `compute` holds the members'
    compute times, in member order.
    """

    def __init__(self, setup: RoundSetup, mode: str, pool_id: int, members: list[int],
                 model: DenseClassifier, barrier: float) -> None:
        self.setup = setup
        self.scheme, self.combine, self.latest_start = _ENGINES[mode]
        self.model = model
        self.barrier = barrier
        self.tamper = mode == "fedchain" and pool_id in setup.tamper_pools
        self.outcome = PoolOutcome(
            pool_id=pool_id,
            head=members[0],
            members=members,
            finish_time=None,
            accept_time=None,
            accepted=False,
            measured_accuracy=0.0,
            weights=None,
            commitment=None,
        )
        self.compute = setup.compute_times[members]
        self.committee = _draw_committee(setup, self.outcome)
        self._links = _committee_links(setup, members[0], self.committee)
        self.votes: list[tuple] = []

    def vote_bound(self) -> float:
        """A lower bound on the last vote the next round could produce: the
        `_vote_arrivals` chain from the round's latest stream start, maxed
        over the committee, or that start without a committee (see
        `_race`)."""
        t = self.latest_start(self)
        arrivals = _vote_arrivals(t, self._links)
        return max((a[0] for a in arrivals), default=t)

    def step(self) -> bool:
        """Run the next training round; return whether the pool is done."""
        setup, task, outcome = self.setup, self.setup.task, self.outcome
        round_no = len(outcome.metrics)
        if outcome.weights is None:
            outcome.weights = aggregation_weights(
                self.scheme, [setup.miner_data[m] for m in outcome.members], task.example
            )
        trained = [
            local_train(
                self.model,
                setup.miner_data[m],
                setup.train,
                seed=_derive_seed(setup.seed, task.task_id, outcome.pool_id, round_no, m),
            )
            for m in outcome.members
        ]
        flat, self.barrier = self.combine(self, trained)
        self.model = self.model.clone(flat)
        accuracy = evaluate(self.model, task.example)
        outcome.metrics.append(RoundMetrics(accuracy, self.barrier))
        if self.barrier <= task.deadline and accuracy >= task.target:
            outcome.finish_time = self.barrier
        return (
            self.barrier > task.deadline
            or outcome.finish_time is not None
            or len(outcome.metrics) >= setup.max_rounds
        )


def _initial_model(setup: RoundSetup) -> DenseClassifier:
    """The model every run of a round starts from. Its seed has no pool id,
    so it is built once and shared; its weights are read-only, since
    nothing writes a model's weights in place."""
    model = DenseClassifier(
        setup.task.arch, seed=_derive_seed(setup.seed, setup.task.task_id, "init")
    )
    model.weights.setflags(write=False)
    return model


def _ready_times(run: _PoolRun) -> np.ndarray:
    """When each member of the run's next ring round has its update: the
    barrier plus the member's compute time."""
    return run.barrier + run.compute


def _ring_latest_start(run: _PoolRun) -> float:
    """The latest stream start of the run's next `_ring_round`, as
    `RingSession.start` computes it."""
    return float(sharedring.stream_starts(run.barrier, _ready_times(run)).max())


def _star_latest_start(run: _PoolRun) -> float:
    """A `_star_round` ends no earlier than its barrier."""
    return run.barrier


def _ring_round(run: _PoolRun, trained: list[DenseClassifier],
                masked: bool = True) -> tuple[np.ndarray, float]:
    """Ring all-reduce of the pre-scaled fixed-point updates from the run's
    barrier; masked for a fedchain pool, plain (2(k-1) steps) for `gfl_ring`.
    Each member starts its streams after its compute delay (`_ready_times`).
    The k updates are scaled and encoded as one (k, n_weights) array."""
    setup, outcome = run.setup, run.outcome
    members, k = outcome.members, len(outcome.members)
    vectors = fixedpoint.encode(np.stack([t.weights for t in trained])
                                * (outcome.weights * k)[:, None])
    masks = None
    if masked:
        # Each member's noise covers its own chunk of the ring split.
        spans = sharedring.ring_layout(k, vectors.shape[1], True).spans
        masks = [
            fixedpoint.generate_noise(
                b - a,
                _derive_seed(setup.seed, setup.task.task_id, outcome.pool_id,
                             len(outcome.metrics), "noise", i),
            )
            for i, (a, b) in enumerate(spans)
        ]
    session = sharedring.RingSession(setup.latency, members, vectors, masks=masks)
    session.start(run.barrier, _ready_times(run))
    return fixedpoint.decode(session.total) / k, max(session.completion.values())


def _star_round(run: _PoolRun, trained: list[DenseClassifier]) -> tuple[np.ndarray, float]:
    """Coordinator round of `fedavg_central`: the head sends the model to
    every node, each trains and uploads, and the head's ingress takes one
    upload transmission at a time, which is the scaling bottleneck. Weights
    are averaged in float. Returns the round's end with the model."""
    setup, coord, now = run.setup, run.outcome.head, run.barrier
    ready = [
        (now if m == coord else now + float(setup.latency[coord, m]) * _MODEL_UNITS)
        + float(setup.compute_times[m])
        for m in run.outcome.members
    ]
    busy = 0.0
    for m, r in sorted(zip(run.outcome.members, ready), key=lambda kv: (kv[1], kv[0])):
        if m == coord:
            busy = max(busy, r)
        else:
            busy = max(busy, r) + float(setup.latency[m, coord]) * _MODEL_UNITS
    return aggregate([t.weights for t in trained], run.outcome.weights), busy


# Each learning mode's aggregation scheme, combine and latest stream start, read by `_PoolRun`.
_ENGINES = {
    "fedchain": ("kl", _ring_round, _ring_latest_start),
    "gfl_ring": ("fedavg", partial(_ring_round, masked=False), _ring_latest_start),
    "fedavg_central": ("fedavg", _star_round, _star_latest_start),
}


def _append_block(chain: Chain, task: Task, txs: list[Transaction], timestamp: float,
                  proposer: int, commitment: str | None) -> Block:
    """Build the task's block on the chain head and append it."""
    head = chain.head()
    block = Block(head.height + 1, head.hash(), timestamp, txs, proposer, task.task_id, commitment)
    chain.append_block(block)
    return block


def _block_transactions(
    setup: RoundSetup,
    winner: PoolOutcome,
    assignment: pools.PoolAssignment | None,
    start_times: dict[int, float],
    publish_tx: Transaction,
) -> list[Transaction]:
    """The winner's block transactions, in ledger order."""
    task = setup.task
    txs = [publish_tx]
    if assignment is not None:
        registers = [
            Transaction(
                kind="PoolRegister",
                payload={"pool": idx, "head": pool.head, "members": list(pool.members)},
                author=pool.head,
                timestamp=start_times.get(pool.head, 0.0),
            )
            for idx, pool in enumerate(assignment.pools)
        ]
        txs.extend(sorted(registers, key=lambda t: (t.timestamp, t.author)))
    txs.append(
        Transaction(
            kind="ModelCommit",
            payload={"com": winner.commitment, "pool": winner.pool_id},
            author=winner.head,
            timestamp=winner.finish_time,
        )
    )
    txs.append(
        Transaction(
            kind="ProofSubmit",
            payload={
                "com": winner.commitment,
                "measured": winner.measured_accuracy,
                "claimed": task.target,
            },
            author=winner.head,
            timestamp=winner.proof_time,
        )
    )
    for voter, t in sorted(winner.vote_times.items(), key=lambda kv: (kv[1], kv[0])):
        txs.append(
            Transaction(
                kind="VerifyVote",
                payload={"com": winner.commitment, "accept": True},
                author=voter,
                timestamp=t,
            )
        )
    credits = split_reward(task.reward, winner.weights, winner.members)
    txs.append(
        Transaction(
            kind="RewardSettle",
            payload={"credits": {str(k): v for k, v in credits.items()}},
            author=PUBLISHER,
            timestamp=winner.accept_time,
        )
    )
    return txs


def _form_pools(setup: RoundSetup) -> tuple[pools.PoolAssignment, dict[int, float]]:
    """Latency estimation, head announcement and greedy assignment, then
    each node's training start time. `announce_heads` symmetrizes into the
    history's adopted ping, which is dropped before assignment, so
    formation holds at most two n x n arrays: the ping and the estimate."""
    history = pools.bootstrap_history(setup.latency, seed=_derive_seed(setup.seed, "ping"))
    l_hat = pools.estimate_latency(history)
    heads = pools.announce_heads(setup.n_pools, l_hat, ping=history.total)
    del history
    # The head's own training time; ROADMAP item 5 asks for a pool-size estimate.
    t_p = setup.compute_times[heads] * setup.train.epochs
    assignment = pools.assign_pools(heads, l_hat, t_p, seed=_derive_seed(setup.seed, "join"))
    return assignment, _simulate_formation(setup, assignment)


def _race(setup: RoundSetup, runs: list[_PoolRun]) -> PoolOutcome:
    """Run the pools' rounds and verification exchanges in simulated-time
    order; return the outcome of the first verified finisher, lowest pool
    id on a tie. `runs[i]` is pool i. Raises RoundFailedError if no run
    verifies before the deadline.

    A heap holds one event per live run, keyed `(time, pool_id)`. For a run
    that has not finished, the time is `vote_bound`, a lower bound on the
    last vote arrival its next round could produce: from `t`, the round's
    latest stream start (for a ring, `RingSession.start`'s `now + (ready -
    now)` with `ready = barrier + compute time`, both through
    `sharedring.stream_starts`; for a star, the barrier), the exchange's
    chain `+down, +up, +down*su, +up` (`_vote_arrivals`), maxed over the
    run's committee; `t` itself without a committee. For a run that has
    finished (`outcome.finish_time` is set), the time is the arrival of
    its last vote, from `votes`, its committee's `_vote_arrivals` from
    the finish time, sorted: that is the `(time, send order)` order an event
    loop delivers the votes in, so the last vote comes last.
    Popping a round event runs that round; popping a vote event runs the
    exchange's crypto (`_verification_exchange`). The first vote event
    that accepts wins, and every event still on the heap is cut: its run
    gets `abandoned_at`, its barrier, which is the start barrier of the
    first round it did not run or, for a pending vote event, its finish
    time. A finisher with no committee has its vote event at its finish
    time and is rejected.

    This is exact. Under round-to-nearest, adding a non-negative term and
    multiplying by a non-negative integer are both monotone, and the bound
    makes the float operations of the times it bounds, in their order. A
    ring round ends no earlier than its latest stream start, because each
    stream is a cumsum of non-negative hop times; a star round ends no
    earlier than its barrier. A finish is a round end, and the next
    round's stream starts are no earlier than its barrier, this round's
    end. So every vote event a run could still produce is at or above its
    key, and the keys popped never decrease: every event below the
    winner's `(accept_time, pool_id)` pops before the winner's vote event,
    and none at or above it can change the block. Comparing whole tuples
    keeps the lower-pool-id tie-break exact even when verification takes
    no simulated time. Every run keeps its own clock and derives its seeds
    from its id, so running them interleaved changes none of their
    numbers: the winner's outcome equals that of training and verifying
    every run to its end, and only losing runs' outcomes differ. A loser's
    `metrics` stop at its cut, a loser cut before its first round has no
    `weights`, and a loser whose vote event was cut keeps its finish time
    but has no commitment, accept time or votes.
    """
    heap = [(run.vote_bound(), idx) for idx, run in enumerate(runs)] if setup.max_rounds > 0 else []
    heapq.heapify(heap)
    pp = None  # `_exchange_constants`, built on the first exchange
    while heap:
        _, idx = heapq.heappop(heap)
        run = runs[idx]
        outcome = run.outcome
        if outcome.finish_time is None:
            if not run.step():
                heapq.heappush(heap, (run.vote_bound(), idx))
            elif outcome.finish_time is not None:
                run.votes = sorted(_vote_arrivals(outcome.finish_time, run._links))
                heapq.heappush(heap, (run.votes[-1][0] if run.votes else outcome.finish_time, idx))
            continue
        if pp is None:
            pp = _exchange_constants(setup)
        _verification_exchange(run, pp)
        if outcome.accepted:
            for _, cut_idx in heap:
                runs[cut_idx].outcome.abandoned_at = runs[cut_idx].barrier
            return outcome
    raise RoundFailedError(f"task {setup.task.task_id}: no pool verified before the deadline")


def _settle(chain: Chain, setup: RoundSetup, publish_tx: Transaction, winner: PoolOutcome,
            outcomes: list[PoolOutcome], assignment: pools.PoolAssignment | None,
            start_times: dict[int, float]) -> RoundResult:
    """Append the winner's block, which pays its pool, and report the round."""
    txs = _block_transactions(setup, winner, assignment, start_times, publish_tx)
    block = _append_block(chain, setup.task, txs, winner.accept_time, winner.head,
                          winner.commitment)
    return RoundResult(block=block, latency_ms=winner.accept_time, winner_pool=winner.pool_id,
                       accuracy=winner.measured_accuracy, outcomes=outcomes, assignment=assignment,
                       start_times=start_times, credits=block_credits(block))


def _run_pow(chain: Chain, setup: RoundSetup) -> RoundResult:
    """Hash-puzzle baseline: a node needs Geometric(2^-d) trials of
    `pow_trial_ms` each, one seeded draw for all n, after the task reaches
    it (at 0 for the publisher). The earliest finder, the lowest node on a
    tie, proposes the block. InvalidPowSettingsError before any draw if
    `pow_range_problem` refuses d or the trial cost; RoundFailedError if no
    one else can verify the block."""
    task = setup.task
    if (problem := pow_range_problem(setup.pow_difficulty, setup.pow_trial_ms)) is not None:
        raise InvalidPowSettingsError(f"task {task.task_id}: {problem}")
    publish_tx = publish_task(task)
    rng = np.random.default_rng(_derive_seed(setup.seed, task.task_id, "pow"))
    trials = rng.geometric(2.0 ** -setup.pow_difficulty, size=setup.n_nodes)
    found = trials * setup.pow_trial_ms + _task_arrivals(setup)
    best_node = int(np.argmin(found))
    rng = np.random.default_rng(_derive_seed(setup.seed, task.task_id, "pow-committee"))
    committee = _sample_nodes(rng, setup.n_nodes, [best_node], setup.n_verifiers)
    if not committee:
        raise RoundFailedError(f"task {task.task_id}: no verifier for node {best_node}'s preimage")
    accept_time = float(found[best_node]) + max(
        float(setup.latency[best_node, v]) + float(setup.latency[v, best_node]) for v in committee
    )
    block = _append_block(chain, task, [publish_tx], accept_time, best_node, None)
    return RoundResult(block, accept_time, None, 0.0, [], None, {}, block_credits(block))


def run_round(chain: Chain, setup: RoundSetup, mode: str = "fedchain") -> RoundResult:
    """One task round in `mode` (one of MODES).

    `fedchain` forms pools, trains them over masked rings and races them
    (`_race`); the first verified finisher proposes the block, and every
    pool weights its members by label distribution (`"kl"`). `gfl_ring`
    and `fedavg_central` race a single pool of every node, headed and
    committed by the publisher, with FedAvg weights and honest proofs.
    `gfl_ring` combines over the plain ring and starts when the last node
    has the task; `fedavg_central` combines over the coordinator star and
    starts at 0, since the coordinator's model broadcast is billed to each
    round. `pow` draws trial counts instead (`_run_pow`).

    Every mode raises InvalidCommitteeError before any work when
    `n_verifiers < 1`, `pow` raises InvalidPowSettingsError before any
    draw when `pow_range_problem` refuses its settings, and the learning
    modes raise InsufficientSamplesError before any training when
    min(`verify.CHALLENGE_SIZE`, held-out rows) < `verify.MIN_CLAIM_SAMPLES`.
    RoundFailedError means no pool verified before the deadline, or, in
    `pow` on a one-node network, that its finder has no committee, as a
    learning-mode finisher without one fails.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode}")
    if setup.n_verifiers < 1:
        raise InvalidCommitteeError(
            f"task {setup.task.task_id}: n_verifiers must be at least 1, got {setup.n_verifiers}"
        )
    if mode == "pow":
        return _run_pow(chain, setup)
    # each verifier checks the accuracy claim on this many samples
    k = min(verify.CHALLENGE_SIZE, len(setup.task.held_out))
    if k < verify.MIN_CLAIM_SAMPLES:
        raise InsufficientSamplesError(
            f"task {setup.task.task_id}: challenges of {k} samples < required minimum "
            f"{verify.MIN_CLAIM_SAMPLES}"
        )
    publish_tx = publish_task(setup.task)
    model = _initial_model(setup)
    if mode == "fedchain":
        assignment, start_times = _form_pools(setup)
        starts = [(list(pool.members), max(start_times[m] for m in pool.members))
                  for pool in assignment.pools]
    else:
        assignment, start_times = None, {}
        everyone = [(PUBLISHER + i) % setup.n_nodes for i in range(setup.n_nodes)]
        starts = [(everyone, float(_task_arrivals(setup).max()) if mode == "gfl_ring" else 0.0)]
    runs = [_PoolRun(setup, mode, idx, members, model, barrier)
            for idx, (members, barrier) in enumerate(starts)]
    winner = _race(setup, runs)
    return _settle(chain, setup, publish_tx, winner, [run.outcome for run in runs],
                   assignment, start_times)
