"""Blockchain state machine: task rounds, verification gating, rewards.

A task round runs pool formation and per-pool federated training over the
event simulator, lets the first pool whose model verifies propose a block,
and settles the reward among the winning pool's members. The centralized
aggregation and whole-network ring baselines are one-pool runs of the same
training engine (`_PoolRun`), race (`_race`) and settlement (`_settle`), so
their latencies are comparable; proof-of-work grinds nonces instead.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import fixedpoint, pools, sharedring, verify
from .data import Dataset, smooth_histogram
from .errors import (
    DuplicateTaskBlockError,
    InvalidTaskError,
    LedgerIntegrityError,
    RoundFailedError,
)
from .fed import (
    DenseClassifier,
    RoundMetrics,
    TrainConfig,
    aggregate,
    evaluate_and_loss,
    fedavg_weights,
    kl_weights,
    local_train,
)
from .netsim import Simulator

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


@dataclass
class Transaction:
    kind: str
    payload: dict
    author: int
    timestamp: float

    def digest(self) -> str:
        body = json.dumps(
            {"kind": self.kind, "payload": self.payload, "author": self.author,
             "timestamp": self.timestamp},
            sort_keys=True,
            separators=(",", ":"),
        )
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
        body = json.dumps(
            {
                "height": self.height,
                "prev_hash": self.prev_hash,
                "timestamp": self.timestamp,
                "proposer": self.proposer,
                "task_id": self.task_id,
                "model_commitment": self.model_commitment,
                "tx": [t.digest() for t in self.transactions],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(body.encode()).hexdigest()


class Chain:
    """Fork-free ledger plus reward balances."""

    def __init__(self) -> None:
        genesis = Block(0, GENESIS_HASH, 0.0, [], -1, -1, None)
        self.blocks: list[Block] = [genesis]
        self.balances: dict[int, int] = {}
        self._settled: set[int] = set()

    def head(self) -> Block:
        return self.blocks[-1]

    def append_block(self, block: Block) -> None:
        """Append a block that extends the head; a task gets at most one block."""
        expected = self.head().hash()
        if block.prev_hash != expected or block.height != self.head().height + 1:
            raise ValueError("block does not extend the chain head")
        if any(b.task_id == block.task_id for b in self.blocks[1:]):
            raise DuplicateTaskBlockError(f"task {block.task_id} already has a block")
        self.blocks.append(block)

    def settle_reward(self, block: Block, credits: dict[int, int]) -> bool:
        """Credit the block's reward split once; repeated settlement is a no-op."""
        if block.task_id in self._settled:
            return False
        for node, amount in credits.items():
            self.balances[node] = self.balances.get(node, 0) + amount
        self._settled.add(block.task_id)
        return True

    def export_jsonl(self, path: str) -> None:
        """Line-delimited ledger dump: one record per block and transaction."""
        with open(path, "w", encoding="utf-8") as fh:
            for block in self.blocks:
                record = {
                    "type": "block",
                    "height": block.height,
                    "prev_hash": block.prev_hash,
                    "hash": block.hash(),
                    "timestamp": block.timestamp,
                    "proposer": block.proposer,
                    "task_id": block.task_id,
                    "model_commitment": block.model_commitment,
                }
                fh.write(json.dumps(record, sort_keys=True) + "\n")
                for tx in block.transactions:
                    fh.write(
                        json.dumps(
                            {
                                "type": "tx",
                                "height": block.height,
                                "kind": tx.kind,
                                "author": tx.author,
                                "timestamp": tx.timestamp,
                                "payload": tx.payload,
                            },
                            sort_keys=True,
                        )
                        + "\n"
                    )


_LEDGER_FIELDS = {
    "block": ("height", "prev_hash", "hash", "timestamp", "proposer", "task_id",
              "model_commitment"),
    "tx": ("height", "kind", "author", "timestamp", "payload"),
}


def _ledger_record(line: bytes, lineno: int) -> dict:
    """Parse one export line, checking its type, its fields and its height."""
    try:
        record = json.loads(line)
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


def load_chain_jsonl(path: str) -> Chain:
    """Rebuild a Chain from an export; used by the validate-chain CLI.

    Raises LedgerIntegrityError naming the line for a line that is not JSON,
    a record that is not a block or tx or lacks a field, a height that is
    not an integer, a tx before its block record and a repeated block
    height; and naming the lowest offending height if a block's recomputed
    hash differs from the hash stored with it."""
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
                blocks[height] = Block(
                    height=height,
                    prev_hash=record["prev_hash"],
                    timestamp=record["timestamp"],
                    transactions=[],
                    proposer=record["proposer"],
                    task_id=record["task_id"],
                    model_commitment=record["model_commitment"],
                )
            elif height not in blocks:
                raise LedgerIntegrityError(
                    f"line {lineno}: tx for height {height} before its block record"
                )
            else:
                blocks[height].transactions.append(
                    Transaction(
                        kind=record["kind"],
                        payload=record["payload"],
                        author=record["author"],
                        timestamp=record["timestamp"],
                    )
                )
    for height in sorted(blocks):
        if blocks[height].hash() != stored_hashes[height]:
            raise LedgerIntegrityError(
                f"height {height}: stored block hash does not match the block's contents"
            )
        if height == 0:
            continue
        chain.blocks.append(blocks[height])
    return chain


def _malformed_claim(tx: Transaction) -> str | None:
    """Why a transaction cannot be audited as a claim, or None if it can."""
    if not isinstance(tx.kind, str) or tx.kind not in TX_KINDS:
        return f"unknown transaction kind {tx.kind!r}"
    if not isinstance(tx.payload, dict):
        return f"{tx.kind} payload is not a map"
    if type(tx.timestamp) not in (int, float):
        return f"{tx.kind} timestamp {tx.timestamp!r} is not a number"
    if tx.kind in ("PoolRegister", "ModelCommit") and "pool" in tx.payload:
        if type(tx.payload["pool"]) is not int:
            return f"{tx.kind} pool {tx.payload['pool']!r} is not an integer"
    if tx.kind == "PoolRegister" and not isinstance(tx.payload.get("members", []), list):
        return "PoolRegister members are not a list"
    if tx.kind == "RewardSettle":
        credits = tx.payload.get("credits", {})
        if not isinstance(credits, dict) or any(
            type(node) is not str or type(amount) is not int for node, amount in credits.items()
        ):
            return "RewardSettle credits are not a map of node to integer amount"
    return None


def validate_chain(chain: Chain) -> list[str]:
    """Audit of hash links, heights, per-task transaction ordering,
    commit-before-proof freshness, and the block's own claims: the proposer
    is the model committer, every vote accepts, the credits sum to the task
    reward and go only to registered members of the committing pool.
    Returns a list of violations. A malformed claim (an unknown kind, a
    payload or credits of the wrong shape, a timestamp or task id of the
    wrong type) is itself a violation, and the claims of its block are not
    audited further."""
    violations: list[str] = []
    for idx, block in enumerate(chain.blocks):
        if idx == 0:
            continue
        prev = chain.blocks[idx - 1]
        if block.prev_hash != prev.hash():
            violations.append(f"height {block.height}: broken hash link")
        if block.height != prev.height + 1:
            violations.append(f"height {block.height}: non-monotone height")
        if type(block.task_id) is not int:
            violations.append(f"height {block.height}: task id {block.task_id!r} is not an integer")
        malformed = [
            f"height {block.height}: transaction {i}: {why}"
            for i, tx in enumerate(block.transactions)
            if (why := _malformed_claim(tx)) is not None
        ]
        if malformed:
            violations.extend(malformed)
            continue
        order = [TX_KINDS.index(tx.kind) for tx in block.transactions]
        if order != sorted(order):
            violations.append(f"height {block.height}: transaction kinds out of order")
        by_kind: dict[str, list[Transaction]] = {}
        for tx in block.transactions:
            by_kind.setdefault(tx.kind, []).append(tx)
        for kind, txs in by_kind.items():
            times = [tx.timestamp for tx in txs]
            if times != sorted(times):
                violations.append(
                    f"height {block.height}: {kind} timestamps out of order"
                )
        # the winning pipeline must run publish -> commit -> proof -> votes -> settle
        publishes = by_kind.get("TaskPublish", [])
        pipeline = [
            tx for kind in ("ModelCommit", "ProofSubmit", "VerifyVote", "RewardSettle")
            for tx in by_kind.get(kind, [])
        ]
        if publishes and pipeline:
            if min(tx.timestamp for tx in pipeline) < max(t.timestamp for t in publishes):
                violations.append(
                    f"height {block.height}: pipeline started before task publication"
                )
        commits = by_kind.get("ModelCommit", [])
        if any(c.author != block.proposer for c in commits):
            violations.append(f"height {block.height}: proposer is not the model committer")
        for vote in by_kind.get("VerifyVote", []):
            if vote.payload.get("accept") is not True:
                violations.append(f"height {block.height}: vote by {vote.author} does not accept")
        pools_by_id = {
            r.payload.get("pool"): {str(m) for m in r.payload.get("members", [])}
            for r in by_kind.get("PoolRegister", [])
        }
        for settle in by_kind.get("RewardSettle", []):
            credits = settle.payload.get("credits", {})
            if publishes and sum(credits.values()) != publishes[0].payload.get("reward"):
                violations.append(f"height {block.height}: credits do not sum to the task reward")
            if pools_by_id:
                members = pools_by_id.get(commits[0].payload.get("pool") if commits else None, set())
                outside = sorted(node for node in credits if node not in members)
                if outside:
                    violations.append(
                        f"height {block.height}: credits to nodes {outside} outside the committing pool"
                    )
        for proof in by_kind.get("ProofSubmit", []):
            matching = [c for c in commits if c.payload.get("com") == proof.payload.get("com")]
            if not matching:
                violations.append(
                    f"height {block.height}: proof without matching model commitment"
                )
            elif min(c.timestamp for c in matching) > proof.timestamp:
                violations.append(
                    f"height {block.height}: challenge derived before commitment"
                )
            else:
                votes = [
                    v for v in by_kind.get("VerifyVote", [])
                    if v.payload.get("com") == proof.payload.get("com")
                ]
                if votes and min(v.timestamp for v in votes) < proof.timestamp:
                    violations.append(
                        f"height {block.height}: vote cast before proof submission"
                    )
        for settle in by_kind.get("RewardSettle", []):
            votes = by_kind.get("VerifyVote", [])
            if votes and settle.timestamp < max(v.timestamp for v in votes):
                violations.append(
                    f"height {block.height}: reward settled before the vote quorum"
                )
    task_ids = [b.task_id for b in chain.blocks[1:] if type(b.task_id) is int]
    if len(task_ids) != len(set(task_ids)):
        violations.append("duplicate block for a task")
    return violations


def split_reward(reward: int, weights: np.ndarray, members: Sequence[int]) -> dict[int, int]:
    """Integer reward split proportional to aggregation weights.

    Largest-remainder apportionment keeps the total exactly equal to the
    reward amount.
    """
    raw = np.asarray(weights, dtype=np.float64) * reward
    credits = np.floor(raw).astype(np.int64)
    shortfall = reward - int(credits.sum())
    if shortfall > 0:
        order = np.argsort(-(raw - credits), kind="stable")
        credits[order[:shortfall]] += 1
    return {int(m): int(c) for m, c in zip(members, credits)}


def publish_task(task: Task, publisher: int, now: float = 0.0) -> Transaction:
    """Validate a task and produce its publication transaction."""
    if not 0.0 < task.target <= 1.0:
        raise InvalidTaskError(f"accuracy target must be in (0, 1], got {task.target}")
    if task.deadline <= now:
        raise InvalidTaskError("task deadline is not in the future")
    if task.reward < 0:
        raise InvalidTaskError("reward must be non-negative")
    return Transaction(
        kind="TaskPublish",
        payload={"task_id": task.task_id, "target": task.target, "reward": task.reward},
        author=publisher,
        timestamp=now,
    )


@dataclass
class RoundSetup:
    task: Task
    latency: np.ndarray
    compute_times: np.ndarray
    miner_data: list[Dataset]  # indexed by node id
    n_pools: int = 5
    seed: int = 0
    aggregation: str = "kl"  # "kl" or "fedavg"
    train: TrainConfig = field(default_factory=TrainConfig)
    max_rounds: int = 30
    head_policy: str = "spread"
    n_verifiers: int = 3
    size_multiplier: float = 10.0
    noise_bits: int = fixedpoint.DEFAULT_NOISE_BITS
    challenge_size: int = 250
    pow_difficulty: int = 12
    pow_trial_ms: float = 1.0
    publisher: int = 0
    tamper_pools: frozenset = frozenset()  # pools whose proofs get corrupted

    @property
    def n_nodes(self) -> int:
        return self.latency.shape[0]


@dataclass
class PoolOutcome:
    """One pool's part in a round.

    `abandoned_at` is set on a pool that the race cut short, because it
    could no longer win: the start barrier of the first round it did not
    run, or the finish time of a model it did not send to verification.
    `None` means the pool ran to its natural end (target, deadline or
    round budget) and, if it finished, was verified."""

    pool_id: int
    head: int
    members: list[int]
    finish_time: float | None  # training barrier when target was reached
    accept_time: float | None  # all verifier votes in
    accepted: bool
    measured_accuracy: float
    weights: np.ndarray | None
    commitment: str | None
    commit_time: float | None = None
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


def _member_weights(setup: RoundSetup, members: Sequence[int]) -> np.ndarray:
    sizes = [len(setup.miner_data[m]) for m in members]
    if setup.aggregation == "fedavg":
        return fedavg_weights(sizes)
    if setup.aggregation != "kl":
        raise ValueError(f"unknown aggregation scheme: {setup.aggregation}")
    reference = smooth_histogram(setup.task.example.histogram())
    hists = [smooth_histogram(setup.miner_data[m].histogram()) for m in members]
    return kl_weights(hists, reference, sizes)


def _task_arrivals(setup: RoundSetup) -> np.ndarray:
    """When each node has the task: over one link from the publisher, which
    has it at 0.0."""
    task = np.asarray(setup.latency, dtype=np.float64)[setup.publisher].copy()
    task[setup.publisher] = 0.0
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

    These are bit-identical to running the schedule on `Simulator`: each
    delivery there is `now + float(L[src, dst]) * 1`, the closed form does
    the same float additions, and `max` is exact. Not simulating the
    schedule saves (n - 1) + p(n - 1) + 2(n - p) messages and one timer
    event per round.
    """
    latency = np.asarray(setup.latency, dtype=np.float64)
    task = _task_arrivals(setup)
    heads = np.asarray(assignment.heads())
    last_announce = (task[heads, None] + latency[heads]).max(axis=0)
    start = np.empty_like(task)
    for pool in assignment.pools:
        head = pool.head
        others = np.asarray([m for m in pool.members if m != head], dtype=np.int64)
        if others.size == 0:
            start[head] = task[head]
            continue
        start[head] = (last_announce[others] + latency[others, head]).max()
        start[others] = start[head] + latency[head, others]
    return dict(enumerate(start.tolist()))


def _verification_exchange(
    sim: Simulator,
    setup: RoundSetup,
    outcome: PoolOutcome,
    model: DenseClassifier,
    tamper: bool,
) -> None:
    """Commit/challenge/prove/vote ping-pong between the outcome's head and
    the verifier committee, on the pool's clock. Sets the outcome's
    acceptance, measured accuracy, accept time, commitment hex,
    commit/proof times and vote times."""
    task = setup.task
    head, members, pool_id = outcome.head, outcome.members, outcome.pool_id
    rng = np.random.default_rng(_derive_seed(setup.seed, task.task_id, "committee", pool_id))
    # verifiers come from outside the pool when the network is big enough
    member_set = set(members)
    candidates = [v for v in range(setup.n_nodes) if v != head and v not in member_set]
    if not candidates:
        candidates = [v for v in range(setup.n_nodes) if v != head]
    committee = [int(v) for v in rng.choice(candidates, size=min(setup.n_verifiers, len(candidates)), replace=False)]

    pp = verify.keygen(128, seed=_derive_seed(setup.seed, task.task_id, "pp"))
    blinding = verify.make_blinding(_derive_seed(setup.seed, task.task_id, "blind", pool_id))
    com = verify.commit(model, pp, blinding)

    votes: dict[int, tuple[bool, float]] = {}
    state = {"commit_time": sim.now, "proof_time": None, "accept_time": None}
    vote_times: dict[int, float] = {}
    # The head proves each distinct challenge batch once, keyed by content.
    proofs: dict[tuple, verify.PredictionProof] = {}
    # Each verifier keeps the challenge it derived on commit for its check.
    samples: dict[int, verify.VerificationSample] = {}

    def head_handler(s: Simulator, event) -> None:
        if event.kind == "challenge":
            x = event.payload.x
            key = (x.shape, x.dtype.str, x.tobytes())
            proof = proofs.get(key)
            if proof is None:
                proof = verify.prove(model, x, pp, blinding)
                if tamper:
                    bad_y = proof.y.copy()
                    bad_y[0] = (bad_y[0] + 1) % task.example.n_classes
                    proof = replace(proof, y=bad_y)
                proofs[key] = proof
            if state["proof_time"] is None:
                state["proof_time"] = s.now
            s.send(head, event.src, proof, size_units=int(setup.size_multiplier), kind="proof")
        elif event.kind == "vote":
            accepted, measured = event.payload
            votes[event.src] = (accepted, measured)
            vote_times[event.src] = s.now
            if len(votes) == len(committee):
                state["accept_time"] = s.now

    def verifier_handler(s: Simulator, event) -> None:
        if event.kind == "commit":
            sample = verify.derive_challenge(task.held_out, event.payload, setup.challenge_size)
            samples[event.dst] = sample
            s.send(event.dst, head, sample, kind="challenge")
        elif event.kind == "proof":
            proof = event.payload
            sample = samples[event.dst]
            result = verify.verify(com, sample, proof.y, proof, pp)
            ok = result.accepted and verify.accuracy_claim_check(
                result.measured_accuracy, task.target, sample.count, k_min=1
            )
            s.send(event.dst, head, (ok, result.measured_accuracy), kind="vote")

    sim.register(head, head_handler)
    for v in committee:
        sim.register(v, verifier_handler)
    for v in committee:
        sim.send(head, v, com, kind="commit")
    sim.run_until_idle()
    sim.unregister(head)
    for v in committee:
        sim.unregister(v)

    outcome.accepted = bool(votes) and all(ok for ok, _ in votes.values())
    outcome.measured_accuracy = float(np.mean([m for _, m in votes.values()])) if votes else 0.0
    outcome.accept_time = state["accept_time"]
    outcome.commitment = com.hex
    outcome.commit_time = state["commit_time"]
    outcome.proof_time = state["proof_time"]
    outcome.vote_times = vote_times


class _PoolRun:
    """One pool's barrier-synchronized training on its own clock, one round
    per `step`; the one training loop of every learning mode.

    Each round: members train locally from the current model, `combine`
    aggregates their weighted updates into the next model and returns the
    round's end barrier, everyone evaluates the aggregate on the public
    example split, and the pool is done at the target, the deadline, or the
    round budget. A fedchain pool combines over the masked ring
    (`_ring_round`). The baselines are one pool of every node with FedAvg
    weights, headed by the publisher and never tampered: `gfl_ring`
    combines over the plain ring, `fedavg_central` over a coordinator star
    (`_star_round`). A run owns its `Simulator` and derives every seed from
    its pool id, so runs can be interleaved freely.
    """

    def __init__(self, setup: RoundSetup, pool_id: int, head: int, members: list[int],
                 weights: np.ndarray, barrier: float,
                 combine: Callable[[_PoolRun, list[DenseClassifier]], tuple[np.ndarray, float]],
                 tamper: bool) -> None:
        self.setup = setup
        self.sim = Simulator(setup.latency)
        self.model = DenseClassifier(
            setup.task.arch, seed=_derive_seed(setup.seed, setup.task.task_id, "init")
        )
        self.barrier = barrier
        self.sim.now = barrier
        self.combine = combine
        self.tamper = tamper
        self.round_idx = 0
        self.outcome = PoolOutcome(
            pool_id=pool_id,
            head=head,
            members=members,
            finish_time=None,
            accept_time=None,
            accepted=False,
            measured_accuracy=0.0,
            weights=weights,
            commitment=None,
        )

    def step(self) -> bool:
        """Run the next training round; return whether the pool is done."""
        setup, task, outcome = self.setup, self.setup.task, self.outcome
        trained = [
            local_train(
                self.model,
                setup.miner_data[m],
                setup.train,
                seed=_derive_seed(setup.seed, task.task_id, outcome.pool_id, self.round_idx, m),
            )
            for m in outcome.members
        ]
        flat, self.barrier = self.combine(self, trained)
        self.model = self.model.clone(flat)
        accuracy, loss = evaluate_and_loss(self.model, task.example)
        outcome.metrics.append(
            RoundMetrics(self.round_idx, outcome.pool_id, accuracy, loss, self.barrier)
        )
        self.round_idx += 1
        if self.barrier <= task.deadline and accuracy >= task.target:
            outcome.finish_time = self.barrier
        return (
            self.barrier > task.deadline
            or outcome.finish_time is not None
            or self.round_idx >= setup.max_rounds
        )


def _ring_round(run: _PoolRun, trained: list[DenseClassifier],
                masked: bool = True) -> tuple[np.ndarray, float]:
    """Ring all-reduce of the pre-scaled fixed-point updates on the run's
    clock; masked for a fedchain pool, plain (2(k-1) steps) for `gfl_ring`.
    Each member starts its streams after its compute delay."""
    setup, outcome = run.setup, run.outcome
    members, k = outcome.members, len(outcome.members)
    vectors = [fixedpoint.encode(t.weights * (w * k)) for t, w in zip(trained, outcome.weights)]
    masks = None
    if masked:
        # Each member's noise covers its own chunk of the ring split, whose
        # first (length mod k) chunks carry one extra weight.
        q, r = divmod(run.model.weights.shape[0], k)
        masks = [
            fixedpoint.generate_noise(
                q + (i < r),
                _derive_seed(setup.seed, setup.task.task_id, outcome.pool_id, run.round_idx,
                             "noise", i),
                setup.noise_bits,
            )
            for i in range(k)
        ]
    session = sharedring.RingSession(
        run.sim, members, vectors, masks=masks, size_multiplier=setup.size_multiplier
    )
    session.start([run.barrier + float(setup.compute_times[m]) for m in members])
    run.sim.run_until_idle()
    return fixedpoint.decode(session.results[members[0]]) / k, max(session.completion.values())


def _star_round(run: _PoolRun, trained: list[DenseClassifier]) -> tuple[np.ndarray, float]:
    """Coordinator round of `fedavg_central`: the head sends the model to
    every node, each trains and uploads, and the head's ingress takes one
    upload transmission at a time, which is the scaling bottleneck. Weights
    are averaged in float. Moves the run's clock to the round's end, where
    verification starts if the pool is done."""
    setup, coord, now = run.setup, run.outcome.head, run.barrier
    su = int(setup.size_multiplier)
    ready = [
        (now if m == coord else now + float(setup.latency[coord, m]) * su)
        + float(setup.compute_times[m])
        for m in run.outcome.members
    ]
    busy = 0.0
    for m, r in sorted(zip(run.outcome.members, ready), key=lambda kv: (kv[1], kv[0])):
        if m == coord:
            busy = max(busy, r)
        else:
            busy = max(busy, r) + float(setup.latency[m, coord]) * su
    run.sim.now = busy
    return aggregate([t.weights for t in trained], run.outcome.weights), busy


def _build_block(
    chain: Chain,
    setup: RoundSetup,
    winner: PoolOutcome,
    assignment: pools.PoolAssignment | None,
    start_times: dict[int, float],
    publish_tx: Transaction,
) -> tuple[Block, dict[int, int]]:
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
            timestamp=winner.commit_time,
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
            author=setup.publisher,
            timestamp=winner.accept_time,
        )
    )
    block = Block(
        height=chain.head().height + 1,
        prev_hash=chain.head().hash(),
        timestamp=winner.accept_time,
        transactions=txs,
        proposer=winner.head,
        task_id=task.task_id,
        model_commitment=winner.commitment,
    )
    return block, credits


def _form_pools(setup: RoundSetup) -> tuple[pools.PoolAssignment, dict[int, float]]:
    """Latency estimation, head announcement and greedy assignment, then
    each node's training start time."""
    history = pools.bootstrap_history(setup.latency, seed=_derive_seed(setup.seed, "ping"))
    l_hat = pools.estimate_latency(history, setup.n_nodes)
    heads = pools.announce_heads(
        setup.n_nodes,
        setup.n_pools,
        l_hat=l_hat,
        policy=setup.head_policy,
        seed=_derive_seed(setup.seed, "heads"),
    )
    chunk_units = max(
        1, round(setup.size_multiplier / max(1, setup.n_nodes // max(1, setup.n_pools)))
    )
    t_p = [
        pools.pool_time_estimate([h], setup.compute_times, l_hat, setup.train.epochs, chunk_units)
        for h in heads
    ]
    assignment = pools.assign_pools(
        setup.n_nodes, heads, l_hat, t_p, seed=_derive_seed(setup.seed, "join")
    )
    return assignment, _simulate_formation(setup, assignment)


def _race(setup: RoundSetup, runs: list[_PoolRun]) -> PoolOutcome:
    """Step the runs on the simulated clock; return the outcome of the first
    verified finisher, lowest pool id on a tie. `runs[i]` is pool i. Raises
    RoundFailedError if no run verifies before the deadline.

    A heap holds each unfinished run's next round start barrier as
    `(barrier, pool_id)`, and `best` is the `(accept_time, pool_id)` of the
    best accepted run so far, at first `(inf, inf)`. The round at the top of
    the heap runs only while `(barrier, pool_id) < best`; once it is not,
    every run left is cut short. A run that finishes is verified only if
    `(finish_time, pool_id) < best`. Cut runs get `abandoned_at`.

    This is exact: a run's accept time is never before its finish time,
    which is never before the start barrier of any of its rounds, because
    ring hops, uploads, compute times and link latencies are non-negative.
    So a run whose barrier or finish time, paired with its id, is not below
    `best` cannot reach an `(accept_time, pool_id)` below it, and `best`
    only ever falls. Comparing whole tuples keeps the lower-pool-id
    tie-break exact even when verification takes no simulated time. Every
    run owns its `Simulator` and derives its seeds from its id, so running
    them interleaved changes none of their numbers: the winner's outcome
    equals that of training and verifying every run to its end, and only
    losing runs' outcomes differ.
    """
    heap = [(run.barrier, idx) for idx, run in enumerate(runs)] if setup.max_rounds > 0 else []
    heapq.heapify(heap)
    best = (math.inf, math.inf)
    while heap:
        barrier, idx = heapq.heappop(heap)
        if (barrier, idx) >= best:
            for cut_barrier, cut_idx in [(barrier, idx), *heap]:
                runs[cut_idx].outcome.abandoned_at = cut_barrier
            break
        run = runs[idx]
        if not run.step():
            heapq.heappush(heap, (run.barrier, idx))
            continue
        finish = run.outcome.finish_time
        if finish is None:
            continue
        if (finish, idx) >= best:
            run.outcome.abandoned_at = finish
            continue
        _verification_exchange(run.sim, setup, run.outcome, run.model, run.tamper)
        if run.outcome.accepted:
            best = min(best, (run.outcome.accept_time, idx))
    if best[1] == math.inf:
        raise RoundFailedError(f"task {setup.task.task_id}: no pool verified before the deadline")
    return runs[best[1]].outcome


def _settle(chain: Chain, setup: RoundSetup, publish_tx: Transaction, winner: PoolOutcome,
            outcomes: list[PoolOutcome], assignment: pools.PoolAssignment | None,
            start_times: dict[int, float]) -> RoundResult:
    """Append the winner's block, credit its pool and report the round."""
    block, credits = _build_block(chain, setup, winner, assignment, start_times, publish_tx)
    chain.append_block(block)
    chain.settle_reward(block, credits)
    return RoundResult(
        block=block,
        latency_ms=winner.accept_time,
        winner_pool=winner.pool_id,
        accuracy=winner.measured_accuracy,
        outcomes=outcomes,
        assignment=assignment,
        start_times=start_times,
        credits=credits,
    )


def run_round_fedchain(chain: Chain, setup: RoundSetup) -> RoundResult:
    """One full task round: pools form, train over masked rings, and race
    (`_race`); the first verified finisher proposes the block. Raises
    RoundFailedError if nobody reaches the target before the deadline."""
    publish_tx = publish_task(setup.task, setup.publisher, now=0.0)
    assignment, start_times = _form_pools(setup)
    runs = []
    for idx, pool in enumerate(assignment.pools):
        members = list(pool.members)
        runs.append(_PoolRun(
            setup, idx, members[0], members, _member_weights(setup, members),
            max(start_times[m] for m in members), _ring_round, idx in setup.tamper_pools,
        ))
    winner = _race(setup, runs)
    return _settle(chain, setup, publish_tx, winner, [run.outcome for run in runs],
                   assignment, start_times)


def _run_pow(chain: Chain, setup: RoundSetup) -> RoundResult:
    """Hash-puzzle baseline: every node grinds nonces at a fixed trial cost;
    the first preimage below the difficulty threshold proposes the block."""
    task = setup.task
    publish_tx = publish_task(task, setup.publisher, now=0.0)
    threshold = 1 << (256 - setup.pow_difficulty)
    best_node, best_time = None, None
    for node in range(setup.n_nodes):
        nonce = 0
        material = f"{setup.seed}/{task.task_id}/{node}".encode()
        while True:
            digest = hashlib.sha256(material + nonce.to_bytes(8, "little")).digest()
            nonce += 1
            if int.from_bytes(digest, "big") < threshold:
                break
        t = nonce * setup.pow_trial_ms + float(setup.latency[setup.publisher, node]) * (
            0 if node == setup.publisher else 1
        )
        if best_time is None or (t, node) < (best_time, best_node):
            best_node, best_time = node, t

    rng = np.random.default_rng(_derive_seed(setup.seed, task.task_id, "pow-committee"))
    candidates = [v for v in range(setup.n_nodes) if v != best_node]
    committee = [
        int(v)
        for v in rng.choice(candidates, size=min(setup.n_verifiers, len(candidates)), replace=False)
    ]
    accept_time = best_time + max(
        float(setup.latency[best_node, v]) + float(setup.latency[v, best_node])
        for v in committee
    )
    txs = [publish_tx]
    block = Block(
        height=chain.head().height + 1,
        prev_hash=chain.head().hash(),
        timestamp=accept_time,
        transactions=txs,
        proposer=best_node,
        task_id=task.task_id,
        model_commitment=None,
    )
    chain.append_block(block)
    credits = {best_node: task.reward}
    chain.settle_reward(block, credits)
    return RoundResult(
        block=block,
        latency_ms=accept_time,
        winner_pool=None,
        accuracy=0.0,
        outcomes=[],
        assignment=None,
        start_times={},
        credits=credits,
    )


def run_round(chain: Chain, setup: RoundSetup, mode: str = "fedchain") -> RoundResult:
    """One task round in `mode` (one of MODES).

    `gfl_ring` and `fedavg_central` race a single pool of every node,
    headed and committed by the publisher, with FedAvg weights and honest
    proofs. `gfl_ring` combines over the plain ring and starts when the
    last node has the task; `fedavg_central` combines over the
    coordinator star and starts at 0, since the coordinator's model
    broadcast is billed to each round. `pow` grinds nonces instead.
    """
    if mode == "fedchain":
        return run_round_fedchain(chain, setup)
    if mode == "pow":
        return _run_pow(chain, setup)
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode}")
    publish_tx = publish_task(setup.task, setup.publisher, now=0.0)
    nodes = list(range(setup.n_nodes))
    if mode == "gfl_ring":
        start, combine = float(_task_arrivals(setup).max()), partial(_ring_round, masked=False)
    else:
        start, combine = 0.0, _star_round
    run = _PoolRun(setup, 0, setup.publisher, nodes,
                   fedavg_weights([len(setup.miner_data[m]) for m in nodes]),
                   start, combine, tamper=False)
    return _settle(chain, setup, publish_tx, _race(setup, [run]), [run.outcome], None, {})
