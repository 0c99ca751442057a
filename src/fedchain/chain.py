"""Blockchain state machine: task rounds, verification gating, rewards.

A task round runs pool formation and per-pool federated training over the
event simulator, lets the first pool whose model verifies propose a block,
and settles the reward among the winning pool's members. Baseline modes
(centralized aggregation, whole-network ring, proof-of-work) reuse the same
clock and verification exchange so their latencies are comparable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import fixedpoint, pools, sharedring, verify
from .data import Dataset, smooth_histogram
from .errors import InvalidTaskError, RoundFailedError
from .fed import (
    DenseClassifier,
    RoundMetrics,
    TrainConfig,
    aggregate,
    evaluate,
    fedavg_weights,
    kl_weights,
    local_loss,
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
        expected = self.head().hash()
        if block.prev_hash != expected or block.height != self.head().height + 1:
            raise ValueError("block does not extend the chain head")
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


def load_chain_jsonl(path: str) -> Chain:
    """Rebuild a Chain from an export; used by the validate-chain CLI."""
    chain = Chain()
    blocks: dict[int, Block] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["type"] == "block":
                blocks[record["height"]] = Block(
                    height=record["height"],
                    prev_hash=record["prev_hash"],
                    timestamp=record["timestamp"],
                    transactions=[],
                    proposer=record["proposer"],
                    task_id=record["task_id"],
                    model_commitment=record["model_commitment"],
                )
            else:
                blocks[record["height"]].transactions.append(
                    Transaction(
                        kind=record["kind"],
                        payload=record["payload"],
                        author=record["author"],
                        timestamp=record["timestamp"],
                    )
                )
    for height in sorted(blocks):
        if height == 0:
            continue
        chain.blocks.append(blocks[height])
    return chain


def validate_chain(chain: Chain) -> list[str]:
    """Structural audit: hash links, heights, per-task transaction ordering,
    and commit-before-proof freshness. Returns a list of violations."""
    violations: list[str] = []
    for idx, block in enumerate(chain.blocks):
        if idx == 0:
            continue
        prev = chain.blocks[idx - 1]
        if block.prev_hash != prev.hash():
            violations.append(f"height {block.height}: broken hash link")
        if block.height != prev.height + 1:
            violations.append(f"height {block.height}: non-monotone height")
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
    task_ids = [b.task_id for b in chain.blocks[1:]]
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


def _simulate_formation(setup: RoundSetup, assignment: pools.PoolAssignment) -> dict[int, float]:
    """Event-driven pool formation: task broadcast, head announcements,
    joins, and pool-start messages. Returns each node's training start time."""
    n = setup.n_nodes
    sim = Simulator(setup.latency)
    heads = set(assignment.heads())
    head_of = {m: pool.head for pool in assignment.pools for m in pool.members}
    pool_by_head = {pool.head: pool for pool in assignment.pools}
    expected_joins = {pool.head: len(pool.members) - 1 for pool in assignment.pools}
    joins_seen = {h: 0 for h in heads}
    announcements = {node: 0 for node in range(n)}
    start_times: dict[int, float] = {}

    def handle(s: Simulator, event) -> None:
        node = event.dst
        if event.kind == "task":
            if node in heads:
                for other in range(n):
                    if other != node:
                        s.send(node, other, None, kind="head-announce")
                if expected_joins[node] == 0:
                    start_times[node] = s.now
        elif event.kind == "head-announce":
            if node in heads:
                return
            announcements[node] += 1
            if announcements[node] == len(heads):
                s.send(node, head_of[node], None, kind="join")
        elif event.kind == "join":
            joins_seen[node] += 1
            if joins_seen[node] == expected_joins[node]:
                start_times[node] = s.now
                for member in pool_by_head[node].members:
                    if member != node:
                        s.send(node, member, None, kind="pool-start")
        elif event.kind == "pool-start":
            start_times[node] = s.now

    for node in range(n):
        sim.register(node, handle)
    sim.schedule(0.0, setup.publisher, kind="task")
    for node in range(n):
        if node != setup.publisher:
            sim.send(setup.publisher, node, None, kind="task")
    sim.run_until_idle()
    return start_times


def _verification_exchange(
    sim: Simulator,
    setup: RoundSetup,
    head: int,
    model: DenseClassifier,
    pool_id: int,
    tamper: bool,
    members: Sequence[int] = (),
) -> tuple[bool, float, float, str, float, float, dict[int, float]]:
    """Commit/challenge/prove/vote ping-pong between the head and the
    verifier committee, on the pool's clock. Returns acceptance, measured
    accuracy, accept time, commitment hex, commit/proof times, vote times."""
    task = setup.task
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

    all_accept = bool(votes) and all(ok for ok, _ in votes.values())
    measured = float(np.mean([m for _, m in votes.values()])) if votes else 0.0
    return (
        all_accept,
        measured,
        state["accept_time"],
        com.hex,
        state["commit_time"],
        state["proof_time"],
        vote_times,
    )


def _train_pool_rounds(
    setup: RoundSetup,
    pool_id: int,
    members: list[int],
    start_times: dict[int, float],
    masked: bool = True,
) -> PoolOutcome:
    """Barrier-synchronized training rounds for one pool on its own clock.

    Each round: members train locally (simulated compute delay), the masked
    ring all-reduce combines the pre-scaled updates, everyone evaluates the
    aggregate on the public example split, and the pool stops at the target,
    the deadline, or the round budget.
    """
    task = setup.task
    sim = Simulator(setup.latency)
    weights_vec = _member_weights(setup, members)
    k = len(members)
    model = DenseClassifier(task.arch, seed=_derive_seed(setup.seed, task.task_id, "init"))
    barrier = max(start_times[m] for m in members)
    sim.now = barrier
    # Each member's noise covers its own chunk of the ring split.
    chunk_lens = [c.shape[0] for c in np.array_split(model.weights, k)]
    outcome = PoolOutcome(
        pool_id=pool_id,
        head=members[0],
        members=members,
        finish_time=None,
        accept_time=None,
        accepted=False,
        measured_accuracy=0.0,
        weights=weights_vec,
        commitment=None,
    )

    for round_idx in range(setup.max_rounds):
        trained = [
            local_train(
                model,
                setup.miner_data[m],
                setup.train,
                seed=_derive_seed(setup.seed, task.task_id, pool_id, round_idx, m),
            )
            for m in members
        ]
        vectors = [
            fixedpoint.encode(t.weights * (w * k)) for t, w in zip(trained, weights_vec)
        ]
        masks = None
        if masked:
            masks = [
                fixedpoint.generate_noise(
                    chunk_lens[i],
                    _derive_seed(setup.seed, task.task_id, pool_id, round_idx, "noise", i),
                    setup.noise_bits,
                )
                for i in range(k)
            ]
        session = sharedring.RingSession(
            sim, members, vectors, masks=masks, size_multiplier=setup.size_multiplier
        )
        ready = [barrier + float(setup.compute_times[m]) for m in members]
        session.start(ready)
        sim.run_until_idle()
        session.detach()
        barrier = max(session.completion.values())

        summed = session.results[members[0]]
        model = model.clone(fixedpoint.decode(summed) / k)
        accuracy = evaluate(model, task.example)
        loss = local_loss(model, task.example)
        outcome.metrics.append(
            RoundMetrics(round_idx, pool_id, accuracy, loss, barrier)
        )
        if barrier > task.deadline:
            return outcome
        if accuracy >= task.target:
            outcome.finish_time = barrier
            break
    if outcome.finish_time is None:
        return outcome

    tamper = pool_id in setup.tamper_pools
    accepted, measured, accept_time, com_hex, commit_t, proof_t, vote_times = (
        _verification_exchange(sim, setup, members[0], model, pool_id, tamper, members)
    )
    outcome.accepted = accepted
    outcome.measured_accuracy = measured
    outcome.accept_time = accept_time
    outcome.commitment = com_hex
    outcome.commit_time = commit_t
    outcome.proof_time = proof_t
    outcome.vote_times = vote_times
    return outcome


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


def run_round_fedchain(chain: Chain, setup: RoundSetup) -> RoundResult:
    """One full task round: pools form, train, and race; the first verified
    finisher proposes the block. Raises RoundFailedError if nobody reaches
    the target before the deadline."""
    task = setup.task
    publish_tx = publish_task(task, setup.publisher, now=0.0)

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
    start_times = _simulate_formation(setup, assignment)

    outcomes = [
        _train_pool_rounds(setup, idx, list(pool.members), start_times)
        for idx, pool in enumerate(assignment.pools)
    ]
    verified = [o for o in outcomes if o.accepted]
    if not verified:
        raise RoundFailedError(f"task {task.task_id}: no pool verified before the deadline")
    winner = min(verified, key=lambda o: (o.accept_time, o.pool_id))

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


def _run_fedavg_central(chain: Chain, setup: RoundSetup) -> RoundResult:
    """Centralized aggregation baseline: one coordinator, serialized ingress.

    Per round the coordinator broadcasts the model, every node trains and
    uploads; the coordinator's ingress handles one upload transmission at a
    time, which is the scaling bottleneck."""
    task = setup.task
    publish_tx = publish_task(task, setup.publisher, now=0.0)
    coord = setup.publisher
    nodes = list(range(setup.n_nodes))
    weights_vec = fedavg_weights([len(setup.miner_data[m]) for m in nodes])
    model = DenseClassifier(task.arch, seed=_derive_seed(setup.seed, task.task_id, "init"))
    su = int(setup.size_multiplier)
    now = 0.0
    metrics: list[RoundMetrics] = []
    finish = None
    for round_idx in range(setup.max_rounds):
        ready = []
        for m in nodes:
            receive = now if m == coord else now + float(setup.latency[coord, m]) * su
            ready.append(receive + float(setup.compute_times[m]))
        trained = [
            local_train(
                model,
                setup.miner_data[m],
                setup.train,
                seed=_derive_seed(setup.seed, task.task_id, 0, round_idx, m),
            )
            for m in nodes
        ]
        busy = 0.0
        for m, r in sorted(zip(nodes, ready), key=lambda kv: (kv[1], kv[0])):
            if m == coord:
                busy = max(busy, r)
            else:
                busy = max(busy, r) + float(setup.latency[m, coord]) * su
        now = busy
        model = model.clone(aggregate([t.weights for t in trained], weights_vec))
        accuracy = evaluate(model, task.example)
        metrics.append(RoundMetrics(round_idx, 0, accuracy, local_loss(model, task.example), now))
        if now > task.deadline:
            break
        if accuracy >= task.target:
            finish = now
            break
    return _finish_baseline(
        chain, setup, publish_tx, model, finish, weights_vec, nodes, metrics, coord
    )


def _run_gfl_ring(chain: Chain, setup: RoundSetup) -> RoundResult:
    """Whole-network unmasked ring all-reduce baseline (2(N-1) steps/round)."""
    task = setup.task
    publish_tx = publish_task(task, setup.publisher, now=0.0)
    nodes = list(range(setup.n_nodes))
    sim = Simulator(setup.latency)
    weights_vec = fedavg_weights([len(setup.miner_data[m]) for m in nodes])
    model = DenseClassifier(task.arch, seed=_derive_seed(setup.seed, task.task_id, "init"))
    k = len(nodes)
    barrier = max(
        float(setup.latency[setup.publisher, m]) if m != setup.publisher else 0.0
        for m in nodes
    )
    sim.now = barrier
    metrics: list[RoundMetrics] = []
    finish = None
    for round_idx in range(setup.max_rounds):
        trained = [
            local_train(
                model,
                setup.miner_data[m],
                setup.train,
                seed=_derive_seed(setup.seed, task.task_id, 0, round_idx, m),
            )
            for m in nodes
        ]
        vectors = [
            fixedpoint.encode(t.weights * (w * k)) for t, w in zip(trained, weights_vec)
        ]
        session = sharedring.RingSession(
            sim, nodes, vectors, masks=None, size_multiplier=setup.size_multiplier
        )
        session.start([barrier + float(setup.compute_times[m]) for m in nodes])
        sim.run_until_idle()
        session.detach()
        barrier = max(session.completion.values())
        model = model.clone(fixedpoint.decode(session.results[nodes[0]]) / k)
        accuracy = evaluate(model, task.example)
        metrics.append(
            RoundMetrics(round_idx, 0, accuracy, local_loss(model, task.example), barrier)
        )
        if barrier > task.deadline:
            break
        if accuracy >= task.target:
            finish = barrier
            break
    return _finish_baseline(
        chain, setup, publish_tx, model, finish, weights_vec, nodes, metrics,
        setup.publisher, sim=sim,
    )


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


def _finish_baseline(
    chain: Chain,
    setup: RoundSetup,
    publish_tx: Transaction,
    model: DenseClassifier,
    finish: float | None,
    weights_vec: np.ndarray,
    members: list[int],
    metrics: list[RoundMetrics],
    committer: int,
    sim: Simulator | None = None,
) -> RoundResult:
    if finish is None:
        raise RoundFailedError(
            f"task {setup.task.task_id}: target not reached before the deadline"
        )
    if sim is None:
        sim = Simulator(setup.latency)
        sim.now = finish
    accepted, measured, accept_time, com_hex, commit_t, proof_t, vote_times = (
        _verification_exchange(sim, setup, committer, model, 0, tamper=False)
    )
    if not accepted:
        raise RoundFailedError(f"task {setup.task.task_id}: baseline proof rejected")
    outcome = PoolOutcome(
        pool_id=0,
        head=committer,
        members=members,
        finish_time=finish,
        accept_time=accept_time,
        accepted=True,
        measured_accuracy=measured,
        weights=weights_vec,
        commitment=com_hex,
        commit_time=commit_t,
        proof_time=proof_t,
        vote_times=vote_times,
        metrics=metrics,
    )
    block, credits = _build_block(chain, setup, outcome, None, {}, publish_tx)
    chain.append_block(block)
    chain.settle_reward(block, credits)
    return RoundResult(
        block=block,
        latency_ms=accept_time,
        winner_pool=0,
        accuracy=measured,
        outcomes=[outcome],
        assignment=None,
        start_times={},
        credits=credits,
    )


def run_round_baseline(chain: Chain, setup: RoundSetup, mode: str) -> RoundResult:
    """Dispatch one round of a non-fedchain consensus mode."""
    if mode == "fedavg_central":
        return _run_fedavg_central(chain, setup)
    if mode == "gfl_ring":
        return _run_gfl_ring(chain, setup)
    if mode == "pow":
        return _run_pow(chain, setup)
    raise ValueError(f"unknown baseline mode: {mode}")


def run_round(chain: Chain, setup: RoundSetup, mode: str = "fedchain") -> RoundResult:
    if mode == "fedchain":
        return run_round_fedchain(chain, setup)
    if mode in MODES:
        return run_round_baseline(chain, setup, mode)
    raise ValueError(f"unknown mode: {mode}")
