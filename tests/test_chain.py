import ast
import contextlib
import copy
import hashlib
import inspect
import itertools
import json
import math
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedchain import chain, cli, experiments, fed, fixedpoint, netsim, pools, sharedring, verify
from fedchain.errors import (
    DuplicateTaskBlockError,
    InsufficientSamplesError,
    InvalidCommitteeError,
    InvalidPowSettingsError,
    InvalidTaskError,
    LedgerIntegrityError,
    RoundFailedError,
)
from conftest import build_setup, clustered_links, random_heads


class TestPublishTask:
    def test_valid_task_transaction(self, small_setup):
        tx = chain.publish_task(small_setup.task)
        assert tx.kind == "TaskPublish"
        assert tx.payload["task_id"] == 1
        assert (tx.author, tx.timestamp) == (chain.PUBLISHER, 0.0)

    def test_zero_target_rejected(self, small_setup):
        small_setup.task.target = 0.0
        with pytest.raises(InvalidTaskError):
            chain.publish_task(small_setup.task)

    def test_past_deadline_rejected(self, small_setup):
        small_setup.task.deadline = -1.0
        with pytest.raises(InvalidTaskError):
            chain.publish_task(small_setup.task)


class TestFormation:
    def test_all_nodes_start_after_broadcast(self, small_setup):
        from fedchain.pools import announce_heads, assign_pools, bootstrap_history, estimate_latency

        hist = bootstrap_history(small_setup.latency, seed=1)
        l_hat = estimate_latency(hist)
        heads = announce_heads(2, l_hat=l_hat)
        assignment = assign_pools(heads, l_hat, [0.0, 0.0], seed=2)
        start = chain._simulate_formation(small_setup, assignment)
        assert set(start) == set(range(small_setup.n_nodes))
        max_lat = small_setup.latency.max()
        # task broadcast + announce + join + start: four control hops bound
        assert all(0 <= t <= 4 * max_lat for t in start.values())


def oracle_formation(setup, assignment):
    """Pool formation replayed message by message on the event simulator."""
    n = setup.n_nodes
    sim = netsim.Simulator(setup.latency)
    heads = set(assignment.heads())
    head_of = {m: pool.head for pool in assignment.pools for m in pool.members}
    pool_by_head = {pool.head: pool for pool in assignment.pools}
    expected_joins = {pool.head: len(pool.members) - 1 for pool in assignment.pools}
    joins_seen = {h: 0 for h in heads}
    announcements = {node: 0 for node in range(n)}
    start_times = {}

    def handle(s, event):
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
    sim.schedule(0.0, chain.PUBLISHER, kind="task")
    for node in range(n):
        if node != chain.PUBLISHER:
            sim.send(chain.PUBLISHER, node, None, kind="task")
    sim.run_until_idle()
    assert sim.stats["delivered"] == 1 + (n - 1) + len(heads) * (n - 1) + 2 * (n - len(heads))
    return start_times


def formation_latency(topology, n):
    if topology == "uniform":
        return netsim.build_topology(n, seed=n)
    if topology == "clustered":
        return clustered_links(n, n, n_clusters=3)
    # integer-valued and integer-typed: many arrivals land at equal times
    latency = np.random.default_rng(n).integers(1, 4, size=(n, n))
    np.fill_diagonal(latency, 0)
    return latency


def formation_case(latency, heads, join_seed):
    l_hat = latency.astype(np.float64)
    assignment = pools.assign_pools(heads, l_hat, [0.0] * len(heads), seed=join_seed)
    setup = chain.RoundSetup(task=None, latency=latency, compute_times=None, miner_data=[])
    return setup, assignment


class TestFormationOracle:
    """The closed-form formation must equal the event-driven replay exactly."""

    # "random" forms pools on seeded random heads, which announce_heads would not pick
    @pytest.mark.parametrize("policy", ["spread", "random"])
    @pytest.mark.parametrize("topology", ["uniform", "clustered", "integer"])
    def test_closed_form_matches_event_loop(self, topology, policy):
        for n in range(2, 41):
            latency = formation_latency(topology, n)
            for p in range(1, n + 1):
                if policy == "spread":
                    heads = pools.announce_heads(p, l_hat=latency.astype(np.float64))
                else:
                    heads = random_heads(n, p, seed=p)
                # odd p: the publisher (node 0) is a head; even p: any heads
                if p % 2 and chain.PUBLISHER not in heads:
                    heads[0] = chain.PUBLISHER
                setup, assignment = formation_case(latency, heads, n + p)
                got = chain._simulate_formation(setup, assignment)
                assert got == oracle_formation(setup, assignment)
                assert all(type(t) is float for t in got.values())

    def test_solo_pools_start_on_the_task(self):
        latency = formation_latency("uniform", 9)
        heads = [0, 4, 7]
        setup, assignment = formation_case(latency, heads, join_seed=1)
        # force two solo pools, the publisher's among them, next to one pool
        # with everyone else
        assignment.pools[0].members = [0]
        assignment.pools[1].members = [4]
        assignment.pools[2].members = [7] + [v for v in range(9) if v not in heads]
        got = chain._simulate_formation(setup, assignment)
        assert got == oracle_formation(setup, assignment)
        assert got[0] == 0.0
        assert got[4] == float(latency[0, 4])

    def test_every_node_a_head(self):
        latency = formation_latency("integer", 6)
        setup, assignment = formation_case(latency, [3, 1, 0, 5, 2, 4], join_seed=0)
        got = chain._simulate_formation(setup, assignment)
        assert got == oracle_formation(setup, assignment)
        assert got == {v: (0.0 if v == 0 else float(latency[0, v])) for v in range(6)}


class TestFedchainRound:
    def test_single_pool_produces_block(self):
        setup = build_setup(n_nodes=4, n_pools=1, seed=3)
        ledger = chain.Chain()
        result = chain.run_round(ledger, setup)
        assert result.block is not None
        assert result.block.height == 1
        assert result.block.proposer == result.outcomes[result.winner_pool].head
        assert result.accuracy >= 0.8
        assert chain.validate_chain(ledger) == []

    def test_faster_pool_wins_on_identical_data(self):
        # Two latency clusters; nodes 0-2 compute 60 ms per round, nodes 3-5
        # 10 ms. Every miner holds the same dataset, so the fast cluster's
        # pool must finish and verify first. The publisher, node 0, is in
        # the slow cluster, so announcements reach both pools alike.
        setup = build_setup(
            n_nodes=6,
            n_pools=2,
            seed=7,
            topology=partial(clustered_links, n_clusters=2, intra=(5, 10), inter=(150, 200)),
        )
        shared = setup.miner_data[0]
        setup.miner_data = [shared] * 6
        setup.compute_times = np.array([60.0, 60.0, 60.0, 10.0, 10.0, 10.0])
        ledger = chain.Chain()
        result = chain.run_round(ledger, setup)
        winner_members = result.outcomes[result.winner_pool].members
        assert set(winner_members) == {3, 4, 5}
        fast, slow = result.outcomes[result.winner_pool], result.outcomes[1 - result.winner_pool]
        per_round_fast = np.diff([m.sim_time_ms for m in fast.metrics])
        per_round_slow = np.diff([m.sim_time_ms for m in slow.metrics])
        if len(per_round_fast) and len(per_round_slow):
            assert per_round_fast.mean() < per_round_slow.mean()

    def test_tampered_first_finisher_loses_to_second(self):
        setup = build_setup(
            n_nodes=6,
            n_pools=2,
            seed=7,
            topology=partial(clustered_links, n_clusters=2, intra=(5, 10), inter=(150, 200)),
        )
        shared = setup.miner_data[0]
        setup.miner_data = [shared] * 6
        setup.compute_times = np.array([60.0, 60.0, 60.0, 10.0, 10.0, 10.0])
        ledger = chain.Chain()
        clean = chain.run_round(ledger, setup)
        fast_pool = clean.winner_pool

        tampered_setup = build_setup(
            n_nodes=6,
            n_pools=2,
            seed=7,
            topology=partial(clustered_links, n_clusters=2, intra=(5, 10), inter=(150, 200)),
            tamper_pools=frozenset({fast_pool}),
        )
        tampered_setup.miner_data = [shared] * 6
        tampered_setup.compute_times = np.array([60.0, 60.0, 60.0, 10.0, 10.0, 10.0])
        ledger2 = chain.Chain()
        result = chain.run_round(ledger2, tampered_setup)
        assert result.winner_pool != fast_pool
        assert not result.outcomes[fast_pool].accepted
        # the tampered pool's commitment never lands on chain
        assert result.block.model_commitment == result.outcomes[result.winner_pool].commitment
        assert chain.validate_chain(ledger2) == []

    def test_round_fails_when_deadline_too_tight(self):
        setup = build_setup(n_nodes=4, n_pools=1, seed=3, deadline=1.0)
        with pytest.raises(RoundFailedError):
            chain.run_round(chain.Chain(), setup)

    def test_two_tasks_sequential_blocks(self):
        ledger = chain.Chain()
        for task_id in (1, 2):
            setup = build_setup(n_nodes=4, n_pools=1, seed=10 + task_id)
            setup.task.task_id = task_id
            chain.run_round(ledger, setup)
        assert [b.task_id for b in ledger.blocks[1:]] == [1, 2]
        assert [b.height for b in ledger.blocks] == [0, 1, 2]
        assert chain.validate_chain(ledger) == []


def listed_committee(setup, outcome):
    """The committee drawn from candidate lists built by comprehension, as
    the event-driven oracle draws it."""
    head, members = outcome.head, set(outcome.members)
    rng = np.random.default_rng(
        chain._derive_seed(setup.seed, setup.task.task_id, "committee", outcome.pool_id))
    candidates = [v for v in range(setup.n_nodes) if v != head and v not in members]
    if not candidates:
        candidates = [v for v in range(setup.n_nodes) if v != head]
    size = min(setup.n_verifiers, len(candidates))
    return [int(v) for v in rng.choice(candidates, size=size, replace=False)]


def oracle_verification_exchange(sim, setup, outcome, model, tamper, pp):
    """The commit/challenge/prove/vote exchange replayed message by message
    on the event simulator from `sim.now`: the handler-based exchange whose
    arrival times `chain._race` computes in closed form (`_PoolRun.votes`)
    and whose crypto `chain._verification_exchange` runs."""
    task = setup.task
    head, pool_id = outcome.head, outcome.pool_id
    committee = listed_committee(setup, outcome)
    blinding = verify.make_blinding(chain._derive_seed(setup.seed, task.task_id, "blind", pool_id))
    com = verify.commit(model, pp, blinding)
    votes = {}
    state = {"proof_time": None, "accept_time": None}
    vote_times = {}
    proofs = {}
    samples = {}

    def head_handler(s, event):
        if event.kind == "challenge":
            x = event.payload
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
            s.send(head, event.src, proof, size_units=int(netsim.SIZE_MULTIPLIER), kind="proof")
        elif event.kind == "vote":
            votes[event.src] = event.payload
            vote_times[event.src] = s.now
            if len(votes) == len(committee):
                state["accept_time"] = s.now

    def verifier_handler(s, event):
        if event.kind == "commit":
            sample = verify.derive_challenge(task.held_out, event.payload, verify.CHALLENGE_SIZE)
            samples[event.dst] = sample
            s.send(event.dst, head, sample.x, kind="challenge")
        elif event.kind == "proof":
            proof = event.payload
            sample = samples[event.dst]
            result = verify.verify(com, sample, proof, pp)
            ok = result.accepted and verify.accuracy_claim_check(
                result.measured_accuracy, task.target, sample.count
            )
            s.send(event.dst, head, (ok, result.measured_accuracy), kind="vote")

    sim.register(head, head_handler)
    for v in committee:
        sim.register(v, verifier_handler)
    for v in committee:
        sim.send(head, v, com, kind="commit")
    sim.run_until_idle()
    outcome.accepted = bool(votes) and all(ok for ok, _ in votes.values())
    outcome.measured_accuracy = float(np.mean([m for _, m in votes.values()])) if votes else 0.0
    outcome.accept_time = state["accept_time"]
    outcome.commitment = com.hex
    outcome.proof_time = state["proof_time"]
    outcome.vote_times = vote_times


def oracle_verify(setup, outcome, model, tamper):
    """`oracle_verification_exchange` from the outcome's finish time."""
    sim = netsim.Simulator(setup.latency)
    sim.now = outcome.finish_time
    oracle_verification_exchange(sim, setup, outcome, model, tamper,
                                 chain._exchange_constants(setup))


def closed_form_exchange(setup, outcome, model, tamper):
    """Both halves of the chain's exchange, as `chain._race` runs them for a
    finisher: the sorted vote arrivals, then the crypto, on a run that
    carries the given outcome and model."""
    run = chain._PoolRun(setup, outcome.pool_id, outcome.head, outcome.members,
                         "kl", model, outcome.finish_time, None, None, tamper)
    run.outcome = outcome
    run.votes = sorted(chain._vote_arrivals(outcome.finish_time, run._links))
    chain._verification_exchange(run, chain._exchange_constants(setup))


def oracle_pool_rounds(setup, pool_id, members, start_times, offset=0.0):
    """One pool trained to its natural end and, if it finished, verified:
    the all-pools loop the race replaced. Its first barrier is `offset` ms after its last
    member's start."""
    task = setup.task
    weights_vec = fed.aggregation_weights("kl", [setup.miner_data[m] for m in members],
                                          task.example)
    k = len(members)
    model = fed.DenseClassifier(task.arch, seed=chain._derive_seed(setup.seed, task.task_id, "init"))
    barrier = max(start_times[m] for m in members) + offset
    chunk_lens = [c.shape[0] for c in np.array_split(model.weights, k)]
    outcome = chain.PoolOutcome(pool_id, members[0], members, None, None, False, 0.0,
                                weights_vec, None)
    for round_idx in range(setup.max_rounds):
        trained = [
            fed.local_train(model, setup.miner_data[m], setup.train,
                            seed=chain._derive_seed(setup.seed, task.task_id, pool_id, round_idx, m))
            for m in members
        ]
        vectors = [fixedpoint.encode(t.weights * (w * k)) for t, w in zip(trained, weights_vec)]
        masks = [
            fixedpoint.generate_noise(
                chunk_lens[i],
                chain._derive_seed(setup.seed, task.task_id, pool_id, round_idx, "noise", i),
            )
            for i in range(k)
        ]
        session = sharedring.RingSession(setup.latency, members, vectors, masks=masks)
        session.start(barrier, [barrier + float(setup.compute_times[m]) for m in members])
        barrier = max(session.completion.values())
        model = model.clone(fixedpoint.decode(session.total) / k)
        accuracy = fed.evaluate(model, task.example)
        outcome.metrics.append(fed.RoundMetrics(accuracy, barrier))
        if barrier > task.deadline:
            return outcome
        if accuracy >= task.target:
            outcome.finish_time = barrier
            break
    if outcome.finish_time is not None:
        oracle_verify(setup, outcome, model, pool_id in setup.tamper_pools)
    return outcome


def oracle_round_fedchain(ledger, setup, offset=0.0):
    """`run_round` without the race: every pool trains to its end,
    every finisher is verified, and the block goes to the minimum
    `(accept_time, pool_id)`. Every pool's barriers are `offset` ms later
    (see `barriers_moved`)."""
    task = setup.task
    publish_tx = chain.publish_task(task)
    assignment, start_times = chain._form_pools(setup)
    outcomes = [
        oracle_pool_rounds(setup, idx, list(pool.members), start_times, offset)
        for idx, pool in enumerate(assignment.pools)
    ]
    verified = [o for o in outcomes if o.accepted]
    if not verified:
        raise RoundFailedError(f"task {task.task_id}: no pool verified before the deadline")
    winner = min(verified, key=lambda o: (o.accept_time, o.pool_id))
    return chain._settle(ledger, setup, publish_tx, winner, outcomes, assignment, start_times)


def race_and_oracle(setup):
    """Both rounds on fresh ledgers; (None, None) when both raise
    RoundFailedError."""
    try:
        oracle = oracle_round_fedchain(chain.Chain(), setup)
    except RoundFailedError:
        with pytest.raises(RoundFailedError):
            chain.run_round(chain.Chain(), setup)
        return None, None
    return chain.run_round(chain.Chain(), setup), oracle


def assert_same_block(raced, oracle):
    winner = oracle.winner_pool
    assert raced.block.hash() == oracle.block.hash()
    assert raced.latency_ms == oracle.latency_ms
    assert raced.winner_pool == winner
    assert raced.accuracy == oracle.accuracy
    assert raced.outcomes[winner].metrics == oracle.outcomes[winner].metrics
    commit = next(tx for tx in raced.block.transactions if tx.kind == "ModelCommit")
    assert commit.timestamp == oracle.outcomes[winner].finish_time
    assert raced.credits == oracle.credits
    assert raced.start_times == oracle.start_times


def vote_bound(setup, outcome, start, ringed=True):
    """The earliest last vote a round of the outcome's pool starting at
    `start` could produce, in the test's own arithmetic: from the latest
    member's stream start (`start + ((start + compute) - start)` on a ring,
    `start` on a star), commit, challenge, proof and vote over each link of
    the committee that `listed_committee` draws; the stream start itself
    without a committee."""
    t = start
    if ringed:
        t = max(start + ((start + float(setup.compute_times[m])) - start) for m in outcome.members)
    su = int(netsim.SIZE_MULTIPLIER)
    head = outcome.head
    votes = [
        (((t + float(setup.latency[head, v])) + float(setup.latency[v, head]))
         + float(setup.latency[head, v]) * su) + float(setup.latency[v, head])
        for v in listed_committee(setup, outcome)
    ]
    return max(votes, default=t)


def assert_race_cut(raced, oracle, setup, offset=0.0):
    """Round r of pool q ran iff `(vote_bound(start_r), q)` is below the
    block's `(latency_ms, winner)` (the winner runs all of its rounds), a
    finisher was verified iff its `(accept_time, pool id)` in the oracle is
    at or below the block's, and `abandoned_at` marks exactly the pools cut
    short. The bound is sound: it is at most every oracle finisher's
    accept time at its finishing round's start. Barriers are `offset` ms
    later than the start times (see `barriers_moved`)."""
    best = (oracle.latency_ms, oracle.winner_pool)
    for got, full in zip(raced.outcomes, oracle.outcomes, strict=True):
        pool = full.pool_id
        ran = len(got.metrics)
        first = max(oracle.start_times[m] for m in full.members) + offset
        starts = [first] + [m.sim_time_ms for m in full.metrics[:-1]]
        bounds = [vote_bound(setup, full, t) for t in starts]
        if full.accept_time is not None:
            assert bounds[-1] <= full.accept_time
        assert got.metrics == full.metrics[:ran]
        assert (got.weights is None) is (ran == 0)
        if pool == oracle.winner_pool:
            assert ran == len(full.metrics)
        else:
            assert [i < ran for i in range(len(starts))] == [(b, pool) < best for b in bounds]
        verified = (got.finish_time, got.accept_time, got.accepted, got.measured_accuracy,
                    got.commitment, got.proof_time, got.vote_times)
        if ran < len(full.metrics):
            assert got.abandoned_at == starts[ran]
            assert (got.finish_time, got.commitment, got.accepted) == (None, None, False)
        elif full.finish_time is not None and (full.accept_time, pool) > best:
            # its last vote would land after the block's: never exchanged
            assert got.abandoned_at == full.finish_time
            assert verified == (full.finish_time, None, False, 0.0, None, None, {})
        else:
            assert got.abandoned_at is None
            assert verified == (
                full.finish_time, full.accept_time, full.accepted, full.measured_accuracy,
                full.commitment, full.proof_time, full.vote_times)
    return sum(o.abandoned_at is not None for o in raced.outcomes)


def grid_setup(n, p, seed, tamper=(), **overrides):
    setup = experiments.build_round_setup(experiments.ExperimentConfig(), n, p, seed)
    return replace(setup, tamper_pools=frozenset(tamper), **overrides)


class TestRaceOracle:
    """The raced round proposes the block of the all-pools oracle, bit for
    bit, and cuts exactly the pool-rounds that cannot change it."""

    GRID = [(40, 4, 0), (40, 4, 1), (60, 6, 2), (60, 6, 3), (50, 10, 4)]

    @staticmethod
    def tampered(pattern, p, seed):
        return {"none": (), "some": range(0, p, 3),
                "all_but_one": [q for q in range(p) if q != seed % p]}[pattern]

    @pytest.mark.parametrize("tamper", ["none", "some", "all_but_one"])
    def test_matches_oracle_over_seeds(self, tamper):
        cut = 0
        for n, p, seed in self.GRID:
            picked = self.tampered(tamper, p, seed)
            setup = grid_setup(n, p, seed, picked)
            raced, oracle = race_and_oracle(setup)
            assert oracle is not None
            assert_same_block(raced, oracle)
            cut += assert_race_cut(raced, oracle, setup)
            assert oracle.winner_pool not in picked
        assert cut > 0

    @pytest.mark.parametrize("tamper", ["none", "some", "all_but_one"])
    def test_exchanges_only_finishers_at_or_below_the_block(self, monkeypatch, tamper):
        # The race runs an exchange, and proves, exactly for the oracle's
        # finishers whose (accept_time, pool id) is at or below the block's:
        # the winner and the rejected finishers ahead of it.
        exchanged, proved = [], []
        real_exchange, real_prove = chain._verification_exchange, verify.prove

        def counting_exchange(run, *args):
            exchanged.append(run.outcome.pool_id)
            return real_exchange(run, *args)

        def counting_prove(model, x, pp, blinding):
            proved.append(blinding)
            return real_prove(model, x, pp, blinding)

        ahead = 0
        for n, p, seed in self.GRID:
            picked = self.tampered(tamper, p, seed)
            setup = grid_setup(n, p, seed, picked)
            oracle = oracle_round_fedchain(chain.Chain(), setup)
            best = (oracle.latency_ms, oracle.winner_pool)
            due = sorted(o.pool_id for o in oracle.outcomes
                         if o.finish_time is not None and (o.accept_time, o.pool_id) <= best)
            assert oracle.winner_pool in due
            assert all(not oracle.outcomes[q].accepted and q in picked
                       for q in due if q != oracle.winner_pool)
            ahead += len(due) - 1
            task_id = setup.task.task_id
            blind = {verify.make_blinding(chain._derive_seed(seed, task_id, "blind", q)): q
                     for q in range(p)}
            exchanged.clear()
            proved.clear()
            with monkeypatch.context() as spy:
                spy.setattr(chain, "_verification_exchange", counting_exchange)
                spy.setattr(verify, "prove", counting_prove)
                raced = chain.run_round(chain.Chain(), setup)
            assert raced.winner_pool == oracle.winner_pool
            assert sorted(exchanged) == due
            # one proof per exchange: every verifier draws the same challenge
            assert sorted(blind[b] for b in proved) == due
            assert sorted(o.pool_id for o in raced.outcomes if o.commitment is not None) == due
        assert (ahead > 0) is (tamper != "none")

    def test_deadline_between_finishers(self):
        setup = grid_setup(60, 6, 5, tamper=[1])
        full = oracle_round_fedchain(chain.Chain(), setup)
        finishes = sorted(o.finish_time for o in full.outcomes if o.finish_time is not None)
        setup.task.deadline = full.outcomes[full.winner_pool].finish_time
        raced, oracle = race_and_oracle(setup)
        assert any(o.finish_time is None for o in oracle.outcomes)
        assert len(finishes) > sum(o.finish_time is not None for o in oracle.outcomes)
        assert_same_block(raced, oracle)
        assert_race_cut(raced, oracle, setup)

    @pytest.mark.parametrize("deadline", [1.0, 50.0])
    def test_tight_deadline_fails_in_both(self, deadline):
        setup = grid_setup(40, 4, 6)
        setup.task.deadline = deadline
        assert race_and_oracle(setup) == (None, None)

    @pytest.mark.parametrize("max_rounds", [0, 1])
    def test_round_budget(self, max_rounds):
        for seed in range(4):
            setup = grid_setup(40, 4, seed, max_rounds=max_rounds)
            raced, oracle = race_and_oracle(setup)
            if max_rounds == 0:
                assert oracle is None
            elif oracle is not None:
                assert_same_block(raced, oracle)
                assert_race_cut(raced, oracle, setup)

    def test_every_node_a_pool(self):
        for seed in range(3):
            setup = grid_setup(12, 12, seed, tamper=[seed])
            raced, oracle = race_and_oracle(setup)
            assert all(len(o.members) == 1 for o in oracle.outcomes)
            assert_same_block(raced, oracle)
            assert assert_race_cut(raced, oracle, setup) > 0

    @pytest.mark.parametrize("tamper", [(), (0,)])
    @pytest.mark.parametrize("link_ms", [0.0, 10.0])
    def test_tie_goes_to_lower_pool_id(self, monkeypatch, link_ms, tamper):
        # Nine nodes form three pools of three over equal links; every
        # member computes for 5 ms and the target is met on the first
        # round, so every honest pool accepts at the same time and the
        # lower pool id wins. Only the tampered pool ahead of the winner is
        # verified besides it. Over 10-ms links every later honest pool
        # trains, and its vote event ties the block's accept time with a
        # higher pool id, so its exchange is cut. Over 0-ms links the
        # earliest vote of its first round, 5 ms of compute and no link
        # time, already ties the block's accept time, so it is cut before
        # it trains, at its start barrier.
        setup = build_setup(n_nodes=9, n_pools=3, seed=1, target=1e-9,
                            tamper_pools=frozenset(tamper))
        setup.latency = np.full((9, 9), link_ms)
        np.fill_diagonal(setup.latency, 0.0)
        setup.compute_times = np.full(9, 5.0)
        if link_ms == 0.0:  # latency probes must be positive: form pools as over 10-ms links
            real_history = pools.bootstrap_history
            monkeypatch.setattr(pools, "bootstrap_history",
                                lambda latency, seed: real_history(latency + 10.0, seed=seed))
        raced, oracle = race_and_oracle(setup)
        accepted = [o for o in oracle.outcomes if o.accepted]
        assert [len(o.members) for o in oracle.outcomes] == [3, 3, 3]
        assert len(accepted) == 3 - len(tamper)
        assert len({o.accept_time for o in accepted}) == 1
        assert oracle.winner_pool == len(tamper)
        assert_same_block(raced, oracle)
        assert assert_race_cut(raced, oracle, setup) == 3 - len(tamper) - 1
        finish = raced.outcomes[oracle.winner_pool].finish_time
        later = raced.outcomes[len(tamper) + 1:]
        if link_ms == 0.0:
            assert oracle.latency_ms == finish == 5.0
            assert all(o.abandoned_at == max(raced.start_times[m] for m in o.members)
                       and o.finish_time is None and o.commitment is None for o in later)
        else:
            assert all(o.abandoned_at == o.finish_time == finish and o.commitment is None
                       for o in later)


@contextlib.contextmanager
def barriers_moved(offset):
    """Every `chain._PoolRun` made inside starts `offset` ms later."""
    real_init = chain._PoolRun.__init__

    def moved_init(run, *args, **kwargs):
        real_init(run, *args, **kwargs)
        run.barrier += offset

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chain._PoolRun, "__init__", moved_init)
        yield


class TestRaceBoundProperty:
    """With full-mantissa latencies and compute times, and barriers moved
    up to 1e9 ms later, where one ulp is large, the raced round proposes
    the all-pools oracle's block in every mode, the race keys every pending
    round by the test's own `vote_bound`, and that bound never exceeds a
    realized last vote."""

    @given(data=st.data(), mode=st.sampled_from(["fedchain", "gfl_ring", "fedavg_central"]),
           shape=st.sampled_from([(20, 2), (50, 5)]), seed=st.integers(0, 2**16),
           scale=st.sampled_from([1 / 3, 5 / 7, 3.0 / 11]),
           offset=st.one_of(st.sampled_from([0.0, 1e9]), st.floats(0.0, 1e9)))
    @settings(max_examples=40, deadline=None)
    def test_same_block_and_sound_bound(self, data, mode, shape, seed, scale, offset):
        n, p = shape
        tamper = data.draw(st.sets(st.integers(0, p - 1), max_size=p - 1)) if mode == "fedchain" else ()
        setup = grid_setup(n, p, seed, tamper)
        setup = replace(setup, latency=setup.latency * scale,
                        compute_times=setup.compute_times * scale,
                        task=replace(setup.task, deadline=offset + 1e9))
        oracle_round = oracle_round_fedchain if mode == "fedchain" else BASELINE_ORACLES[mode]
        try:
            oracle = oracle_round(chain.Chain(), setup, offset)
        except RoundFailedError:
            with barriers_moved(offset), pytest.raises(RoundFailedError):
                chain.run_round(chain.Chain(), setup, mode)
            return
        # the race keys each pending round by the bound this test computes
        matched = []
        real_bound = chain._PoolRun.vote_bound

        def checked_bound(run):
            bound = real_bound(run)
            matched.append(bound == vote_bound(setup, run.outcome, run.barrier,
                                               ringed=mode != "fedavg_central"))
            return bound

        with barriers_moved(offset), pytest.MonkeyPatch.context() as patch:
            patch.setattr(chain._PoolRun, "vote_bound", checked_bound)
            raced = chain.run_round(chain.Chain(), setup, mode)
        assert matched and all(matched)
        if mode == "fedchain":
            assert_same_block(raced, oracle)
            assert_race_cut(raced, oracle, setup, offset)
            return
        assert_same_baseline(raced, oracle)
        [full] = oracle.outcomes
        first = (float(chain._task_arrivals(setup).max()) if mode == "gfl_ring" else 0.0) + offset
        last_start = full.metrics[-2].sim_time_ms if len(full.metrics) > 1 else first
        assert vote_bound(setup, full, last_start, ringed=mode == "gfl_ring") <= full.accept_time


class TestRaceSlack:
    """Tampering every pool whose exchange the race did not run, because it
    was cut or never finished, leaves the round's result unchanged."""

    @pytest.mark.parametrize("n, p", [(20, 2), (50, 5), (120, 6)])
    def test_tampering_unverified_pools_changes_nothing(self, n, p):
        unverified_total = 0
        for seed in range(4):
            setup = grid_setup(n, p, seed)
            first = chain.run_round(chain.Chain(), setup)
            unverified = {o.pool_id for o in first.outcomes if o.commitment is None}
            assert unverified >= {o.pool_id for o in first.outcomes if o.abandoned_at is not None}
            unverified_total += len(unverified)
            again = chain.run_round(chain.Chain(), replace(setup, tamper_pools=unverified))
            assert (again.block.hash(), again.latency_ms, again.winner_pool, again.credits) == (
                first.block.hash(), first.latency_ms, first.winner_pool, first.credits)
        assert unverified_total > 0


class TestSlackProperty:
    """Loosening a bound the winner already meets leaves the block unchanged
    in every learning mode: a deadline at or above the round's latency, and
    a round budget cut to the winner's round count. Pools that would need
    the looser bound finish, if at all, after the block."""

    modes = st.sampled_from(["fedchain", "gfl_ring", "fedavg_central"])
    shapes = st.sampled_from([(20, 2), (50, 5), (120, 6)])

    @staticmethod
    def first_round(mode, shape, seed):
        """A fresh `grid_setup` (one pool for a baseline) and its round; a
        setup whose round fails has no block to keep, so it is skipped."""
        n, p = shape
        setup = grid_setup(n, p if mode == "fedchain" else 1, seed)
        try:
            return setup, chain.run_round(chain.Chain(), setup, mode)
        except RoundFailedError:
            assume(False)

    @staticmethod
    def assert_same_block(setup, mode, want):
        got = chain.run_round(chain.Chain(), setup, mode)
        assert (got.block.hash(), got.latency_ms, got.winner_pool, got.credits) == (
            want.block.hash(), want.latency_ms, want.winner_pool, want.credits)

    @given(mode=modes, shape=shapes, seed=st.integers(0, 2**16),
           factor=st.one_of(st.sampled_from([1.0, 1.0001, 4.0]), st.floats(1.0, 4.0)))
    @settings(max_examples=30, deadline=None)
    def test_deadline_at_or_above_the_latency(self, mode, shape, seed, factor):
        setup, base = self.first_round(mode, shape, seed)
        deadline = base.latency_ms * factor
        assert deadline >= base.latency_ms
        self.assert_same_block(replace(setup, task=replace(setup.task, deadline=deadline)),
                               mode, base)

    @given(mode=modes, shape=shapes, seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_round_budget_cut_to_the_winners_rounds(self, mode, shape, seed):
        setup, base = self.first_round(mode, shape, seed)
        rounds = len(base.outcomes[base.winner_pool].metrics)
        self.assert_same_block(replace(setup, max_rounds=rounds), mode, base)


class TestRaceCounts:
    """The benchmark counts `local_train` calls and ring sessions from the
    outcomes, and times `fixedpoint.generate_noise` and `fed.kl_weights`
    at the call; a raced round must make exactly those calls: one session
    per pool-round, one mask per member and masked round, and one
    `kl_weights` per pool that ran a round under "kl". Each pool draws its
    committee once, when its run is made."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"train": 0, "session": 0, "noise": 0, "kl": 0, "committee": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        class CountingSession(sharedring.RingSession):
            def __init__(self, *args, **kwargs):
                calls["session"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(chain, "local_train", counted("train", chain.local_train))
        monkeypatch.setattr(sharedring, "RingSession", CountingSession)
        monkeypatch.setattr(fixedpoint, "generate_noise", counted("noise", fixedpoint.generate_noise))
        monkeypatch.setattr(fed, "kl_weights", counted("kl", fed.kl_weights))
        monkeypatch.setattr(chain, "_draw_committee", counted("committee", chain._draw_committee))
        return calls

    def test_calls_match_outcomes(self, counts):
        result = chain.run_round(chain.Chain(), grid_setup(60, 6, 0, tamper=[2]))
        outcomes = result.outcomes
        assert any(o.abandoned_at is not None for o in outcomes)
        member_rounds = sum(len(o.metrics) * len(o.members) for o in outcomes)
        assert counts["train"] == counts["noise"] == member_rounds
        assert counts["session"] == sum(len(o.metrics) for o in outcomes)
        assert len(outcomes) == counts["committee"] == 6
        assert counts["kl"] == sum(len(o.metrics) > 0 for o in outcomes)
        assert all((o.weights is None) is (not o.metrics) for o in outcomes)

    @pytest.mark.parametrize("n, seed", [(5, 1), (20, 3), (50, 0)])
    def test_gfl_ring_calls_match_outcome(self, counts, n, seed):
        result = chain.run_round(chain.Chain(), grid_setup(n, 1, seed), "gfl_ring")
        [outcome] = result.outcomes
        assert len(outcome.members) == n
        assert counts["train"] == len(outcome.metrics) * n
        assert counts["session"] == len(outcome.metrics)
        # a plain ring draws no mask, and FedAvg weights need no divergence
        assert counts["noise"] == counts["kl"] == 0


class TestTimeScaling:
    """Scaling every input time (latencies, compute times, deadline, PoW
    trial cost) by a power of two scales every simulated time exactly and
    changes no decision: every time is built from sums, maxes and integer
    multiples of the inputs, which such a scaling commutes with in binary
    floating point."""

    @staticmethod
    def scaled(setup, factor):
        return replace(setup, latency=setup.latency * factor,
                       compute_times=setup.compute_times * factor,
                       pow_trial_ms=setup.pow_trial_ms * factor,
                       task=replace(setup.task, deadline=setup.task.deadline * factor))

    @staticmethod
    def times(result):
        """Every simulated time of a round, in a fixed order (None kept)."""
        out = [result.latency_ms, result.block.timestamp]
        out += [tx.timestamp for tx in result.block.transactions]
        out += [result.start_times[node] for node in sorted(result.start_times)]
        for o in result.outcomes:
            out += [o.finish_time, o.accept_time, o.proof_time, o.abandoned_at]
            out += [o.vote_times[v] for v in sorted(o.vote_times)]
            out += [m.sim_time_ms for m in o.metrics]
        return out

    @staticmethod
    def decisions(result):
        return (result.winner_pool, result.credits, result.accuracy,
                result.block.proposer, result.block.model_commitment,
                [(o.pool_id, o.members, len(o.metrics), o.accepted,
                  [m.accuracy for m in o.metrics]) for o in result.outcomes])

    @pytest.mark.parametrize("factor", [2.0, 0.5])
    @pytest.mark.parametrize("mode, n, p", [
        (mode, n, p) for mode in chain.MODES for n, p in ((20, 2), (50, 5))
    ])
    def test_times_scale_and_decisions_hold(self, mode, n, p, factor):
        for seed in range(2):
            setup = grid_setup(n, p, seed)
            base = chain.run_round(chain.Chain(), setup, mode)
            got = chain.run_round(chain.Chain(), self.scaled(setup, factor), mode)
            assert self.decisions(got) == self.decisions(base)
            want = [None if t is None else t * factor for t in self.times(base)]
            assert self.times(got) == want


class TestVerificationExchange:
    def run_exchange(self, monkeypatch, tamper):
        setup = build_setup(n_nodes=9, n_pools=2, seed=2, n_verifiers=4)
        model = fed.DenseClassifier(setup.task.arch, seed=1)
        proofs, checks = [], []
        real_prove, real_verify = verify.prove, verify.verify

        def counting_prove(*args):
            proofs.append(args[1])
            return real_prove(*args)

        def counting_verify(com, sample, proof, pp):
            result = real_verify(com, sample, proof, pp)
            checks.append((sample, np.array(proof.y), result.accepted))
            return result

        monkeypatch.setattr(verify, "prove", counting_prove)
        monkeypatch.setattr(verify, "verify", counting_verify)
        outcome = chain.PoolOutcome(0, 0, [0, 1, 2], 100.0, None, False, 0.0, None, None)
        closed_form_exchange(setup, outcome, model, tamper)
        return model, proofs, checks

    @pytest.mark.parametrize("tamper", [False, True])
    def test_one_proof_per_challenge_and_every_verifier_checks(self, monkeypatch, tamper):
        model, proofs, checks = self.run_exchange(monkeypatch, tamper)
        assert len(proofs) == 1
        assert len(checks) == 4
        honest = model.predict(proofs[0])
        for sample, y, accepted in checks:
            assert np.array_equal(sample.x, proofs[0])
            assert accepted is not tamper
            # a tampered head sends the corrupted labels to every verifier
            assert np.array_equal(y, honest) is not tamper

    def test_challenge_carries_only_the_rows(self, monkeypatch):
        # the prover gets what a challenge message carries: the rows, not
        # the sample with its labels; the challenge depends only
        # on the commitment, so the exchange derives it once for every verifier
        derived = []
        real_derive = verify.derive_challenge

        def recording_derive(*args):
            derived.append(real_derive(*args))
            return derived[-1]

        monkeypatch.setattr(verify, "derive_challenge", recording_derive)
        _, proved, _ = self.run_exchange(monkeypatch, tamper=False)
        assert len(derived) == len(proved) == 1
        assert type(proved[0]) is np.ndarray
        for sample in derived:
            assert np.array_equal(proved[0], sample.x)

    def test_prover_and_every_verifier_link_their_own_chain(self, monkeypatch):
        # each party binds the rows it holds with one hash, and no row is
        # hashed on its own
        binds, hashed = [], []
        real_bind, real_sha256 = verify._bind, hashlib.sha256

        def counting_bind(com, x, y):
            binds.append(len(x))
            return real_bind(com, x, y)

        def counting_sha256(data):
            hashed.append(len(data))
            return real_sha256(data)

        monkeypatch.setattr(verify, "_bind", counting_bind)
        monkeypatch.setattr(verify, "hashlib", SimpleNamespace(sha256=counting_sha256))
        _, proofs, checks = self.run_exchange(monkeypatch, tamper=False)
        assert all(accepted for _, _, accepted in checks)
        assert binds == [len(proofs[0])] * (len(proofs) + len(checks)) == [250] * (1 + 4)
        # the head's commitment and the challenge seed, then each party
        # reopens the commitment and binds: the count does not grow with rows
        assert len(hashed) == 2 + 2 * (len(proofs) + len(checks))

    def test_race_builds_its_constants_once(self, monkeypatch):
        built, exchanges = [], []
        real_constants, real_exchange = chain._exchange_constants, chain._verification_exchange

        def counting_constants(setup):
            built.append(1)
            return real_constants(setup)

        def counting_exchange(*args):
            exchanges.append(1)
            return real_exchange(*args)

        monkeypatch.setattr(chain, "_exchange_constants", counting_constants)
        monkeypatch.setattr(chain, "_verification_exchange", counting_exchange)
        # every pool but 3 tampered: the tampered finishers ahead of pool 3
        # are exchanged and rejected, so each race runs several exchanges
        setup = grid_setup(60, 6, 0, tamper=[0, 1, 2, 4, 5])
        for rounds in (1, 2):
            assert chain.run_round(chain.Chain(), setup).winner_pool == 3
            # one build per round: nothing is reused from the round before
            assert len(built) == rounds
            assert len(exchanges) >= 2 * rounds


def exchange_latency(kind, n, seed):
    if kind == "uniform":
        return netsim.build_topology(n, seed=seed)
    latency = {
        "equal": lambda: np.full((n, n), 25.0),
        "zero": lambda: np.zeros((n, n)),
        # integer-valued and integer-typed: many arrivals land at equal times
        "integer": lambda: np.random.default_rng(seed).integers(1, 4, size=(n, n)),
        "tied": lambda: tied_links(n, seed),
    }[kind]()
    np.fill_diagonal(latency, 0)
    return latency


def tied_links(n, seed):
    """Integer links whose `(down, up)` from a lower node to a higher one is
    (2, 12) or (4, 1): with a proof of `netsim.SIZE_MULTIPLIER` (10) units,
    a verifier's vote arrives 11 * down + 2 * up = 46 ms after the commit
    leaves for either pair, and its proof at +34 or +45, so tied votes
    follow proofs that arrived at different times."""
    upper = np.triu(np.random.default_rng(seed).choice([2, 4], size=(n, n)), 1)
    return upper + np.where(upper == 2, 12, np.where(upper == 4, 1, 0)).T


class TestVerificationExchangeOracle:
    """The closed-form exchange sets every verification field of a
    `PoolOutcome` exactly as the event-driven replay does, vote order
    included."""

    @pytest.mark.parametrize("tamper", [False, True])
    @pytest.mark.parametrize("kind", ["uniform", "equal", "zero", "integer", "tied"])
    @pytest.mark.parametrize("n_verifiers", [1, 3, 5, 8])
    def test_fields_match_event_loop(self, n_verifiers, kind, tamper):
        base = build_setup(n_nodes=12, n_pools=2, seed=0)
        for seed in range(3):
            # a target any model meets, one a random model may miss, one it
            # misses
            task = replace(base.task, target=(1e-9, 0.3, 0.99)[seed])
            setup = replace(base, task=task, seed=seed, n_verifiers=n_verifiers,
                            latency=exchange_latency(kind, 12, seed))
            model = fed.DenseClassifier(task.arch, seed=seed)
            # a small pool (committee from outside it) and the whole network
            for pool_id, members in ((seed, [seed, seed + 4, seed + 7]), (0, list(range(12)))):
                got, want = (
                    chain.PoolOutcome(pool_id, members[0], members, 0.1 + 57.3 * seed, None, False,
                                      0.0, None, None)
                    for _ in range(2)
                )
                closed_form_exchange(setup, got, model, tamper)
                oracle_verify(setup, want, model, tamper)
                assert len(want.vote_times) == n_verifiers
                if tamper or seed == 0:
                    assert want.accepted is (not tamper)
                assert (got.accepted, got.measured_accuracy, got.accept_time, got.commitment,
                        got.proof_time) == (
                    want.accepted, want.measured_accuracy, want.accept_time, want.commitment,
                    want.proof_time)
                assert list(got.vote_times.items()) == list(want.vote_times.items())
                assert all(type(t) is float for t in got.vote_times.values())


class TestCommitteeDraw:
    """The committee draw (`chain._draw_committee`) picks the
    committee that the list-built draw picks, for pools inside a larger network and for a pool
    of the whole network (committee from every node but the head); a
    finisher with no node to draw from is rejected."""

    @pytest.mark.parametrize("n, n_verifiers", [(5, 3), (5, 8), (12, 1), (12, 3), (600, 3)])
    def test_same_committee_as_candidate_lists(self, n, n_verifiers):
        base = build_setup(n_nodes=4, n_pools=1, seed=0)
        latency = np.ones((n, n))
        np.fill_diagonal(latency, 0.0)
        for seed in range(4):
            setup = replace(base, seed=seed, latency=latency, n_verifiers=n_verifiers)
            head = (7 * seed) % n
            small = sorted({head, (head + 1) % n, (head + 3) % n})
            for pool_id, members in ((seed, small), (0, list(range(n)))):
                outcome = chain.PoolOutcome(pool_id, head, members, 1.0, None, False, 0.0, None,
                                            None)
                committee = chain._draw_committee(setup, outcome)
                votes = chain._vote_arrivals(
                    outcome.finish_time, chain._committee_links(setup, head, committee))
                assert committee == listed_committee(setup, outcome)
                assert all(type(v) is int for v in committee)
                assert head not in committee
                candidates = n - 1 if len(members) == n else n - len(members)
                assert len(votes) == len(committee) == min(n_verifiers, candidates)

    @pytest.mark.parametrize("n, p", [(20, 4), (60, 6), (200, 20)])
    def test_every_formed_pool_draws_the_listed_committee(self, n, p):
        for seed in range(3):
            setup = grid_setup(n, p, seed)
            assignment, _ = chain._form_pools(setup)
            for pool_id, pool in enumerate(assignment.pools):
                outcome = chain.PoolOutcome(pool_id, pool.head, list(pool.members), 1.0, None,
                                            False, 0.0, None, None)
                assert chain._draw_committee(setup, outcome) == listed_committee(setup, outcome)

    @pytest.mark.parametrize("head, members, drawn", [
        (1, [1, 2, 3, 5], [0, 4]),  # two candidates for four seats: both sit
        (0, [2, 3], [1, 4, 5]),  # a head outside its member list is excluded too
        (1, list(range(6)), [0, 2, 3, 4, 5]),  # no node outside: all but the head
    ])
    def test_short_or_empty_complement(self, head, members, drawn):
        setup = replace(build_setup(n_nodes=6, n_pools=1, seed=0), n_verifiers=4)
        for pool_id in range(8):
            outcome = chain.PoolOutcome(pool_id, head, members, 1.0, None, False, 0.0, None, None)
            committee = chain._draw_committee(setup, outcome)
            assert committee == listed_committee(setup, outcome)
            assert len(set(committee)) == len(committee) == min(4, len(drawn))
            assert set(committee) <= set(drawn)

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_pow_committee_same_as_candidate_list(self, n):
        # `_run_pow` draws its finder's committee with `_sample_nodes`
        # excluding the finder; the list-built draw is its oracle
        for seed in range(3):
            pow_seed = chain._derive_seed(seed, 1, "pow-committee")
            for finder in range(n):
                candidates = [v for v in range(n) if v != finder]
                for n_verifiers in (1, 3, 20):
                    size = min(n_verifiers, len(candidates))
                    listed = [int(v) for v in np.random.default_rng(pow_seed).choice(
                        candidates, size=size, replace=False)]
                    assert chain._sample_nodes(np.random.default_rng(pow_seed), n, [finder],
                                               n_verifiers) == listed

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_pow_round_draws_the_listed_committee(self, monkeypatch, n):
        drawn = []
        real_sample = chain._sample_nodes

        def recording_sample(rng, *args):
            drawn.append((rng.bit_generator.state, args))
            return real_sample(rng, *args)

        monkeypatch.setattr(chain, "_sample_nodes", recording_sample)
        for seed in range(3):
            setup = build_setup(n_nodes=n, n_pools=1, seed=seed, pow_difficulty=4)
            finder = chain.run_round(chain.Chain(), setup, "pow").block.proposer
            expected = np.random.default_rng(
                chain._derive_seed(seed, setup.task.task_id, "pow-committee"))
            assert drawn.pop() == (expected.bit_generator.state,
                                   (n, [finder], setup.n_verifiers))

    @pytest.mark.parametrize("mode", ["fedchain", "gfl_ring", "fedavg_central"])
    def test_finisher_without_committee_is_rejected(self, monkeypatch, mode):
        # a one-node network has no verifier for its only pool: the pool
        # finishes, its exchange runs with an empty committee and rejects
        exchanged = []
        real_exchange = chain._verification_exchange

        def recording_exchange(run, *args):
            real_exchange(run, *args)
            exchanged.append(((run.committee, run.votes), run.outcome.accepted,
                              run.outcome.commitment is not None))

        monkeypatch.setattr(chain, "_verification_exchange", recording_exchange)
        base = build_setup(n_nodes=2, n_pools=1, seed=0, target=1e-9)
        setup = replace(base, latency=np.zeros((1, 1)), compute_times=base.compute_times[:1],
                        miner_data=base.miner_data[:1])
        with pytest.raises(RoundFailedError):
            chain.run_round(chain.Chain(), setup, mode)
        assert exchanged == [(([], []), False, True)]

    def test_pow_finder_without_committee_fails_by_name(self):
        # the one node finds the preimage, and nobody is left to verify it
        base = build_setup(n_nodes=2, n_pools=1, seed=0, pow_difficulty=4)
        setup = replace(base, latency=np.zeros((1, 1)), compute_times=base.compute_times[:1],
                        miner_data=base.miner_data[:1])
        ledger = chain.Chain()
        with pytest.raises(RoundFailedError, match="no verifier"):
            chain.run_round(ledger, setup, "pow")
        assert len(ledger.blocks) == 1 and ledger.balances == {}


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20), st.floats(), st.text(max_size=8))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12,
)


class TestCanonicalJson:
    """Digests, block hashes and ledger records built with the prebuilt
    encoders are byte-equal to `json.dumps` with the same options."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(chain.TX_KINDS),
                              st.dictionaries(st.text(max_size=6), json_values, max_size=4),
                              st.integers(-5, 10**6), st.floats(allow_nan=False)),
                    max_size=4),
           st.one_of(st.none(), st.text(max_size=12)))
    def test_same_bytes_as_json_dumps(self, tmp_path_factory, txs, commitment):
        transactions = [chain.Transaction(*tx) for tx in txs]
        for tx in transactions:
            body = json.dumps({"kind": tx.kind, "payload": tx.payload, "author": tx.author,
                               "timestamp": tx.timestamp}, sort_keys=True, separators=(",", ":"))
            assert tx.digest() == hashlib.sha256(body.encode()).hexdigest()
        ledger = chain.Chain()
        block = chain.Block(1, ledger.head().hash(), 5.0, transactions, 0, 1, commitment)
        body = json.dumps({"height": 1, "prev_hash": block.prev_hash, "timestamp": 5.0,
                           "proposer": 0, "task_id": 1, "model_commitment": commitment,
                           "tx": [tx.digest() for tx in transactions]},
                          sort_keys=True, separators=(",", ":"))
        assert block.hash() == hashlib.sha256(body.encode()).hexdigest()
        ledger.append_block(block, {})
        path = tmp_path_factory.mktemp("ledger") / "ledger.jsonl"
        ledger.export_jsonl(str(path))
        want = []
        for b in ledger.blocks:
            want.append(json.dumps({"type": "block", "height": b.height, "prev_hash": b.prev_hash,
                                    "hash": b.hash(), "timestamp": b.timestamp,
                                    "proposer": b.proposer, "task_id": b.task_id,
                                    "model_commitment": b.model_commitment}, sort_keys=True))
            want.extend(json.dumps({"type": "tx", "height": b.height, "kind": tx.kind,
                                    "author": tx.author, "timestamp": tx.timestamp,
                                    "payload": tx.payload}, sort_keys=True)
                        for tx in b.transactions)
        assert path.read_text(encoding="utf-8") == "".join(line + "\n" for line in want)


CANONICAL_PAYLOADS = [
    0, -7, 2**63, True, False, None,
    0.1 + 0.2, 1e-7, 1e16, -0.0, 5e-324, 1.7976931348623157e308, float("inf"), float("nan"),
    [], {}, [1, [2.5, [None, {"b": [], "a": {"z": -0.0}}]]],
    {"é": "naïve ☃ 𝄞", "b": [True, "\u0000\n\"\\"], "a": {"d": 1e16, "c": [0.1 + 0.2]}},
    {"credits": {"12": 250, "3": 750}, "com": "ab" * 32, "measured": 0.9125},
]


class TestCanonicalJsonMatrix:
    """The prebuilt encoders give `json.dumps`' text with the same options,
    with the C encoder and without it."""

    @pytest.mark.parametrize("options", [{"separators": (",", ":")}, {}])
    @pytest.mark.parametrize("c_encoder", [True, False])
    def test_same_text_as_json_dumps(self, monkeypatch, options, c_encoder):
        if not c_encoder:
            monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        encode = chain._canonical_json(**options)
        for payload in CANONICAL_PAYLOADS:
            assert encode(payload) == json.dumps(payload, sort_keys=True, **options)
            record = {"type": "tx", "payload": payload, "timestamp": 0.1 + 0.2}
            assert encode(record) == json.dumps(record, sort_keys=True, **options)


class TestNoEventLoop:
    """A round computes every simulated time in closed form: it never
    sends, schedules or runs an event."""

    @pytest.mark.parametrize("mode", chain.MODES)
    def test_every_mode_runs_without_the_event_loop(self, monkeypatch, mode):
        def refuse(*args, **kwargs):
            raise AssertionError("a round used the event loop")

        for name in ("run_until_idle", "send", "schedule_at"):
            monkeypatch.setattr(netsim.Simulator, name, refuse)
        setup = build_setup(n_nodes=8, n_pools=2, seed=1, pow_difficulty=8)
        ledger = chain.Chain()
        assert chain.run_round(ledger, setup, mode).block.height == 1
        assert chain.validate_chain(ledger) == []

    def test_round_modules_do_not_import_the_simulator(self):
        assert not hasattr(chain, "Simulator")
        assert not hasattr(sharedring, "Simulator")


class TestOneBlockPath:
    """Every mode puts its block on the ledger through `_append_block`."""

    def test_only_the_helper_builds_a_round_block(self):
        builders = {
            fn.name for fn in ast.walk(ast.parse(inspect.getsource(chain)))
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "Block"
                for n in ast.walk(fn))
        }
        # the genesis block and a loaded ledger's blocks are not a round's
        assert builders == {"__init__", "load_chain_jsonl", "_append_block"}

    @pytest.mark.parametrize("mode", chain.MODES)
    def test_every_mode_appends_and_credits_once(self, monkeypatch, mode):
        calls = []
        real = chain._append_block

        def counting(ledger, *args):
            calls.append(args)
            return real(ledger, *args)

        monkeypatch.setattr(chain, "_append_block", counting)
        ledger = chain.Chain()
        setup = build_setup(n_nodes=8, n_pools=2, seed=1, pow_difficulty=8)
        result = chain.run_round(ledger, setup, mode)
        assert len(calls) == 1
        assert ledger.blocks == [ledger.blocks[0], result.block]
        assert ledger.balances == result.credits
        assert sum(result.credits.values()) == setup.task.reward


class TestCommitteeSize:
    """A round without a verifier is refused, in every mode, before any
    work."""

    @pytest.mark.parametrize("n_verifiers", [0, -1])
    @pytest.mark.parametrize("mode", chain.MODES)
    def test_refused_before_any_work(self, monkeypatch, mode, n_verifiers):
        calls = []
        monkeypatch.setattr(chain, "publish_task", lambda *a, **k: calls.append("publish"))
        monkeypatch.setattr(chain, "local_train", lambda *a, **k: calls.append("train"))
        setup = build_setup(n_nodes=6, n_pools=2, seed=1, n_verifiers=n_verifiers,
                            pow_difficulty=8)
        with pytest.raises(InvalidCommitteeError, match=f"got {n_verifiers}"):
            chain.run_round(chain.Chain(), setup, mode)
        assert calls == []

    def test_one_verifier_settles(self):
        setup = build_setup(n_nodes=6, n_pools=2, seed=1, n_verifiers=1)
        result = chain.run_round(chain.Chain(), setup)
        assert len(result.outcomes[result.winner_pool].vote_times) == 1


class TestNoiseWidth:
    """Masks cancel exactly, so the block does not depend on the mask width
    `fixedpoint.NOISE_BITS`, down to 0 bits and up to the 63 an int64 word
    holds."""

    def test_edge_widths_give_the_same_block(self, monkeypatch):
        setup = build_setup(n_nodes=8, n_pools=2, seed=2)
        hashes = set()
        for bits in (0, fixedpoint.NOISE_BITS, 63):
            monkeypatch.setattr(fixedpoint, "NOISE_BITS", bits)
            hashes.add(chain.run_round(chain.Chain(), setup).block.hash())
        assert len(hashes) == 1


class TestClaimSamples:
    """A learning round whose challenges are too small for an accuracy claim
    fails before any training."""

    @pytest.fixture
    def trained(self, monkeypatch):
        calls = []
        real_train = chain.local_train

        def counting_train(*args, **kwargs):
            calls.append(1)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(chain, "local_train", counting_train)
        return calls

    @pytest.mark.parametrize("mode", ["fedchain", "gfl_ring", "fedavg_central"])
    def test_small_held_out_refused_before_training(self, trained, mode):
        setup = build_setup(n_nodes=6, n_pools=2, seed=1)
        setup.task = replace(setup.task, held_out=setup.task.held_out.subset(np.arange(150)))
        with pytest.raises(InsufficientSamplesError):
            chain.run_round(chain.Chain(), setup, mode)
        assert trained == []

    def test_small_challenge_refused_before_training(self, monkeypatch, trained):
        monkeypatch.setattr(verify, "CHALLENGE_SIZE", verify.MIN_CLAIM_SAMPLES - 1)
        setup = build_setup(n_nodes=6, n_pools=2, seed=1)
        with pytest.raises(InsufficientSamplesError):
            chain.run_round(chain.Chain(), setup)
        assert trained == []

    def test_minimum_challenge_runs(self, trained):
        setup = build_setup(n_nodes=6, n_pools=2, seed=1)
        setup.task = replace(
            setup.task, held_out=setup.task.held_out.subset(np.arange(verify.MIN_CLAIM_SAMPLES))
        )
        result = chain.run_round(chain.Chain(), setup)
        assert result.outcomes[result.winner_pool].accepted
        assert trained

    def test_pow_needs_no_held_out(self):
        setup = build_setup(n_nodes=5, n_pools=1, seed=5, pow_difficulty=8)
        setup.task = replace(setup.task, held_out=setup.task.held_out.subset(np.arange(150)))
        assert chain.run_round(chain.Chain(), setup, "pow").block.height == 1


class TestBaselines:
    @pytest.mark.parametrize("mode", ["fedavg_central", "gfl_ring"])
    def test_baseline_produces_valid_block(self, mode):
        setup = build_setup(n_nodes=5, n_pools=1, seed=4)
        ledger = chain.Chain()
        result = chain.run_round(ledger, setup, mode)
        assert result.block.height == 1
        assert result.latency_ms > 0
        assert chain.validate_chain(ledger) == []

    def test_pow_seeded_reproducible(self):
        setup = build_setup(n_nodes=5, n_pools=1, seed=5, pow_difficulty=8)
        a = chain.run_round(chain.Chain(), setup, "pow")
        b = chain.run_round(chain.Chain(), setup, "pow")
        assert a.latency_ms == b.latency_ms
        assert a.block.proposer == b.block.proposer

    def test_pow_expected_trials_scale(self):
        # Over nodes and seeds, mean trials should be near 2^d.
        trials = []
        for seed in range(3):
            setup = build_setup(n_nodes=6, n_pools=1, seed=20 + seed, pow_difficulty=6,
                                pow_trial_ms=1.0)
            result = chain.run_round(chain.Chain(), setup, "pow")
            trials.append(result.latency_ms)
        # winner is min over 6 nodes of Geometric(2^-6) trials; crude sanity band
        assert 1.0 <= np.mean(trials) < 6 * 64


class TestPowRange:
    """A `pow` round built in code is refused, before any draw, at a
    difficulty or trial cost the config file refuses too."""

    @pytest.mark.parametrize("overrides, message", [
        ({"pow_difficulty": 300}, "pow_difficulty must be in [0, 56], got 300"),
        ({"pow_difficulty": 1100}, "pow_difficulty must be in [0, 56], got 1100"),
        ({"pow_difficulty": -1}, "pow_difficulty must be in [0, 56], got -1"),
        ({"pow_difficulty": math.nan}, "pow_difficulty must be in [0, 56], got nan"),
        ({"pow_trial_ms": -1.0}, "pow_trial_ms must be finite and >= 0, got -1.0"),
        ({"pow_trial_ms": math.nan}, "pow_trial_ms must be finite and >= 0, got nan"),
        ({"pow_trial_ms": math.inf}, "pow_trial_ms must be finite and >= 0, got inf"),
    ])
    def test_refused_before_any_draw(self, monkeypatch, overrides, message):
        def refuse(*args, **kwargs):
            raise AssertionError("a refused round drew")

        setup = build_setup(n_nodes=6, n_pools=1, seed=5, **overrides)
        monkeypatch.setattr(chain, "publish_task", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        ledger = chain.Chain()
        with pytest.raises(InvalidPowSettingsError) as err:
            chain.run_round(ledger, setup, "pow")
        assert str(err.value) == f"task 1: {message}"
        assert ledger.blocks == [ledger.blocks[0]] and ledger.balances == {}


def grind_trials(seed, task_id, node, difficulty):
    """Nonces a node grinds, one SHA-256 each, until a digest falls below
    2^(256 - difficulty): a Geometric(2^-difficulty) count."""
    threshold = 1 << (256 - difficulty)
    material = f"{seed}/{task_id}/{node}".encode()
    for nonce in itertools.count():
        digest = hashlib.sha256(material + nonce.to_bytes(8, "little")).digest()
        if int.from_bytes(digest, "big") < threshold:
            return nonce + 1


class TestPowTrialDistribution:
    """The closed form's trial counts follow the grinding oracle's law."""

    DIFFICULTY, NODES, SEEDS = 6, 20, 200

    def closed_form_trials(self, monkeypatch):
        """Every node's trial count in `_run_pow`, read off the finish times
        it ranks, over `SEEDS` rounds with free links and 1-ms trials."""
        base = build_setup(n_nodes=self.NODES, n_pools=1, seed=0,
                           pow_difficulty=self.DIFFICULTY, pow_trial_ms=1.0)
        base = replace(base, latency=np.zeros((self.NODES, self.NODES)))
        ranked = []
        argmin = np.argmin

        def recording_argmin(a, *args, **kwargs):
            ranked.append(np.array(a))
            return argmin(a, *args, **kwargs)

        monkeypatch.setattr(np, "argmin", recording_argmin)
        for seed in range(self.SEEDS):
            chain.run_round(chain.Chain(), replace(base, seed=seed), "pow")
        monkeypatch.undo()
        assert len(ranked) == self.SEEDS and all(r.shape == (self.NODES,) for r in ranked)
        trials = np.concatenate(ranked)
        assert np.array_equal(trials, np.round(trials))
        return trials, base.task.task_id

    def test_matches_the_grinding_oracle(self, monkeypatch):
        got, task_id = self.closed_form_trials(monkeypatch)
        want = np.array([grind_trials(seed, task_id, node, self.DIFFICULTY)
                         for seed in range(self.SEEDS) for node in range(self.NODES)], dtype=float)
        n = len(got)
        assert n == len(want) >= 4000
        support = np.union1d(got, want)
        cdf = [np.searchsorted(np.sort(x), support, side="right") / n for x in (got, want)]
        ks = np.abs(cdf[0] - cdf[1]).max()
        assert ks < 1.63 * np.sqrt(2 / n)  # two-sample KS at the 1% level
        stderr = np.sqrt((got.var(ddof=1) + want.var(ddof=1)) / n)
        assert abs(got.mean() - want.mean()) < 5 * stderr
        assert got.min() >= 1 and want.min() >= 1

    def test_draw_has_no_loop_over_nodes_or_nonces(self):
        # the one generator left runs over the verifier committee
        tree = ast.parse(inspect.getsource(chain._run_pow))
        assert not any(isinstance(n, (ast.For, ast.While)) for n in ast.walk(tree))
        loops = [n for n in ast.walk(tree) if isinstance(n, ast.comprehension)]
        assert [ast.unparse(n.iter) for n in loops] == ["committee"]


def oracle_fedavg_central(ledger, setup, offset=0.0):
    """The `fedavg_central` loop before the baselines ran on the pool engine,
    from a barrier `offset` ms after 0."""
    task = setup.task
    publish_tx = chain.publish_task(task)
    coord = chain.PUBLISHER
    nodes = list(range(setup.n_nodes))
    weights_vec = fed.fedavg_weights([len(setup.miner_data[m]) for m in nodes])
    model = fed.DenseClassifier(task.arch, seed=chain._derive_seed(setup.seed, task.task_id, "init"))
    su = int(netsim.SIZE_MULTIPLIER)
    now = 0.0 + offset
    metrics = []
    finish = None
    for round_idx in range(setup.max_rounds):
        ready = []
        for m in nodes:
            receive = now if m == coord else now + float(setup.latency[coord, m]) * su
            ready.append(receive + float(setup.compute_times[m]))
        trained = [
            fed.local_train(model, setup.miner_data[m], setup.train,
                            seed=chain._derive_seed(setup.seed, task.task_id, 0, round_idx, m))
            for m in nodes
        ]
        busy = 0.0
        for m, r in sorted(zip(nodes, ready), key=lambda kv: (kv[1], kv[0])):
            if m == coord:
                busy = max(busy, r)
            else:
                busy = max(busy, r) + float(setup.latency[m, coord]) * su
        now = busy
        model = model.clone(fed.aggregate([t.weights for t in trained], weights_vec))
        accuracy = fed.evaluate(model, task.example)
        metrics.append(fed.RoundMetrics(accuracy, now))
        if now > task.deadline:
            break
        if accuracy >= task.target:
            finish = now
            break
    return oracle_finish_baseline(ledger, setup, publish_tx, model, finish, weights_vec, nodes,
                                  metrics, coord)


def oracle_gfl_ring(ledger, setup, offset=0.0):
    """The `gfl_ring` loop before the baselines ran on the pool engine,
    from a barrier `offset` ms after the last node has the task."""
    task = setup.task
    publish_tx = chain.publish_task(task)
    nodes = list(range(setup.n_nodes))
    weights_vec = fed.fedavg_weights([len(setup.miner_data[m]) for m in nodes])
    model = fed.DenseClassifier(task.arch, seed=chain._derive_seed(setup.seed, task.task_id, "init"))
    k = len(nodes)
    barrier = max(
        float(setup.latency[chain.PUBLISHER, m]) if m != chain.PUBLISHER else 0.0 for m in nodes
    ) + offset
    metrics = []
    finish = None
    for round_idx in range(setup.max_rounds):
        trained = [
            fed.local_train(model, setup.miner_data[m], setup.train,
                            seed=chain._derive_seed(setup.seed, task.task_id, 0, round_idx, m))
            for m in nodes
        ]
        vectors = [fixedpoint.encode(t.weights * (w * k)) for t, w in zip(trained, weights_vec)]
        session = sharedring.RingSession(setup.latency, nodes, vectors, masks=None)
        session.start(barrier, [barrier + float(setup.compute_times[m]) for m in nodes])
        barrier = max(session.completion.values())
        model = model.clone(fixedpoint.decode(session.total) / k)
        accuracy = fed.evaluate(model, task.example)
        metrics.append(fed.RoundMetrics(accuracy, barrier))
        if barrier > task.deadline:
            break
        if accuracy >= task.target:
            finish = barrier
            break
    return oracle_finish_baseline(ledger, setup, publish_tx, model, finish, weights_vec, nodes,
                                  metrics, chain.PUBLISHER)


def oracle_finish_baseline(ledger, setup, publish_tx, model, finish, weights_vec, members,
                           metrics, committer):
    """Honest verification of the whole-network pool, then its block."""
    if finish is None:
        raise RoundFailedError(f"task {setup.task.task_id}: target not reached before the deadline")
    outcome = chain.PoolOutcome(0, committer, members, finish, None, False, 0.0, weights_vec,
                                None, metrics=metrics)
    oracle_verify(setup, outcome, model, False)
    if not outcome.accepted:
        raise RoundFailedError(f"task {setup.task.task_id}: baseline proof rejected")
    return chain._settle(ledger, setup, publish_tx, outcome, [outcome], None, {})


BASELINE_ORACLES = {"gfl_ring": oracle_gfl_ring, "fedavg_central": oracle_fedavg_central}


def baseline_and_oracle(setup, mode):
    """The engine's and the oracle's round on fresh ledgers; (None, None)
    when both raise RoundFailedError."""
    try:
        oracle = BASELINE_ORACLES[mode](chain.Chain(), setup)
    except RoundFailedError:
        with pytest.raises(RoundFailedError):
            chain.run_round(chain.Chain(), setup, mode)
        return None, None
    return chain.run_round(chain.Chain(), setup, mode), oracle


def assert_same_baseline(got, oracle):
    assert got.block.hash() == oracle.block.hash()
    assert got.latency_ms == oracle.latency_ms
    assert got.credits == oracle.credits
    assert (got.winner_pool, got.accuracy) == (oracle.winner_pool, oracle.accuracy)
    assert (got.assignment, got.start_times) == (None, {})
    [a], [b] = got.outcomes, oracle.outcomes
    assert a.metrics == b.metrics
    assert (a.head, a.members, a.finish_time, a.accept_time, a.accepted, a.measured_accuracy,
            a.commitment, a.proof_time, a.vote_times, a.abandoned_at) == (
        b.head, b.members, b.finish_time, b.accept_time, b.accepted, b.measured_accuracy,
        b.commitment, b.proof_time, b.vote_times, b.abandoned_at)
    assert np.array_equal(a.weights, b.weights)


@pytest.mark.parametrize("mode", ["gfl_ring", "fedavg_central"])
class TestBaselineOracle:
    """`gfl_ring` and `fedavg_central`, run as one-pool races on the pool
    engine, produce the round of their former standalone loops bit for
    bit."""

    @pytest.mark.parametrize("n", [5, 20, 50, 120])
    def test_matches_oracle_over_seeds(self, mode, n):
        blocks = 0
        for seed in range(4):  # the publisher heads the pool and commits
            got, oracle = baseline_and_oracle(grid_setup(n, max(1, n // 10), seed), mode)
            if oracle is not None:
                assert_same_baseline(got, oracle)
                blocks += 1
        assert blocks >= 3

    def test_tampered_pool_zero_is_ignored(self, mode):
        # baselines never tamper, so pool 0 (the whole network) still wins
        for seed in range(2):
            got, oracle = baseline_and_oracle(grid_setup(20, 2, seed, tamper=[0]), mode)
            assert_same_baseline(got, oracle)
            assert got.outcomes[0].accepted

    def test_deadline_at_the_finish(self, mode):
        setup = grid_setup(20, 2, 1)
        finish = BASELINE_ORACLES[mode](chain.Chain(), setup).outcomes[0].finish_time
        setup.task.deadline = finish
        got, oracle = baseline_and_oracle(setup, mode)
        assert_same_baseline(got, oracle)
        setup.task.deadline = np.nextafter(finish, -np.inf)
        assert baseline_and_oracle(setup, mode) == (None, None)

    @pytest.mark.parametrize("deadline", [1.0, 150.0])
    def test_tight_deadline_fails_in_both(self, mode, deadline):
        setup = grid_setup(20, 2, 2)
        setup.task.deadline = deadline
        assert baseline_and_oracle(setup, mode) == (None, None)

    def test_no_round_budget_fails_in_both(self, mode):
        assert baseline_and_oracle(grid_setup(20, 2, 0, max_rounds=0), mode) == (None, None)


class TestRewards:
    def test_proportional_split(self):
        credits = chain.split_reward(100, np.array([0.75, 0.25]), [3, 4])
        assert credits == {3: 75, 4: 25}

    def test_conservation_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k = int(rng.integers(1, 8))
            w = rng.dirichlet(np.ones(k))
            reward = int(rng.integers(1, 10_000))
            credits = chain.split_reward(reward, w, list(range(k)))
            assert sum(credits.values()) == reward

    def test_refused_second_block_credits_nothing(self):
        ledger = chain.Chain()
        setup = build_setup(n_nodes=4, n_pools=1, seed=6)
        result = chain.run_round(ledger, setup)
        before = dict(ledger.balances)
        head = ledger.head()
        again = chain.Block(head.height + 1, head.hash(), head.timestamp, [], head.proposer,
                            head.task_id, head.model_commitment)
        with pytest.raises(DuplicateTaskBlockError):
            ledger.append_block(again, result.credits)
        assert ledger.balances == before
        assert ledger.blocks == [ledger.blocks[0], result.block]

    def test_balances_sum_to_reward(self):
        ledger = chain.Chain()
        setup = build_setup(n_nodes=4, n_pools=1, seed=6)
        chain.run_round(ledger, setup)
        assert sum(ledger.balances.values()) == setup.task.reward


class TestValidateChain:
    def make_chain(self):
        ledger = chain.Chain()
        setup = build_setup(n_nodes=4, n_pools=1, seed=8)
        chain.run_round(ledger, setup)
        return ledger

    def test_fresh_chain_ok(self):
        assert chain.validate_chain(self.make_chain()) == []

    def test_mutated_payload_breaks_hash_link(self):
        ledger = self.make_chain()
        setup = build_setup(n_nodes=4, n_pools=1, seed=9)
        setup.task.task_id = 2
        chain.run_round(ledger, setup)
        ledger.blocks[1].transactions[0].payload["reward"] = 10**6
        violations = chain.validate_chain(ledger)
        assert any("height 2" in v and "hash link" in v for v in violations)

    def test_commit_after_proof_flagged(self):
        ledger = chain.Chain()
        txs = [
            chain.Transaction("TaskPublish", {"task_id": 5}, 0, 0.0),
            chain.Transaction("ModelCommit", {"com": "aa"}, 1, 50.0),
            chain.Transaction("ProofSubmit", {"com": "aa"}, 1, 10.0),
        ]
        block = chain.Block(1, ledger.head().hash(), 60.0, txs, 1, 5, "aa")
        ledger.blocks.append(block)
        violations = chain.validate_chain(ledger)
        assert any("challenge derived before commitment" in v for v in violations) or any(
            "timestamps out of order" in v for v in violations
        )

    def test_duplicate_task_flagged(self):
        ledger = chain.Chain()
        for _ in range(2):
            block = chain.Block(
                ledger.head().height + 1, ledger.head().hash(), 1.0, [], 0, 7, None
            )
            ledger.blocks.append(block)
        assert any("duplicate" in v for v in chain.validate_chain(ledger))


def test_ledger_export_roundtrip(tmp_path):
    ledger = chain.Chain()
    setup = build_setup(n_nodes=4, n_pools=1, seed=12)
    chain.run_round(ledger, setup)
    path = tmp_path / "ledger.jsonl"
    ledger.export_jsonl(str(path))
    loaded = chain.load_chain_jsonl(str(path))
    assert chain.validate_chain(loaded) == []
    assert loaded.blocks[1].hash() == ledger.blocks[1].hash()


# SHA-256 of `export_jsonl` after one round of `grid_setup(20, 4, seed)`, made on
# the numpy release below; another release may round a reduction differently.
LEDGER_PINNED_ON = "numpy 2.4.6"
LEDGER_EXPORT_SHA256 = {
    ("fedchain", 0): "0ff71600e132f9e3b326ea56928ebb56e0144bfc2f8adabd02dc7a74b8865f04",
    ("fedchain", 3): "74bfcded59682818e6b3b3ec4c11c8489cdc9fb785fe6f2bb8ea040b9bff6817",
    ("fedavg_central", 0): "ab83617887936262a84e1e79f596415402c3641d234c9bce9876abb85e334e8f",
    ("fedavg_central", 3): "0782aa4c11dd4055891743052696f4faebc0fa9774e83fd21e6471570969b569",
    ("pow", 0): "98d719c82298ea0f936698512afb166b0923436077ac5d7ec33eab97390548ca",
    ("pow", 3): "ab79a391ed13459f0245d6a2210a9a62a1c5aa98b148ae67d071208634c487ce",
    ("gfl_ring", 0): "d01864e92092e7e6f475205ee00cceceb9691b65e0343950a88d4a2bea65fd58",
    ("gfl_ring", 3): "86fc2601e89ca8703e724d37ac1f1288ef1233290f31ffe5cdba1c554552bb97",
}


@pytest.mark.parametrize("mode,seed", sorted(LEDGER_EXPORT_SHA256))
def test_ledger_export_bytes(tmp_path, mode, seed):
    ledger = chain.Chain()
    chain.run_round(ledger, grid_setup(20, 4, seed), mode)
    path = tmp_path / "ledger.jsonl"
    ledger.export_jsonl(str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == LEDGER_EXPORT_SHA256[mode, seed], (
        f"{mode} seed {seed} ledger digest {digest} "
        f"(pinned on {LEDGER_PINNED_ON}, ran on numpy {np.__version__})"
    )


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("mode", chain.MODES)
def test_export_load_export_same_bytes(tmp_path, mode, seed):
    ledger = chain.Chain()
    chain.run_round(ledger, grid_setup(20, 4, seed), mode)
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    ledger.export_jsonl(str(first))
    chain.load_chain_jsonl(str(first)).export_jsonl(str(second))
    assert second.read_bytes() == first.read_bytes()


def setup_digests(setup):
    """SHA-256 of every array a round reads from its setup: the latency,
    the compute times, each miner's data, the example and the held-out set."""
    datasets = [*setup.miner_data, setup.task.example, setup.task.held_out]
    arrays = [setup.latency, setup.compute_times] + [a for d in datasets for a in (d.x, d.y)]
    return [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for a in arrays]


@pytest.mark.parametrize("seed", [0, 3])
def test_a_round_leaves_its_setup_unchanged(tmp_path, seed):
    """Every mode run twice on one shared setup gives the latency, winner,
    credits and ledger export bytes of a run on a fresh setup, and the
    shared setup's arrays hash the same before and after."""

    def result(setup, mode):
        ledger = chain.Chain()
        got = chain.run_round(ledger, setup, mode)
        path = tmp_path / "ledger.jsonl"
        ledger.export_jsonl(str(path))
        return got.latency_ms, got.winner_pool, got.credits, path.read_bytes()

    shared = grid_setup(20, 4, seed)
    before = setup_digests(shared)
    for mode in chain.MODES:
        fresh = result(grid_setup(20, 4, seed), mode)
        for _ in range(2):
            assert result(shared, mode) == fresh
    assert setup_digests(shared) == before


class TestLedgerIntegrity:
    """Edits to an exported ledger that keep every hash link intact."""

    def export(self, tmp_path):
        ledger = chain.Chain()
        chain.run_round(ledger, build_setup(n_nodes=6, n_pools=2, seed=12))
        path = tmp_path / "ledger.jsonl"
        ledger.export_jsonl(str(path))
        return path, [json.loads(line) for line in path.read_text().splitlines()]

    def rewrite(self, path, records):
        path.write_text(
            "".join((r if isinstance(r, str) else json.dumps(r, sort_keys=True)) + "\n"
                    for r in records)
        )

    def tamper_proposer(self, records):
        head = max(r["height"] for r in records)
        for r in records:
            if r["type"] == "block" and r["height"] == head:
                r["proposer"] = 999
        return head

    def tamper_credit(self, records):
        for r in records:
            if r["type"] == "tx" and r["kind"] == "RewardSettle":
                credits = r["payload"]["credits"]
                node = sorted(credits)[0]
                credits[node] += 10**6
                return r["height"]
        raise AssertionError("no RewardSettle transaction")

    @pytest.mark.parametrize("mutation", ["tamper_proposer", "tamper_credit"])
    def test_load_raises_naming_the_height(self, tmp_path, mutation):
        path, records = self.export(tmp_path)
        height = getattr(self, mutation)(records)
        self.rewrite(path, records)
        with pytest.raises(LedgerIntegrityError, match=f"^height {height}:"):
            chain.load_chain_jsonl(str(path))

    @pytest.mark.parametrize("mutation", ["tamper_proposer", "tamper_credit"])
    def test_validate_chain_cli_reports_violation(self, tmp_path, capsys, mutation):
        path, records = self.export(tmp_path)
        height = getattr(self, mutation)(records)
        self.rewrite(path, records)
        assert cli.main(["validate-chain", str(path)]) == 1
        assert f"violation: height {height}:" in capsys.readouterr().out

    @staticmethod
    def line_of(records, kind, height):
        return next(i for i, r in enumerate(records) if r["type"] == kind and r["height"] == height)

    def tx_height_99(self, records):
        i = self.line_of(records, "tx", 1)
        records[i]["height"] = 99
        return i, "tx for height 99 before its block record"

    def block_height_99(self, records):
        records[self.line_of(records, "block", 1)]["height"] = 99
        return self.line_of(records, "tx", 1), "tx for height 1 before its block record"

    def block_height_string(self, records):
        i = self.line_of(records, "block", 1)
        records[i]["height"] = "x"
        return i, "height 'x' is not an integer"

    def block_type_flipped(self, records):
        i = self.line_of(records, "block", 1)
        records[i]["type"] = "tx"
        return i, "tx record lacks ['kind', 'author', 'payload']"

    def tx_type_flipped(self, records):
        i = self.line_of(records, "tx", 1)
        records[i]["type"] = "block"
        return i, "block record lacks ['prev_hash', 'hash', 'proposer', 'task_id', 'model_commitment']"

    def unknown_type(self, records):
        i = self.line_of(records, "tx", 1)
        records[i]["type"] = "note"
        return i, "not a block or tx record"

    def missing_field(self, records):
        i = self.line_of(records, "block", 1)
        del records[i]["proposer"]
        return i, "block record lacks ['proposer']"

    def repeated_height(self, records):
        i = self.line_of(records, "block", 1)
        records[i]["height"] = 0
        return i, "repeated block height 0"

    def not_json(self, records):
        i = self.line_of(records, "tx", 1)
        records[i] = json.dumps(records[i])[:-1]
        return i, "not JSON"

    @pytest.mark.parametrize(
        "mutation",
        ["tx_height_99", "block_height_99", "block_height_string", "block_type_flipped",
         "tx_type_flipped", "unknown_type", "missing_field", "repeated_height", "not_json"],
    )
    def test_malformed_line_named(self, tmp_path, capsys, mutation):
        path, records = self.export(tmp_path)
        index, message = getattr(self, mutation)(records)
        self.rewrite(path, records)
        with pytest.raises(LedgerIntegrityError) as err:
            chain.load_chain_jsonl(str(path))
        assert str(err.value) == f"line {index + 1}: {message}"
        assert cli.main(["validate-chain", str(path)]) == 1
        assert capsys.readouterr().out == f"violation: line {index + 1}: {message}\n"

    def test_ledger_without_its_genesis_record_is_refused(self, tmp_path, capsys):
        path, records = self.export(tmp_path)
        assert (records[0]["type"], records[0]["height"]) == ("block", 0)
        self.rewrite(path, records[1:])
        with pytest.raises(LedgerIntegrityError, match="^no genesis record: no block at height 0$"):
            chain.load_chain_jsonl(str(path))
        assert cli.main(["validate-chain", str(path)]) == 1
        assert capsys.readouterr().out == "violation: no genesis record: no block at height 0\n"

    def test_untouched_rewrite_still_loads(self, tmp_path):
        path, records = self.export(tmp_path)
        self.rewrite(path, records)
        assert chain.validate_chain(chain.load_chain_jsonl(str(path))) == []


def field_paths(value, prefix=()):
    """Paths (dict keys and list indices) to every field below a JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    paths = []
    for key, child in items:
        paths.append(prefix + (key,))
        paths.extend(field_paths(child, prefix + (key,)))
    return paths


def near_values(old):
    """Replacements that differ from `old` only slightly or only in type."""
    values = [str(old), [old], None]
    if isinstance(old, (int, float)) and not isinstance(old, bool):
        values += [old + 1, old - 1, float(old), -old]
        if float(old).is_integer():
            values.append(int(old))
    if isinstance(old, str):
        values += [old[:-1], old + "0", old.upper()]
    return values


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


class TestLedgerMutationProperty:
    """Any single-field edit of an exported fedchain ledger is caught: the
    load raises LedgerIntegrityError or the validator reports a violation,
    and nothing else is raised."""

    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        ledger = chain.Chain()
        setup = experiments.build_round_setup(experiments.ExperimentConfig(), 20, 2, 0)
        chain.run_round(ledger, setup, "fedchain")
        directory = tmp_path_factory.mktemp("ledger")
        ledger.export_jsonl(str(directory / "ledger.jsonl"))
        records = [json.loads(line) for line in (directory / "ledger.jsonl").read_text().splitlines()]
        return directory, records

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_single_field_mutation_is_caught(self, exported, data):
        directory, records = exported
        records = copy.deepcopy(records)
        record = records[data.draw(st.integers(0, len(records) - 1), label="line")]
        path = data.draw(st.sampled_from(field_paths(record)), label="field")
        parent = record
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        if data.draw(st.booleans(), label="delete"):
            del parent[path[-1]]
        else:
            new = data.draw(st.one_of(st.sampled_from(near_values(old)), JSON_VALUES), label="new")
            assume(json.dumps(new, sort_keys=True) != json.dumps(old, sort_keys=True))
            parent[path[-1]] = new
        target = directory / "mutated.jsonl"
        target.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        try:
            loaded = chain.load_chain_jsonl(str(target))
        except LedgerIntegrityError:
            return
        assert chain.validate_chain(loaded)

    def test_unmutated_rewrite_is_clean(self, exported):
        directory, records = exported
        target = directory / "unmutated.jsonl"
        target.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        assert target.read_text() == (directory / "ledger.jsonl").read_text()
        assert chain.validate_chain(chain.load_chain_jsonl(str(target))) == []


class TestReexportedMutationProperty:
    """Any edit of one field of the head block or one of its transactions,
    made in memory and then exported with fresh hashes, reaches the
    validator. Loading it raises LedgerIntegrityError or gives a chain that
    validate_chain audits; nothing else is raised."""

    BLOCK_FIELDS = ("height", "prev_hash", "timestamp", "proposer", "task_id", "model_commitment")
    TX_FIELDS = ("kind", "author", "timestamp", "payload")

    @pytest.fixture(scope="class")
    def ledger(self):
        ledger = chain.Chain()
        setup = experiments.build_round_setup(experiments.ExperimentConfig(), 20, 2, 0)
        chain.run_round(ledger, setup, "fedchain")
        return ledger

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutation_never_crashes_the_validator(self, ledger, tmp_path_factory, data):
        ledger = copy.deepcopy(ledger)
        block = ledger.head()
        target = data.draw(st.sampled_from([block, *block.transactions]), label="record")
        paths = [(f,) for f in (self.BLOCK_FIELDS if target is block else self.TX_FIELDS)]
        if target is not block:
            paths += [("payload", *p) for p in field_paths(target.payload)]
        path = data.draw(st.sampled_from(paths), label="field")
        if len(path) == 1:
            parent, key, old = None, path[0], getattr(target, path[0])
        else:
            parent = target.payload
            for key in path[1:-1]:
                parent = parent[key]
            key = path[-1]
            old = parent[key]
        if parent is not None and data.draw(st.booleans(), label="delete"):
            del parent[key]
        else:
            new = data.draw(
                st.one_of(st.sampled_from(near_values(old) + list(chain.TX_KINDS)), JSON_VALUES),
                label="new",
            )
            assume(json.dumps(new, sort_keys=True) != json.dumps(old, sort_keys=True))
            if parent is None:
                setattr(target, key, new)
            else:
                parent[key] = new
        path = tmp_path_factory.mktemp("reexport") / "ledger.jsonl"
        ledger.export_jsonl(str(path))
        try:
            loaded = chain.load_chain_jsonl(str(path))
        except LedgerIntegrityError:
            return
        violations = chain.validate_chain(loaded)
        assert all(isinstance(v, str) for v in violations)


class TestLedgerClaims:
    """Edits to a ledger that is then re-exported, so every stored hash and
    hash link is recomputed and only the block's own claims can betray it."""

    def reexported(self, tmp_path, mode="fedchain", mutate=None):
        ledger = chain.Chain()
        setup = experiments.build_round_setup(experiments.ExperimentConfig(), 20, 2, 0)
        chain.run_round(ledger, setup, mode)
        if mutate is not None:
            mutate(ledger.head())
        path = tmp_path / "ledger.jsonl"
        ledger.export_jsonl(str(path))
        return chain.load_chain_jsonl(str(path))

    @staticmethod
    def txs(block, kind):
        return [tx for tx in block.transactions if tx.kind == kind]

    @pytest.mark.parametrize("mode", chain.MODES)
    def test_clean_ledger_has_no_violations(self, tmp_path, mode):
        assert chain.validate_chain(self.reexported(tmp_path, mode)) == []

    @pytest.mark.parametrize("mode", chain.MODES)
    def test_nan_timestamps_flagged_by_name(self, tmp_path, mode):
        def mutate(block):
            block.timestamp = block.transactions[-1].timestamp = math.nan

        loaded = self.reexported(tmp_path, mode, mutate)
        last = loaded.head().transactions[-1]
        assert chain.validate_chain(loaded) == [
            "height 1: block timestamp nan is not a finite number",
            f"height 1: transaction {len(loaded.head().transactions) - 1}: "
            f"{last.kind} timestamp nan is not a finite number",
        ]

    @pytest.mark.parametrize("value", [math.inf, -math.inf, "0.0", None, True])
    def test_block_timestamp_not_a_finite_number_flagged(self, tmp_path, value):
        def mutate(block):
            block.timestamp = value

        violations = chain.validate_chain(self.reexported(tmp_path, "pow", mutate))
        assert violations == [f"height 1: block timestamp {value!r} is not a finite number"]

    def test_huge_integer_timestamp_is_a_number(self, tmp_path):
        def mutate(block):
            block.timestamp = 10**400

        assert chain.validate_chain(self.reexported(tmp_path, "pow", mutate)) == []

    def test_foreign_proposer_flagged(self, tmp_path):
        def mutate(block):
            block.proposer = 999

        violations = chain.validate_chain(self.reexported(tmp_path, mutate=mutate))
        assert violations == ["height 1: proposer is not the model committer"]

    def test_inflated_credit_flagged(self, tmp_path):
        def mutate(block):
            credits = self.txs(block, "RewardSettle")[0].payload["credits"]
            credits[sorted(credits)[0]] += 10**6

        violations = chain.validate_chain(self.reexported(tmp_path, mutate=mutate))
        assert violations == ["height 1: credits do not sum to the task reward"]

    def test_credit_outside_committing_pool_flagged(self, tmp_path):
        def mutate(block):
            committed = self.txs(block, "ModelCommit")[0].payload["pool"]
            register = next(
                tx for tx in self.txs(block, "PoolRegister") if tx.payload["pool"] == committed
            )
            outsider = next(n for n in range(20) if n not in register.payload["members"])
            credits = self.txs(block, "RewardSettle")[0].payload["credits"]
            credits[str(outsider)] = credits.pop(sorted(credits)[0])

        violations = chain.validate_chain(self.reexported(tmp_path, mutate=mutate))
        assert len(violations) == 1
        assert "outside the committing pool" in violations[0]

    def test_rejecting_vote_flagged(self, tmp_path):
        def mutate(block):
            self.txs(block, "VerifyVote")[0].payload["accept"] = False

        violations = chain.validate_chain(self.reexported(tmp_path, mutate=mutate))
        assert len(violations) == 1
        assert "does not accept" in violations[0]

    def test_unknown_kind_reported(self, tmp_path):
        def mutate(block):
            self.txs(block, "VerifyVote")[0].kind = "Bogus"

        violations = chain.validate_chain(self.reexported(tmp_path, mutate=mutate))
        assert len(violations) == 1
        assert violations[0].endswith("unknown transaction kind 'Bogus'")

    def test_credits_list_reported(self, tmp_path):
        def mutate(block):
            settle = self.txs(block, "RewardSettle")[0]
            settle.payload["credits"] = list(settle.payload["credits"].values())

        violations = chain.validate_chain(self.reexported(tmp_path, mutate=mutate))
        assert len(violations) == 1
        assert violations[0].endswith("credits are not a map of node to integer amount")

    def test_reward_settled_off_the_block_time_flagged(self, tmp_path):
        def mutate(block):
            self.txs(block, "RewardSettle")[0].timestamp = block.timestamp + 1.0

        loaded = self.reexported(tmp_path, mutate=mutate)
        block = loaded.head()
        assert chain.validate_chain(loaded) == [
            f"height 1: reward settled at {block.timestamp + 1.0}, "
            f"not at the block timestamp {block.timestamp}"
        ]

    @pytest.mark.parametrize("members", [
        lambda m: [], lambda m: [m[0] + 1, *m], lambda m: [str(n) for n in m],
    ])
    def test_register_not_led_by_its_head_flagged(self, tmp_path, members):
        def mutate(block):
            committed = self.txs(block, "ModelCommit")[0].payload["pool"]
            register = next(tx for tx in self.txs(block, "PoolRegister")
                            if tx.payload["pool"] != committed)
            register.payload["members"] = members(register.payload["members"])
            self.pool = register.payload["pool"]

        violations = chain.validate_chain(self.reexported(tmp_path, mutate=mutate))
        assert violations == [f"height 1: pool {self.pool} members do not start with its head"]

    WRONG_VALUES = [None, "0.9", math.nan, math.inf, -math.inf, -1, 2, [0.9]]

    @pytest.mark.parametrize("value", WRONG_VALUES)
    @pytest.mark.parametrize("key, message", [
        ("measured", "measured accuracy {!r} is not a finite number in [0, 1]"),
        ("claimed", "claimed accuracy {!r} is not the task target"),
    ])
    def test_proof_claim_of_the_wrong_type_or_range_flagged(self, tmp_path, key, message, value):
        def mutate(block):
            self.txs(block, "ProofSubmit")[0].payload[key] = value

        violations = chain.validate_chain(self.reexported(tmp_path, mutate=mutate))
        assert violations == ["height 1: " + message.format(value)]

    @pytest.mark.parametrize("value", WRONG_VALUES + [0, 0.0])
    @pytest.mark.parametrize("mode", ["pow", "fedchain"])
    def test_task_target_of_the_wrong_type_or_range_flagged(self, tmp_path, mode, value):
        def mutate(block):
            self.txs(block, "TaskPublish")[0].payload["target"] = value

        violations = chain.validate_chain(self.reexported(tmp_path, mode, mutate))
        expected = [f"height 1: task target {value!r} is not a finite number in (0, 1]"]
        if mode == "fedchain":  # the proof's claim no longer matches the target either
            expected.append("height 1: claimed accuracy 0.9 is not the task target")
        assert violations == expected

    @pytest.mark.parametrize("mode, kind, key, value", [
        *[("fedchain", "ProofSubmit", "measured", v) for v in (0, 1, 0.0, 1.0)],
        ("fedchain", "ProofSubmit", "claimed", 0.9),
        *[("pow", "TaskPublish", "target", v) for v in (1, 1.0, 1e-9)],
    ])
    def test_claim_in_range_is_clean(self, tmp_path, mode, kind, key, value):
        def mutate(block):
            self.txs(block, kind)[0].payload[key] = value

        assert chain.validate_chain(self.reexported(tmp_path, mode, mutate)) == []

    @pytest.mark.parametrize("value", [-1.0, -0.5, -10**400])
    def test_pow_block_before_its_task_flagged(self, tmp_path, value):
        def mutate(block):
            block.timestamp = value

        violations = chain.validate_chain(self.reexported(tmp_path, "pow", mutate))
        assert violations == [f"height 1: block timestamp {value} is before the TaskPublish at 0.0"]

    def test_block_before_its_last_vote_flagged(self, tmp_path):
        def mutate(block):
            block.transactions.pop()  # the RewardSettle, whose own check would fire
            block.timestamp = block.transactions[-1].timestamp - 1.0

        loaded = self.reexported(tmp_path, mutate=mutate)
        block = loaded.head()
        vote = block.transactions[-1]
        assert vote.kind == "VerifyVote"
        assert chain.validate_chain(loaded) == [
            f"height 1: block timestamp {block.timestamp} is before the VerifyVote at {vote.timestamp}"
        ]

    def test_credit_below_zero_flagged(self, tmp_path):
        # moving 5,000 between two members keeps the sum at the task reward
        def mutate(block):
            credits = self.txs(block, "RewardSettle")[0].payload["credits"]
            giver, taker = sorted(credits)[:2]
            credits[giver] -= 5000
            credits[taker] += 5000
            self.giver = giver

        violations = chain.validate_chain(self.reexported(tmp_path, mutate=mutate))
        assert violations == [f"height 1: credits below 0 to nodes ['{self.giver}']"]

    @pytest.mark.parametrize("value", [-1, -0.5, -1000])
    @pytest.mark.parametrize("mode", ["pow", "fedchain"])
    def test_task_reward_below_zero_flagged(self, tmp_path, mode, value):
        def mutate(block):
            self.txs(block, "TaskPublish")[0].payload["reward"] = value

        violations = chain.validate_chain(self.reexported(tmp_path, mode, mutate))
        expected = [f"height 1: task reward {value!r} is below 0"]
        if mode == "fedchain":  # the credits settle the old reward
            expected.append("height 1: credits do not sum to the task reward")
        assert violations == expected

    @staticmethod
    def reexported_copy(ledger, tmp_path, mutate):
        ledger = copy.deepcopy(ledger)
        mutate(ledger.head())
        path = tmp_path / "ledger.jsonl"
        ledger.export_jsonl(str(path))
        return chain.load_chain_jsonl(str(path))

    @pytest.mark.parametrize("mode", chain.MODES)
    def test_block_commitment_not_the_committed_flagged(self, mode_ledgers, tmp_path, mode):
        # a pow block has no ModelCommit, so its commitment must be None
        def mutate(block):
            block.model_commitment = "0" * 64

        loaded = self.reexported_copy(mode_ledgers[mode], tmp_path, mutate)
        commits = self.txs(loaded.head(), "ModelCommit")
        committed = commits[0].payload["com"] if commits else None
        assert (mode == "pow") is (committed is None)
        assert chain.validate_chain(loaded) == [
            f"height 1: block model commitment {'0' * 64!r} is not the committed {committed!r}"
        ]

    @pytest.mark.parametrize("mode", chain.MODES)
    def test_block_task_id_not_the_published_flagged(self, mode_ledgers, tmp_path, mode):
        def mutate(block):
            self.txs(block, "TaskPublish")[0].payload["task_id"] = 99

        loaded = self.reexported_copy(mode_ledgers[mode], tmp_path, mutate)
        assert chain.validate_chain(loaded) == [
            "height 1: block task id 1 is not the published task id 99"
        ]

    def test_second_block_for_a_task_refused(self):
        ledger = chain.Chain()
        setup = build_setup(n_nodes=4, n_pools=1, seed=3)
        chain.run_round(ledger, setup)
        with pytest.raises(DuplicateTaskBlockError, match="task 1"):
            chain.run_round(ledger, setup)
        assert len(ledger.blocks) == 2


def wrong_claim_values(key):
    """JSON values a claim field `key` must not hold: any value that is
    not a finite number, and numbers outside the field's range (for
    `claimed`, any other than the task target 0.9)."""
    def in_range(v):
        if not chain._is_finite_number(v):
            return False
        return {"target": 0 < v <= 1, "measured": 0 <= v <= 1, "claimed": v == 0.9}[key]

    return st.one_of(
        st.none(), st.booleans(), st.text(max_size=4), st.lists(st.floats(), max_size=2),
        st.floats(), st.integers(),
    ).filter(lambda v: not in_range(v))


class TestClaimRangeProperty:
    """A claim field of a re-exported ledger of any mode set to a value of
    the wrong type or range gives a violation naming the height and field."""

    FIELDS = {"target": ("TaskPublish", "task target"),
              "measured": ("ProofSubmit", "measured accuracy"),
              "claimed": ("ProofSubmit", "claimed accuracy")}

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_wrong_value_flagged_by_height_and_field(self, mode_ledgers, tmp_path_factory, data):
        mode = data.draw(st.sampled_from(chain.MODES), label="mode")
        keys = ["target"] if mode == "pow" else sorted(self.FIELDS)
        key = data.draw(st.sampled_from(keys), label="field")
        kind, name = self.FIELDS[key]
        ledger = copy.deepcopy(mode_ledgers[mode])
        tx = next(tx for tx in ledger.head().transactions if tx.kind == kind)
        tx.payload[key] = data.draw(wrong_claim_values(key), label="value")
        path = tmp_path_factory.mktemp("claims") / "ledger.jsonl"
        ledger.export_jsonl(str(path))
        violations = chain.validate_chain(chain.load_chain_jsonl(str(path)))
        assert any(v.startswith(f"height 1: {name} ") for v in violations), violations


class TestChainRingAudit:
    """The ring sessions a fedchain round actually runs pass the leakage
    audit and sum their inputs exactly, at the mask width
    `fixedpoint.NOISE_BITS` and at the widest an int64 word holds."""

    @staticmethod
    def audit_round(monkeypatch, noise_bits):
        monkeypatch.setattr(fixedpoint, "NOISE_BITS", noise_bits)
        captured = []

        class RecordingSession(sharedring.RingSession):
            def __init__(self, latency, members, vectors, *args, **kwargs):
                super().__init__(latency, members, vectors, *args, **kwargs)
                captured.append((self, [v.copy() for v in vectors]))

        monkeypatch.setattr(sharedring, "RingSession", RecordingSession)
        setup = experiments.build_round_setup(experiments.ExperimentConfig(), 20, 3, 0)
        result = chain.run_round(chain.Chain(), setup)
        assert len(captured) == sum(len(o.metrics) for o in result.outcomes) > 0
        bound = 1 << noise_bits
        for session, vectors in captured:
            assert session.masks is not None
            assert all(-bound <= m.min() and m.max() < bound for m in session.masks)
            report = sharedring.transcript_leakage_check(
                session.transcript, session.raw_splits, session.masks
            )
            assert report.passed, report.violations
            expected = np.sum(np.stack(vectors), axis=0)
            assert np.array_equal(session.total, expected)

    def test_every_session_of_a_round(self, monkeypatch):
        self.audit_round(monkeypatch, fixedpoint.NOISE_BITS)

    def test_every_session_at_the_widest_mask(self, monkeypatch):
        self.audit_round(monkeypatch, 63)
