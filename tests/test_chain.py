import copy
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedchain import chain, cli, experiments, fed, fixedpoint, netsim, pools, sharedring, verify
from fedchain.errors import (
    DuplicateTaskBlockError,
    InvalidTaskError,
    LedgerIntegrityError,
    RoundFailedError,
)
from conftest import build_setup


class TestPublishTask:
    def test_valid_task_transaction(self, small_setup):
        tx = chain.publish_task(small_setup.task, publisher=0)
        assert tx.kind == "TaskPublish"
        assert tx.payload["task_id"] == 1

    def test_zero_target_rejected(self, small_setup):
        small_setup.task.target = 0.0
        with pytest.raises(InvalidTaskError):
            chain.publish_task(small_setup.task, publisher=0)

    def test_past_deadline_rejected(self, small_setup):
        small_setup.task.deadline = -1.0
        with pytest.raises(InvalidTaskError):
            chain.publish_task(small_setup.task, publisher=0)


class TestFormation:
    def test_all_nodes_start_after_broadcast(self, small_setup):
        from fedchain.pools import announce_heads, assign_pools, bootstrap_history, estimate_latency

        hist = bootstrap_history(small_setup.latency, seed=1)
        l_hat = estimate_latency(hist, small_setup.n_nodes)
        heads = announce_heads(small_setup.n_nodes, 2, l_hat=l_hat)
        assignment = assign_pools(small_setup.n_nodes, heads, l_hat, [0.0, 0.0], seed=2)
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
    sim.schedule(0.0, setup.publisher, kind="task")
    for node in range(n):
        if node != setup.publisher:
            sim.send(setup.publisher, node, None, kind="task")
    sim.run_until_idle()
    assert sim.stats["delivered"] == 1 + (n - 1) + len(heads) * (n - 1) + 2 * (n - len(heads))
    return start_times


def formation_latency(topology, n):
    if topology == "uniform":
        return netsim.build_topology(n, seed=n, model=netsim.UniformTopology())
    if topology == "clustered":
        return netsim.build_topology(n, seed=n, model=netsim.ClusteredTopology(n_clusters=3))
    # integer-valued and integer-typed: many arrivals land at equal times
    latency = np.random.default_rng(n).integers(1, 4, size=(n, n))
    np.fill_diagonal(latency, 0)
    return latency


def formation_case(latency, heads, publisher, join_seed):
    l_hat = latency.astype(np.float64)
    assignment = pools.assign_pools(len(latency), heads, l_hat, [0.0] * len(heads), seed=join_seed)
    setup = chain.RoundSetup(
        task=None, latency=latency, compute_times=None, miner_data=[], publisher=publisher
    )
    return setup, assignment


class TestFormationOracle:
    """The closed-form formation must equal the event-driven replay exactly."""

    @pytest.mark.parametrize("policy", ["spread", "random"])
    @pytest.mark.parametrize("topology", ["uniform", "clustered", "integer"])
    def test_closed_form_matches_event_loop(self, topology, policy):
        for n in range(2, 41):
            latency = formation_latency(topology, n)
            for p in range(1, n + 1):
                heads = pools.announce_heads(
                    n, p, l_hat=latency.astype(np.float64), policy=policy, seed=p
                )
                # odd p: the publisher is a head; even p: any node
                publisher = heads[0] if p % 2 else (n + p) % n
                setup, assignment = formation_case(latency, heads, publisher, n + p)
                got = chain._simulate_formation(setup, assignment)
                assert got == oracle_formation(setup, assignment)
                assert all(type(t) is float for t in got.values())

    def test_solo_pools_start_on_the_task(self):
        latency = formation_latency("uniform", 9)
        heads = [4, 0, 7]
        setup, assignment = formation_case(latency, heads, publisher=4, join_seed=1)
        # force two solo pools next to one pool with everyone else
        assignment.pools[0].members = [4]
        assignment.pools[1].members = [0]
        assignment.pools[2].members = [7] + [v for v in range(9) if v not in heads]
        got = chain._simulate_formation(setup, assignment)
        assert got == oracle_formation(setup, assignment)
        assert got[4] == 0.0
        assert got[0] == float(latency[4, 0])

    def test_every_node_a_head(self):
        latency = formation_latency("integer", 6)
        setup, assignment = formation_case(latency, [3, 1, 0, 5, 2, 4], publisher=2, join_seed=0)
        got = chain._simulate_formation(setup, assignment)
        assert got == oracle_formation(setup, assignment)
        assert got == {v: (0.0 if v == 2 else float(latency[2, v])) for v in range(6)}


class TestFedchainRound:
    def test_single_pool_produces_block(self):
        setup = build_setup(n_nodes=4, n_pools=1, seed=3)
        ledger = chain.Chain()
        result = chain.run_round_fedchain(ledger, setup)
        assert result.block is not None
        assert result.block.height == 1
        assert result.block.proposer == result.outcomes[result.winner_pool].head
        assert result.accuracy >= 0.8
        assert chain.validate_chain(ledger) == []

    def test_faster_pool_wins_on_identical_data(self):
        # Two latency clusters; cluster A computes 10 ms per round, cluster B
        # 500 ms. Every miner holds the same dataset, so the fast cluster's
        # pool must finish and verify first.
        setup = build_setup(
            n_nodes=6,
            n_pools=2,
            seed=7,
            topology=netsim.ClusteredTopology(
                n_clusters=2, intra_lo=5, intra_hi=10, inter_lo=150, inter_hi=200
            ),
        )
        shared = setup.miner_data[0]
        setup.miner_data = [shared] * 6
        setup.compute_times = np.array([10.0, 10.0, 10.0, 60.0, 60.0, 60.0])
        setup.publisher = 3  # in the slow cluster, so announcements reach both pools alike
        ledger = chain.Chain()
        result = chain.run_round_fedchain(ledger, setup)
        winner_members = result.outcomes[result.winner_pool].members
        assert set(winner_members) == {0, 1, 2}
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
            topology=netsim.ClusteredTopology(
                n_clusters=2, intra_lo=5, intra_hi=10, inter_lo=150, inter_hi=200
            ),
        )
        shared = setup.miner_data[0]
        setup.miner_data = [shared] * 6
        setup.compute_times = np.array([10.0, 10.0, 10.0, 60.0, 60.0, 60.0])
        setup.publisher = 3
        ledger = chain.Chain()
        clean = chain.run_round_fedchain(ledger, setup)
        fast_pool = clean.winner_pool

        tampered_setup = build_setup(
            n_nodes=6,
            n_pools=2,
            seed=7,
            topology=netsim.ClusteredTopology(
                n_clusters=2, intra_lo=5, intra_hi=10, inter_lo=150, inter_hi=200
            ),
            tamper_pools=frozenset({fast_pool}),
        )
        tampered_setup.miner_data = [shared] * 6
        tampered_setup.compute_times = np.array([10.0, 10.0, 10.0, 60.0, 60.0, 60.0])
        tampered_setup.publisher = 3
        ledger2 = chain.Chain()
        result = chain.run_round_fedchain(ledger2, tampered_setup)
        assert result.winner_pool != fast_pool
        assert not result.outcomes[fast_pool].accepted
        # the tampered pool's commitment never lands on chain
        assert result.block.model_commitment == result.outcomes[result.winner_pool].commitment
        assert chain.validate_chain(ledger2) == []

    def test_round_fails_when_deadline_too_tight(self):
        setup = build_setup(n_nodes=4, n_pools=1, seed=3, deadline=1.0)
        with pytest.raises(RoundFailedError):
            chain.run_round_fedchain(chain.Chain(), setup)

    def test_two_tasks_sequential_blocks(self):
        ledger = chain.Chain()
        for task_id in (1, 2):
            setup = build_setup(n_nodes=4, n_pools=1, seed=10 + task_id)
            setup.task.task_id = task_id
            chain.run_round_fedchain(ledger, setup)
        assert [b.task_id for b in ledger.blocks[1:]] == [1, 2]
        assert [b.height for b in ledger.blocks] == [0, 1, 2]
        assert chain.validate_chain(ledger) == []


def oracle_pool_rounds(setup, pool_id, members, start_times):
    """One pool trained to its natural end and, if it finished, verified:
    the all-pools loop the race replaced, with separate `evaluate` and
    `local_loss` calls."""
    task = setup.task
    sim = netsim.Simulator(setup.latency)
    weights_vec = chain._member_weights(setup, members)
    k = len(members)
    model = fed.DenseClassifier(task.arch, seed=chain._derive_seed(setup.seed, task.task_id, "init"))
    barrier = max(start_times[m] for m in members)
    sim.now = barrier
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
                setup.noise_bits,
            )
            for i in range(k)
        ]
        session = sharedring.RingSession(sim, members, vectors, masks=masks,
                                         size_multiplier=setup.size_multiplier)
        session.start([barrier + float(setup.compute_times[m]) for m in members])
        sim.run_until_idle()
        barrier = max(session.completion.values())
        model = model.clone(fixedpoint.decode(session.results[members[0]]) / k)
        accuracy = fed.evaluate(model, task.example)
        loss = fed.local_loss(model, task.example)
        outcome.metrics.append(fed.RoundMetrics(round_idx, pool_id, accuracy, loss, barrier))
        if barrier > task.deadline:
            return outcome
        if accuracy >= task.target:
            outcome.finish_time = barrier
            break
    if outcome.finish_time is not None:
        chain._verification_exchange(sim, setup, outcome, model, pool_id in setup.tamper_pools)
    return outcome


def oracle_round_fedchain(ledger, setup):
    """`run_round_fedchain` without the race: every pool trains to its end,
    every finisher is verified, and the block goes to the minimum
    `(accept_time, pool_id)`."""
    task = setup.task
    publish_tx = chain.publish_task(task, setup.publisher, now=0.0)
    assignment, start_times = chain._form_pools(setup)
    outcomes = [
        oracle_pool_rounds(setup, idx, list(pool.members), start_times)
        for idx, pool in enumerate(assignment.pools)
    ]
    verified = [o for o in outcomes if o.accepted]
    if not verified:
        raise RoundFailedError(f"task {task.task_id}: no pool verified before the deadline")
    winner = min(verified, key=lambda o: (o.accept_time, o.pool_id))
    block, credits = chain._build_block(ledger, setup, winner, assignment, start_times, publish_tx)
    ledger.append_block(block)
    ledger.settle_reward(block, credits)
    return chain.RoundResult(block, winner.accept_time, winner.pool_id, winner.measured_accuracy,
                             outcomes, assignment, start_times, credits)


def race_and_oracle(setup):
    """Both rounds on fresh ledgers; (None, None) when both raise
    RoundFailedError."""
    try:
        oracle = oracle_round_fedchain(chain.Chain(), setup)
    except RoundFailedError:
        with pytest.raises(RoundFailedError):
            chain.run_round_fedchain(chain.Chain(), setup)
        return None, None
    return chain.run_round_fedchain(chain.Chain(), setup), oracle


def assert_same_block(raced, oracle):
    winner = oracle.winner_pool
    assert raced.block.hash() == oracle.block.hash()
    assert raced.latency_ms == oracle.latency_ms
    assert raced.winner_pool == winner
    assert raced.accuracy == oracle.accuracy
    assert raced.outcomes[winner].metrics == oracle.outcomes[winner].metrics
    assert raced.credits == oracle.credits
    assert raced.start_times == oracle.start_times


def assert_race_cut(raced, oracle):
    """Every pool-round whose `(start barrier, pool id)` is below the
    block's `(latency_ms, winner)` ran, none other did (the winner runs all
    of its rounds), and `abandoned_at` marks exactly the pools cut short."""
    best = (oracle.latency_ms, oracle.winner_pool)
    for got, full in zip(raced.outcomes, oracle.outcomes, strict=True):
        pool = full.pool_id
        ran = len(got.metrics)
        first = max(oracle.start_times[m] for m in full.members)
        starts = [first] + [m.sim_time_ms for m in full.metrics[:-1]]
        assert got.metrics == full.metrics[:ran]
        if pool == oracle.winner_pool:
            assert ran == len(full.metrics)
        else:
            assert [i < ran for i in range(len(starts))] == [(t, pool) < best for t in starts]
        if ran < len(full.metrics):
            assert got.abandoned_at == starts[ran]
            assert (got.finish_time, got.commitment, got.accepted) == (None, None, False)
        elif full.finish_time is not None and got.commitment is None:
            assert got.abandoned_at == full.finish_time == got.finish_time
            assert (full.finish_time, pool) >= best
        else:
            assert got.abandoned_at is None
            assert (got.finish_time, got.accept_time, got.accepted, got.measured_accuracy,
                    got.commitment, got.commit_time, got.proof_time, got.vote_times) == (
                full.finish_time, full.accept_time, full.accepted, full.measured_accuracy,
                full.commitment, full.commit_time, full.proof_time, full.vote_times)
    return sum(o.abandoned_at is not None for o in raced.outcomes)


def grid_setup(n, p, seed, tamper=(), **overrides):
    setup = experiments.build_round_setup(experiments.ExperimentConfig(), n, p, seed)
    return replace(setup, tamper_pools=frozenset(tamper), **overrides)


class TestRaceOracle:
    """The raced round proposes the block of the all-pools oracle, bit for
    bit, and cuts exactly the pool-rounds that cannot change it."""

    @pytest.mark.parametrize("tamper", ["none", "some", "all_but_one"])
    def test_matches_oracle_over_seeds(self, tamper):
        cut = 0
        for n, p, seed in [(40, 4, 0), (40, 4, 1), (60, 6, 2), (60, 6, 3), (50, 10, 4)]:
            picked = {"none": (), "some": range(0, p, 3),
                      "all_but_one": [q for q in range(p) if q != seed % p]}[tamper]
            raced, oracle = race_and_oracle(grid_setup(n, p, seed, picked))
            assert oracle is not None
            assert_same_block(raced, oracle)
            cut += assert_race_cut(raced, oracle)
            assert oracle.winner_pool not in picked
        assert cut > 0

    def test_deadline_between_finishers(self):
        setup = grid_setup(60, 6, 5, tamper=[1])
        full = oracle_round_fedchain(chain.Chain(), setup)
        finishes = sorted(o.finish_time for o in full.outcomes if o.finish_time is not None)
        setup.task.deadline = full.outcomes[full.winner_pool].finish_time
        raced, oracle = race_and_oracle(setup)
        assert any(o.finish_time is None for o in oracle.outcomes)
        assert len(finishes) > sum(o.finish_time is not None for o in oracle.outcomes)
        assert_same_block(raced, oracle)
        assert_race_cut(raced, oracle)

    @pytest.mark.parametrize("deadline", [1.0, 50.0])
    def test_tight_deadline_fails_in_both(self, deadline):
        setup = grid_setup(40, 4, 6)
        setup.task.deadline = deadline
        assert race_and_oracle(setup) == (None, None)

    @pytest.mark.parametrize("max_rounds", [0, 1])
    def test_round_budget(self, max_rounds):
        for seed in range(4):
            raced, oracle = race_and_oracle(grid_setup(40, 4, seed, max_rounds=max_rounds))
            if max_rounds == 0:
                assert oracle is None
            elif oracle is not None:
                assert_same_block(raced, oracle)
                assert_race_cut(raced, oracle)

    def test_every_node_a_pool(self):
        for seed in range(3):
            raced, oracle = race_and_oracle(grid_setup(12, 12, seed, tamper=[seed]))
            assert all(len(o.members) == 1 for o in oracle.outcomes)
            assert_same_block(raced, oracle)
            assert assert_race_cut(raced, oracle) > 0

    @pytest.mark.parametrize("tamper", [(), (0,)])
    @pytest.mark.parametrize("link_ms", [0.0, 10.0])
    def test_tie_goes_to_lower_pool_id(self, monkeypatch, link_ms, tamper):
        # Nine nodes form three pools of three over equal links; every
        # member computes for 5 ms and the target is met on the first
        # round, so every honest pool accepts at the same time and the
        # lower pool id wins. Over 0-ms links verification takes no time:
        # a later pool's finish time already ties the best accept time, so
        # its verification is skipped.
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
        cut = assert_race_cut(raced, oracle)
        if link_ms == 0.0:
            assert oracle.latency_ms == 5.0
            assert cut == 3 - len(tamper) - 1
            assert all(o.abandoned_at == o.finish_time == 5.0
                       for o in raced.outcomes[len(tamper) + 1:])
        else:
            assert cut == 0


class TestRaceCounts:
    """The benchmark counts `local_train` calls and ring sessions from the
    outcomes; a raced round must make exactly those calls."""

    @pytest.fixture
    def counts(self, monkeypatch):
        trained, sessions = [], []
        real_train = chain.local_train

        def counting_train(*args, **kwargs):
            trained.append(1)
            return real_train(*args, **kwargs)

        class CountingSession(sharedring.RingSession):
            def __init__(self, *args, **kwargs):
                sessions.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(chain, "local_train", counting_train)
        monkeypatch.setattr(sharedring, "RingSession", CountingSession)
        return trained, sessions

    def test_calls_match_outcomes(self, counts):
        trained, sessions = counts
        result = chain.run_round_fedchain(chain.Chain(), grid_setup(60, 6, 0, tamper=[2]))
        outcomes = result.outcomes
        assert any(o.abandoned_at is not None for o in outcomes)
        assert len(trained) == sum(len(o.metrics) * len(o.members) for o in outcomes)
        assert len(sessions) == sum(len(o.metrics) for o in outcomes)

    @pytest.mark.parametrize("n, seed", [(5, 1), (20, 3), (50, 0)])
    def test_gfl_ring_calls_match_outcome(self, counts, n, seed):
        trained, sessions = counts
        result = chain.run_round(chain.Chain(), grid_setup(n, 1, seed), "gfl_ring")
        [outcome] = result.outcomes
        assert len(outcome.members) == n
        assert len(trained) == len(outcome.metrics) * n
        assert len(sessions) == len(outcome.metrics)


class TestVerificationExchange:
    def run_exchange(self, monkeypatch, tamper):
        setup = build_setup(n_nodes=9, n_pools=2, seed=2, n_verifiers=4)
        model = fed.DenseClassifier(setup.task.arch, seed=1)
        proofs, checks = [], []
        real_prove, real_verify = verify.prove, verify.verify

        def counting_prove(*args):
            proofs.append(args[1])
            return real_prove(*args)

        def counting_verify(com, sample, y, proof, pp):
            result = real_verify(com, sample, y, proof, pp)
            checks.append((sample, np.array(y), result.accepted))
            return result

        monkeypatch.setattr(verify, "prove", counting_prove)
        monkeypatch.setattr(verify, "verify", counting_verify)
        sim = netsim.Simulator(setup.latency)
        outcome = chain.PoolOutcome(0, 0, [0, 1, 2], None, None, False, 0.0, None, None)
        chain._verification_exchange(sim, setup, outcome, model, tamper)
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


def oracle_fedavg_central(ledger, setup):
    """The `fedavg_central` loop before the baselines ran on the pool engine."""
    task = setup.task
    publish_tx = chain.publish_task(task, setup.publisher, now=0.0)
    coord = setup.publisher
    nodes = list(range(setup.n_nodes))
    weights_vec = fed.fedavg_weights([len(setup.miner_data[m]) for m in nodes])
    model = fed.DenseClassifier(task.arch, seed=chain._derive_seed(setup.seed, task.task_id, "init"))
    su = int(setup.size_multiplier)
    now = 0.0
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
        accuracy, loss = fed.evaluate_and_loss(model, task.example)
        metrics.append(fed.RoundMetrics(round_idx, 0, accuracy, loss, now))
        if now > task.deadline:
            break
        if accuracy >= task.target:
            finish = now
            break
    return oracle_finish_baseline(ledger, setup, publish_tx, model, finish, weights_vec, nodes,
                                  metrics, coord)


def oracle_gfl_ring(ledger, setup):
    """The `gfl_ring` loop before the baselines ran on the pool engine."""
    task = setup.task
    publish_tx = chain.publish_task(task, setup.publisher, now=0.0)
    nodes = list(range(setup.n_nodes))
    sim = netsim.Simulator(setup.latency)
    weights_vec = fed.fedavg_weights([len(setup.miner_data[m]) for m in nodes])
    model = fed.DenseClassifier(task.arch, seed=chain._derive_seed(setup.seed, task.task_id, "init"))
    k = len(nodes)
    barrier = max(
        float(setup.latency[setup.publisher, m]) if m != setup.publisher else 0.0 for m in nodes
    )
    sim.now = barrier
    metrics = []
    finish = None
    for round_idx in range(setup.max_rounds):
        trained = [
            fed.local_train(model, setup.miner_data[m], setup.train,
                            seed=chain._derive_seed(setup.seed, task.task_id, 0, round_idx, m))
            for m in nodes
        ]
        vectors = [fixedpoint.encode(t.weights * (w * k)) for t, w in zip(trained, weights_vec)]
        session = sharedring.RingSession(sim, nodes, vectors, masks=None,
                                         size_multiplier=setup.size_multiplier)
        session.start([barrier + float(setup.compute_times[m]) for m in nodes])
        sim.run_until_idle()
        barrier = max(session.completion.values())
        model = model.clone(fixedpoint.decode(session.results[nodes[0]]) / k)
        accuracy, loss = fed.evaluate_and_loss(model, task.example)
        metrics.append(fed.RoundMetrics(round_idx, 0, accuracy, loss, barrier))
        if barrier > task.deadline:
            break
        if accuracy >= task.target:
            finish = barrier
            break
    return oracle_finish_baseline(ledger, setup, publish_tx, model, finish, weights_vec, nodes,
                                  metrics, setup.publisher, sim=sim)


def oracle_finish_baseline(ledger, setup, publish_tx, model, finish, weights_vec, members,
                           metrics, committer, sim=None):
    """Honest verification of the whole-network pool, then its block."""
    if finish is None:
        raise RoundFailedError(f"task {setup.task.task_id}: target not reached before the deadline")
    if sim is None:
        sim = netsim.Simulator(setup.latency)
        sim.now = finish
    outcome = chain.PoolOutcome(0, committer, members, finish, None, False, 0.0, weights_vec,
                                None, metrics=metrics)
    chain._verification_exchange(sim, setup, outcome, model, tamper=False)
    if not outcome.accepted:
        raise RoundFailedError(f"task {setup.task.task_id}: baseline proof rejected")
    block, credits = chain._build_block(ledger, setup, outcome, None, {}, publish_tx)
    ledger.append_block(block)
    ledger.settle_reward(block, credits)
    return chain.RoundResult(block, outcome.accept_time, 0, outcome.measured_accuracy, [outcome],
                             None, {}, credits)


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
            a.commitment, a.commit_time, a.proof_time, a.vote_times, a.abandoned_at) == (
        b.head, b.members, b.finish_time, b.accept_time, b.accepted, b.measured_accuracy,
        b.commitment, b.commit_time, b.proof_time, b.vote_times, b.abandoned_at)
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
            got, oracle = baseline_and_oracle(
                grid_setup(n, max(1, n // 10), seed, publisher=seed), mode)
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

    def test_settlement_idempotent(self):
        ledger = chain.Chain()
        setup = build_setup(n_nodes=4, n_pools=1, seed=6)
        result = chain.run_round_fedchain(ledger, setup)
        before = dict(ledger.balances)
        assert ledger.settle_reward(result.block, result.credits) is False
        assert ledger.balances == before

    def test_balances_sum_to_reward(self):
        ledger = chain.Chain()
        setup = build_setup(n_nodes=4, n_pools=1, seed=6)
        chain.run_round_fedchain(ledger, setup)
        assert sum(ledger.balances.values()) == setup.task.reward


class TestValidateChain:
    def make_chain(self):
        ledger = chain.Chain()
        setup = build_setup(n_nodes=4, n_pools=1, seed=8)
        chain.run_round_fedchain(ledger, setup)
        return ledger

    def test_fresh_chain_ok(self):
        assert chain.validate_chain(self.make_chain()) == []

    def test_mutated_payload_breaks_hash_link(self):
        ledger = self.make_chain()
        setup = build_setup(n_nodes=4, n_pools=1, seed=9)
        setup.task.task_id = 2
        chain.run_round_fedchain(ledger, setup)
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
    chain.run_round_fedchain(ledger, setup)
    path = tmp_path / "ledger.jsonl"
    ledger.export_jsonl(str(path))
    loaded = chain.load_chain_jsonl(str(path))
    assert chain.validate_chain(loaded) == []
    assert loaded.blocks[1].hash() == ledger.blocks[1].hash()


class TestLedgerIntegrity:
    """Edits to an exported ledger that keep every hash link intact."""

    def export(self, tmp_path):
        ledger = chain.Chain()
        chain.run_round_fedchain(ledger, build_setup(n_nodes=6, n_pools=2, seed=12))
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

    def test_second_block_for_a_task_refused(self):
        ledger = chain.Chain()
        setup = build_setup(n_nodes=4, n_pools=1, seed=3)
        chain.run_round_fedchain(ledger, setup)
        with pytest.raises(DuplicateTaskBlockError, match="task 1"):
            chain.run_round_fedchain(ledger, setup)
        assert len(ledger.blocks) == 2


class TestChainRingAudit:
    """The ring sessions a fedchain round actually runs pass the leakage
    audit and sum their inputs exactly."""

    def test_every_session_of_a_round(self, monkeypatch):
        captured = []

        class RecordingSession(sharedring.RingSession):
            def __init__(self, sim, members, vectors, *args, **kwargs):
                super().__init__(sim, members, vectors, *args, **kwargs)
                captured.append((self, [v.copy() for v in vectors]))

        monkeypatch.setattr(sharedring, "RingSession", RecordingSession)
        setup = experiments.build_round_setup(experiments.ExperimentConfig(), 20, 3, 0)
        result = chain.run_round_fedchain(chain.Chain(), setup)
        assert len(captured) == sum(len(o.metrics) for o in result.outcomes) > 0
        for session, vectors in captured:
            assert session.masks is not None
            report = sharedring.transcript_leakage_check(
                session.transcript, session.raw_splits, session.masks
            )
            assert report.passed, report.violations
            expected = np.sum(np.stack(vectors), axis=0)
            assert session.results.keys() == set(session.members)
            assert all(np.array_equal(r, expected) for r in session.results.values())
