import numpy as np
import pytest

from fedchain import chain, fed, netsim, verify
from fedchain.errors import InvalidTaskError, RoundFailedError
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
        chain._verification_exchange(sim, setup, 0, model, 0, tamper, members=[0, 1, 2])
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
        result = chain.run_round_baseline(ledger, setup, mode)
        assert result.block.height == 1
        assert result.latency_ms > 0
        assert chain.validate_chain(ledger) == []

    def test_pow_seeded_reproducible(self):
        setup = build_setup(n_nodes=5, n_pools=1, seed=5, pow_difficulty=8)
        a = chain.run_round_baseline(chain.Chain(), setup, "pow")
        b = chain.run_round_baseline(chain.Chain(), setup, "pow")
        assert a.latency_ms == b.latency_ms
        assert a.block.proposer == b.block.proposer

    def test_pow_expected_trials_scale(self):
        # Over nodes and seeds, mean trials should be near 2^d.
        trials = []
        for seed in range(3):
            setup = build_setup(n_nodes=6, n_pools=1, seed=20 + seed, pow_difficulty=6,
                                pow_trial_ms=1.0)
            result = chain.run_round_baseline(chain.Chain(), setup, "pow")
            trials.append(result.latency_ms)
        # winner is min over 6 nodes of Geometric(2^-6) trials; crude sanity band
        assert 1.0 <= np.mean(trials) < 6 * 64


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
