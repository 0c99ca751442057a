"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`."""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fedchain import chain, data, experiments, fed, fixedpoint, netsim, pools, sharedring, verify
from fedchain.experiments import ExperimentConfig
from conftest import (
    cluster_labels, clustered_links, gradient_check, oracle_pool_cost, split, uniform_links,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def run_ring_session(vectors, masks):
    """Run the pool ring the chain runs, `sharedring.RingSession`, over nodes
    0..k-1 of a small network from clock 0."""
    k = len(vectors)
    latency = uniform_links(max(k, 2), k, 5, 50)
    session = sharedring.RingSession(latency, list(range(k)), vectors, masks=masks)
    session.start(0.0, [0.0] * k)
    return session


def seeded_masks(vectors, noise_seed):
    """Member i's noise over its own chunk, drawn from seed `noise_seed + i`."""
    spans = sharedring.chunk_spans(vectors[0].shape[0], len(vectors))
    return [fixedpoint.generate_noise(b - a, noise_seed + i) for i, (a, b) in enumerate(spans)]


def test_criterion_1_ring_allreduce_oracle_equivalence():
    started = time.time()
    sizes = (1, 2, 3, 5, 8)
    lengths = (7, 64, 1000)
    checked = 0
    seed = 0
    while checked < 100:
        for k, m in itertools.product(sizes, lengths):
            if checked >= 100:
                break
            if m < k:
                continue
            rng = np.random.default_rng(seed := seed + 1)
            vectors = [
                fixedpoint.encode(rng.normal(0, 2, size=m)) for _ in range(k)
            ]
            session = run_ring_session(vectors, seeded_masks(vectors, seed))
            oracle = np.sum(np.stack(vectors), axis=0)
            assert len(session.results) == k
            for s in session.results.values():
                assert np.array_equal(s, oracle)
            checked += 1
    elapsed = time.time() - started
    report(
        "criterion 1 (ring all-reduce oracle equivalence)",
        elapsed < 10.0,
        f"{checked} pools bit-exact vs direct summation in {elapsed:.2f}s",
    )


def test_criterion_2_mask_neutrality_and_leakage():
    neutral = True
    leak_free = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        vectors = [fixedpoint.encode(rng.normal(0, 1, size=40)) for _ in range(k)]
        a = run_ring_session(vectors, seeded_masks(vectors, 1000 + seed))
        b = run_ring_session(vectors, seeded_masks(vectors, 9000 + seed))
        neutral &= all(
            np.array_equal(x, y) for x, y in zip(a.results.values(), b.results.values())
        )
        rep = sharedring.transcript_leakage_check(a.transcript, a.raw_splits, a.masks)
        leak_free &= rep.passed
    # negative control: degenerate all-zero noise must be caught
    rng = np.random.default_rng(3)
    vectors = [fixedpoint.encode(rng.normal(0, 1, size=24)) for _ in range(3)]
    splits = [split(v, 3) for v in vectors]
    zero_masks = [np.zeros_like(splits[i][i]) for i in range(3)]
    control = run_ring_session(vectors, zero_masks)
    control_fails = not sharedring.transcript_leakage_check(
        control.transcript, splits, zero_masks
    ).passed
    report(
        "criterion 2 (mask neutrality & leakage)",
        neutral and leak_free and control_fails,
        f"neutral={neutral} leak_free={leak_free} zero-noise control fails={control_fails}",
    )


def test_criterion_3_latency_estimation_and_pool_cost_exactness():
    rng = np.random.default_rng(42)
    mean_ok = True
    for _ in range(1000):
        series = rng.uniform(1, 500, size=int(rng.integers(1, 12)))
        hist = netsim.LatencyHistory(2)
        for v in series:
            hist.record(0, 1, float(v))
            hist.record(1, 0, float(v))
        l_hat = pools.estimate_latency(hist)
        mean_ok &= math.isclose(l_hat[0, 1], float(np.mean(series)), rel_tol=1e-14)
    # 1000 small assign_pools runs, every join replayed against the
    # brute-force cost; odd cases use coarse integer times, so costs tie
    cost_ok = True
    joins = ties = 0
    for case in range(1000):
        n_nodes = int(rng.integers(2, 11))
        n_pools = int(rng.integers(1, n_nodes + 1))
        heads = [int(h) for h in rng.choice(n_nodes, size=n_pools, replace=False)]
        if case % 2:
            l_hat = rng.integers(1, 4, size=(n_nodes, n_nodes)).astype(float)
            t_p = rng.integers(0, 4, size=n_pools).astype(float).tolist()
        else:
            l_hat = rng.uniform(1, 300, size=(n_nodes, n_nodes))
            t_p = rng.uniform(0, 400, size=n_pools).tolist()
        seed = int(rng.integers(1 << 30))
        assignment = pools.assign_pools(n_nodes, heads, l_hat, t_p, seed=seed)
        members = [[h] for h in heads]
        for node in pools.join_order(n_nodes, heads, seed):
            costs = [oracle_pool_cost(node, m, t_p[i], l_hat) for i, m in enumerate(members)]
            cheapest = [i for i, c in enumerate(costs) if c == min(costs)]
            ties += len(cheapest) > 1
            members[min(cheapest, key=lambda i: heads[i])].append(node)
            joins += 1
        cost_ok &= [pool.members for pool in assignment.pools] == members
    report(
        "criterion 3 (estimation/cost exactness)",
        mean_ok and cost_ok,
        f"1000 mean-oracle checks ok={mean_ok}, 1000 assign_pools runs ({joins} joins, "
        f"{ties} tied) replayed against brute-force max costs ok={cost_ok}",
    )


def test_criterion_4_pool_assignment_recovers_clusters():
    recovered = 0
    optimality_ok = True
    n_seeds = 50
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        n_clusters = int(rng.integers(2, 5))
        n_nodes = int(rng.integers(max(6, 3 * n_clusters), 31))
        latency = clustered_links(n_nodes, seed, n_clusters, intra=(5, 15), inter=(80, 120))
        labels = cluster_labels(n_nodes, n_clusters)
        history = pools.bootstrap_history(latency, seed=seed + 1)
        l_hat = pools.estimate_latency(history)
        heads = pools.announce_heads(n_nodes, n_clusters, l_hat=l_hat)
        t_p = [0.0] * n_clusters
        assignment = pools.assign_pools(n_nodes, heads, l_hat, t_p, seed=seed + 2)

        # greedy local optimality, replayed against memberships at join time
        members = {idx: [pool.head] for idx, pool in enumerate(assignment.pools)}
        pool_of = {m: idx for idx, pool in enumerate(assignment.pools) for m in pool.members}
        for node in pools.join_order(n_nodes, heads, seed + 2):
            chosen = pool_of[node]
            costs = {
                idx: oracle_pool_cost(node, members[idx], t_p[idx], l_hat) for idx in members
            }
            if costs[chosen] != min(costs.values()):
                optimality_ok = False
            members[chosen].append(node)

        pool_sets = {frozenset(pool.members) for pool in assignment.pools}
        cluster_sets = {
            frozenset(np.flatnonzero(labels == c).tolist()) for c in range(n_clusters)
        }
        if pool_sets == cluster_sets:
            recovered += 1
    report(
        "criterion 4 (pool assignment recovers clusters)",
        recovered >= 0.9 * n_seeds and optimality_ok,
        f"recovered {recovered}/{n_seeds} clusterings; greedy optimality={optimality_ok}",
    )


def test_criterion_5_gradient_check():
    # the gradient kernel local_train runs, against central differences of the loss
    rng = np.random.default_rng(5)
    x = rng.normal(size=(15, 6))
    y = rng.integers(0, 4, size=15).astype(np.int64)
    ds = data.Dataset(x, y, 4)
    model = fed.DenseClassifier(fed.Architecture(n_features=6, n_classes=4), seed=7)
    error = gradient_check(model, ds)
    report(
        "criterion 5 (gradient check)",
        error < 1e-4,
        f"max relative error of fed._loss_grad_into = {error:.2e}",
    )


def test_criterion_6_kl_properties():
    # the batched divergences kl_weights runs, on one-row and two-row inputs
    def kl(p, q):
        return fed.kl_divergences(p[None], q)[0]

    rng = np.random.default_rng(6)
    nonneg = True
    identity = True
    for _ in range(300):
        p = data.smooth_histogram(rng.dirichlet(np.ones(8)))
        q = data.smooth_histogram(rng.dirichlet(np.ones(8)))
        d, q_from_q = fed.kl_divergences(np.stack([p, q]), q)
        nonneg &= d >= 0.0
        identity &= kl(p, p) == 0.0 and q_from_q == 0.0
        if not np.allclose(p, q):
            identity &= d > 0.0

    # closed forms recomputed term by term, independent of the library path
    closed = True
    p1 = data.smooth_histogram(np.array([1.0, 0.0]))
    expected1 = p1[0] * math.log2(p1[0] / 0.5) + p1[1] * math.log2(p1[1] / 0.5)
    closed &= abs(kl(p1, np.array([0.5, 0.5])) - expected1) < 1e-9

    expected2 = 0.5 * math.log2(2.0) + 0.5 * math.log2(2.0 / 3.0)
    closed &= abs(kl(np.array([0.5, 0.5]), np.array([0.25, 0.75])) - expected2) < 1e-9
    h = np.array([0.3, 0.7])
    closed &= abs(kl(h, h)) < 1e-9
    report(
        "criterion 6 (KL properties)",
        nonneg and identity and closed,
        f"nonneg={nonneg} identity={identity} closed_forms_1e-9={closed}",
    )


SEEDS = [0, 1, 2, 3, 4]


def test_criterion_7_latency_trends():
    started = time.time()
    cfg = ExperimentConfig(seeds=SEEDS)

    def mean_latency(mode, n, p):
        vals = [
            experiments.run_grid_cell(cfg, mode, n, p, seed)["latency_ms"] for seed in SEEDS
        ]
        return float(np.mean(vals))

    fc = mean_latency("fedchain", 50, 5)
    ring = mean_latency("gfl_ring", 50, 5)
    central = mean_latency("fedavg_central", 50, 5)
    mode_ok = fc < ring and fc < central

    pool_means = [mean_latency("fedchain", 50, p) for p in (2, 5, 10)]
    pools_ok = pool_means[0] > pool_means[1] > pool_means[2]

    node_means = [mean_latency("fedavg_central", n, 2) for n in (10, 20, 40)]
    nodes_ok = node_means[0] < node_means[1] < node_means[2]

    elapsed = time.time() - started
    report(
        "criterion 7 (latency trends)",
        mode_ok and pools_ok and nodes_ok and elapsed < 300,
        f"fedchain {fc:.0f} < ring {ring:.0f} & central {central:.0f}; "
        f"pools 2/5/10 -> {[f'{m:.0f}' for m in pool_means]}; "
        f"central n 10/20/40 -> {[f'{m:.0f}' for m in node_means]}; {elapsed:.0f}s",
    )


def test_criterion_8_accuracy_trends():
    started = time.time()
    cfg = ExperimentConfig(seeds=SEEDS, alphas=[0.1, 0.8])
    rows = experiments.run_accuracy_sweep(cfg)
    checks = {name: (ok, detail) for name, ok, detail in experiments.accuracy_trend_checks(rows, cfg)}
    strong_ok, strong_detail = checks["kl_faster_under_strong_skew"]
    weak_ok, weak_detail = checks["schemes_match_under_weak_skew"]
    elapsed = time.time() - started
    report(
        "criterion 8 (accuracy trends)",
        strong_ok and weak_ok and elapsed < 600,
        f"{strong_detail}; {weak_detail}; {elapsed:.0f}s",
    )


def test_criterion_9_verification_soundness():
    arch = fed.Architecture(n_features=6, n_classes=4)
    held_out = data.make_blobs(600, 6, 4, seed=1)
    pp = verify.keygen(seed=2)

    complete = True
    for seed in range(100):
        model = fed.DenseClassifier(arch, seed=seed)
        blinding = verify.make_blinding(seed + 500)
        com = verify.commit(model, pp, blinding)
        sample = verify.derive_challenge(held_out, com, 250)
        proof = verify.prove(model, sample.x, pp, blinding)
        complete &= verify.verify(com, sample, proof, pp).accepted

    model = fed.DenseClassifier(arch, seed=9)
    blinding = verify.make_blinding(10)
    com = verify.commit(model, pp, blinding)
    sample = verify.derive_challenge(held_out, com, 250)
    words = fixedpoint.encode(model.weights)
    rng = np.random.default_rng(11)
    acceptances = 0
    for _ in range(10_000):
        mutated = words.copy()
        idx = int(rng.integers(0, words.shape[0]))
        bit = int(rng.integers(0, 40))
        mutated[idx] = np.int64(int(mutated[idx]) ^ (1 << bit))
        bad_model = model.clone(fixedpoint.decode(mutated))
        bad_proof = verify.prove(bad_model, sample.x, pp, blinding)
        if verify.verify(com, sample, bad_proof, pp).accepted:
            acceptances += 1

    honest = verify.prove(model, sample.x, pp, blinding)
    tampered_y = honest.y.copy()
    tampered_y[0] = (tampered_y[0] + 1) % 4
    tamper_rejected = not verify.verify(com, sample, replace(honest, y=tampered_y), pp).accepted

    other = fed.DenseClassifier(arch, seed=77)
    foreign = verify.prove(other, sample.x, pp, verify.make_blinding(78))
    replay_rejected = not verify.verify(com, sample, foreign, pp).accepted

    report(
        "criterion 9 (verification soundness)",
        complete and acceptances == 0 and tamper_rejected and replay_rejected,
        f"completeness 100/100={complete}, mutations accepted={acceptances}/10000, "
        f"tampered-y rejected={tamper_rejected}, replay rejected={replay_rejected}",
    )


def test_criterion_10_chain_safety():
    from conftest import build_setup

    all_valid = True
    conserved = True

    ledger = chain.Chain()
    total_reward = 0
    for task_id, seed in ((1, 3), (2, 4)):
        setup = build_setup(n_nodes=5, n_pools=2, seed=seed)
        setup.task.task_id = task_id
        chain.run_round(ledger, setup)
        total_reward += setup.task.reward
        all_valid &= chain.validate_chain(ledger) == []
    conserved &= sum(ledger.balances.values()) == total_reward

    for mode in ("fedavg_central", "gfl_ring", "pow"):
        mode_ledger = chain.Chain()
        setup = build_setup(n_nodes=5, n_pools=2, seed=6, pow_difficulty=6)
        chain.run_round(mode_ledger, setup, mode)
        all_valid &= chain.validate_chain(mode_ledger) == []
        conserved &= sum(mode_ledger.balances.values()) == setup.task.reward

    # fault injection: a tampered proof must never land on chain
    setup = build_setup(n_nodes=6, n_pools=2, seed=7)
    probe = chain.Chain()
    clean = chain.run_round(probe, setup)
    fast_pool = clean.winner_pool
    tampered_setup = build_setup(n_nodes=6, n_pools=2, seed=7, tamper_pools=frozenset({fast_pool}))
    tampered_ledger = chain.Chain()
    result = chain.run_round(tampered_ledger, tampered_setup)
    bad_com = result.outcomes[fast_pool].commitment
    gated = (
        result.winner_pool != fast_pool
        and result.block.model_commitment != bad_com
        and chain.validate_chain(tampered_ledger) == []
    )
    report(
        "criterion 10 (chain safety)",
        all_valid and conserved and gated,
        f"validations clean={all_valid}, reward conservation={conserved}, "
        f"bad proof gated={gated}",
    )


def test_criterion_11_grid_cell_determinism():
    cfg = ExperimentConfig(seeds=[0], n_nodes=[10], n_pools=[2])
    row_a = experiments.run_grid_cell(cfg, "fedchain", 10, 2, seed=0)
    row_b = experiments.run_grid_cell(cfg, "fedchain", 10, 2, seed=0)
    csv_a = experiments.latency_rows_to_csv([row_a])
    csv_b = experiments.latency_rows_to_csv([row_b])
    sweep_a = experiments.sweep_rows_to_csv([experiments.run_sweep_cell(cfg, "kl", 0.8, 1)])
    sweep_b = experiments.sweep_rows_to_csv([experiments.run_sweep_cell(cfg, "kl", 0.8, 1)])
    report(
        "criterion 11 (grid determinism)",
        csv_a == csv_b and sweep_a == sweep_b,
        "rerun grid and sweep cells produce byte-identical CSV rows",
    )
