import numpy as np
import pytest

from fedchain import chain, data, experiments, fed, netsim, sharedring


def split(w, parts):
    """Split a flat vector into the `sharedring.chunk_spans` chunks, as
    views; concatenating them restores the original vector."""
    w = np.asarray(w)
    return [w[a:b] for a, b in sharedring.chunk_spans(w.shape[0], parts)]


def kernel_loss_grad(model, x, y):
    """The gradient `fed.local_train` steps along: `fed._loss_grad_into`
    on the model's weights, the summed cross-entropy over `(x, y)`."""
    out = np.empty(model.arch.n_weights)
    fed._loss_grad_into(fed._unpack(model.arch, model.weights), fed._unpack(model.arch, out),
                        x, np.eye(model.arch.n_classes)[y])
    return out


def gradient_check(model, dataset, grad=kernel_loss_grad, h=1e-4):
    """Max error between `grad(model, x, y)` and central finite differences
    of `model.loss` with step `h`.

    The error is normalized by the largest finite-difference component, so a
    correct gradient scores near machine precision and a misscaled one near 1.
    """
    analytic = grad(model, dataset.x, dataset.y)
    fd = np.empty_like(analytic)
    base = model.weights
    for i in range(base.shape[0]):
        probe = base.copy()
        probe[i] = base[i] + h
        up = model.clone(probe).loss(dataset.x, dataset.y)
        probe[i] = base[i] - h
        down = model.clone(probe).loss(dataset.x, dataset.y)
        fd[i] = (up - down) / (2.0 * h)
    scale = max(float(np.max(np.abs(fd))), 1e-12)
    return float(np.max(np.abs(analytic - fd)) / scale)


def label_histogram(dataset):
    """A dataset's per-label frequency vector, counted on its own."""
    counts = np.bincount(dataset.y, minlength=dataset.n_classes)
    return counts / counts.sum()


def oracle_pool_cost(node, members, t_p, l_hat):
    """The brute-force join cost: the pool's training-time estimate or the
    worst estimated link from `node` to a current member, if larger."""
    return max([float(t_p)] + [float(l_hat[node, m]) for m in members])


def random_heads(n_nodes, pool_count, seed):
    """A seeded uniform sample of distinct heads, unlike the ones
    `pools.announce_heads` picks."""
    rng = np.random.default_rng(seed)
    return [int(h) for h in rng.choice(n_nodes, size=pool_count, replace=False)]


def uniform_links(n_nodes, seed, lo, hi):
    """A latency matrix with every link drawn from U(lo, hi) by one seeded
    draw and a zero diagonal: `netsim.build_topology` at another link
    range. At `netsim.LINK_RANGE` it is that function's matrix."""
    latency = np.random.default_rng(seed).uniform(lo, hi, size=(n_nodes, n_nodes))
    np.fill_diagonal(latency, 0.0)
    return latency


def cluster_labels(n_nodes, n_clusters):
    """The cluster of each node in `clustered_links`: contiguous, balanced blocks."""
    labels = np.empty(n_nodes, dtype=np.int64)
    for cid, block in enumerate(np.array_split(np.arange(n_nodes), n_clusters)):
        labels[block] = cid
    return labels


def clustered_links(n_nodes, seed, n_clusters, intra=(5.0, 15.0), inter=(80.0, 120.0)):
    """A latency matrix of low-latency clusters (`cluster_labels`) joined by
    high-latency links: every link is drawn from U(*inter), then the links
    within a cluster are redrawn from U(*intra) in row-major order, from one
    seeded generator; the diagonal is zero."""
    rng = np.random.default_rng(seed)
    labels = cluster_labels(n_nodes, n_clusters)
    latency = rng.uniform(*inter, size=(n_nodes, n_nodes))
    same = labels[:, None] == labels[None, :]
    latency[same] = rng.uniform(*intra, size=int(same.sum()))
    np.fill_diagonal(latency, 0.0)
    return latency


def build_setup(
    n_nodes=6,
    n_pools=2,
    seed=0,
    alpha=0.1,
    topology=None,
    target=0.90,
    deadline=1e9,
    n_features=6,
    n_classes=3,
    separation=4.0,
    train=None,
    max_rounds=20,
    **overrides,
):
    """Small, fast task/round fixture shared by protocol-level tests.
    `topology(n_nodes, seed)` draws the latency matrix, by default
    `netsim.build_topology`."""
    arch = fed.Architecture(n_features=n_features, n_classes=n_classes)
    n_example, n_held = 240, 400
    full = data.make_blobs(
        n_example + n_held + 80 * n_nodes,
        n_features,
        n_classes,
        seed=seed + 1,
        separation=separation,
    )
    example = full.subset(np.arange(n_example))
    held_out = full.subset(np.arange(n_example, n_example + n_held))
    base = full.subset(np.arange(n_example + n_held, len(full)))
    parts = data.partition_noniid(base, [alpha] * n_nodes, seed=seed + 4)
    latency = (topology or netsim.build_topology)(n_nodes, seed + 5)
    compute = netsim.draw_compute_times(n_nodes, seed=seed + 6)
    task = chain.Task(
        task_id=1,
        arch=arch,
        example=example,
        held_out=held_out,
        target=target,
        deadline=deadline,
        reward=1000,
    )
    setup = chain.RoundSetup(
        task=task,
        latency=latency,
        compute_times=compute,
        miner_data=parts,
        n_pools=n_pools,
        seed=seed,
        train=train or fed.TrainConfig(lr=0.5, epochs=2, batch_size=32),
        max_rounds=max_rounds,
        **overrides,
    )
    return setup


@pytest.fixture
def small_setup():
    return build_setup()


@pytest.fixture(scope="session")
def mode_ledgers():
    """One ledger per mode, each holding the `experiments.build_round_setup`
    round at 20 nodes, 2 pools and seed 0. A test copies one before editing it."""
    built = {}
    for mode in chain.MODES:
        built[mode] = chain.Chain()
        setup = experiments.build_round_setup(experiments.ExperimentConfig(), 20, 2, 0)
        chain.run_round(built[mode], setup, mode)
    return built
