import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedchain import data, fed
from fedchain.errors import (
    AggregationShapeError,
    NonFiniteLossError,
    TrainingDivergedError,
    UndefinedDivergenceError,
)
from conftest import gradient_check, kernel_loss_grad, label_histogram


@pytest.fixture
def arch():
    return fed.Architecture(n_features=4, n_classes=3)


@pytest.fixture
def small_set():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(12, 4))
    y = rng.integers(0, 3, size=12).astype(np.int64)
    return data.Dataset(x, y, 3)


class TestLocalLoss:
    def test_uniform_output_model(self):
        arch = fed.Architecture(n_features=5, n_classes=10)
        model = fed.DenseClassifier(arch, weights=np.zeros(arch.n_weights))
        rng = np.random.default_rng(1)
        ds = data.Dataset(rng.normal(size=(7, 5)), rng.integers(0, 10, 7), 10)
        assert fed.local_loss(model, ds) == pytest.approx(7 * math.log(10), rel=1e-12)

    def test_confident_correct_model(self):
        arch = fed.Architecture(n_features=2, n_classes=2)
        # Large logit margin drives the loss to zero.
        w = np.array([100.0, -100.0, 0.0, 0.0, 0.0, 0.0])
        model = fed.DenseClassifier(arch, weights=w)
        ds = data.Dataset(np.array([[1.0, 0.0]]), np.array([0]), 2)
        assert fed.local_loss(model, ds) < 1e-12

    def test_three_sample_fixture_matches_hand_computation(self, arch):
        rng = np.random.default_rng(5)
        model = fed.DenseClassifier(arch, seed=5)
        x = rng.normal(size=(3, 4))
        y = np.array([0, 2, 1])
        ds = data.Dataset(x, y, 3)
        expected = 0.0
        for i in range(3):
            logits = x[i] @ model.weights[:12].reshape(4, 3) + model.weights[12:]
            probs = np.exp(logits) / np.exp(logits).sum()
            expected += -math.log(probs[y[i]])
        assert fed.local_loss(model, ds) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("case", ["nan_weight", "inf_weight", "overflowing_loss"])
    def test_non_finite_rejected(self, arch, small_set, case):
        weights = np.zeros(arch.n_weights)
        if case == "nan_weight":
            weights[0] = np.nan
        elif case == "inf_weight":
            weights[-1] = np.inf
        else:  # finite weights whose logits overflow, so the loss is NaN
            weights[:] = 1e308
        model = fed.DenseClassifier(arch, weights=weights)
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteLossError) as raised:
                fed.local_loss(model, small_set)
        assert str(raised.value).startswith(
            "loss evaluated" if case == "overflowing_loss" else "model weights"
        )


class TestLocalTrain:
    def test_zero_lr_no_change(self, arch, small_set):
        model = fed.DenseClassifier(arch, seed=2)
        cfg = fed.TrainConfig(lr=0.0, epochs=2)
        trained = fed.local_train(model, small_set, cfg, seed=0)
        assert np.array_equal(trained.weights, model.weights)

    def test_loss_decreases_on_separable_fixture(self, arch):
        ds = data.make_blobs(120, n_features=4, n_classes=3, seed=6, separation=4.0)
        model = fed.DenseClassifier(fed.Architecture(4, 3), seed=1)
        cfg = fed.TrainConfig(lr=0.5, epochs=3)
        before = fed.local_loss(model, ds)
        after = fed.local_loss(fed.local_train(model, ds, cfg, seed=3), ds)
        assert after < before

    def test_deterministic(self, arch, small_set):
        model = fed.DenseClassifier(arch, seed=2)
        cfg = fed.TrainConfig(lr=0.1, epochs=2)
        a = fed.local_train(model, small_set, cfg, seed=9)
        b = fed.local_train(model, small_set, cfg, seed=9)
        assert np.array_equal(a.weights, b.weights)


def oracle_loss_grad(model, x, y):
    """The textbook gradient: a fresh stable softmax, a copied dlogits, and
    the parts concatenated."""
    logits = model._forward(x)
    logits = logits - logits.max(axis=1, keepdims=True)
    expl = np.exp(logits)
    probs = expl / expl.sum(axis=1, keepdims=True)
    dlogits = probs.copy()
    dlogits[np.arange(len(y)), y] -= 1.0
    gw = x.T @ dlogits
    gb = dlogits.sum(axis=0)
    return np.concatenate([gw.ravel(), gb])


def sgd_step(weights, grad, lr):
    """One gradient-descent update: w - lr * grad."""
    return weights - lr * grad


def test_quadratic_gd_step():
    # f(w) = w^2 from w=1 with lr 0.1: w' = 1 - 0.1 * 2 = 0.8
    assert sgd_step(np.array([1.0]), np.array([2.0]), 0.1)[0] == pytest.approx(0.8)


def oracle_local_train(model, dataset, cfg, seed=0):
    """One fresh model, fancy-indexed batch and gradient per step."""
    rng = np.random.default_rng(seed)
    weights = model.weights.copy()
    n = len(dataset)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            trained = model.clone(weights)
            grad = oracle_loss_grad(trained, dataset.x[batch], dataset.y[batch]) / len(batch)
            weights = sgd_step(weights, grad, cfg.lr)
        if not np.all(np.isfinite(weights)):
            raise TrainingDivergedError("weights became non-finite during training")
    return model.clone(weights)


class TestTrainingOracle:
    """`local_train` and its gradient kernel `_loss_grad_into` are
    bit-identical to the textbook loop."""

    @staticmethod
    def outcome(train, model, dataset, cfg, seed):
        with np.errstate(all="ignore"):
            try:
                return train(model, dataset, cfg, seed).weights
            except TrainingDivergedError:
                return "diverged"

    @pytest.mark.parametrize("n", [0, 1, 5, 32, 40, 100, 129])
    @pytest.mark.parametrize("batch_size", [1, 7, 32, 64])
    def test_matches_oracle(self, n, batch_size):
        rng = np.random.default_rng([n, batch_size, 0])
        for variant, (dtype, scale, layout) in enumerate([
            (np.float64, 1.0, "C"), (np.float32, 1.0, "C"), (np.float64, 50.0, "C"),
            (np.float64, 1.0, "F"), (np.float32, 1.0, "strided"),
        ]):
            n_features, n_classes = int(rng.integers(1, 16)), int(rng.integers(2, 12))
            arch = fed.Architecture(n_features, n_classes)
            model = fed.DenseClassifier(arch, rng.normal(0.0, 0.5, arch.n_weights))
            x = (rng.normal(size=(n, n_features)) * scale).astype(dtype)
            # the trainer gathers rows with `take`: feed it rows that are not
            # C-contiguous too, in Fortran order or as every other column
            if layout == "F":
                x = np.asfortranarray(x)
            elif layout == "strided":
                x = np.repeat(x, 2, axis=1)[:, ::2]
            ds = data.Dataset(x, rng.integers(0, n_classes, n), n_classes)
            with np.errstate(all="ignore"):
                assert np.array_equal(
                    kernel_loss_grad(model, ds.x, ds.y), oracle_loss_grad(model, ds.x, ds.y)
                )
            for i, lr in enumerate([0.0, 0.02, 0.5, 1.3]):
                cfg = fed.TrainConfig(lr=lr, epochs=1 + (i + variant) % 2, batch_size=batch_size)
                seed = int(rng.integers(1 << 30))
                got = self.outcome(fed.local_train, model, ds, cfg, seed)
                want = self.outcome(oracle_local_train, model, ds, cfg, seed)
                assert np.array_equal(got, want), (variant, lr)

    def test_divergence_raises(self):
        arch = fed.Architecture(n_features=3, n_classes=2)
        rng = np.random.default_rng(4)
        ds = data.Dataset(rng.normal(size=(16, 3)) * 1e200, rng.integers(0, 2, 16), 2)
        model = fed.DenseClassifier(arch, seed=4)
        cfg = fed.TrainConfig(lr=1e200, epochs=1, batch_size=4)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError):
                oracle_local_train(model, ds, cfg, seed=1)
            with pytest.raises(TrainingDivergedError):
                fed.local_train(model, ds, cfg, seed=1)

    def test_model_and_dataset_untouched(self, small_set):
        model = fed.DenseClassifier(fed.Architecture(4, 3), seed=6)
        weights, x, y = model.weights.copy(), small_set.x.copy(), small_set.y.copy()
        trained = fed.local_train(model, small_set, fed.TrainConfig(lr=0.3, epochs=2), seed=2)
        assert trained.weights is not model.weights
        assert np.array_equal(model.weights, weights)
        assert np.array_equal(small_set.x, x) and np.array_equal(small_set.y, y)


class TestGradientCheck:
    """The finite-difference check on the kernel `local_train` runs."""

    def test_dense_below_tolerance(self, arch, small_set):
        model = fed.DenseClassifier(arch, seed=3)
        assert gradient_check(model, small_set) < 1e-4

    def test_scaled_gradient_negative_control(self, arch, small_set):
        def doubled(model, x, y):
            return 2.0 * kernel_loss_grad(model, x, y)

        model = fed.DenseClassifier(arch, seed=3)
        assert gradient_check(model, small_set, grad=doubled) == pytest.approx(1.0, abs=0.1)

    def test_matches_independent_recomputation(self, arch, small_set):
        model = fed.DenseClassifier(arch, seed=4)
        h = 1e-4
        analytic = kernel_loss_grad(model, small_set.x, small_set.y)
        fd = np.empty_like(analytic)
        for i in range(len(fd)):
            up = model.weights.copy()
            up[i] += h
            down = model.weights.copy()
            down[i] -= h
            fd[i] = (
                model.clone(up).loss(small_set.x, small_set.y)
                - model.clone(down).loss(small_set.x, small_set.y)
            ) / (2 * h)
        expected = np.max(np.abs(analytic - fd)) / max(np.max(np.abs(fd)), 1e-12)
        assert gradient_check(model, small_set, h=h) == pytest.approx(expected, rel=1e-9)


class TestFedavgWeights:
    @pytest.mark.parametrize(
        "sizes,expected",
        [
            ([100, 100], [0.5, 0.5]),
            ([10, 30], [0.25, 0.75]),
            ([7, 11, 2], [0.35, 0.55, 0.10]),
        ],
    )
    def test_values(self, sizes, expected):
        assert fed.fedavg_weights(sizes) == pytest.approx(expected, abs=1e-15)


def kl_bits(p, q):
    """`fed.kl_divergences` of `p` from `q`, as a one-row input and as the
    middle row of a three-row input, which must agree."""
    [one] = fed.kl_divergences(np.asarray(p)[None], q)
    many = fed.kl_divergences(np.stack([q, p, np.full(len(q), 1.0 / len(q))]), q)
    assert many[1] == one
    return one


class TestKlDivergence:
    """The batched divergences `kl_weights` runs."""

    def test_identical_zero(self):
        h = np.array([0.3, 0.7])
        assert kl_bits(h, h) == 0.0

    def test_one_hot_vs_uniform(self):
        p = data.smooth_histogram(np.array([1.0, 0.0]))
        q = np.array([0.5, 0.5])
        expected = p[0] * math.log2(p[0] / 0.5) + p[1] * math.log2(p[1] / 0.5)
        assert kl_bits(p, q) == pytest.approx(expected, abs=1e-12)
        assert abs(kl_bits(p, q) - 1.0) < 1e-4  # ~1 bit up to smoothing

    def test_closed_form_two_class(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        expected = 0.5 * math.log2(2.0) + 0.5 * math.log2(2.0 / 3.0)
        assert kl_bits(p, q) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.2075187496, abs=1e-9)

    def test_zero_reference_rejected(self):
        p, q = np.array([0.5, 0.5]), np.array([1.0, 0.0])
        with pytest.raises(UndefinedDivergenceError):
            fed.kl_divergences(p[None], q)
        with pytest.raises(UndefinedDivergenceError):
            fed.kl_divergences(np.stack([q, p]), q)

    @given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative(self, raw):
        rng = np.random.default_rng(1)
        p = np.asarray(raw) / np.sum(raw)
        q_raw = rng.uniform(0.01, 10.0, size=len(raw))
        q = q_raw / q_raw.sum()
        assert kl_bits(p, q) >= 0.0


class TestKlWeights:
    def test_iid_miners_uniform(self):
        ref = np.full(4, 0.25)
        weights = fed.kl_weights([ref, ref, ref], ref, sizes=[10, 10, 10])
        assert weights == pytest.approx([1 / 3] * 3)

    def test_clamp_rule_from_divergences(self):
        # D_KL = {0.2, 0.4, 0.8} -> raw {0.8, 0.6, 0.2} -> normalize by 1.6
        raw = np.maximum(0.0, 1.0 - np.array([0.2, 0.4, 0.8]))
        assert (raw / raw.sum()) == pytest.approx([0.5, 0.375, 0.125])

    def test_one_miner_fully_divergent(self):
        ref = np.full(2, 0.5)
        skewed = data.smooth_histogram(np.array([1.0, 0.0]))  # ~1 bit from ref
        weights = fed.kl_weights([ref, skewed], ref, sizes=[5, 5])
        assert weights[0] == pytest.approx(1.0, abs=1e-3)
        assert weights[1] == pytest.approx(0.0, abs=1e-3)

    def test_all_clamped_falls_back_to_fedavg(self):
        ref = data.smooth_histogram(np.array([1.0, 0.0, 0.0]))
        far = data.smooth_histogram(np.array([0.0, 0.0, 1.0]))  # D_KL >> 1
        weights = fed.kl_weights([far, far], ref, sizes=[30, 10])
        assert weights == pytest.approx([0.75, 0.25])

    @given(st.integers(2, 6), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_simplex_property(self, k, seed):
        rng = np.random.default_rng(seed)
        hists = [data.smooth_histogram(h) for h in rng.dirichlet(np.ones(5), size=k)]
        ref = data.smooth_histogram(rng.dirichlet(np.ones(5)))
        sizes = rng.integers(1, 50, size=k).tolist()
        weights = fed.kl_weights(hists, ref, sizes)
        assert np.all(weights >= 0)
        assert weights.sum() == pytest.approx(1.0)


def oracle_kl_divergence(p, q):
    """KL divergence in bits of one histogram, over `p`'s support."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    support = p > 0
    if np.any(q[support] == 0):
        raise UndefinedDivergenceError("reference histogram has a zero on p's support")
    return float(np.sum(p[support] * np.log2(p[support] / q[support])))


def loop_kl_weights(histograms, reference, sizes):
    """`kl_weights` one row at a time: an `oracle_kl_divergence` call per miner."""
    raw = np.array([max(0.0, 1.0 - oracle_kl_divergence(h, reference)) for h in histograms])
    total = raw.sum()
    if total == 0.0:
        return fed.fedavg_weights(sizes)
    return raw / total


def same_kl_weights(histograms, reference, sizes):
    """Both forms raise UndefinedDivergenceError, or give the same bits,
    row by row for the divergences and for the weights; returns the weights
    (None when both raised). Extreme entries overflow or underflow the same
    way in both, so their warnings are silenced."""
    with np.errstate(all="ignore"):
        try:
            rows = np.array([oracle_kl_divergence(h, reference) for h in histograms])
        except UndefinedDivergenceError:
            with pytest.raises(UndefinedDivergenceError):
                fed.kl_divergences(histograms, reference)
            with pytest.raises(UndefinedDivergenceError):
                fed.kl_weights(histograms, reference, sizes)
            return None
        assert fed.kl_divergences(histograms, reference).tobytes() == rows.tobytes()
        want = loop_kl_weights(histograms, reference, sizes)
        got = fed.kl_weights(histograms, reference, sizes)
    assert got.tobytes() == want.tobytes()
    return got


class TestKlWeightsOracle:
    """The one-pass `kl_divergences` and `kl_weights` equal the per-row
    loop bit for bit."""

    entries = st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.floats(0.0, 1e300))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_raw_histograms(self, draws):
        """Zeros anywhere, in rows (outside the support) and in the
        reference (undefined on the support), and extreme magnitudes."""
        k, c = draws.draw(st.integers(1, 8)), draws.draw(st.integers(1, 24))
        hists = draws.draw(hnp.arrays(np.float64, (k, c), elements=self.entries))
        reference = draws.draw(hnp.arrays(np.float64, (c,), elements=self.entries))
        sizes = draws.draw(st.lists(st.integers(1, 100), min_size=k, max_size=k))
        same_kl_weights(hists, reference, sizes)
        same_kl_weights(list(hists), reference, sizes)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_rows_with_holes(self, draws):
        """Rows with zeros among comparable entries: a sum with zeros in
        place of the missing terms would round differently from the
        support's own sum in about two cases of five."""
        k, c = draws.draw(st.integers(1, 6)), draws.draw(st.integers(9, 24))
        entries = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
        hists = draws.draw(hnp.arrays(np.float64, (k, c), elements=entries))
        reference = draws.draw(hnp.arrays(np.float64, (c,), elements=st.floats(0.01, 1.0)))
        same_kl_weights(hists, reference, [1] * k)

    def test_undefined_divergence_clamps_to_zero(self):
        """A row whose terms hold both +inf and -inf has a NaN divergence;
        its factor clamps to 0, as max(0.0, nan) does, so a lone such miner
        falls back to FedAvg."""
        hists, reference = np.array([[5e-324, 1e300]]), np.array([2.0, 1e-300])
        got = same_kl_weights(hists, reference, [7])
        assert got.tolist() == [1.0]

    @given(st.integers(1, 12), st.integers(2, 40), st.sampled_from([0.05, 1.0, 50.0]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_smoothed_histograms(self, k, c, alpha, seed):
        """What the chain passes: smoothed, so every row has full support."""
        rng = np.random.default_rng(seed)
        hists = np.stack([data.smooth_histogram(h) for h in rng.dirichlet(np.full(c, alpha), k)])
        reference = data.smooth_histogram(rng.dirichlet(np.full(c, alpha)))
        sizes = rng.integers(1, 50, size=k).tolist()
        assert same_kl_weights(hists, reference, sizes) is not None

    @given(st.integers(1, 8), st.integers(2, 24), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_all_clamped_fallback(self, k, c, seed):
        """Rows with no mass where the reference has nearly all of it are
        about log2(1 / eps) bits away: every factor clamps to zero."""
        rng = np.random.default_rng(seed)
        raw = rng.dirichlet(np.ones(c - 1), size=k)
        hists = np.stack([data.smooth_histogram(np.concatenate([[0.0], r])) for r in raw])
        reference = data.smooth_histogram(np.eye(c)[0])
        sizes = rng.integers(1, 50, size=k).tolist()
        got = same_kl_weights(hists, reference, sizes)
        assert got.tobytes() == fed.fedavg_weights(sizes).tobytes()

    def test_zero_reference_on_the_support_raises(self):
        hists = np.array([[0.5, 0.5], [1.0, 0.0]])
        with pytest.raises(UndefinedDivergenceError):
            fed.kl_weights(hists, np.array([1.0, 0.0]), [1, 1])
        # a zero outside every row's support is fine
        got = same_kl_weights(np.array([[1.0, 0.0], [0.5, 0.0]]), np.array([1.0, 0.0]), [1, 1])
        assert got.tolist() == [0.4, 0.6]  # raw factors 1 and 1.5


class TestAggregationWeights:
    """One helper gives the chain's and the sweep's weights."""

    def parts(self):
        base = data.make_blobs(300, 4, 5, seed=3)
        return data.partition_noniid(base, 4, alpha=0.3, seed=4), base.subset(np.arange(100))

    def test_fedavg_is_size_weights(self):
        parts, example = self.parts()
        got = fed.aggregation_weights("fedavg", parts, example)
        assert got.tolist() == fed.fedavg_weights([len(p) for p in parts]).tolist()

    def test_kl_against_the_example_histogram(self):
        parts, example = self.parts()
        ref = data.smooth_histogram(label_histogram(example))
        hists = [data.smooth_histogram(label_histogram(p)) for p in parts]
        want = loop_kl_weights(hists, ref, [len(p) for p in parts])
        assert fed.aggregation_weights("kl", parts, example).tolist() == want.tolist()

    def test_unknown_scheme_rejected(self):
        parts, example = self.parts()
        with pytest.raises(ValueError, match="unknown aggregation scheme: median"):
            fed.aggregation_weights("median", parts, example)


class TestAggregate:
    def test_single_miner_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(fed.aggregate([v], np.array([1.0])), v)

    def test_identical_models_fixed_point(self):
        v = np.array([4.0, -1.0])
        out = fed.aggregate([v, v.copy()], np.array([0.3, 0.7]))
        assert out == pytest.approx(v)

    def test_weighted_combination(self):
        out = fed.aggregate(
            [np.array([0.0, 0.0]), np.array([4.0, 8.0])], np.array([0.25, 0.75])
        )
        assert out.tolist() == [3.0, 6.0]

    def test_shape_mismatch(self):
        with pytest.raises(AggregationShapeError):
            fed.aggregate([np.zeros(2), np.zeros(3)], np.array([0.5, 0.5]))


class TestEvaluate:
    def test_memorizing_model(self):
        arch = fed.Architecture(n_features=3, n_classes=3)
        # identity feature map: logits = x, so argmax(x) == label
        w = np.concatenate([np.eye(3).ravel() * 10, np.zeros(3)])
        model = fed.DenseClassifier(arch, weights=w)
        x = np.eye(3)[np.array([0, 1, 2, 1])]
        ds = data.Dataset(x, np.array([0, 1, 2, 1]), 3)
        assert fed.evaluate(model, ds) == 1.0

    def test_random_model_chance_level(self):
        arch = fed.Architecture(n_features=6, n_classes=10)
        model = fed.DenseClassifier(arch, seed=11)
        ds = data.make_blobs(2000, n_features=6, n_classes=10, seed=12)
        acc = fed.evaluate(model, ds)
        assert 0.02 < acc < 0.25  # wide binomial band around 0.1

    def test_matches_hand_count(self):
        arch = fed.Architecture(n_features=2, n_classes=2)
        model = fed.DenseClassifier(arch, weights=np.array([5.0, -5.0, 0.0, 0.0, 0.0, 0.0]))
        x = np.array([[1, 0], [1, 0], [-1, 0], [-1, 0], [1, 0],
                      [-1, 0], [1, 0], [-1, 0], [1, 0], [1, 0]], dtype=float)
        y = np.array([0, 0, 1, 1, 1, 1, 0, 0, 0, 0])
        # model predicts class 0 when x[0] > 0: correct for 8 of 10 rows
        ds = data.Dataset(x, y, 2)
        assert fed.evaluate(model, ds) == pytest.approx(0.8)


def test_fedavg_equivalence_iid_equal_sizes():
    base = data.make_blobs(800, n_features=6, n_classes=4, seed=20)
    parts = data.partition_noniid(base, 4, alpha=0.0, seed=21)
    hists = [data.smooth_histogram(label_histogram(p)) for p in parts]
    ref = data.smooth_histogram(label_histogram(base))
    sizes = [len(p) for p in parts]
    kl_w = fed.kl_weights(hists, ref, sizes)
    fa_w = fed.fedavg_weights(sizes)
    assert np.max(np.abs(kl_w - fa_w)) < 0.02
