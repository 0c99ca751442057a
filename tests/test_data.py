import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedchain import data
from fedchain.errors import PartitionUnderflowError
from fedchain.fed import kl_divergences
from conftest import label_histogram


def part_divergences(parts, reference):
    """Each part's smoothed label histogram's divergence from `reference`."""
    return kl_divergences([data.smooth_histogram(label_histogram(p)) for p in parts], reference)


def oracle_partition_noniid(dataset, n_parts, alpha, seed, alphas=None):
    """The list-of-scalars loop `partition_noniid` replaced: pools trimmed
    with `del`, target counts recomputed for every part."""
    c = dataset.n_classes
    rng = np.random.default_rng(seed)
    pools = [list(rng.permutation(np.flatnonzero(dataset.y == cls))) for cls in range(c)]
    sizes = np.full(n_parts, len(dataset) // n_parts)
    sizes[: len(dataset) % n_parts] += 1
    parts = []
    for j in range(n_parts):
        a = alpha if alphas is None else float(alphas[j])
        target = (1.0 - a) * np.full(c, 1.0 / c) + a * np.eye(c)[j % c]
        counts = data.largest_remainder(int(sizes[j]), target)
        chosen = []
        for cls in range(c):
            take = min(int(counts[cls]), len(pools[cls]))
            chosen.extend(pools[cls][:take])
            del pools[cls][:take]
        if not chosen:
            richest = max(range(c), key=lambda cls: (len(pools[cls]), -cls))
            if pools[richest]:
                chosen.append(pools[richest].pop(0))
        indices = np.array(chosen, dtype=np.int64)
        parts.append(dataset.subset(indices[rng.permutation(len(indices))]))
    return parts


def oracle_make_blobs(n_samples, n_features=16, n_classes=10, seed=0, separation=2.5):
    """The per-class loop `make_blobs` replaced: one noise draw per class,
    added to a fresh copy of the class center, then concatenated."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, size=(n_classes, n_features))
    centers *= separation / np.linalg.norm(centers, axis=1, keepdims=True)
    per_class = np.full(n_classes, n_samples // n_classes)
    per_class[: n_samples % n_classes] += 1
    xs, ys = [], []
    for cls in range(n_classes):
        xs.append(centers[cls] + rng.normal(0.0, 1.0, size=(per_class[cls], n_features)))
        ys.append(np.full(per_class[cls], cls, dtype=np.int64))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    order = rng.permutation(len(y))
    return data.Dataset(x[order], y[order], n_classes)


@pytest.fixture
def balanced():
    return data.make_blobs(1000, n_features=8, n_classes=10, seed=3)


class TestHistogram:
    def test_frequencies(self):
        hist = data.label_histograms([np.array([0, 0, 1, 2])], 4)[0]
        assert hist.tolist() == [0.5, 0.25, 0.25, 0.0]

    def test_smoothing_positive_and_normalized(self):
        hist = data.smooth_histogram(np.array([1.0, 0.0]))
        assert np.all(hist > 0)
        assert hist.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_label_outside_the_classes_rejected(self, bad):
        # in a middle row it would count toward a neighbouring row's class
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            data.label_histograms([np.array([0, 1]), np.array([bad]), np.array([2])], 3)

    @given(st.integers(1, 12), st.lists(st.integers(0, 60), min_size=1, max_size=8),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_match_one_histogram_at_a_time(self, n_classes, sizes, seed):
        """One bincount over every label set, then row-wise smoothing, gives
        each set's own histogram bit for bit (an empty set's row is NaN, as
        its own histogram is)."""
        rng = np.random.default_rng(seed)
        label_sets = [rng.integers(0, n_classes, size=n) for n in sizes]
        with np.errstate(invalid="ignore"):
            rows = data.label_histograms(label_sets, n_classes)
            smoothed = data.smooth_histogram(rows)
            for y, row, smooth_row in zip(label_sets, rows, smoothed, strict=True):
                counts = np.bincount(y, minlength=n_classes)
                hist = counts / counts.sum()
                assert row.tobytes() == hist.tobytes()
                assert data.label_histograms([y], n_classes)[0].tobytes() == hist.tobytes()
                padded = hist + data.SMOOTHING_EPS
                assert smooth_row.tobytes() == (padded / padded.sum()).tobytes()


class TestBlobs:
    def test_shapes_and_balance(self, balanced):
        assert len(balanced) == 1000
        assert balanced.n_features == 8
        counts = np.bincount(balanced.y, minlength=10)
        assert np.all(counts == 100)

    def test_deterministic(self):
        a = data.make_blobs(100, seed=7)
        b = data.make_blobs(100, seed=7)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)


    @given(st.integers(0, 300), st.integers(1, 20), st.integers(1, 15),
           st.integers(0, 2**32 - 1),
           st.one_of(st.just(0.0), st.floats(0.0, 10.0, allow_subnormal=False)))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_class_oracle(self, n_samples, n_features, n_classes, seed,
                                      separation):
        got = data.make_blobs(n_samples, n_features, n_classes, seed, separation)
        want = oracle_make_blobs(n_samples, n_features, n_classes, seed, separation)
        assert got.x.shape == want.x.shape and got.y.dtype == want.y.dtype
        assert got.x.tobytes() == want.x.tobytes()
        assert got.y.tobytes() == want.y.tobytes()


class TestCsvRoundtrip:
    def test_roundtrip(self, tmp_path, balanced):
        path = tmp_path / "fixture.csv"
        small = balanced.subset(np.arange(50))
        data.save_csv(small, str(path))
        loaded = data.load_csv(str(path))
        assert loaded.n_classes == 10
        assert np.array_equal(loaded.y, small.y)
        assert np.allclose(loaded.x, small.x, rtol=1e-8)


class TestPartitionNoniid:
    def test_iid_limit_matches_global(self, balanced):
        parts = data.partition_noniid(balanced, [0.0] * 4, seed=1)
        global_hist = label_histogram(balanced)
        for part in parts:
            # chi-squared distance to the global histogram stays small
            hist = label_histogram(part)
            chi2 = np.sum((hist - global_hist) ** 2 / (global_hist + 1e-12))
            assert chi2 < 0.05

    def test_skew_limit_near_single_label(self, balanced):
        parts = data.partition_noniid(balanced, [1.0] * 4, seed=1)
        for j, part in enumerate(parts):
            hist = label_histogram(part)
            assert hist[j % 10] > 0.95

    def test_mid_alpha_between_extremes(self, balanced):
        uniform = np.full(10, 0.1)

        def mean_kl(alpha):
            parts = data.partition_noniid(balanced, [alpha] * 4, seed=2)
            return np.mean(part_divergences(parts, uniform))

        low, mid, high = mean_kl(0.0), mean_kl(0.5), mean_kl(1.0)
        assert low < mid < high

    def test_parts_disjoint_within_base(self, balanced):
        parts = data.partition_noniid(balanced, [0.4] * 5, seed=9)
        rows = np.concatenate([p.x for p in parts])
        # samples drawn without replacement: no row reused across parts
        assert len(np.unique(rows, axis=0)) == len(rows)
        assert sum(len(p) for p in parts) <= len(balanced)
        assert all(len(p) >= 1 for p in parts)

    def test_iid_partition_covers_base(self, balanced):
        parts = data.partition_noniid(balanced, [0.0] * 4, seed=9)
        assert sum(len(p) for p in parts) == len(balanced)

    def test_deterministic(self, balanced):
        a = data.partition_noniid(balanced, [0.5] * 3, seed=11)
        b = data.partition_noniid(balanced, [0.5] * 3, seed=11)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.y, pb.y)

    def test_per_part_alpha_schedule(self, balanced):
        parts = data.partition_noniid(balanced, [0.0, 0.4, 0.8], seed=4)
        uniform = np.full(10, 0.1)
        kls = part_divergences(parts, uniform)
        assert kls[0] < kls[1] < kls[2]

    def test_underflow(self):
        tiny = data.make_blobs(3, n_classes=3, seed=0)
        with pytest.raises(PartitionUnderflowError):
            data.partition_noniid(tiny, [0.0] * 4, seed=0)

    def test_bad_alpha(self, balanced):
        with pytest.raises(ValueError, match=r"alpha of part 0 must be in \[0, 1\], got 1.5"):
            data.partition_noniid(balanced, [1.5] * 2, seed=0)

    @pytest.mark.parametrize("n_parts", [1, 3, 10])
    def test_one_part_per_alpha(self, balanced, n_parts):
        parts = data.partition_noniid(balanced, np.linspace(0.0, 1.0, n_parts), seed=5)
        assert len(parts) == n_parts

    def test_empty_alphas_rejected(self, balanced):
        with pytest.raises(ValueError, match="alphas must hold one entry per part, got none"):
            data.partition_noniid(balanced, [], seed=0)

    def assert_matches_oracle(self, dataset, n_parts, alpha, seed, alphas=None):
        got = data.partition_noniid(
            dataset, [alpha] * n_parts if alphas is None else alphas, seed
        )
        want = oracle_partition_noniid(dataset, n_parts, alpha, seed, alphas=alphas)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.y.dtype == w.y.dtype and g.x.shape == w.x.shape
            assert np.array_equal(g.x, w.x) and np.array_equal(g.y, w.y)
        return got

    @pytest.mark.parametrize("seed", [0, 1, 17])
    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.37, 0.8, 1.0])
    @pytest.mark.parametrize("n_parts", [1, 4, 7, 60])
    def test_matches_list_oracle(self, balanced, n_parts, alpha, seed):
        self.assert_matches_oracle(balanced, n_parts, alpha, seed)

    @pytest.mark.parametrize("seed", [2, 3])
    def test_matches_list_oracle_per_part_alphas(self, balanced, seed):
        alphas = np.random.default_rng(seed).uniform(0.0, 1.0, size=25).tolist()
        alphas[3] = alphas[13] = 1.0  # repeated schedule entries share target counts
        self.assert_matches_oracle(balanced, 25, 0.5, seed, alphas=alphas)

    def test_matches_list_oracle_drained_pools_and_top_up(self):
        # Class 1 has 2 rows and class 2 has 3, so the parts that prefer
        # them at alpha=1 drain those pools and later ones come out empty
        # before the top-up from the richest pool.
        y = np.array([0] * 40 + [1] * 2 + [2] * 3, dtype=np.int64)
        x = np.arange(len(y) * 2, dtype=np.float64).reshape(len(y), 2)
        skewed = data.Dataset(x, y, 3)
        parts = self.assert_matches_oracle(skewed, 15, 1.0, 5)
        assert min(len(p) for p in parts) == 1  # a topped-up part
        self.assert_matches_oracle(skewed, 15, 0.6, 6)
        self.assert_matches_oracle(skewed, 45, 1.0, 7)

    def test_matches_list_oracle_top_up_tie(self):
        # Class 0 drains on part 0; part 3 then tops up from classes 1 and
        # 2, which tie on rows left, so the lower class must give the row.
        y = np.array([0] + [1] * 10 + [2] * 10, dtype=np.int64)
        x = np.arange(len(y), dtype=np.float64).reshape(len(y), 1)
        parts = self.assert_matches_oracle(data.Dataset(x, y, 3), 21, 1.0, 3)
        assert parts[3].y.tolist() == [1]

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_list_oracle_property(self, source):
        """Random label supplies (some classes scarce or empty, so pools
        drain and parts need top-ups), part counts up to one row per part,
        and one alpha for every part or a per-part schedule, with exact 0s
        and 1s."""
        n_classes = source.draw(st.integers(1, 6))
        supply = source.draw(st.lists(st.integers(0, 30), min_size=n_classes,
                                    max_size=n_classes).filter(sum))
        seed = source.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        y = rng.permutation(np.repeat(np.arange(n_classes), supply))
        dataset = data.Dataset(rng.normal(size=(len(y), 2)), y, n_classes)
        n_parts = source.draw(st.integers(1, len(y)))
        alpha_values = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
        alpha = source.draw(alpha_values)
        alphas = source.draw(st.one_of(
            st.none(), st.lists(alpha_values, min_size=n_parts, max_size=n_parts)
        ))
        self.assert_matches_oracle(dataset, n_parts, alpha, seed, alphas=alphas)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_parts_share_no_memory(self, balanced, alpha):
        parts = data.partition_noniid(balanced, [alpha] * 7, seed=3)
        arrays = [a for p in parts for a in (p.x, p.y)]
        for i, a in enumerate(arrays):
            assert not np.shares_memory(a, balanced.x)
            assert not np.shares_memory(a, balanced.y)
            for b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize(
        "alphas, part", [([1.5, 0, 0, 0], 0), ([float("nan"), 0, 0, 0], 0),
                         ([0, 0.5, -0.1, 2.0], 2), ([0, 1, 1, float("inf")], 3)]
    )
    def test_bad_per_part_alpha(self, balanced, alphas, part):
        with pytest.raises(ValueError, match=rf"alpha of part {part} must be in \[0, 1\]"):
            data.partition_noniid(balanced, alphas, seed=0)


def oracle_largest_remainder(total, shares):
    """Largest remainder one entry at a time, as `partition_noniid` counted
    its targets (`total * share`) and `chain.split_reward` its credits."""
    raw = [total * float(s) for s in shares]
    counts = [int(np.floor(r)) for r in raw]
    order = sorted(range(len(raw)), key=lambda i: -(raw[i] - counts[i]))
    for i in order[: max(0, total - sum(counts))]:
        counts[i] += 1
    return counts


class TestLargestRemainder:
    """The one apportionment of `partition_noniid`'s target counts and of
    reward splits: the entry-by-entry oracle's counts, bit for bit, summing
    to the total."""

    @given(st.integers(0, 10**6), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle(self, total, k, seed):
        rng = np.random.default_rng(seed)
        shares = rng.dirichlet(np.ones(k)) if seed % 2 else np.full(k, 1.0 / k)
        got = data.largest_remainder(total, shares)
        assert got.dtype == np.int64
        assert got.tolist() == oracle_largest_remainder(total, shares)
        assert int(got.sum()) == total

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=8), st.integers(1, 12),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_each_row_of_a_table_matches_oracle(self, totals, k, seed):
        # one call apportions every row of a share table to its own total;
        # even rows are uniform, so their remainders tie
        rng = np.random.default_rng(seed)
        shares = rng.dirichlet(np.ones(k), size=len(totals))
        shares[::2] = 1.0 / k
        got = data.largest_remainder(np.array(totals), shares)
        assert got.dtype == np.int64 and got.shape == shares.shape
        assert got.tolist() == [oracle_largest_remainder(t, row) for t, row in zip(totals, shares)]
        shared = data.largest_remainder(totals[0], shares)
        assert shared.tolist() == [oracle_largest_remainder(totals[0], row) for row in shares]

    def test_ties_go_to_the_first(self):
        assert data.largest_remainder(2, np.full(3, 1 / 3)).tolist() == [1, 1, 0]
        assert data.largest_remainder(1000, [0.75, 0.25]).tolist() == [750, 250]
