"""Datasets, label histograms, fixture IO, and non-iid partitioning."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DatasetFixtureError, PartitionUnderflowError

SMOOTHING_EPS = 1e-6


@dataclass
class Dataset:
    x: np.ndarray  # (n, features) float64
    y: np.ndarray  # (n,) int64 labels in [0, n_classes)
    n_classes: int

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.x[indices], self.y[indices], self.n_classes)


def label_histograms(label_sets: Sequence[np.ndarray], n_classes: int) -> np.ndarray:
    """One per-label frequency row per label vector, as a (len(label_sets),
    n_classes) array counted by one bincount over row-offset labels. Raises
    ValueError on a label outside [0, n_classes), which would count toward
    a neighbouring row."""
    sizes = [len(labels) for labels in label_sets]
    offsets = np.repeat(np.arange(len(sizes)) * n_classes, sizes)
    labels = np.concatenate(label_sets).astype(np.int64, copy=False)
    if labels.size and not 0 <= labels.min() <= labels.max() < n_classes:
        raise ValueError(f"labels must lie in [0, {n_classes})")
    counts = np.bincount(offsets + labels, minlength=len(sizes) * n_classes)
    counts = counts.reshape(len(sizes), n_classes)
    return counts / counts.sum(axis=1, keepdims=True)


def smooth_histogram(hist: np.ndarray) -> np.ndarray:
    """Additive smoothing by `SMOOTHING_EPS` then renormalization, so every
    entry is positive; each row of a 2-D array is smoothed on its own."""
    h = np.asarray(hist, dtype=np.float64) + SMOOTHING_EPS
    return h / h.sum(axis=-1, keepdims=True)


def make_blobs(
    n_samples: int,
    n_features: int = 16,
    n_classes: int = 10,
    seed: int = 0,
    separation: float = 2.5,
) -> Dataset:
    """Synthetic classification fixture: one Gaussian blob per class.

    Stands in for an image-digits subset at desk scale; class centers are
    seeded unit-normal directions scaled by `separation`, samples get unit
    noise. Labels are balanced (first n_samples mod n_classes classes get
    one extra sample).

    The noise is one (n_samples, n_features) standard-normal fill, which
    reads the same stream as one draw per class in class order would and
    gives the values `normal(0, 1)` would. Each class's center is added in
    place to its contiguous block of rows, and the rows and labels are then
    shuffled by one `take` each.
    """
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, size=(n_classes, n_features))
    centers *= separation / np.linalg.norm(centers, axis=1, keepdims=True)
    per_class = np.full(n_classes, n_samples // n_classes)
    per_class[: n_samples % n_classes] += 1
    x = rng.standard_normal((n_samples, n_features))
    for center, block in zip(centers, np.split(x, np.cumsum(per_class)[:-1])):
        np.add(center, block, out=block)
    y = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
    order = rng.permutation(n_samples)
    return Dataset(x.take(order, axis=0), y.take(order), n_classes)


def save_csv(dataset: Dataset, path: str) -> None:
    """Fixture format: a `n_samples,n_features,n_classes` header, then one
    row per sample of features followed by the integer label."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(dataset)},{dataset.n_features},{dataset.n_classes}\n")
        for row, label in zip(dataset.x, dataset.y):
            fh.write(",".join(f"{v:.9g}" for v in row) + f",{label}\n")


def load_csv(path: str) -> Dataset:
    """Read a `save_csv` fixture. Raises DatasetFixtureError naming the file
    and line for a header that is not three positive ints, a row without
    one field per feature plus the label, a feature that is not a number, a
    label that is not an integer in [0, classes), or fewer rows than the
    header declares. Bytes that are not UTF-8 read as U+FFFD, so they fail
    one of these checks."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        header = fh.readline().strip()
        try:
            n, f, c = (int(v) for v in header.split(","))
        except ValueError:
            n = f = c = 0
        if min(n, f, c) < 1:
            raise DatasetFixtureError(
                f"fixture {path} line 1: header must be three positive ints "
                f"n_samples,n_features,n_classes, got {header!r}"
            )
        # Rows are collected before any array is made, so a header that
        # declares more rows or features than the file holds allocates nothing.
        x, y = [], []
        for i in range(n):
            where = f"fixture {path} line {i + 2}"
            line = fh.readline()
            if not line:
                raise DatasetFixtureError(f"{where}: header declares {n} rows, found {i}")
            fields = line.strip().split(",")
            if len(fields) != f + 1:
                raise DatasetFixtureError(f"{where}: {len(fields)} fields, need {f + 1}")
            try:
                x.append([float(v) for v in fields[:f]])
                y.append(int(fields[f]))
            except ValueError as err:
                raise DatasetFixtureError(f"{where}: {err}") from err
            if not 0 <= y[-1] < c:
                raise DatasetFixtureError(f"{where}: label {y[-1]} outside [0, {c})")
    return Dataset(np.array(x), np.array(y, dtype=np.int64), c)


def largest_remainder(totals: int | np.ndarray, shares: np.ndarray) -> np.ndarray:
    """Largest-remainder apportionment of the integer `totals` to `shares`
    (non-negative, summing to 1): each entry gets the floor of its share
    of the total, and the shortfall goes one each to the largest
    remainders, the first on a tie, so the counts sum to the total
    exactly. A 2-D `shares` apportions each row to its entry of `totals`
    (or to one shared total)."""
    raw = np.asarray(shares, dtype=np.float64) * np.expand_dims(totals, -1)
    counts = np.floor(raw).astype(np.int64)
    shortfall = np.expand_dims(totals - counts.sum(axis=-1), -1)
    rank = np.argsort(np.argsort(counts - raw, axis=-1, kind="stable"), axis=-1)
    return counts + (rank < shortfall)


def partition_noniid(dataset: Dataset, alphas: Sequence[float], seed: int) -> list[Dataset]:
    """Split a dataset into label-skewed parts, one per entry of `alphas`.

    Part j targets the label distribution (1-a)*uniform + a*onehot(j mod C)
    with a = alphas[j], drawing without replacement while class pools last.
    A part whose preferred pool drains early comes out smaller rather than
    diluted (empty parts get one top-up sample so every miner has data).
    Deterministic for a given seed.

    Each class pool is a permuted index array drawn from the front. Its
    cursor after part j is the cumulative sum of the parts' target counts
    up to j, clipped at the pool's size. An empty part takes its top-up row
    from the class with the most rows left (the lowest class on a tie);
    that moves the class's later cursors by one, so the cumulative sums
    restart after that part. Each part's rows are shuffled in part order by
    shuffling its segment of one `arange` in place, which draws what a
    permutation per part would and already carries the part's offset. The
    drawn rows are then gathered from `x` and `y` by one `take` each, and
    every part is a row slice of that one gather: no two parts share
    memory, and none shares the input's.
    """
    part_alphas = np.asarray(alphas, dtype=np.float64)
    n_parts = len(part_alphas)
    if not n_parts:
        raise ValueError("alphas must hold one entry per part, got none")
    if len(dataset) < n_parts:
        raise PartitionUnderflowError(f"{len(dataset)} samples for {n_parts} parts")
    # An alpha outside [0, 1] or NaN gives negative counts, which would move
    # a cursor backwards.
    bad = np.flatnonzero(~((part_alphas >= 0.0) & (part_alphas <= 1.0)))
    if bad.size:
        raise ValueError(f"alpha of part {bad[0]} must be in [0, 1], got {part_alphas[bad[0]]}")

    c = dataset.n_classes
    rng = np.random.default_rng(seed)
    pools = [rng.permutation(np.flatnonzero(dataset.y == cls)) for cls in range(c)]
    pool_sizes = np.array([len(pool) for pool in pools], dtype=np.int64)
    sizes = np.full(n_parts, len(dataset) // n_parts)
    sizes[: len(dataset) % n_parts] += 1
    skew = part_alphas[:, None]
    shares = (1.0 - skew) * np.full(c, 1.0 / c) + skew * np.eye(c)[np.arange(n_parts) % c]
    cum = np.zeros((n_parts + 1, c), dtype=np.int64)
    np.cumsum(largest_remainder(sizes, shares), axis=0, out=cum[1:])

    # cursors[j] holds each class's cursor before part j, cursors[-1] the end.
    # Rows cursors[: j + 1] are final; the next `width` rows follow from the
    # clipped cumulative sums up to the first part that comes out empty. The
    # width doubles while no part does and shrinks to twice the distance to
    # the last top-up, so a run of top-ups costs a few rows each rather than
    # a pass over every later part.
    cursors = np.zeros_like(cum)
    j, width = 0, n_parts
    while j < n_parts:
        stop = min(j + width, n_parts)
        cursors[j + 1 : stop + 1] = np.minimum(
            cursors[j] + cum[j + 1 : stop + 1] - cum[j], pool_sizes
        )
        empty = np.flatnonzero((cursors[j + 1 : stop + 1] == cursors[j:stop]).all(axis=1))
        if not empty.size:
            j, width = stop, 2 * width
            continue
        k = int(empty[0])
        j += k
        left = pool_sizes - cursors[j]
        if not left.any():
            cursors[j + 1 :] = pool_sizes  # every later part is empty too
            break
        cursors[j + 1, left.argmax()] += 1  # most left, lowest class on a tie
        j, width = j + 1, 2 * (k + 1)

    lengths = np.diff(cursors, axis=0).ravel()
    heads = (cursors[:-1] + (np.cumsum(pool_sizes) - pool_sizes)).ravel()
    segment_offsets = np.cumsum(lengths) - lengths
    total = int(lengths.sum())
    drawn = np.concatenate(pools).take(
        np.repeat(heads - segment_offsets, lengths) + np.arange(total)
    )
    part_sizes = lengths.reshape(n_parts, c).sum(axis=1)
    bounds = [0, *np.cumsum(part_sizes).tolist()]
    shuffle = np.arange(total)
    for a, b in zip(bounds[:-1], bounds[1:]):
        rng.shuffle(shuffle[a:b])
    picked = drawn.take(shuffle)
    x, y = dataset.x.take(picked, axis=0), dataset.y.take(picked)
    return [Dataset(x[a:b], y[a:b], c) for a, b in zip(bounds[:-1], bounds[1:])]
