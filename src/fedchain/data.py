"""Datasets, label histograms, fixture IO, and non-iid partitioning."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PartitionUnderflowError

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

    def histogram(self) -> np.ndarray:
        return label_histogram(self.y, self.n_classes)


def label_histogram(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-label frequency vector (sums to 1)."""
    return label_histograms([labels], n_classes)[0]


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


def smooth_histogram(hist: np.ndarray, eps: float = SMOOTHING_EPS) -> np.ndarray:
    """Additive smoothing then renormalization, so every entry is positive;
    each row of a 2-D array is smoothed on its own."""
    h = np.asarray(hist, dtype=np.float64) + eps
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
    """
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
    return Dataset(x[order], y[order], n_classes)


def save_csv(dataset: Dataset, path: str) -> None:
    """Fixture format: a `n_samples,n_features,n_classes` header, then one
    row per sample of features followed by the integer label."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(dataset)},{dataset.n_features},{dataset.n_classes}\n")
        for row, label in zip(dataset.x, dataset.y):
            fh.write(",".join(f"{v:.9g}" for v in row) + f",{label}\n")


def load_csv(path: str) -> Dataset:
    with open(path, encoding="utf-8") as fh:
        n, f, c = (int(v) for v in fh.readline().strip().split(","))
        x = np.empty((n, f))
        y = np.empty(n, dtype=np.int64)
        for i in range(n):
            parts = fh.readline().strip().split(",")
            x[i] = [float(v) for v in parts[:f]]
            y[i] = int(parts[f])
    return Dataset(x, y, c)


def _target_counts(size: int, dist: np.ndarray) -> np.ndarray:
    """Largest-remainder apportionment of `size` samples to the distribution."""
    raw = size * dist
    counts = np.floor(raw).astype(np.int64)
    shortfall = size - counts.sum()
    if shortfall > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:shortfall]] += 1
    return counts


def partition_noniid(
    dataset: Dataset,
    n_parts: int,
    alpha: float,
    seed: int,
    alphas: Sequence[float] | None = None,
) -> list[Dataset]:
    """Split a dataset into label-skewed parts.

    Part j targets the label distribution (1-a)*uniform + a*onehot(j mod C)
    with a = alpha (or alphas[j] when a per-part schedule is given), drawing
    without replacement while class pools last. A part whose preferred pool
    drains early comes out smaller rather than diluted (empty parts get one
    top-up sample so every miner has data). Deterministic for a given seed.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if n_parts < 1:
        raise ValueError(f"n_parts must be >= 1, got {n_parts}")
    if len(dataset) < n_parts:
        raise PartitionUnderflowError(f"{len(dataset)} samples for {n_parts} parts")
    if alphas is not None and len(alphas) != n_parts:
        raise ValueError("alphas must have one entry per part")

    c = dataset.n_classes
    rng = np.random.default_rng(seed)
    # Each class pool is a permuted index array drawn from the front: the
    # undrawn rest of pool `cls` is pools[cls][cursors[cls]:].
    pools = [rng.permutation(np.flatnonzero(dataset.y == cls)) for cls in range(c)]
    cursors = [0] * c
    sizes = np.full(n_parts, len(dataset) // n_parts)
    sizes[: len(dataset) % n_parts] += 1
    # Target counts depend only on (alpha_j, j mod C, size_j).
    target_counts: dict[tuple[float, int, int], list[int]] = {}

    parts = []
    for j in range(n_parts):
        a = alpha if alphas is None else float(alphas[j])
        key = (a, j % c, int(sizes[j]))
        counts = target_counts.get(key)
        if counts is None:
            target = (1.0 - a) * np.full(c, 1.0 / c) + a * np.eye(c)[j % c]
            counts = target_counts[key] = _target_counts(key[2], target).tolist()
        drawn = []
        for cls in range(c):
            start = cursors[cls]
            stop = min(start + counts[cls], len(pools[cls]))
            if stop > start:
                drawn.append(pools[cls][start:stop])
                cursors[cls] = stop
        if not drawn:
            left = [len(pool) - cur for pool, cur in zip(pools, cursors)]
            richest = left.index(max(left))  # most left, lowest class on a tie
            if left[richest]:
                drawn.append(pools[richest][cursors[richest]:cursors[richest] + 1])
                cursors[richest] += 1
        indices = np.concatenate(drawn) if drawn else np.empty(0, dtype=np.int64)
        parts.append(dataset.subset(indices[rng.permutation(len(indices))]))
    return parts
