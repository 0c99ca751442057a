"""Local training, aggregation weighting, and model evaluation.

The model family is a dense softmax classifier; the protocol is
architecture-agnostic, so this keeps the simulator fast while exercising
real gradients. Aggregation weights come either from dataset sizes (FedAvg)
or from each miner's label-distribution divergence against the publisher's
reference histogram.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, label_histograms, smooth_histogram
from .errors import (
    AggregationShapeError,
    NonFiniteLossError,
    TrainingDivergedError,
    UndefinedDivergenceError,
)


@dataclass(frozen=True)
class Architecture:
    n_features: int
    n_classes: int

    @property
    def n_weights(self) -> int:
        return self.n_features * self.n_classes + self.n_classes


@dataclass
class TrainConfig:
    """What `local_train` reads. The accuracy target is the task's
    (`chain.Task.target`), not training's."""

    lr: float = 0.5
    epochs: int = 1
    batch_size: int = 32

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError(f"learning rate must be >= 0, got {self.lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")


class DenseClassifier:
    """Flat-weight softmax classifier used by miners and baselines."""

    def __init__(self, arch: Architecture, weights: np.ndarray | None = None, seed: int = 0):
        self.arch = arch
        if weights is None:
            rng = np.random.default_rng(seed)
            weights = rng.normal(0.0, 0.01, size=arch.n_weights)
        if weights.shape != (arch.n_weights,):
            raise AggregationShapeError(
                f"expected {arch.n_weights} weights, got {weights.shape}"
            )
        self.weights = np.asarray(weights, dtype=np.float64)

    def clone(self, weights: np.ndarray | None = None) -> "DenseClassifier":
        w = self.weights.copy() if weights is None else np.asarray(weights, dtype=np.float64)
        return DenseClassifier(self.arch, w)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        w, b = _unpack(self.arch, self.weights)
        return x @ w + b

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self._forward(x).argmax(axis=1)

    def loss(self, x: np.ndarray, y: np.ndarray) -> float:
        """Cross-entropy summed over the samples."""
        logits = self._forward(x)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return float(-log_probs[np.arange(len(y)), y].sum())


def _unpack(arch: Architecture, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Views `(w, b)` of a flat weight-layout vector."""
    split = arch.n_features * arch.n_classes
    return flat[:split].reshape(arch.n_features, arch.n_classes), flat[split:]


def _loss_grad_into(
    params: tuple[np.ndarray, np.ndarray],
    grads: tuple[np.ndarray, np.ndarray],
    x: np.ndarray,
    onehot: np.ndarray,
) -> None:
    """Write the summed cross-entropy gradient w.r.t. the weights into `grads`.

    `params` and `grads` are the `_unpack` views of the flat weights and of
    a C-contiguous float64 gradient vector laid out like them; `onehot` has
    one one-hot row per sample of `x`. The forward pass, the stable softmax
    and the backward pass run in place on one logits array, with the float
    operations of the textbook form in the same order: matmul then bias
    add, minus the row max, exp, divide by the row sum, `x.T @ d`, column
    sum (`np.maximum.reduce` and `np.add.reduce` are what the ndarray
    `max` and `sum` methods call; their arguments are positional, `(array,
    axis, dtype, out, keepdims)`, which spares the keyword parsing of a
    call made once per batch). Subtracting a one-hot row equals
    `d[arange, y] -= 1.0`, because `p - 0.0 == p`.
    """
    w, b = params
    d = x @ w
    d += b
    d -= np.maximum.reduce(d, 1, None, None, True)
    np.exp(d, out=d)
    d /= np.add.reduce(d, 1, None, None, True)
    d -= onehot
    np.matmul(x.T, d, out=grads[0])
    np.add.reduce(d, 0, None, grads[1])


@functools.cache
def _identity(n_classes: int) -> np.ndarray:
    """The read-only `np.eye(n_classes)` whose rows are the one-hot targets,
    built once per class count."""
    eye = np.eye(n_classes)
    eye.flags.writeable = False
    return eye


def local_loss(model: DenseClassifier, dataset: Dataset) -> float:
    """Summed cross-entropy of the model over a miner's dataset."""
    if not np.all(np.isfinite(model.weights)):
        raise NonFiniteLossError("model weights contain NaN or infinity")
    value = model.loss(dataset.x, dataset.y)
    if not np.isfinite(value):
        raise NonFiniteLossError(f"loss evaluated to {value}")
    return value


def local_train(
    model: DenseClassifier, dataset: Dataset, cfg: TrainConfig, seed: int = 0
) -> DenseClassifier:
    """Mini-batch gradient descent for `cfg.epochs` passes over the dataset.

    Batch gradients are means, so the learning rate is batch-size stable.
    Deterministic for a given seed.

    Each epoch gathers the shuffled rows and their one-hot targets once,
    with `take` (the rows of `x[order]` and `eye[y[order]]`, C-contiguous
    whatever the layout of `x`), so a batch is a row slice of them. Each
    step writes its gradient with `_loss_grad_into` into one reused buffer
    through views built once per call, and updates the weights in place:
    `grad /= batch; grad *= lr; weights -= grad` are the float operations
    of `weights - lr * (grad / batch)`. The result is bit-identical to a
    textbook loop that computes each batch's gradient of the summed
    cross-entropy on a fresh model and divides it by the batch size: the
    rows, the float operations and their order are the same, and only
    temporaries and copies are saved.
    """
    rng = np.random.default_rng(seed)
    weights = model.weights.copy()
    grad = np.empty_like(weights)
    params, grads = _unpack(model.arch, weights), _unpack(model.arch, grad)
    eye = _identity(model.arch.n_classes)
    n, size, lr = len(dataset), cfg.batch_size, cfg.lr
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        x = dataset.x.take(order, axis=0)
        onehot = eye.take(dataset.y.take(order), axis=0)
        for start in range(0, n, size):
            batch = x[start:start + size]
            _loss_grad_into(params, grads, batch, onehot[start:start + size])
            grad /= len(batch)
            grad *= lr
            weights -= grad
        if not np.isfinite(weights).all():
            raise TrainingDivergedError("weights became non-finite during training")
    return DenseClassifier(model.arch, weights)


def fedavg_weights(sizes: Sequence[int]) -> np.ndarray:
    """Dataset-size-proportional aggregation weights."""
    sizes = np.asarray(sizes, dtype=np.float64)
    return sizes / sizes.sum()


def kl_divergences(
    histograms: Sequence[np.ndarray] | np.ndarray, reference: np.ndarray
) -> np.ndarray:
    """KL divergence in bits of each label histogram from the reference.

    `histograms` holds one row per miner; the result has one divergence
    per row, from one pass over the (k, C) array. A row sums only its
    support (its positive entries): a row with full support sums its terms
    as a 1-D sum of the row does, and a row with zeros sums the terms on
    its support alone. Inputs are expected smoothed; a zero in `reference`
    on any row's support raises UndefinedDivergenceError.
    """
    p = np.asarray(histograms, dtype=np.float64)
    q = np.asarray(reference, dtype=np.float64)
    support = p > 0
    if (support & (q == 0)).any():
        raise UndefinedDivergenceError("reference histogram has a zero on p's support")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = p * np.log2(p / q)
        divergence = np.where(support, terms, 0.0).sum(axis=1)
        for i in np.flatnonzero(~support.all(axis=1)):
            divergence[i] = terms[i, support[i]].sum()
    return divergence


def kl_weights(
    histograms: Sequence[np.ndarray] | np.ndarray,
    reference: np.ndarray,
    sizes: Sequence[int],
) -> np.ndarray:
    """Divergence-based aggregation weights: max(0, 1 - D_KL(d_i || d_ref)).

    The raw factors are clamped at zero and normalized; when every miner
    clamps to zero the weights fall back to FedAvg's size proportions.
    `histograms` holds one row per miner (see `kl_divergences`). `fmax`,
    like `max(0.0, x)`, clamps a NaN divergence to 0.
    """
    raw = np.fmax(0.0, 1.0 - kl_divergences(histograms, reference))
    total = raw.sum()
    if total == 0.0:
        return fedavg_weights(sizes)
    return raw / total


def aggregation_weights(scheme: str, parts: Sequence[Dataset], example: Dataset) -> np.ndarray:
    """The aggregation weights of the miners holding `parts` under `scheme`:
    `"fedavg"` (sizes) or `"kl"` (divergence from the smoothed label
    histogram of the publisher's `example` set). Raises ValueError on any
    other scheme."""
    sizes = [len(p) for p in parts]
    if scheme == "fedavg":
        return fedavg_weights(sizes)
    if scheme != "kl":
        raise ValueError(f"unknown aggregation scheme: {scheme}")
    # Row 0 is the reference, counted in the same bincount as the miners.
    hists = smooth_histogram(
        label_histograms([example.y] + [p.y for p in parts], example.n_classes)
    )
    return kl_weights(hists[1:], hists[0], sizes)


def aggregate(vectors: Sequence[np.ndarray], weights: np.ndarray) -> np.ndarray:
    """Weighted elementwise combination of flat weight vectors."""
    shapes = {v.shape for v in vectors}
    if len(shapes) != 1:
        raise AggregationShapeError(f"mismatched vector shapes: {shapes}")
    if len(vectors) != len(weights):
        raise AggregationShapeError(
            f"{len(vectors)} vectors but {len(weights)} weights"
        )
    stacked = np.stack(vectors)
    return np.asarray(weights, dtype=np.float64) @ stacked


def evaluate(model: DenseClassifier, dataset: Dataset) -> float:
    """Fraction of argmax-correct predictions."""
    return float(np.mean(model.predict(dataset.x) == dataset.y))


@dataclass
class RoundMetrics:
    """One training round of a pool: its accuracy on the public example
    split and its end barrier. The round is the entry's position in its
    outcome's `metrics`, and the pool is that outcome's `pool_id`."""

    accuracy: float
    sim_time_ms: float
