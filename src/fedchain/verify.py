"""Model-accuracy verification with a KeyGen/Commit/Prove/Verify interface.

This is a transparent hash-commitment scheme: commitments are binding under
SHA-256 collision resistance, and a proof opens the committed model so the
verifier can re-run the predictions. It is NOT zero-knowledge — settlement
reveals the model to the verifier committee. The four-operation surface is
kept so a real zero-knowledge backend can be swapped in behind it.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from . import fixedpoint
from .data import Dataset
from .errors import AggregationShapeError, EmptyChallengeError, InsufficientSamplesError
from .fed import Architecture, DenseClassifier

DIGEST_BYTES = 16  # commitments are SHA-256 truncated to 128 bits
DOMAIN_TAG = b"fedchain/model-commitment/v1"
BINDING_TAG = b"fedchain/prediction-binding/v1"
MAGIC = b"FCM1"
MIN_CLAIM_SAMPLES = 200
CHALLENGE_SIZE = 250  # held-out rows a round's challenge draws, if it has them
ONE_SIDED_99_Z = 2.326


@dataclass(frozen=True)
class PublicParams:
    verifier_nonce: bytes


@dataclass(frozen=True)
class ModelCommitment:
    digest: bytes

    @property
    def hex(self) -> str:
        return self.digest.hex()


@dataclass(frozen=True)
class VerificationSample:
    x: np.ndarray
    labels: np.ndarray  # held by the verifier, never sent to the prover

    @property
    def count(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class PredictionProof:
    y: np.ndarray
    digest_chain: bytes  # binds (commitment, challenge batch, predictions)
    blinding: bytes  # opened at settlement
    model_opening: bytes  # canonical serialization of the committed model


@dataclass(frozen=True)
class VerificationResult:
    accepted: bool
    measured_accuracy: float
    reason: str = ""


def keygen(seed: int) -> PublicParams:
    """Generate public parameters with a seeded 32-byte verifier nonce."""
    return PublicParams(verifier_nonce=np.random.default_rng(seed).bytes(32))


def make_blinding(seed: int) -> bytes:
    return np.random.default_rng(seed).bytes(32)


def serialize_model(model: DenseClassifier) -> bytes:
    """Canonical bytes: magic, architecture header (features, classes and a
    hidden-layer count, always 0), length-prefixed little-endian fixed-point
    weight words. Bit-exact across platforms."""
    arch = model.arch
    header = MAGIC + struct.pack("<IIB", arch.n_features, arch.n_classes, 0)
    words = fixedpoint.encode(model.weights)
    body = struct.pack("<Q", words.shape[0]) + words.astype("<i8").tobytes()
    return header + body


def deserialize_model(blob: bytes) -> DenseClassifier:
    """The model `serialize_model` wrote. Raises ValueError on a bad magic,
    a nonzero hidden-layer count or a body shorter than its weight count,
    struct.error on a header cut short, and AggregationShapeError when the
    weight count does not fit the header's architecture."""
    if blob[:4] != MAGIC:
        raise ValueError("bad model serialization magic")
    n_features, n_classes, n_hidden = struct.unpack_from("<IIB", blob, 4)
    if n_hidden:
        raise ValueError(f"hidden layers are not supported, got {n_hidden}")
    (count,) = struct.unpack_from("<Q", blob, 4 + 9)
    words = np.frombuffer(blob, dtype="<i8", count=count, offset=4 + 9 + 8)
    arch = Architecture(n_features=n_features, n_classes=n_classes)
    return DenseClassifier(arch, weights=fixedpoint.decode(words))


def _digest(pp: PublicParams, payload: bytes) -> bytes:
    return hashlib.sha256(DOMAIN_TAG + pp.verifier_nonce + payload).digest()[:DIGEST_BYTES]


def commit(model: DenseClassifier, pp: PublicParams, blinding: bytes) -> ModelCommitment:
    """Binding digest over the blinded canonical model serialization."""
    return ModelCommitment(digest=_digest(pp, blinding + serialize_model(model)))


def _bind(com: ModelCommitment, x: np.ndarray, y: np.ndarray) -> bytes:
    """One SHA-256 over `BINDING_TAG`, the commitment, the row count
    `rows = min(len(x), len(y))` as 8 little-endian bytes, `x[:rows]` as
    C-order little-endian float64 and `y[:rows]` as little-endian int64."""
    rows = min(len(x), len(y))
    binding = hashlib.sha256(BINDING_TAG + com.digest + rows.to_bytes(8, "little"))
    binding.update(np.ascontiguousarray(x[:rows], dtype="<f8"))
    binding.update(np.ascontiguousarray(y[:rows], dtype="<i8"))
    return binding.digest()


def prove(
    model: DenseClassifier, challenge_x: np.ndarray, pp: PublicParams, blinding: bytes
) -> PredictionProof:
    """Predict the challenge batch and bind the predictions to the commitment.

    The predictions are the opened model's, `deserialize_model` of the
    fixed-point serialization that `verify` re-runs, not the float model's:
    rounding to fixed point can flip an argmax."""
    if challenge_x.shape[0] == 0:
        raise EmptyChallengeError("challenge batch is empty")
    opening = serialize_model(model)
    y = deserialize_model(opening).predict(challenge_x)
    com = ModelCommitment(digest=_digest(pp, blinding + opening))
    return PredictionProof(
        y=y,
        digest_chain=_bind(com, challenge_x, y),
        blinding=blinding,
        model_opening=opening,
    )


def verify(
    com: ModelCommitment,
    sample: VerificationSample,
    proof: PredictionProof,
    pp: PublicParams,
) -> VerificationResult:
    """Check the proof against the commitment and measure its claimed labels.

    Accepts iff the opened model reproduces the commitment and parses, fits
    the challenge (it takes the challenge's feature count and has a class),
    its predictions on the challenge equal the proof's labels `proof.y`,
    and the proof's binding matches the one this verifier computes itself
    over the commitment, its challenge rows and those labels. The measured
    accuracy is the fraction of the labels agreeing with the verifier's
    held labels.
    """
    reopened = _digest(pp, proof.blinding + proof.model_opening)
    if reopened != com.digest:
        return VerificationResult(False, 0.0, "commitment mismatch")
    try:
        model = deserialize_model(proof.model_opening)
    except (ValueError, struct.error, AggregationShapeError):
        return VerificationResult(False, 0.0, "model opening does not parse")
    if sample.x.shape[1:] != (model.arch.n_features,) or model.arch.n_classes < 1:
        return VerificationResult(False, 0.0, "model does not fit the challenge")
    predicted = model.predict(sample.x)
    if predicted.shape != np.asarray(proof.y).shape or not np.array_equal(predicted, proof.y):
        return VerificationResult(False, 0.0, "predictions do not match claimed labels")
    if _bind(com, sample.x, proof.y) != proof.digest_chain:
        return VerificationResult(False, 0.0, "digest chain mismatch")
    accuracy = float(np.mean(np.asarray(proof.y) == sample.labels))
    return VerificationResult(True, accuracy)


def derive_challenge(held_out: Dataset, com: ModelCommitment, k: int) -> VerificationSample:
    """Draw K held-out samples seeded by the commitment digest.

    Sampling after (and from) the commitment makes the challenge unforgeable:
    the prover cannot have fit to it before committing.
    """
    seed = int.from_bytes(hashlib.sha256(b"challenge" + com.digest).digest()[:8], "little")
    rng = np.random.default_rng(seed)
    k = min(k, len(held_out))
    indices = rng.choice(len(held_out), size=k, replace=False)
    return VerificationSample(x=held_out.x[indices], labels=held_out.y[indices])


def margin(claimed: float, k: int) -> float:
    """One-sided 99% binomial bound on the accuracy shortfall at K samples."""
    return ONE_SIDED_99_Z * float(np.sqrt(claimed * (1.0 - claimed) / k))


def accuracy_claim_check(measured: float, claimed: float, k: int) -> bool:
    """Accept a miner's accuracy claim if the measurement is within the
    binomial margin below it; K must reach `MIN_CLAIM_SAMPLES`."""
    if k < MIN_CLAIM_SAMPLES:
        raise InsufficientSamplesError(f"{k} samples < required minimum {MIN_CLAIM_SAMPLES}")
    return measured >= claimed - margin(claimed, k)
