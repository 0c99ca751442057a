import hashlib
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedchain import data, fed, verify
from fedchain.errors import EmptyChallengeError, InsufficientSamplesError


@pytest.fixture(scope="module")
def setup():
    arch = fed.Architecture(n_features=6, n_classes=4)
    model = fed.DenseClassifier(arch, seed=1)
    held_out = data.make_blobs(500, n_features=6, n_classes=4, seed=2)
    pp = verify.keygen(seed=3)
    blinding = verify.make_blinding(4)
    return model, held_out, pp, blinding


class TestKeygen:
    def test_deterministic(self):
        assert verify.keygen(seed=9) == verify.keygen(seed=9)

    def test_nonce_nonzero(self):
        pp = verify.keygen(seed=5)
        assert any(pp.verifier_nonce)
        assert len(pp.verifier_nonce) == 32


class TestCommit:
    def test_blinding_changes_commitment(self, setup):
        model, _, pp, blinding = setup
        other = verify.make_blinding(99)
        assert verify.commit(model, pp, blinding) != verify.commit(model, pp, other)

    def test_recommit_reproduces(self, setup):
        model, _, pp, blinding = setup
        com = verify.commit(model, pp, blinding)
        assert com == verify.commit(model, pp, blinding)
        assert len(com.digest) == 16

    def test_lowest_bit_flip_changes_commitment(self, setup):
        model, _, pp, blinding = setup
        com = verify.commit(model, pp, blinding)
        bumped = model.weights.copy()
        bumped[0] += 2.0 ** -verify.fixedpoint.SCALE_BITS  # one fixed-point ulp
        assert verify.commit(model.clone(bumped), pp, blinding) != com


class TestSerialization:
    def test_roundtrip(self, setup):
        model, _, _, _ = setup
        blob = verify.serialize_model(model)
        back = verify.deserialize_model(blob)
        assert back.arch == model.arch
        # fixed-point quantization is the only loss
        assert np.max(np.abs(back.weights - model.weights)) <= 2.0 ** -verify.fixedpoint.SCALE_BITS

    def test_deterministic_bytes(self, setup):
        model, _, _, _ = setup
        assert verify.serialize_model(model) == verify.serialize_model(model)
        assert verify.serialize_model(model)[:4] == b"FCM1"

    def test_hidden_layer_refused(self, setup):
        model, _, _, _ = setup
        blob = verify.serialize_model(model)
        assert blob[12] == 0  # the hidden-layer count after magic, features and classes
        with pytest.raises(ValueError, match="hidden layers"):
            verify.deserialize_model(blob[:12] + b"\x01" + struct.pack("<I", 5) + blob[13:])


class TestProveVerify:
    def test_empty_challenge_rejected(self, setup):
        model, _, pp, blinding = setup
        with pytest.raises(EmptyChallengeError):
            verify.prove(model, np.empty((0, 6)), pp, blinding)

    def test_honest_roundtrip_accepts(self, setup):
        model, held_out, pp, blinding = setup
        com = verify.commit(model, pp, blinding)
        sample = verify.derive_challenge(held_out, com, 250)
        proof = verify.prove(model, sample.x, pp, blinding)
        result = verify.verify(com, sample, proof, pp)
        assert result.accepted

    def test_measured_accuracy_equals_evaluate(self, setup):
        model, held_out, pp, blinding = setup
        com = verify.commit(model, pp, blinding)
        sample = verify.derive_challenge(held_out, com, 300)
        proof = verify.prove(model, sample.x, pp, blinding)
        result = verify.verify(com, sample, proof, pp)
        subset = data.Dataset(sample.x, sample.labels, held_out.n_classes)
        assert result.measured_accuracy == fed.evaluate(model, subset)

    def test_different_batch_rejected(self, setup):
        model, held_out, pp, blinding = setup
        com = verify.commit(model, pp, blinding)
        sample = verify.derive_challenge(held_out, com, 200)
        proof = verify.prove(model, sample.x, pp, blinding)
        other = verify.VerificationSample(x=held_out.x[:200], labels=held_out.y[:200])
        result = verify.verify(com, other, proof, pp)
        assert not result.accepted

    def test_tampered_prediction_rejected(self, setup):
        model, held_out, pp, blinding = setup
        com = verify.commit(model, pp, blinding)
        sample = verify.derive_challenge(held_out, com, 200)
        proof = verify.prove(model, sample.x, pp, blinding)
        tampered = proof.y.copy()
        tampered[0] = (tampered[0] + 1) % 4
        result = verify.verify(com, sample, replace(proof, y=tampered), pp)
        assert not result.accepted

    def test_cross_model_replay_rejected(self, setup):
        model, held_out, pp, blinding = setup
        com = verify.commit(model, pp, blinding)
        other_model = fed.DenseClassifier(model.arch, seed=77)
        other_blinding = verify.make_blinding(78)
        sample = verify.derive_challenge(held_out, com, 200)
        foreign = verify.prove(other_model, sample.x, pp, other_blinding)
        result = verify.verify(com, sample, foreign, pp)
        assert not result.accepted
        assert result.reason == "commitment mismatch"

    def test_mutated_model_never_verifies(self, setup):
        model, held_out, pp, blinding = setup
        com = verify.commit(model, pp, blinding)
        sample = verify.derive_challenge(held_out, com, 200)
        rng = np.random.default_rng(6)
        for _ in range(200):
            mutated = model.weights.copy()
            idx = int(rng.integers(0, len(mutated)))
            mutated[idx] += 2.0 ** -verify.fixedpoint.SCALE_BITS * int(rng.integers(1, 100))
            bad = verify.prove(model.clone(mutated), sample.x, pp, blinding)
            assert not verify.verify(com, sample, bad, pp).accepted


class TestUnparsableOpening:
    def openings(self, blob):
        count = (len(blob) - 21) // 8
        return {
            "truncated": blob[:-8],  # one weight word short of its count
            "hidden": blob[:12] + b"\x01" + blob[13:],
            "count": blob[:13] + struct.pack("<Q", count - 1) + blob[21:-8],
            "short-header": blob[:10],
        }

    @pytest.mark.parametrize("case", ["truncated", "hidden", "count", "short-header"])
    def test_rejected_not_raised(self, setup, case):
        # the opening is committed, so verification gets past the reopen check
        model, held_out, pp, blinding = setup
        opening = self.openings(verify.serialize_model(model))[case]
        com = verify.ModelCommitment(digest=verify._digest(pp, blinding + opening))
        sample = verify.derive_challenge(held_out, com, 200)
        proof = replace(verify.prove(model, sample.x, pp, blinding), model_opening=opening)
        assert verify.verify(com, sample, proof, pp) == verify.VerificationResult(
            False, 0.0, "model opening does not parse")


class TestOpeningThatDoesNotFit:
    """An opening that parses but cannot run on the challenge is rejected,
    not raised from the matmul."""

    @pytest.mark.parametrize("n_features, n_classes", [(5, 4), (7, 4), (6, 0)])
    def test_rejected_not_raised(self, setup, n_features, n_classes):
        _, held_out, pp, blinding = setup
        model = fed.DenseClassifier(fed.Architecture(n_features, n_classes), seed=1)
        opening = verify.serialize_model(model)
        com = verify.ModelCommitment(digest=verify._digest(pp, blinding + opening))
        sample = verify.derive_challenge(held_out, com, 200)
        proof = verify.PredictionProof(y=np.zeros(200, dtype=np.int64), digest_chain=b"",
                                       blinding=blinding, model_opening=opening)
        assert verify.verify(com, sample, proof, pp) == verify.VerificationResult(
            False, 0.0, "model does not fit the challenge")

    def test_fewer_classes_than_the_labels_still_verify(self, setup):
        # a class-count mismatch alone runs: the model just never predicts
        # the classes it lacks
        _, held_out, pp, blinding = setup
        model = fed.DenseClassifier(fed.Architecture(6, 2), seed=1)
        com = verify.commit(model, pp, blinding)
        sample = verify.derive_challenge(held_out, com, 200)
        proof = verify.prove(model, sample.x, pp, blinding)
        result = verify.verify(com, sample, proof, pp)
        assert result.accepted
        assert set(proof.y) <= {0, 1}
        assert result.measured_accuracy == np.mean(proof.y == sample.labels)


class TestChallengeDerivation:
    def test_deterministic_per_commitment(self, setup):
        model, held_out, pp, blinding = setup
        com = verify.commit(model, pp, blinding)
        a = verify.derive_challenge(held_out, com, 100)
        b = verify.derive_challenge(held_out, com, 100)
        assert np.array_equal(a.x, b.x)

    def test_commitment_changes_challenge(self, setup):
        model, held_out, pp, blinding = setup
        com_a = verify.commit(model, pp, blinding)
        com_b = verify.commit(model, pp, verify.make_blinding(50))
        a = verify.derive_challenge(held_out, com_a, 100)
        b = verify.derive_challenge(held_out, com_b, 100)
        assert not np.array_equal(a.x, b.x)


class TestAccuracyClaim:
    def test_exact_claim_accepted(self):
        assert verify.accuracy_claim_check(0.90, 0.90, 1000)

    def test_far_shortfall_rejected(self):
        assert not verify.accuracy_claim_check(0.60, 0.90, 1000)

    def test_margin_value(self):
        expected = 2.326 * math.sqrt(0.9 * 0.1 / 1000)
        assert verify.margin(0.90, 1000) == pytest.approx(expected, rel=1e-12)
        assert verify.margin(0.90, 1000) == pytest.approx(0.0221, abs=5e-4)
        # acceptance threshold just below claimed - margin
        assert verify.accuracy_claim_check(0.878, 0.90, 1000)
        assert not verify.accuracy_claim_check(0.877, 0.90, 1000)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientSamplesError):
            verify.accuracy_claim_check(0.9, 0.9, 100)


def oracle_binding(com, x, y):
    """The proof binding, serializing the row count, then each row and
    each label on its own."""
    rows = min(len(x), len(y))
    body = struct.pack("<Q", rows)
    for row in list(x)[:rows]:
        body += np.ascontiguousarray(row, dtype="<f8").tobytes()
    for label in list(y)[:rows]:
        body += struct.pack("<q", int(label))
    return hashlib.sha256(verify.BINDING_TAG + com.digest + body).digest()


class TestDigestChain:
    @pytest.fixture
    def com(self):
        return verify.ModelCommitment(digest=bytes(range(16)))

    def inputs(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(30, 7))
        labels = rng.integers(0, 4, size=30)
        return {
            "c-order": (base, labels),
            "strided": (base[::2, ::3], labels[::2]),
            "fortran": (np.asfortranarray(base), labels),
            "float32": (base.astype(np.float32), labels),
            "big-endian": (base.astype(">f8"), labels),
            "int32-labels": (base, labels.astype(np.int32)),
            "list-labels": (base, labels.tolist()),
            "one-dim-x": (base[:, 0], labels),
            "three-dim-x": (base[:24].reshape(8, 3, 7), labels[:8]),
            "more-rows": (base, labels[:11]),
            "more-labels": (base[:9], labels),
            "no-rows": (base[:0], labels),
        }

    def test_matches_per_row_oracle(self, com):
        for name, (x, y) in self.inputs().items():
            assert verify._bind(com, x, y) == oracle_binding(com, x, y), name

    def test_proof_digest_unchanged(self, setup):
        model, held_out, pp, blinding = setup
        x = held_out.x[:50]
        proof = verify.prove(model, x, pp, blinding)
        assert proof.digest_chain == oracle_binding(verify.commit(model, pp, blinding), x, proof.y)

    @settings(max_examples=150, deadline=None)
    @given(change=st.sampled_from(["value", "label", "rows", "commitment"]),
           row=st.integers(0, 199), col=st.integers(0, 5),
           value=st.floats(allow_nan=False), shift=st.integers(1, 2**40))
    def test_any_change_to_a_bound_input_is_rejected(self, setup, change, row, col, value, shift):
        # a proof bound to anything but the verifier's own inputs fails on
        # the binding: the model and the claimed labels stay honest
        model, held_out, pp, blinding = setup
        com = verify.commit(model, pp, blinding)
        sample = verify.derive_challenge(held_out, com, 200)
        proof = verify.prove(model, sample.x, pp, blinding)
        x, y, bound_com = sample.x.copy(), proof.y.copy(), com
        if change == "value":
            x[row, col] = value
            assume(x[row, col].tobytes() != sample.x[row, col].tobytes())
        elif change == "label":
            y[row] += shift
        elif change == "rows":
            x, y = x[:row], y[:row]
        else:
            bound_com = verify.ModelCommitment(
                digest=bytes([com.digest[0] ^ (shift & 0xFF or 1)]) + com.digest[1:])
        forged = replace(proof, digest_chain=verify._bind(bound_com, x, y))
        assert forged.digest_chain != proof.digest_chain
        result = verify.verify(com, sample, forged, pp)
        assert not result.accepted
        assert result.reason == "digest chain mismatch"
        assert verify.verify(com, sample, proof, pp).accepted
