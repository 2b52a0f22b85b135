"""Tests for simulated signatures and quorum certificates."""

from __future__ import annotations

import pytest

from repro.errors import CryptoError
from repro.net.crypto import Certificate, KeyRegistry


@pytest.fixture
def keys() -> KeyRegistry:
    registry = KeyRegistry(seed=1)
    for name in ("p0", "p1", "p2", "p3"):
        registry.register(name)
    return registry


class TestSignatures:
    def test_sign_and_verify(self, keys):
        signature = keys.sign("p0", "digest-1")
        assert keys.verify(signature)

    def test_unknown_signer_rejected(self, keys):
        with pytest.raises(CryptoError):
            keys.sign("mallory", "digest")

    def test_forged_signature_fails_verification(self, keys):
        forged = keys.forge("p0", "digest-1")
        assert not keys.verify(forged)

    def test_signature_bound_to_digest(self, keys):
        signature = keys.sign("p0", "digest-1")
        tampered = type(signature)(signer="p0", digest="digest-2", token=signature.token)
        assert not keys.verify(tampered)

    def test_signature_bound_to_signer(self, keys):
        signature = keys.sign("p0", "digest-1")
        impersonated = type(signature)(signer="p1", digest="digest-1", token=signature.token)
        assert not keys.verify(impersonated)

    def test_register_is_idempotent(self, keys):
        before = keys.sign("p0", "d")
        keys.register("p0")
        after = keys.sign("p0", "d")
        assert before == after


class TestCertificates:
    def test_certificate_counts_distinct_signers(self, keys):
        cert = Certificate("d")
        for name in ("p0", "p1", "p2"):
            cert.add(keys.sign(name, "d"))
        cert.add(keys.sign("p0", "d"))  # duplicate signer
        assert len(cert) == 3
        assert set(cert.signatures) == {"p0", "p1", "p2"}

    def test_certificate_rejects_other_digest(self, keys):
        cert = Certificate("d")
        with pytest.raises(CryptoError):
            cert.add(keys.sign("p0", "other"))

    def test_certificate_valid_requires_threshold(self, keys):
        cert = Certificate("d")
        cert.add(keys.sign("p0", "d"))
        cert.add(keys.sign("p1", "d"))
        members = ["p0", "p1", "p2", "p3"]
        assert keys.certificate_valid(cert, members, threshold=2)
        assert not keys.certificate_valid(cert, members, threshold=3)

    def test_certificate_valid_ignores_non_members(self, keys):
        keys.register("outsider")
        cert = Certificate("d")
        cert.add(keys.sign("p0", "d"))
        cert.add(keys.sign("outsider", "d"))
        assert not keys.certificate_valid(cert, ["p0", "p1", "p2"], threshold=2)

    def test_certificate_valid_ignores_forged(self, keys):
        cert = Certificate("d")
        cert.add(keys.sign("p0", "d"))
        cert.add(keys.forge("p1", "d"))
        assert not keys.certificate_valid(cert, ["p0", "p1", "p2"], threshold=2)

    def test_certificate_valid_checks_expected_digest(self, keys):
        cert = Certificate("d")
        cert.add(keys.sign("p0", "d"))
        assert not keys.certificate_valid(cert, ["p0"], threshold=1, digest="other")
        assert keys.certificate_valid(cert, ["p0"], threshold=1, digest="d")

    def test_none_certificate_is_invalid(self, keys):
        assert not keys.certificate_valid(None, ["p0"], threshold=1)

    def test_copy_is_independent(self, keys):
        a = Certificate("d")
        a.add(keys.sign("p0", "d"))
        a.add(keys.sign("p1", "d"))
        copy = a.copy()
        copy.add(keys.sign("p2", "d"))
        assert len(a) == 2 and len(copy) == 3
