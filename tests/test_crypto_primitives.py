"""Tests for crypto primitives: OTPs, MACs, fingerprints."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import CryptoError
from repro.crypto import FingerprintEngine, derive_otp, mac_of, xor_bytes

LINE = st.binary(min_size=64, max_size=64)


def test_xor_roundtrip():
    a = bytes(range(64))
    b = bytes(reversed(range(64)))
    assert xor_bytes(xor_bytes(a, b), b) == a


def test_xor_length_mismatch_raises():
    with pytest.raises(CryptoError):
        xor_bytes(b"ab", b"abc")


@given(data=st.integers(0, 80).flatmap(
    lambda n: st.tuples(st.binary(min_size=n, max_size=n),
                        st.binary(min_size=n, max_size=n))))
def test_xor_matches_per_byte_reference(data):
    a, b = data
    assert xor_bytes(a, b) == bytes(x ^ y for x, y in zip(a, b))


def test_otp_is_deterministic():
    assert derive_otp(b"k", 1, 0x40) == derive_otp(b"k", 1, 0x40)


def test_otp_varies_with_counter_and_address_and_key():
    base = derive_otp(b"k", 1, 0x40)
    assert derive_otp(b"k", 2, 0x40) != base
    assert derive_otp(b"k", 1, 0x80) != base
    assert derive_otp(b"k2", 1, 0x40) != base


def test_otp_length_matches_request():
    assert len(derive_otp(b"k", 1, 0, length=64)) == 64
    assert len(derive_otp(b"k", 1, 0, length=100)) == 100


def test_mac_binds_data_and_counter():
    mac = mac_of(b"cipher", 7)
    assert mac_of(b"cipher", 8) != mac
    assert mac_of(b"ciphex", 7) != mac


@given(data=LINE)
def test_md5_and_crc_fingerprints_are_deterministic(data):
    for algo, bits in (("md5", 128), ("crc32", 32)):
        engine = FingerprintEngine(algo, latency_ns=1.0)
        fp = engine.fingerprint(data)
        assert fp == engine.fingerprint(data)
        assert len(fp) * 8 == bits == engine.bits


def test_unknown_fingerprint_algorithm_rejected():
    with pytest.raises(CryptoError):
        FingerprintEngine("sha9000", latency_ns=1.0)


@given(a=LINE, b=LINE)
def test_fingerprint_equality_tracks_data_equality_md5(a, b):
    engine = FingerprintEngine("md5", latency_ns=1.0)
    if a == b:
        assert engine.fingerprint(a) == engine.fingerprint(b)
    else:
        # MD5 collisions on 64-byte random inputs are unobservable.
        assert engine.fingerprint(a) != engine.fingerprint(b)
