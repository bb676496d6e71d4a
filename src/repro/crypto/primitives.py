"""Primitive operations: fingerprints, one-time pads, MACs.

The paper's hardware uses AES-128 for the one-time pad (OTP), SHA-1
for Merkle-tree nodes and MACs, and MD5 or CRC-32 for deduplication
fingerprints.  We model the *functional* contract of each primitive —
deterministic, collision-resistant-enough mappings over bytes — with
``hashlib``/``zlib``, and carry the paper's hardware latencies as
data.
"""

import hashlib
import zlib

from repro.common.errors import CryptoError
from repro.common.units import CACHE_LINE_BYTES


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise CryptoError(f"xor length mismatch: {len(a)} vs {len(b)}")
    # One big-int XOR: several times faster than XOR-ing byte by byte.
    return (int.from_bytes(a, "little")
            ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")


def derive_otp(key: bytes, counter: int, addr: int,
               length: int = CACHE_LINE_BYTES) -> bytes:
    """One-time pad for counter-mode encryption.

    Models ``OTP = AES_key(counter | address)`` (paper §3.1, sub-op
    E2).  The pad depends on *both* the per-line counter and the line
    address, which is exactly the property the paper exploits: the pad
    can be generated knowing only the address (the counter lives with
    the address's metadata), before the data arrives.
    """
    if length <= 0:
        return b""
    prefix = key + counter.to_bytes(16, "little") \
        + addr.to_bytes(8, "little")
    pad = b""
    block = 0
    while len(pad) < length:
        # One 32-byte SHA-256 block per step.
        pad += hashlib.sha256(
            prefix + block.to_bytes(4, "little")).digest()
        block += 1
    return pad[:length]


def mac_of(enc_data: bytes, counter: int) -> bytes:
    """Message authentication code protecting an encrypted line.

    ``MAC = Hash(EncData, Counter)`` (paper §4.2, sub-op E4).
    """
    return hashlib.sha1(
        enc_data + counter.to_bytes(16, "little")).digest()


class FingerprintEngine:
    """Deduplication fingerprint generator (MD5 or CRC-32).

    MD5 is the paper's default (321 ns); CRC-32 is the DeWrite-style
    lightweight alternative examined in Fig. 12 (~80 ns, but weaker:
    only 32 bits, so the dedup mechanism must confirm candidate
    matches with a byte compare, which we do in
    :class:`repro.bmo.dedup.DedupMechanism`).
    """

    ALGORITHMS = ("md5", "crc32")

    def __init__(self, algorithm: str, latency_ns: float):
        if algorithm not in self.ALGORITHMS:
            raise CryptoError(f"unknown fingerprint algorithm {algorithm!r}")
        self.algorithm = algorithm
        self.latency_ns = latency_ns

    def fingerprint(self, data: bytes) -> bytes:
        """Return the fingerprint of ``data``."""
        if self.algorithm == "md5":
            return hashlib.md5(data).digest()
        return zlib.crc32(data).to_bytes(4, "little")

    @property
    def bits(self) -> int:
        """Fingerprint width in bits."""
        return 128 if self.algorithm == "md5" else 32

    def __repr__(self) -> str:
        return (f"FingerprintEngine({self.algorithm}, "
                f"{self.latency_ns} ns)")
