"""AES-CMAC (NIST SP 800-38B).

CMAC is the MAC mandated by the SHE specification and the workhorse of the
framework: firmware authentication (secure boot), CAN message authentication
(E3), SHE key-update protocol tags and the VSOC's per-batch uplink tags all
use it.

The message is chained through :func:`~repro.crypto.aes.encrypt_words` as
big-endian column words, and each key's round words and K1/K2 subkeys are
derived once and cached, so a tag costs one block encryption per 16 bytes
and nothing per call beyond that.
"""

from __future__ import annotations

import functools
import struct
from typing import Tuple

from repro.crypto.aes import AES, BLOCK_WORDS, encrypt_words
from repro.crypto.util import constant_time_eq

_RB = 0x87  # constant for 128-bit block subkey derivation
_MASK128 = (1 << 128) - 1

Words = Tuple[int, int, int, int]


def _dbl(value: int) -> int:
    """Doubling in GF(2^128), the SP 800-38B subkey step."""
    return ((value << 1) & _MASK128) ^ (_RB if value >> 127 else 0)


def _words(value: int) -> Words:
    return BLOCK_WORDS.unpack(value.to_bytes(16, "big"))


@functools.lru_cache(maxsize=1024)
def _cmac_state(key: bytes) -> Tuple[tuple, Words, Words]:
    """Round words plus the K1/K2 subkeys (as words) for one key.

    Bounded, so a fleet of session keys cannot grow it without limit; the
    result is immutable, so sharing it between callers is safe.
    """
    round_words = AES(key).round_words
    cipher_zero = BLOCK_WORDS.pack(*encrypt_words(round_words, 0, 0, 0, 0))
    k1 = _dbl(int.from_bytes(cipher_zero, "big"))
    return round_words, _words(k1), _words(_dbl(k1))


def aes_cmac(key: bytes, message: bytes, tag_len: int = 16) -> bytes:
    """Compute AES-CMAC over ``message``; optionally truncate to ``tag_len``.

    Truncation (to 2/4/8 bytes) is how CAN authentication schemes fit a tag
    into an 8-byte frame -- the security-vs-bus-load knob of experiment E3.

    >>> key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    >>> aes_cmac(key, b"").hex()
    'bb1d6929e95937287fa37d129b756746'
    """
    if not 1 <= tag_len <= 16:
        raise ValueError("tag_len must be in 1..16")
    round_words, k1, k2 = _cmac_state(bytes(key))

    if message and len(message) % 16 == 0:
        subkey = k1
    else:
        message = message + b"\x80" + bytes(15 - len(message) % 16)
        subkey = k2
    words = struct.unpack(">%dI" % (len(message) // 4), message)

    s0 = s1 = s2 = s3 = 0
    last = len(words) - 4
    for i in range(0, last, 4):
        s0, s1, s2, s3 = encrypt_words(round_words, s0 ^ words[i], s1 ^ words[i + 1],
                                       s2 ^ words[i + 2], s3 ^ words[i + 3])
    s0, s1, s2, s3 = encrypt_words(
        round_words,
        s0 ^ words[last] ^ subkey[0], s1 ^ words[last + 1] ^ subkey[1],
        s2 ^ words[last + 2] ^ subkey[2], s3 ^ words[last + 3] ^ subkey[3])
    return BLOCK_WORDS.pack(s0, s1, s2, s3)[:tag_len]


def cmac_verify(key: bytes, message: bytes, tag: bytes) -> bool:
    """Constant-time CMAC verification against a possibly truncated tag."""
    expected = aes_cmac(key, message, tag_len=len(tag))
    return constant_time_eq(expected, tag)
