"""HMAC-SHA256 (RFC 2104).

A key's two pad blocks hash to fixed SHA-256 midstates
(:func:`hmac_midstates`); a tag is finished from them in two
compressions for a message of up to 55 bytes (:func:`hmac_finish`).  A
caller that reuses one key -- HKDF's Expand under a cached PRK -- keeps
the midstates; :func:`hmac_sha256` recomputes them on every call.
"""

from __future__ import annotations

from typing import Tuple

from repro.crypto.sha256 import State, finish, midstate, sha256

_BLOCK_SIZE = 64
_IPAD = int.from_bytes(b"\x36" * _BLOCK_SIZE, "big")
_OPAD = int.from_bytes(b"\x5c" * _BLOCK_SIZE, "big")

Midstates = Tuple[State, State]


def hmac_midstates(key: bytes) -> Midstates:
    """SHA-256 midstates of ``key``'s inner and outer pad blocks."""
    if len(key) > _BLOCK_SIZE:
        key = sha256(key)
    padded = int.from_bytes(bytes(key).ljust(_BLOCK_SIZE, b"\x00"), "big")
    return (midstate((padded ^ _IPAD).to_bytes(_BLOCK_SIZE, "big")),
            midstate((padded ^ _OPAD).to_bytes(_BLOCK_SIZE, "big")))


def hmac_finish(midstates: Midstates, message: bytes) -> bytes:
    """The HMAC-SHA256 tag of ``message`` under the key whose
    :func:`hmac_midstates` these are."""
    inner, outer = midstates
    return finish(outer, finish(inner, message, _BLOCK_SIZE), _BLOCK_SIZE)


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """Return the 32-byte HMAC-SHA256 tag.

    >>> hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog").hex()
    'f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8'
    """
    return hmac_finish(hmac_midstates(key), message)
