"""SHA-256 (FIPS 180-4), from scratch.

:func:`finish` pads and absorbs the rest of a message into a chaining
state; :func:`sha256` is ``finish`` from the initial state.  HMAC keeps
the :func:`midstate` of each of its two pad blocks and finishes every
message from them.

Performance note: this is pure Python.  On a 2-vCPU KVM guest with
CPython 3.11 at full clock, one compression takes ~105 us
(~10^4 blocks/s).  A message of up to 55 bytes costs one compression,
HMAC-SHA256 over it four, and a session-key derive from cached PRK
midstates two (see :mod:`repro.crypto.kdf`).
"""

from __future__ import annotations

import struct
from typing import Tuple

_K = [
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
]

_H0 = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)

_MASK = 0xFFFFFFFF
_BLOCK = struct.Struct(">16I")
_DIGEST = struct.Struct(">8I")

State = Tuple[int, int, int, int, int, int, int, int]


def _compress(state: State, block: bytes) -> State:
    """One compression.  Each rotation is written out as
    ``x >> n | x << (32 - n)``; the bits it leaves above bit 31 are
    dropped by the one mask on the sum they feed."""
    w = list(_BLOCK.unpack(block))
    for i in range(16, 64):
        x = w[i - 15]
        y = w[i - 2]
        w.append((w[i - 16] + w[i - 7]
                  + ((x >> 7 | x << 25) ^ (x >> 18 | x << 14) ^ (x >> 3))
                  + ((y >> 17 | y << 15) ^ (y >> 19 | y << 13) ^ (y >> 10))
                  ) & _MASK)

    a, b, c, d, e, f, g, h = state
    for k, wi in zip(_K, w):
        t1 = (h + ((e >> 6 | e << 26) ^ (e >> 11 | e << 21) ^ (e >> 25 | e << 7))
              + (g ^ (e & (f ^ g))) + k + wi)
        t2 = (((a >> 2 | a << 30) ^ (a >> 13 | a << 19) ^ (a >> 22 | a << 10))
              + ((a & b) | (c & (a | b))))
        h = g
        g = f
        f = e
        e = (d + t1) & _MASK
        d = c
        c = b
        b = a
        a = (t1 + t2) & _MASK
    return (
        (state[0] + a) & _MASK, (state[1] + b) & _MASK,
        (state[2] + c) & _MASK, (state[3] + d) & _MASK,
        (state[4] + e) & _MASK, (state[5] + f) & _MASK,
        (state[6] + g) & _MASK, (state[7] + h) & _MASK,
    )


def midstate(block: bytes) -> State:
    """Chaining state after absorbing one 64-byte ``block``."""
    return _compress(_H0, block)


def finish(state: State, data: bytes, prefix_len: int) -> bytes:
    """Digest of a message whose first ``prefix_len`` bytes are already
    absorbed into ``state`` and whose rest is ``data``: pad, absorb, and
    serialise -- the one padding routine."""
    n = len(data)
    padded = (data + b"\x80" + bytes((55 - n) % 64)
              + ((prefix_len + n) * 8).to_bytes(8, "big"))
    for offset in range(0, len(padded), 64):
        state = _compress(state, padded[offset:offset + 64])
    return _DIGEST.pack(*state)


def sha256(data: bytes) -> bytes:
    """Return the 32-byte SHA-256 digest of ``data``.

    >>> sha256(b"abc").hex()
    'ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad'
    """
    return finish(_H0, data, 0)
