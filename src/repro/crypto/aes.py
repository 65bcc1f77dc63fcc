"""AES block cipher (FIPS 197) with a side-channel leakage hook.

Two variants are provided:

- :class:`AES` -- the straightforward implementation.  ``encrypt_block``
  accepts an optional ``leak`` callback that receives every first-round
  S-box output byte; the :mod:`repro.physical.emissions` model converts
  those intermediates into Hamming-weight power traces, which the E4
  side-channel experiment attacks with CPA.
- :class:`MaskedAES` -- a first-order boolean-masked implementation.  The
  S-box stage operates on masked data, so the leaked intermediates are
  uniformly randomised and first-order CPA fails (the countermeasure the
  paper's "secure processing" layer calls for).

Without a ``leak`` callback, ``AES.encrypt_block`` runs on 32-bit words
through four T-tables (:func:`encrypt_words`, which CMAC also drives
directly); the byte-level round functions serve only the leakage hook,
:class:`MaskedAES` and decryption.

Performance note: this is pure Python.  On a 2-vCPU KVM guest with
CPython 3.11 at full clock, one AES-128 block takes ~11 us on the word
path (~9*10^4 blocks/s) and ~60 us on the byte path with a ``leak``
callback (~1.6*10^4 blocks/s); that guest's slow stretches double both.
Plenty for frame-level simulation and the VSOC's batch tags, far too
slow for bulk traffic.  That is by design; see DESIGN.md section 4.
"""

from __future__ import annotations

import random
import struct
from typing import Callable, List, Optional, Tuple

LeakFn = Callable[[int, int, int], None]
"""Leakage callback ``leak(round_index, byte_index, intermediate_value)``."""

# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def _build_sbox() -> tuple[List[int], List[int]]:
    """Construct the AES S-box from GF(2^8) inversion + affine map."""
    # Multiplicative inverse table via exp/log over generator 3.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply by 3 (generator) in GF(2^8) mod x^8+x^4+x^3+x+1
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    sbox = [0] * 256
    for value in range(256):
        inv = 0 if value == 0 else exp[255 - log[value]]
        # affine transformation
        out = inv
        for shift in (1, 2, 3, 4):
            out ^= ((inv << shift) | (inv >> (8 - shift))) & 0xFF
        sbox[value] = out ^ 0x63
    inv_sbox = [0] * 256
    for i, s in enumerate(sbox):
        inv_sbox[s] = i
    return sbox, inv_sbox


SBOX, INV_SBOX = _build_sbox()

RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D]


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gmul(a: int, b: int) -> int:
    """GF(2^8) multiplication."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_t_tables() -> Tuple[Tuple[int, ...], ...]:
    """SubBytes+MixColumns per input byte as big-endian column words.

    ``TE0[x]`` is the column ``(2s, s, s, 3s)`` for ``s = SBOX[x]``; TE1..TE3
    are its byte rotations, one per row the byte enters from after
    ShiftRows.
    """
    te0 = []
    for s in SBOX:
        s2 = _xtime(s)
        te0.append((s2 << 24) | (s << 16) | (s << 8) | (s2 ^ s))
    rotations = [tuple(te0)]
    for shift in (8, 16, 24):
        rotations.append(tuple(((w >> shift) | (w << (32 - shift))) & 0xFFFFFFFF
                               for w in te0))
    return tuple(rotations)


TE0, TE1, TE2, TE3 = _build_t_tables()

BLOCK_WORDS = struct.Struct(">4I")
"""One 16-byte block as four big-endian column words."""


def encrypt_words(
    round_words: Tuple[Tuple[int, int, int, int], ...], s0: int, s1: int, s2: int, s3: int
) -> Tuple[int, int, int, int]:
    """Encrypt one block held as four big-endian column words.

    ``round_words`` is an :attr:`AES.round_words` schedule (11, 13 or 15
    rounds of four words); its length sets the round count.  Each full
    round is four T-table lookups per column; the last round masks the
    S-box byte back out of the same tables.
    """
    te0, te1, te2, te3 = TE0, TE1, TE2, TE3
    k0, k1, k2, k3 = round_words[0]
    s0 ^= k0
    s1 ^= k1
    s2 ^= k2
    s3 ^= k3
    for k0, k1, k2, k3 in round_words[1:-1]:
        t0 = te0[s0 >> 24] ^ te1[s1 >> 16 & 255] ^ te2[s2 >> 8 & 255] ^ te3[s3 & 255] ^ k0
        t1 = te0[s1 >> 24] ^ te1[s2 >> 16 & 255] ^ te2[s3 >> 8 & 255] ^ te3[s0 & 255] ^ k1
        t2 = te0[s2 >> 24] ^ te1[s3 >> 16 & 255] ^ te2[s0 >> 8 & 255] ^ te3[s1 & 255] ^ k2
        s3 = te0[s3 >> 24] ^ te1[s0 >> 16 & 255] ^ te2[s1 >> 8 & 255] ^ te3[s2 & 255] ^ k3
        s0, s1, s2 = t0, t1, t2
    k0, k1, k2, k3 = round_words[-1]
    # TE2 holds s in its top byte, TE3 in byte 2, TE0 in byte 1, TE1 in byte 0.
    return (
        ((te2[s0 >> 24] & 0xFF000000) ^ (te3[s1 >> 16 & 255] & 0xFF0000)
         ^ (te0[s2 >> 8 & 255] & 0xFF00) ^ (te1[s3 & 255] & 0xFF) ^ k0),
        ((te2[s1 >> 24] & 0xFF000000) ^ (te3[s2 >> 16 & 255] & 0xFF0000)
         ^ (te0[s3 >> 8 & 255] & 0xFF00) ^ (te1[s0 & 255] & 0xFF) ^ k1),
        ((te2[s2 >> 24] & 0xFF000000) ^ (te3[s3 >> 16 & 255] & 0xFF0000)
         ^ (te0[s0 >> 8 & 255] & 0xFF00) ^ (te1[s1 & 255] & 0xFF) ^ k2),
        ((te2[s3 >> 24] & 0xFF000000) ^ (te3[s0 >> 16 & 255] & 0xFF0000)
         ^ (te0[s1 >> 8 & 255] & 0xFF00) ^ (te1[s2 & 255] & 0xFF) ^ k3),
    )


class AES:
    """AES-128/192/256 in ECB (single block) form.

    Modes of operation live in :mod:`repro.crypto.modes`.

    >>> key = bytes(range(16))
    >>> aes = AES(key)
    >>> pt = bytes(16)
    >>> aes.decrypt_block(aes.encrypt_block(pt)) == pt
    True
    """

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ValueError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.key = bytes(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)
        #: The same schedule as four big-endian 32-bit column words per
        #: round, the form :func:`encrypt_words` takes.
        self.round_words = tuple(BLOCK_WORDS.unpack(bytes(rk)) for rk in self._round_keys)

    # ------------------------------------------------------------------
    # Key schedule
    # ------------------------------------------------------------------
    def _expand_key(self, key: bytes) -> List[List[int]]:
        nk = len(key) // 4
        nr = self.rounds
        words: List[List[int]] = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        for i in range(nk, 4 * (nr + 1)):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]  # RotWord
                temp = [SBOX[b] for b in temp]  # SubWord
                temp[0] ^= RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [SBOX[b] for b in temp]
            words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
        # Group into 16-byte round keys (flat, column-major like the state).
        round_keys = []
        for r in range(nr + 1):
            rk = []
            for c in range(4):
                rk.extend(words[4 * r + c])
            round_keys.append(rk)
        return round_keys

    # ------------------------------------------------------------------
    # Round primitives -- state is a flat list of 16 bytes, column-major:
    # state[4*c + r] is row r, column c.
    # ------------------------------------------------------------------
    @staticmethod
    def _shift_rows(s: List[int]) -> List[int]:
        return [
            s[0], s[5], s[10], s[15],
            s[4], s[9], s[14], s[3],
            s[8], s[13], s[2], s[7],
            s[12], s[1], s[6], s[11],
        ]

    @staticmethod
    def _inv_shift_rows(s: List[int]) -> List[int]:
        return [
            s[0], s[13], s[10], s[7],
            s[4], s[1], s[14], s[11],
            s[8], s[5], s[2], s[15],
            s[12], s[9], s[6], s[3],
        ]

    @staticmethod
    def _mix_columns(s: List[int]) -> List[int]:
        out = [0] * 16
        for c in range(4):
            a0, a1, a2, a3 = s[4 * c : 4 * c + 4]
            out[4 * c + 0] = _xtime(a0) ^ (_xtime(a1) ^ a1) ^ a2 ^ a3
            out[4 * c + 1] = a0 ^ _xtime(a1) ^ (_xtime(a2) ^ a2) ^ a3
            out[4 * c + 2] = a0 ^ a1 ^ _xtime(a2) ^ (_xtime(a3) ^ a3)
            out[4 * c + 3] = (_xtime(a0) ^ a0) ^ a1 ^ a2 ^ _xtime(a3)
        return out

    @staticmethod
    def _inv_mix_columns(s: List[int]) -> List[int]:
        out = [0] * 16
        for c in range(4):
            a0, a1, a2, a3 = s[4 * c : 4 * c + 4]
            out[4 * c + 0] = _gmul(a0, 14) ^ _gmul(a1, 11) ^ _gmul(a2, 13) ^ _gmul(a3, 9)
            out[4 * c + 1] = _gmul(a0, 9) ^ _gmul(a1, 14) ^ _gmul(a2, 11) ^ _gmul(a3, 13)
            out[4 * c + 2] = _gmul(a0, 13) ^ _gmul(a1, 9) ^ _gmul(a2, 14) ^ _gmul(a3, 11)
            out[4 * c + 3] = _gmul(a0, 11) ^ _gmul(a1, 13) ^ _gmul(a2, 9) ^ _gmul(a3, 14)
        return out

    def _sub_bytes(self, s: List[int], round_index: int, leak: Optional[LeakFn]) -> List[int]:
        out = [SBOX[b] for b in s]
        if leak is not None and round_index == 1:
            for i, v in enumerate(out):
                leak(round_index, i, v)
        return out

    # ------------------------------------------------------------------
    # Block operations
    # ------------------------------------------------------------------
    def encrypt_block(self, block: bytes, leak: Optional[LeakFn] = None) -> bytes:
        """Encrypt one 16-byte block; optionally leak round-1 S-box bytes.

        Without ``leak`` this is the word path; with it, the byte-level
        rounds run so each round-1 S-box output can be reported.
        """
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        if leak is None:
            return BLOCK_WORDS.pack(
                *encrypt_words(self.round_words, *BLOCK_WORDS.unpack(block)))
        state = [block[i] ^ self._round_keys[0][i] for i in range(16)]
        for rnd in range(1, self.rounds):
            state = self._sub_bytes(state, rnd, leak)
            state = self._shift_rows(state)
            state = self._mix_columns(state)
            state = [state[i] ^ self._round_keys[rnd][i] for i in range(16)]
        state = self._sub_bytes(state, self.rounds, leak)
        state = self._shift_rows(state)
        state = [state[i] ^ self._round_keys[self.rounds][i] for i in range(16)]
        return bytes(state)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        state = [block[i] ^ self._round_keys[self.rounds][i] for i in range(16)]
        state = self._inv_shift_rows(state)
        state = [INV_SBOX[b] for b in state]
        for rnd in range(self.rounds - 1, 0, -1):
            state = [state[i] ^ self._round_keys[rnd][i] for i in range(16)]
            state = self._inv_mix_columns(state)
            state = self._inv_shift_rows(state)
            state = [INV_SBOX[b] for b in state]
        state = [state[i] ^ self._round_keys[0][i] for i in range(16)]
        return bytes(state)


class MaskedAES(AES):
    """First-order boolean-masked AES (side-channel countermeasure).

    Each encryption draws a fresh random byte mask per state byte; SubBytes
    uses a remasked S-box table so the observable intermediate (what the
    ``leak`` callback sees) is ``SBOX[x] ^ mask_out`` with uniformly random
    ``mask_out``, decorrelating first-order power analysis from the key.

    Masking is applied through the linear layers by maintaining the mask
    state in parallel; the final output is unmasked, so ciphertexts are
    identical to plain :class:`AES` (verified by the test suite).
    """

    def __init__(self, key: bytes, rng: Optional[random.Random] = None) -> None:
        super().__init__(key)
        self._rng = rng if rng is not None else random.Random()

    def encrypt_block(self, block: bytes, leak: Optional[LeakFn] = None) -> bytes:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        rng = self._rng
        # Input mask
        mask = [rng.randrange(256) for _ in range(16)]
        state = [block[i] ^ self._round_keys[0][i] ^ mask[i] for i in range(16)]
        for rnd in range(1, self.rounds):
            state, mask = self._masked_sub_bytes(state, mask, rnd, leak)
            state = self._shift_rows(state)
            mask = self._shift_rows(mask)
            state = self._mix_columns(state)
            mask = self._mix_columns(mask)
            state = [state[i] ^ self._round_keys[rnd][i] for i in range(16)]
        state, mask = self._masked_sub_bytes(state, mask, self.rounds, leak)
        state = self._shift_rows(state)
        mask = self._shift_rows(mask)
        state = [state[i] ^ self._round_keys[self.rounds][i] ^ mask[i] for i in range(16)]
        return bytes(state)

    def _masked_sub_bytes(
        self,
        state: List[int],
        mask: List[int],
        round_index: int,
        leak: Optional[LeakFn],
    ) -> tuple[List[int], List[int]]:
        rng = self._rng
        out_state = [0] * 16
        out_mask = [0] * 16
        for i in range(16):
            m_in = mask[i]
            m_out = rng.randrange(256)
            # Masked S-box lookup: value = SBOX[x] ^ m_out, where x is the
            # true (unmasked) byte.  The table walk itself is what a real
            # masked implementation precomputes per (m_in, m_out) pair.
            true_byte = state[i] ^ m_in
            masked_value = SBOX[true_byte] ^ m_out
            out_state[i] = masked_value
            out_mask[i] = m_out
            if leak is not None and round_index == 1:
                leak(round_index, i, masked_value)
        return out_state, out_mask
