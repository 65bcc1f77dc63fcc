"""Tests for the crypto substrate against published vectors."""

import hashlib
import hmac as std_hmac
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import (
    AES,
    HmacDrbg,
    MaskedAES,
    aes_cmac,
    cbc_decrypt,
    cbc_encrypt,
    cmac_verify,
    constant_time_eq,
    ctr_xcrypt,
    hkdf,
    hmac_sha256,
    she_kdf,
    sha256,
    xor_bytes,
    SHE_KEY_UPDATE_ENC_C,
    SHE_KEY_UPDATE_MAC_C,
)
from repro.crypto.util import pkcs7_pad, pkcs7_unpad
from repro.soc import derive_session_key


class TestAesVectors:
    """FIPS-197 Appendix C known-answer tests."""

    PT = bytes.fromhex("00112233445566778899aabbccddeeff")

    def test_aes128(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        ct = AES(key).encrypt_block(self.PT)
        assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_aes192(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        ct = AES(key).encrypt_block(self.PT)
        assert ct.hex() == "dda97ca4864cdfe06eaf70a0ec0d7191"

    def test_aes256(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        )
        ct = AES(key).encrypt_block(self.PT)
        assert ct.hex() == "8ea2b7ca516745bfeafc49904b496089"

    def test_decrypt_inverts_encrypt_all_sizes(self):
        for klen in (16, 24, 32):
            key = bytes(range(klen))
            aes = AES(key)
            assert aes.decrypt_block(aes.encrypt_block(self.PT)) == self.PT

    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            AES(b"short")

    def test_bad_block_length(self):
        with pytest.raises(ValueError):
            AES(bytes(16)).encrypt_block(b"tiny")
        with pytest.raises(ValueError):
            AES(bytes(16)).decrypt_block(b"tiny")

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    @settings(max_examples=20, deadline=None)
    def test_property_roundtrip(self, key, block):
        aes = AES(key)
        assert aes.decrypt_block(aes.encrypt_block(block)) == block

    def test_leak_callback_fires_16_times(self):
        leaks = []
        AES(bytes(16)).encrypt_block(bytes(16), leak=lambda r, i, v: leaks.append((r, i, v)))
        assert len(leaks) == 16
        assert all(r == 1 for r, _, _ in leaks)

    def test_leak_value_matches_sbox_model(self):
        """The round-1 leak must equal SBOX[pt ^ key] (the CPA hypothesis)."""
        from repro.crypto.aes import SBOX

        key = bytes(range(16))
        pt = bytes(range(100, 116))
        leaks = {}
        AES(key).encrypt_block(pt, leak=lambda r, i, v: leaks.setdefault(i, v))
        for i in range(16):
            assert leaks[i] == SBOX[pt[i] ^ key[i]]


class TestMaskedAes:
    def test_ciphertext_identical_to_plain(self):
        key = bytes(range(16))
        pt = bytes(range(16, 32))
        plain = AES(key).encrypt_block(pt)
        masked = MaskedAES(key, rng=random.Random(1)).encrypt_block(pt)
        assert plain == masked

    def test_masked_256(self):
        key = bytes(range(32))
        pt = bytes(16)
        assert MaskedAES(key, rng=random.Random(2)).encrypt_block(pt) == AES(key).encrypt_block(pt)

    def test_leaks_are_randomized(self):
        """Same (pt, key) must leak different intermediates across runs."""
        key = bytes(16)
        pt = bytes(16)
        aes = MaskedAES(key, rng=random.Random(3))
        runs = []
        for _ in range(4):
            leaks = []
            aes.encrypt_block(pt, leak=lambda r, i, v: leaks.append(v))
            runs.append(tuple(leaks[:16]))
        assert len(set(runs)) > 1

    @given(st.binary(min_size=16, max_size=16))
    @settings(max_examples=10, deadline=None)
    def test_property_masked_equals_plain(self, pt):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        assert MaskedAES(key, rng=random.Random(0)).encrypt_block(pt) == AES(key).encrypt_block(pt)


class TestSha256:
    def test_empty(self):
        assert sha256(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_abc(self):
        assert sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_two_block_message(self):
        msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert sha256(msg).hex() == (
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        )

    @given(st.binary(max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_property_matches_hashlib(self, data):
        assert sha256(data) == hashlib.sha256(data).digest()

    @pytest.mark.parametrize("length", [55, 56, 63, 64, 65, 119, 120])
    def test_padding_boundaries(self, length):
        """55 is the longest message whose padding fits its own block, 56
        the shortest that spills into a second; 64 and 120 are the same
        edges one block on."""
        data = bytes(i % 251 for i in range(length))
        assert sha256(data) == hashlib.sha256(data).digest()


class TestHmac:
    def test_rfc4231_case1(self):
        key = b"\x0b" * 20
        assert hmac_sha256(key, b"Hi There").hex() == (
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        )

    @pytest.mark.parametrize("key, data, tag_hex", [
        (b"Jefe", b"what do ya want for nothing?",
         "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
        (b"\xaa" * 20, b"\xdd" * 50,
         "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
        (bytes(range(1, 26)), b"\xcd" * 50,
         "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
        (b"\x0c" * 20, b"Test With Truncation",
         "a3b6167473100ee06e0c796c2955552b"),
        (b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
         "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
        (b"\xaa" * 131,
         b"This is a test using a larger than block-size key and a larger "
         b"than block-size data. The key needs to be hashed before being "
         b"used by the HMAC algorithm.",
         "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
    ], ids=["case2", "case3", "case4", "case5-truncated", "case6", "case7"])
    def test_rfc4231_cases_2_to_7(self, key, data, tag_hex):
        # Case 5 publishes only the leading 128 bits of the tag.
        assert hmac_sha256(key, data).hex()[:len(tag_hex)] == tag_hex

    def test_long_key_is_hashed(self):
        key = b"k" * 200
        assert hmac_sha256(key, b"m") == std_hmac.new(key, b"m", hashlib.sha256).digest()

    @given(st.binary(max_size=100), st.binary(max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_property_matches_stdlib(self, key, msg):
        assert hmac_sha256(key, msg) == std_hmac.new(key, msg, hashlib.sha256).digest()


class TestCmac:
    """NIST SP 800-38B / RFC 4493 vectors."""

    KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")

    def test_empty_message(self):
        assert aes_cmac(self.KEY, b"").hex() == "bb1d6929e95937287fa37d129b756746"

    def test_one_block(self):
        msg = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        assert aes_cmac(self.KEY, msg).hex() == "070a16b46b4d4144f79bdd9dd04a287c"

    def test_forty_bytes(self):
        msg = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411"
        )
        assert aes_cmac(self.KEY, msg).hex() == "dfa66747de9ae63030ca32611497c827"

    def test_four_blocks(self):
        msg = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411e5fbc1191a0a52ef"
            "f69f2445df4f9b17ad2b417be66c3710"
        )
        assert aes_cmac(self.KEY, msg).hex() == "51f0bebf7e3b9d92fc49741779363cfe"

    def test_truncated_tag_is_prefix(self):
        msg = b"hello CAN frame"
        full = aes_cmac(self.KEY, msg)
        assert aes_cmac(self.KEY, msg, tag_len=4) == full[:4]

    def test_verify_accepts_and_rejects(self):
        tag = aes_cmac(self.KEY, b"msg", tag_len=8)
        assert cmac_verify(self.KEY, b"msg", tag)
        assert not cmac_verify(self.KEY, b"msG", tag)
        assert not cmac_verify(self.KEY, b"msg", tag[:-1] + bytes([tag[-1] ^ 1]))

    def test_invalid_tag_len(self):
        with pytest.raises(ValueError):
            aes_cmac(self.KEY, b"", tag_len=0)
        with pytest.raises(ValueError):
            aes_cmac(self.KEY, b"", tag_len=17)

    @given(st.binary(max_size=100), st.binary(max_size=100))
    @settings(max_examples=20, deadline=None)
    def test_property_distinct_messages_distinct_tags(self, m1, m2):
        if m1 == m2:
            return
        assert aes_cmac(self.KEY, m1) != aes_cmac(self.KEY, m2)


def _reference_cmac(key: bytes, message: bytes, tag_len: int = 16) -> bytes:
    """SP 800-38B CMAC written out block by block on the byte-level AES path.

    A no-op ``leak`` callback forces ``encrypt_block`` onto the byte rounds,
    so this shares no code with the word path ``aes_cmac`` runs on.
    """
    aes = AES(key)

    def enc(block: bytes) -> bytes:
        return aes.encrypt_block(block, leak=lambda *_: None)

    def dbl(block: bytes) -> bytes:
        value = int.from_bytes(block, "big") << 1
        if value >> 128:
            value ^= (1 << 128) | 0x87
        return value.to_bytes(16, "big")

    k1 = dbl(enc(bytes(16)))
    k2 = dbl(k1)
    blocks = [message[i : i + 16] for i in range(0, len(message), 16)] or [b""]
    if len(blocks[-1]) == 16:
        blocks[-1] = xor_bytes(blocks[-1], k1)
    else:
        padded = blocks[-1] + b"\x80" + bytes(15 - len(blocks[-1]))
        blocks[-1] = xor_bytes(padded, k2)
    x = bytes(16)
    for block in blocks:
        x = enc(xor_bytes(x, block))
    return x[:tag_len]


_AES_KEYS = st.sampled_from((16, 24, 32)).flatmap(
    lambda n: st.binary(min_size=n, max_size=n))


class TestCmacDifferential:
    """The word-oriented CMAC against the byte path and more SP 800-38B vectors."""

    MSG = bytes.fromhex(
        "6bc1bee22e409f96e93d7e117393172a"
        "ae2d8a571e03ac9c9eb76fac45af8e51"
        "30c81c46a35ce411e5fbc1191a0a52ef"
        "f69f2445df4f9b17ad2b417be66c3710"
    )

    @pytest.mark.parametrize("key_hex, tags", [
        ("8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
         ("d17ddf46adaacde531cac483de7a9367", "9e99a7bf31e710900662f65e617c5184",
          "8a1de5be2eb31aad089a82e6ee908b0e", "a1d5df0eed790f794d77589659f39a11")),
        ("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
         ("028962f61b7bf89efc6b551f4667d983", "28a7023f452e8f82bd4bf28d8c37c35c",
          "aaf3d8f1de5640c232f5b169b9c911e6", "e1992190549f6ed5696a2c056c315410")),
    ], ids=["aes192", "aes256"])
    def test_sp800_38b_vectors(self, key_hex, tags):
        key = bytes.fromhex(key_hex)
        for length, tag in zip((0, 16, 40, 64), tags):
            assert aes_cmac(key, self.MSG[:length]).hex() == tag
            assert _reference_cmac(key, self.MSG[:length]).hex() == tag

    @given(_AES_KEYS,
           st.one_of(st.binary(max_size=200),
                     st.integers(0, 12).flatmap(
                         lambda n: st.binary(min_size=16 * n, max_size=16 * n))),
           st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_byte_path_reference(self, key, message, tag_len):
        assert aes_cmac(key, message, tag_len) == _reference_cmac(key, message, tag_len)

    @given(_AES_KEYS, st.binary(min_size=16, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_property_word_path_equals_leak_path(self, key, block):
        aes = AES(key)
        assert aes.encrypt_block(block) == aes.encrypt_block(block, leak=lambda *_: None)

    def test_bytearray_key_and_message(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        msg = b"batch body" * 5
        assert aes_cmac(bytearray(key), msg) == aes_cmac(key, msg)
        assert aes_cmac(key, bytearray(msg)) == aes_cmac(key, msg)
        assert cmac_verify(bytearray(key), msg, aes_cmac(key, msg))

    def test_interleaved_keys_do_not_share_state(self):
        key_a, key_b = bytes(range(16)), bytes(range(1, 17))
        msg = bytes(range(48))
        expected = {key_a: _reference_cmac(key_a, msg), key_b: _reference_cmac(key_b, msg)}
        assert expected[key_a] != expected[key_b]
        mutable = bytearray(key_a)
        for key in (key_a, key_b, key_a, key_b, key_b, key_a):
            assert aes_cmac(key, msg) == expected[key]
            assert aes_cmac(mutable, msg) == expected[key_a]
        # Mutating a bytearray key after use must not reuse the old key's state.
        mutable[:] = key_b
        assert aes_cmac(mutable, msg) == expected[key_b]

    def test_bad_key_length_still_rejected(self):
        with pytest.raises(ValueError):
            aes_cmac(bytes(15), b"msg")


class TestModes:
    KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")

    def test_cbc_first_block_vector(self):
        """SP 800-38A F.2.1 first block (padding only affects later blocks)."""
        pt = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        ct = cbc_encrypt(self.KEY, self.IV, pt)
        assert ct[:16].hex() == "7649abac8119b246cee98e9b12e9197d"

    def test_cbc_roundtrip(self):
        pt = b"the quick brown fox" * 3
        assert cbc_decrypt(self.KEY, self.IV, cbc_encrypt(self.KEY, self.IV, pt)) == pt

    def test_cbc_empty_plaintext(self):
        assert cbc_decrypt(self.KEY, self.IV, cbc_encrypt(self.KEY, self.IV, b"")) == b""

    def test_cbc_rejects_bad_iv(self):
        with pytest.raises(ValueError):
            cbc_encrypt(self.KEY, b"short", b"data")

    def test_cbc_rejects_truncated_ciphertext(self):
        with pytest.raises(ValueError):
            cbc_decrypt(self.KEY, self.IV, b"123")

    def test_ctr_vector(self):
        """SP 800-38A F.5.1 first block."""
        nonce = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
        pt = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        assert ctr_xcrypt(self.KEY, nonce, pt).hex() == "874d6191b620e3261bef6864990db6ce"

    def test_ctr_is_involution(self):
        nonce = b"12-byte-nonc"
        data = b"arbitrary length payload!"
        assert ctr_xcrypt(self.KEY, nonce, ctr_xcrypt(self.KEY, nonce, data)) == data

    @given(st.binary(max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_property_cbc_roundtrip(self, pt):
        assert cbc_decrypt(self.KEY, self.IV, cbc_encrypt(self.KEY, self.IV, pt)) == pt


def _reference_hkdf(ikm: bytes, length: int, salt: bytes, info: bytes) -> bytes:
    """RFC 5869 on the standard library's HMAC: shares no code with ``hkdf``."""
    prk = std_hmac.new(salt or bytes(32), ikm, hashlib.sha256).digest()
    okm = block = b""
    counter = 1
    while len(okm) < length:
        block = std_hmac.new(prk, block + info + bytes([counter]), hashlib.sha256).digest()
        okm += block
        counter += 1
    return okm[:length]


class TestKdf:
    def test_hkdf_rfc5869_case1(self):
        ikm = b"\x0b" * 22
        salt = bytes.fromhex("000102030405060708090a0b0c")
        info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
        okm = hkdf(ikm, 42, salt=salt, info=info)
        assert okm.hex() == (
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865"
        )

    def test_hkdf_rfc5869_case2_long_inputs(self):
        """80-byte salt, ikm and info; L=82 takes three Expand blocks."""
        okm = hkdf(bytes(range(0x00, 0x50)), 82, salt=bytes(range(0x60, 0xB0)),
                   info=bytes(range(0xB0, 0x100)))
        assert okm.hex() == (
            "b11e398dc80327a1c8e7f78c596a4934"
            "4f012eda2d4efad8a050cc4c19afa97c"
            "59045a99cac7827271cb41c65e590e09"
            "da3275600c2f09b8367793a9aca3db71"
            "cc30c58179ec3e87c14c01d5c1f3434f"
            "1d87"
        )

    def test_hkdf_rfc5869_case3_empty_salt_and_info(self):
        okm = hkdf(b"\x0b" * 22, 42)
        assert okm.hex() == (
            "8da4e775a563c18f715f802a063c5a31"
            "b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8"
        )

    @given(st.binary(max_size=100), st.binary(max_size=80), st.binary(max_size=80),
           st.integers(1, 200))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_stdlib_reference(self, ikm, salt, info, length):
        assert hkdf(ikm, length, salt=salt, info=info) == _reference_hkdf(
            ikm, length, salt, info)

    @given(st.lists(st.tuples(st.binary(min_size=1, max_size=40),
                              st.binary(min_size=1, max_size=40)),
                    min_size=2, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_mutated_bytearray_inputs_never_share_cached_state(self, pairs):
        """One ``bytearray`` salt and ikm, overwritten between calls: each
        derive must see the bytes it was given, not a cached earlier PRK."""
        salt, ikm = bytearray(), bytearray()
        for new_salt, new_ikm in pairs:
            salt[:] = new_salt
            ikm[:] = new_ikm
            assert hkdf(ikm, 16, salt=salt, info=b"veh-1") == _reference_hkdf(
                bytes(ikm), 16, bytes(salt), b"veh-1")

    def test_session_key_pinned(self):
        """Recorded before the PRK midstate cache and the inlined
        rotations; the handshake's keys must not move."""
        assert derive_session_key(b"\x42" * 16, "veh-1").hex() == (
            "7c46065a10cdf2be4ac56bbea61a2cd0")
        assert derive_session_key(bytes(range(16)), "veh-1").hex() == (
            "3a7bc1369daf45848f551afc16dc61e2")

    def test_hkdf_no_salt(self):
        assert len(hkdf(b"ikm", 64)) == 64

    def test_hkdf_invalid_length(self):
        with pytest.raises(ValueError):
            hkdf(b"x", 0)

    def test_she_kdf_domain_separation(self):
        key = bytes(range(16))
        assert she_kdf(key, SHE_KEY_UPDATE_ENC_C) != she_kdf(key, SHE_KEY_UPDATE_MAC_C)

    def test_she_kdf_known_vector(self):
        """SHE spec example: K1 derived from the master key 000...f."""
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        k1 = she_kdf(key, SHE_KEY_UPDATE_ENC_C)
        assert k1.hex() == "118a46447a770d87828a69c222e2d17e"

    def test_she_kdf_requires_16_bytes(self):
        with pytest.raises(ValueError):
            she_kdf(b"short", SHE_KEY_UPDATE_ENC_C)


class TestDrbg:
    def test_output_pinned(self):
        """Recorded before HMAC moved onto SHA-256 midstates."""
        assert HmacDrbg(b"calibration").generate(64).hex() == (
            "e2b56b45f8f66c05c3bd10acc5a90e2b8f47a14386dc8eac19e0a1182371c02a"
            "5535a381e7c180e95f9eb4e9c1b5152e91045e05b5890b3d57c223ea11eb047c")


class TestUtil:
    def test_xor_bytes(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"

    def test_xor_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bytes(b"a", b"ab")

    def test_constant_time_eq(self):
        assert constant_time_eq(b"abc", b"abc")
        assert not constant_time_eq(b"abc", b"abd")
        assert not constant_time_eq(b"abc", b"ab")

    def test_pkcs7_roundtrip(self):
        for n in range(0, 33):
            data = bytes(n)
            assert pkcs7_unpad(pkcs7_pad(data)) == data

    def test_pkcs7_full_block_when_aligned(self):
        assert len(pkcs7_pad(bytes(16))) == 32

    def test_pkcs7_bad_padding_rejected(self):
        with pytest.raises(ValueError):
            pkcs7_unpad(bytes(16))  # last byte 0 invalid
        with pytest.raises(ValueError):
            pkcs7_unpad(b"")
        with pytest.raises(ValueError):
            pkcs7_unpad(b"\x01" * 15)  # not block aligned
