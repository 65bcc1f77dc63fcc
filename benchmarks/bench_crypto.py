"""Micro-benchmarks for the crypto substrate.

These numbers calibrate the simulation's cost models: the E6 station
``verify_rate`` is the measured ECDSA verify throughput of the platform
(here: this pure-Python implementation; on automotive silicon, the SHE /
HSM datasheet figure), E13's boot-time curve comes from the CMAC
throughput, the 1 KiB CMAC case is the VSOC's per-batch tag, and the
session-key derive is the per-connection cost of its handshake.
"""

import pytest

from repro.crypto import (
    AES,
    EcdsaKeyPair,
    HmacDrbg,
    MaskedAES,
    aes_cmac,
    ecdsa_sign,
    ecdsa_verify,
    hkdf,
    she_kdf,
    sha256,
    SHE_KEY_UPDATE_ENC_C,
)
from repro.soc import derive_session_key

KEY16 = bytes(range(16))
BLOCK = bytes(range(16, 32))


def test_aes_block_encrypt(benchmark):
    aes = AES(KEY16)
    benchmark(aes.encrypt_block, BLOCK)


def test_aes_block_decrypt(benchmark):
    aes = AES(KEY16)
    ct = aes.encrypt_block(BLOCK)
    benchmark(aes.decrypt_block, ct)


def test_masked_aes_block(benchmark):
    import random
    aes = MaskedAES(KEY16, rng=random.Random(0))
    benchmark(aes.encrypt_block, BLOCK)


def test_cmac_64_bytes(benchmark):
    message = bytes(64)
    benchmark(aes_cmac, KEY16, message)


def test_cmac_1k_sealed_batch(benchmark):
    """About the size of a 10-event sealed VSOC batch: the uplink's hot path."""
    message = bytes(1024)
    benchmark(aes_cmac, KEY16, message)


def test_cmac_4k_firmware(benchmark):
    image = bytes(4096)
    benchmark(aes_cmac, KEY16, image)


def test_session_key_derive(benchmark):
    """HKDF-SHA256 from the cached fleet-key PRK: one per connection, on
    both the frontend and the owning worker."""
    benchmark(derive_session_key, KEY16, "veh-0-0001")


def test_sha256_one_block(benchmark):
    """A message that pads to one 64-byte block: one compression."""
    benchmark(sha256, bytes(55))


def test_sha256_1k(benchmark):
    data = bytes(1024)
    benchmark(sha256, data)


def test_she_kdf(benchmark):
    benchmark(she_kdf, KEY16, SHE_KEY_UPDATE_ENC_C)


def test_hkdf_expand(benchmark):
    benchmark(hkdf, b"input keying material", 64)


@pytest.fixture(scope="module")
def keypair():
    return EcdsaKeyPair.generate(HmacDrbg(b"bench-key"))


def test_ecdsa_sign(benchmark, keypair):
    benchmark(ecdsa_sign, keypair.private, b"basic safety message payload")


def test_ecdsa_verify(benchmark, keypair):
    msg = b"basic safety message payload"
    sig = ecdsa_sign(keypair.private, msg)
    result = benchmark(ecdsa_verify, keypair.public, msg, sig)
    assert result


def test_ecdsa_keygen(benchmark):
    counter = [0]

    def gen():
        counter[0] += 1
        return EcdsaKeyPair.generate(HmacDrbg(f"k{counter[0]}".encode()))

    benchmark(gen)
