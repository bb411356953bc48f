"""Key derivation, vocabulary partitioning and block plans."""
import time
from collections import OrderedDict

import numpy as np
import pytest

from blockmark import keying
from blockmark.bch import BchCode, ContractError, encode, int_to_bits, \
    max_weight_codeword
from blockmark.generation import TokenSequence
from blockmark.keying import (SecretKey, bits_of, derive_block_key,
                              keyed_bits, partition_bits, plan_block,
                              token_bit, token_bits)

ZERO_KEY = SecretKey(bytes(32))

# Documented test vectors under the all-zero 32-byte key (also in the
# README): block-0 seed, randomizer prefix and membership bits.
SEED_0_HEX = "d48d69a9fa153796eabdf32088d1e5396f630aed4ab182e7e167f770ad6439ac"
R_0_K6 = [0, 1, 1, 1, 1, 0]
F_0_FIRST8 = [0, 0, 1, 1, 1, 0, 1, 0]


def test_key_length_contract():
    with pytest.raises(ContractError):
        SecretKey(b"short")


def test_hex_roundtrip():
    key = SecretKey(bytes(range(32)))
    assert SecretKey.from_hex(key.to_hex()) == key


def test_seed_vector():
    bk = derive_block_key(ZERO_KEY, 0, 6)
    assert bk.seed.hex() == SEED_0_HEX
    assert bk.randomizer.tolist() == R_0_K6


def test_membership_vector():
    bk = derive_block_key(ZERO_KEY, 0, 6)
    assert [token_bit(bk, v) for v in range(8)] == F_0_FIRST8
    assert partition_bits(bk, 8).tolist() == F_0_FIRST8


def test_negative_block_index_rejected():
    with pytest.raises(ContractError):
        derive_block_key(ZERO_KEY, -1, 6)


def test_determinism_and_block_separation():
    seeds = {derive_block_key(ZERO_KEY, j, 6).seed for j in range(100)}
    assert len(seeds) == 100
    again = derive_block_key(ZERO_KEY, 42, 6)
    assert again.seed == derive_block_key(ZERO_KEY, 42, 6).seed
    assert np.array_equal(again.randomizer,
                          derive_block_key(ZERO_KEY, 42, 6).randomizer)


def test_partition_balance():
    """Keyed token bits behave like fair coin flips over a large vocab."""
    total = 0
    V = 10000
    for j in range(5):
        bk = derive_block_key(ZERO_KEY, j, 6)
        total += int(partition_bits(bk, V).sum())
    frac = total / (5 * V)
    assert 0.48 <= frac <= 0.52


def test_key_separation():
    """Different secret keys flip a large fraction of membership bits."""
    a = partition_bits(derive_block_key(ZERO_KEY, 0, 6), 5000)
    b = partition_bits(derive_block_key(SecretKey(bytes(range(32))), 0, 6),
                       5000)
    assert np.mean(a != b) >= 0.40


def test_partition_is_readonly():
    part = partition_bits(derive_block_key(ZERO_KEY, 3, 6), 64)
    with pytest.raises(ValueError):
        part[0] = 1


def test_plan_payload_mode():
    code = BchCode.make(31, 6, 7)
    payload = int_to_bits(13, 6)
    plan = plan_block(ZERO_KEY, 2, payload, code)
    r = derive_block_key(ZERO_KEY, 2, 6).randomizer
    want = encode(code, payload ^ r)
    assert len(plan.designated) == 1
    assert np.array_equal(plan.designated[0], want)
    assert np.array_equal(plan.target_bits, want)
    assert plan.matches(want)
    assert not plan.matches(want ^ max_weight_codeword(code))


def test_plan_diverse_mode():
    code = BchCode.make(31, 6, 7)
    payload = int_to_bits(13, 6)
    cmax = max_weight_codeword(code)
    plan = plan_block(ZERO_KEY, 2, payload, code, diverse=True)
    c1, c2 = plan.designated
    assert np.array_equal(c1 ^ c2, cmax)
    assert plan.matches(c1) and plan.matches(c2)
    assert any(np.array_equal(plan.target_bits, c) for c in (c1, c2))


def test_diverse_target_never_all_zero():
    """Even when payload XOR r_j encodes to zero, the embedded schedule
    must carry signal."""
    code = BchCode.make(31, 6, 7)
    for j in range(40):
        # payload = r_j makes c1 = encode(payload XOR r_j) the zero word
        r = derive_block_key(ZERO_KEY, j, 6).randomizer
        plan = plan_block(ZERO_KEY, j, r, code, diverse=True)
        assert not plan.designated[0].any()
        assert plan.target_bits.any()


def test_plan_contracts():
    code = BchCode.make(31, 6, 7)
    with pytest.raises(ContractError):
        plan_block(ZERO_KEY, 0, np.zeros(5, dtype=np.uint8), code)


def test_token_bits_agree_with_partition():
    bk = derive_block_key(ZERO_KEY, 5, 6)
    part = partition_bits(bk, 300)
    toks = [299, 0, 17, 17, 128]
    assert token_bits(bk.seed, toks).tolist() == part[toks].tolist()
    assert [token_bit(bk, v) for v in toks] == part[toks].tolist()


@pytest.mark.parametrize("V", [0, -1, 1 << 32, 1 << 40,
                               4.5, 2.0, True, "5"])
def test_vocab_size_out_of_le32_range_rejected(V):
    """Token ids hash as LE32, so V must be an integer in [1, 2^32); any
    other V raises before anything is allocated or hashed."""
    bk = derive_block_key(ZERO_KEY, 0, 6)
    t0 = time.perf_counter()
    with pytest.raises(ContractError):
        partition_bits(bk, V)
    with pytest.raises(ContractError):
        TokenSequence([0, 1], V)
    assert time.perf_counter() - t0 < 1.0


def test_largest_vocab_size_accepted():
    V = (1 << 32) - 1
    seq = TokenSequence([0, V - 1], V)
    bk = derive_block_key(ZERO_KEY, 0, 6)
    assert token_bits(bk.seed, seq.tokens.tolist()).shape == (2,)


def test_keyed_bits_fill_lazily_and_complete_the_partition(monkeypatch):
    monkeypatch.setattr(keying, "_cache", OrderedDict())
    monkeypatch.setattr(keying, "_held", 0)
    bk = derive_block_key(ZERO_KEY, 9, 6)
    whole = token_bits(bk.seed, range(500))
    bits = keyed_bits(bk.seed, 500)
    ids = np.array([[7, 499], [7, 0]])
    assert bits_of(bk.seed, bits, ids).tolist() == whole[ids].tolist()
    assert np.flatnonzero(bits >= 0).tolist() == [0, 7, 499]
    assert partition_bits(bk, 500).tolist() == whole.tolist()
    assert keyed_bits(bk.seed, 500) is bits and (bits >= 0).all()


def test_keyed_bit_cache_is_bounded_by_bytes(monkeypatch):
    """The cache holds at most CACHE_BYTES, counting each entry's bits and
    _ENTRY_BYTES, drops the least recently used first, and hands out an
    entry larger than the bound without keeping it."""
    bound = 4 * (1000 + keying._ENTRY_BYTES)
    monkeypatch.setattr(keying, "CACHE_BYTES", bound)
    monkeypatch.setattr(keying, "_cache", OrderedDict())
    monkeypatch.setattr(keying, "_held", 0)

    def held():
        total = sum(b.nbytes + keying._ENTRY_BYTES
                    for b in keying._cache.values())
        assert total == keying._held
        return total
    seeds = [derive_block_key(ZERO_KEY, j, 6).seed for j in range(12)]
    for seed in seeds:
        keyed_bits(seed, 1000)
        keyed_bits(seeds[0], 1000)          # keep block 0 recently used
        assert held() <= bound
    assert [s for s, _ in keying._cache] == seeds[9:] + seeds[:1]
    big = derive_block_key(ZERO_KEY, 99, 6)
    V = 2 * bound
    part = partition_bits(big, V)
    assert part.tolist() == token_bits(big.seed, range(V)).tolist()
    assert [s for s, _ in keying._cache] == seeds[9:] + seeds[:1]
    assert held() <= bound
