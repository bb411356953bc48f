"""Key derivation, vocabulary partitioning and block plans."""
import time
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockmark import keying
from blockmark.bch import BchCode, ContractError, encode, int_to_bits, \
    max_weight_codeword
from blockmark.generation import TokenSequence
from blockmark.keying import (SecretKey, bits_of, derive_block_key,
                              keyed_bits, partition_bits, plan_block,
                              token_bits, window_bits)

ZERO_KEY = SecretKey(bytes(32))

# Documented test vectors under the all-zero 32-byte key (also in the
# README): block-0 seed, randomizer prefix and membership bits.
SEED_0_HEX = "d48d69a9fa153796eabdf32088d1e5396f630aed4ab182e7e167f770ad6439ac"
R_0_K6 = [0, 1, 1, 1, 1, 0]
F_0_FIRST8 = [0, 0, 1, 1, 1, 0, 1, 0]


def test_key_length_contract():
    with pytest.raises(ContractError):
        SecretKey(b"short")
    # hex of the wrong length is refused for its length, not as non-hex
    with pytest.raises(ContractError, match="must be 32 bytes"):
        SecretKey.from_hex("00")


def test_hex_roundtrip():
    key = SecretKey(bytes(range(32)))
    assert SecretKey.from_hex(key.to_hex()) == key


def test_seed_vector():
    bk = derive_block_key(ZERO_KEY, 0, 6)
    assert bk.seed.hex() == SEED_0_HEX
    assert bk.randomizer.tolist() == R_0_K6


def test_membership_vector():
    bk = derive_block_key(ZERO_KEY, 0, 6)
    assert token_bits(bk.seed, range(8)).tolist() == F_0_FIRST8
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
    assert any(np.array_equal(want, d) for d in plan.designated)
    assert not any(np.array_equal(want ^ max_weight_codeword(code), d)
                   for d in plan.designated)


def test_plan_diverse_mode():
    code = BchCode.make(31, 6, 7)
    payload = int_to_bits(13, 6)
    cmax = max_weight_codeword(code)
    plan = plan_block(ZERO_KEY, 2, payload, code, diverse=True)
    c1, c2 = plan.designated
    assert np.array_equal(c1 ^ c2, cmax)
    for cw in (c1, c2):
        assert any(np.array_equal(cw, d) for d in plan.designated)
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
    # a payload bit is never taken mod 2: [2,1,0,1,0,1] used to plan
    # exactly the blocks of [0,1,0,1,0,1]
    for bad in ([2, 1, 0, 1, 0, 1], [0, 1, 0, 1, 0, -1], [0, 1, 0, 1, 0, 3]):
        for diverse in (False, True):
            with pytest.raises(ContractError, match="payload entries"):
                plan_block(ZERO_KEY, 0, bad, code, diverse)


def test_token_bits_agree_with_partition():
    bk = derive_block_key(ZERO_KEY, 5, 6)
    part = partition_bits(bk, 300)
    toks = [299, 0, 17, 17, 128]
    assert token_bits(bk.seed, toks).tolist() == part[toks].tolist()
    assert [token_bits(bk.seed, [v])[0] for v in toks] == \
        part[toks].tolist()


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


def _assert_held_counts_entries():
    """_held is the sum over entries of their bits and _ENTRY_BYTES, a
    window-only entry (None) counting _ENTRY_BYTES alone, and stays
    within CACHE_BYTES."""
    total = sum(keying._ENTRY_BYTES + (0 if b is None else b.nbytes)
                for b in keying._cache.values())
    assert keying._held == total <= keying.CACHE_BYTES


def test_window_read_makes_the_array_on_the_second_read(monkeypatch):
    """The first window read of a (seed, V) hashes the ids and leaves an
    entry without bits; the second gives it its array, filled with the
    ids read; keyed_bits returns that array; the bits equal token_bits."""
    monkeypatch.setattr(keying, "_cache", OrderedDict())
    monkeypatch.setattr(keying, "_held", 0)
    seed = derive_block_key(ZERO_KEY, 4, 6).seed
    ids = np.array([9, 3, 9, 250])
    want = token_bits(seed, ids.tolist()).tolist()
    got = window_bits(seed, 300, ids)
    assert got.dtype == np.uint8 and got.tolist() == want
    assert list(keying._cache.items()) == [((seed, 300), None)]
    _assert_held_counts_entries()
    assert window_bits(seed, 300, ids).tolist() == want
    bits = keying._cache[seed, 300]
    assert np.flatnonzero(bits >= 0).tolist() == [3, 9, 250]
    assert keyed_bits(seed, 300) is bits
    _assert_held_counts_entries()
    # keyed_bits gives a window-only entry its array too
    other = derive_block_key(ZERO_KEY, 5, 6).seed
    window_bits(other, 300, ids)
    assert keying._cache[other, 300] is None
    assert keyed_bits(other, 300) is keying._cache[other, 300]
    assert list(keying._cache) == [(seed, 300), (other, 300)]
    _assert_held_counts_entries()


def test_window_read_beyond_the_bound_records_nothing(monkeypatch):
    """Where V + _ENTRY_BYTES exceeds CACHE_BYTES a window read hashes its
    ids and leaves the cache as it was."""
    monkeypatch.setattr(keying, "CACHE_BYTES", 1000 + keying._ENTRY_BYTES)
    monkeypatch.setattr(keying, "_cache", OrderedDict())
    monkeypatch.setattr(keying, "_held", 0)
    seed = derive_block_key(ZERO_KEY, 6, 6).seed
    ids = np.array([0, 1000])
    for _ in range(2):
        assert window_bits(seed, 1001, ids).tolist() == \
            token_bits(seed, [0, 1000]).tolist()
        assert not keying._cache and keying._held == 0
    window_bits(seed, 1000, ids[:1])
    assert list(keying._cache) == [(seed, 1000)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(("keyed", "window", "partition")),
                          st.integers(0, 5), st.sampled_from((40, 300, 900)),
                          st.lists(st.integers(0, 899), max_size=12)),
                max_size=30))
def test_held_counts_every_entry_under_any_mix_of_reads(ops):
    """After any mix of keyed_bits, window reads and partition_bits over a
    cache that holds about two arrays of 900 ids, _held equals the sum
    over the entries and never exceeds CACHE_BYTES, and every read
    returns token_bits' bits."""
    seeds = [derive_block_key(ZERO_KEY, j, 6).seed for j in range(6)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(keying, "CACHE_BYTES", 2 * (900 + keying._ENTRY_BYTES))
        mp.setattr(keying, "_cache", OrderedDict())
        mp.setattr(keying, "_held", 0)
        for op, j, V, ids in ops:
            ids = np.array([v % V for v in ids], dtype=np.int64)
            want = token_bits(seeds[j], ids.tolist())
            if op == "keyed":
                got = bits_of(seeds[j], keyed_bits(seeds[j], V), ids)
            elif op == "window":
                got = window_bits(seeds[j], V, ids)
            else:
                got = partition_bits(derive_block_key(ZERO_KEY, j, 6),
                                     V)[ids]
            assert got.tolist() == want.tolist()
            _assert_held_counts_entries()
