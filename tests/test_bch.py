"""Codec correctness, checked against brute-force oracles on the small
instance and sampled on the larger ones, and against a general decoder
written here from first principles on all six."""
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockmark import bch, detector
from blockmark.bch import (NAMED_CODES, BchCode, ContractError, all_codewords,
                           bits_to_int, code_params, decode_rows, encode,
                           encode_rows, int_to_bits, is_codeword, max_weight_codeword,
                           message_of, safe_decode, syndromes)
from blockmark.keying import SecretKey


@pytest.fixture(scope="module")
def small():
    return BchCode.make(15, 5, 3)


@pytest.fixture(scope="module")
def small_codewords(small):
    return all_codewords(small)


@pytest.mark.parametrize("n,k,t", sorted(NAMED_CODES))
def test_construction(n, k, t):
    code = BchCode.make(n, k, t)
    assert code.generator.bit_length() - 1 == n - k
    assert code.fld.period == n
    # generator has a constant term (it divides x^n - 1 and is square-free)
    assert code.generator & 1
    # a code is its (n, k, t): built again it is equal and hashes alike,
    # and make returns the one cached object
    built = BchCode(n, k, t)
    assert built == code and hash(built) == hash(code)
    assert built is not code and BchCode.make(n, k, t) is code
    assert {built: 1}[code] == 1
    for build in (BchCode.make, BchCode):
        with pytest.raises(ContractError, match="unknown code instance"):
            build(n, k + 1, t)


def test_make_rejects_unknown_instance():
    with pytest.raises(ValueError):
        BchCode.make(31, 11, 5)


def test_bits_int_roundtrip():
    for v in (0, 1, 5, 31, 2 ** 10 - 1):
        assert bits_to_int(int_to_bits(v, 12)) == v
    assert int_to_bits(0b101, 3).tolist() == [1, 0, 1]


def test_systematic_property(small):
    rng = np.random.default_rng(1)
    for _ in range(50):
        msg = rng.integers(0, 2, small.k).astype(np.uint8)
        cw = encode(small, msg)
        assert np.array_equal(cw[:small.k], msg)
        assert is_codeword(small, cw)
        assert np.array_equal(message_of(small, cw), msg)


def test_linearity(small, small_codewords):
    # the codeword set is closed under XOR
    as_ints = {bits_to_int(c) for c in small_codewords}
    for a, b in itertools.product(small_codewords[:8], small_codewords[:8]):
        assert bits_to_int(a ^ b) in as_ints


def test_min_distance_small(small_codewords):
    weights = sorted(int(c.sum()) for c in small_codewords)
    assert weights[0] == 0
    assert weights[1] == 7  # minimum nonzero weight = designed distance


def test_exhaustive_oracle_small(small, small_codewords):
    """Every received word decodes to its brute-force nearest codeword when
    that lies within distance t, and to None otherwise."""
    rng = np.random.default_rng(7)
    for _ in range(400):
        word = rng.integers(0, 2, small.n).astype(np.uint8)
        dists = (small_codewords ^ word).sum(axis=1)
        best = int(dists.min())
        for out in (safe_decode(small, word), _reference_decode(small, word)):
            if best <= small.t:
                assert out is not None
                cw, dist = out
                assert dist == best
                assert np.array_equal(cw, small_codewords[dists.argmin()])
            else:
                assert out is None


@pytest.mark.parametrize("n,k,t", [(31, 6, 7), (31, 16, 3), (63, 7, 15),
                                   (63, 45, 3), (127, 92, 5)])
def test_decode_roundtrip_large(n, k, t):
    code = BchCode.make(n, k, t)
    rng = np.random.default_rng(n * 1000 + k)
    for _ in range(60):
        msg = rng.integers(0, 2, k).astype(np.uint8)
        cw = encode(code, msg)
        w = int(rng.integers(0, t + 1))
        err_pos = rng.choice(n, w, replace=False)
        word = cw.copy()
        word[err_pos] ^= 1
        out = safe_decode(code, word)
        assert out is not None
        assert np.array_equal(out[0], cw)
        assert out[1] == w


def test_decode_rejects_beyond_t(small, small_codewords):
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 200:
        word = rng.integers(0, 2, small.n).astype(np.uint8)
        if int((small_codewords ^ word).sum(axis=1).min()) > small.t:
            assert safe_decode(small, word) is None
            checked += 1


def test_syndromes_zero_iff_codeword(small, small_codewords):
    for cw in small_codewords:
        assert not syndromes(small, cw).any()
    flipped = small_codewords[5].copy()
    flipped[0] ^= 1
    assert syndromes(small, flipped).any()


def test_message_of_rejects_noncodeword(small):
    word = np.zeros(small.n, dtype=np.uint8)
    word[0] = 1
    with pytest.raises(ContractError):
        message_of(small, word)


def test_shape_contracts(small):
    with pytest.raises(ContractError):
        encode(small, np.zeros(small.k + 1, dtype=np.uint8))
    with pytest.raises(ContractError):
        safe_decode(small, np.zeros(small.n - 1, dtype=np.uint8))
    for shape in ((2, small.n - 1), (small.n,)):
        with pytest.raises(ContractError):
            decode_rows(small, np.zeros(shape, dtype=np.uint8))
    for shape in ((2, small.k + 1), (small.k,)):
        with pytest.raises(ContractError):
            encode_rows(small, np.zeros(shape, dtype=np.uint8))


def test_encoders_refuse_entries_that_are_not_bits(small):
    """A message entry outside {0, 1} raises ContractError where it used
    to be taken mod 2 (2 encoded as 0) or fail inside numpy (-1)."""
    for bad in (2, -1, 0.5, 255):
        msg = np.zeros(small.k, dtype=np.int64 if bad != 0.5 else float)
        msg[1] = bad
        with pytest.raises(ContractError, match="message entries"):
            encode(small, msg)
        with pytest.raises(ContractError, match="message entries"):
            encode_rows(small, np.stack([msg * 0, msg]))
    ones = np.ones(small.k, dtype=bool)
    assert np.array_equal(encode(small, ones), encode(small, ones * 1.0))


def test_decoders_refuse_words_that_are_not_bits(small):
    """A word entry outside {0, 1} raises ContractError in safe_decode,
    decode_rows, syndromes and stage1_vote, where a word of 2s used to
    decode as a codeword at distance 0 and a -1 to fail inside numpy."""
    for bad in (2, -1, 0.5, 255):
        word = np.zeros(small.n, dtype=np.int64 if bad != 0.5 else float)
        word[3] = bad
        with pytest.raises(ContractError, match="word entries"):
            safe_decode(small, word)
        with pytest.raises(ContractError, match="word entries"):
            decode_rows(small, np.stack([word * 0, word]))
        with pytest.raises(ContractError, match="word entries"):
            syndromes(small, word)
        with pytest.raises(ContractError, match="word entries"):
            detector.stage1_vote(np.concatenate([word * 0, word]), small,
                                 SecretKey(bytes(32)))
    with pytest.raises(ContractError, match="word entries"):
        safe_decode(small, np.full(small.n, 2))
    ones = np.ones(small.n, dtype=bool)
    for out in (safe_decode(small, ones), safe_decode(small, ones * 1.0)):
        assert out[1] == 0 and np.array_equal(out[0], ones)


def test_code_params():
    assert code_params([31, 6, 7]) == code_params((31, 6, 7)) == (31, 6, 7)
    for bad in ("31,6,7", "317", "31,6", "31,6,x", [31, 6], [31, 6, 7, 1],
                [31, 6.0, 7], 31, None):
        with pytest.raises(ContractError, match="three integers"):
            code_params(bad)


@pytest.mark.parametrize("n,k,t", sorted(NAMED_CODES))
def test_max_weight_codeword(n, k, t):
    code = BchCode.make(n, k, t)
    cmax = max_weight_codeword(code)
    assert is_codeword(code, cmax)
    assert int(cmax.sum()) == n  # all-ones is a codeword of every instance


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 31), st.lists(st.integers(0, 30), min_size=0,
                                    max_size=7, unique=True))
def test_roundtrip_property(msg_int, err_positions):
    code = BchCode.make(31, 6, 7)
    cw = encode(code, int_to_bits(msg_int, 6))
    word = cw.copy()
    word[np.array(err_positions, dtype=np.int64)] ^= 1
    out = safe_decode(code, word)
    assert out is not None
    assert np.array_equal(out[0], cw)
    assert out[1] == len(err_positions)


def _bits_to_int_loop(bits):
    out = 0
    for b in np.asarray(bits, dtype=np.uint8):
        out = (out << 1) | int(b)
    return out


def _int_to_bits_loop(value, width):
    out = np.zeros(width, dtype=np.uint8)
    for i in range(width - 1, -1, -1):
        out[i] = value & 1
        value >>= 1
    return out


def _reference_encode(code, msg):
    """Systematic encoding by long division: the message polynomial
    (msg[0] the coefficient of x^(k-1)) times x^(n-k), plus its remainder
    mod the generator polynomial, one bit at a time."""
    r = code.n - code.k
    word = _bits_to_int_loop(msg) << r
    rem = word
    for d in range(code.n - 1, r - 1, -1):
        if rem >> d & 1:
            rem ^= code.generator << (d - r)
    return _int_to_bits_loop(word ^ rem, code.n)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(NAMED_CODES)), st.integers(0, 9),
       st.integers(0, 2 ** 32 - 1))
def test_encode_rows_equals_encode(params, rows, seed):
    """encode_rows equals encode row by row, and both equal encoding by
    long division, on all six codes: batches of random messages with the
    zero and the all-ones message, and an empty batch."""
    code = BchCode.make(*params)
    msgs = np.concatenate([
        np.random.default_rng(seed).integers(0, 2, (rows, code.k)),
        np.zeros((1, code.k)), np.ones((1, code.k))]).astype(np.uint8)
    got = encode_rows(code, msgs)
    assert got.shape == (rows + 2, code.n) and got.dtype == np.uint8
    for msg, cw in zip(msgs, got):
        assert np.array_equal(cw, encode(code, msg))
        assert np.array_equal(cw, _reference_encode(code, msg))
    assert encode_rows(code, msgs[:0]).shape == (0, code.n)


def test_bit_packing_equals_bitwise_loops():
    """bits_to_int and int_to_bits equal the bit-at-a-time loops they
    replace, for widths 1-127 with leading zeros, values wider than the
    width and negative values."""
    rng = np.random.default_rng(11)
    for width in range(1, 128):
        for lead in {0, 1, width // 2, width - 1, width}:
            bits = rng.integers(0, 2, width).astype(np.uint8)
            bits[:lead] = 0
            value = _bits_to_int_loop(bits)
            assert bits_to_int(bits) == value
            assert bits_to_int(bits.astype(bool)) == value
            got = int_to_bits(value, width)
            assert got.dtype == np.uint8 and np.array_equal(got, bits)
        for value in (0, 1, (1 << width) - 1, 1 << width, 3 << width,
                      -1, -5, int(rng.integers(1 << 62)) << 70):
            assert np.array_equal(int_to_bits(value, width),
                                  _int_to_bits_loop(value, width))
    assert bits_to_int([]) == 0 and int_to_bits(9, 0).shape == (0,)


# ---------------------------- the reference: a general bounded-radius decoder

def _reference_syndromes(fld, word, count):
    """S_1 ... S_count of a word: S_i sums alpha^(i(n-1-pos)) over the
    positions of its ones."""
    n = len(word)
    ones = np.flatnonzero(word).tolist()
    out = []
    for i in range(1, count + 1):
        s = 0
        for pos in ones:
            s ^= fld.alpha_pow(i * (n - 1 - pos))
        out.append(s)
    return out


def _reference_inverse(fld, a):
    """a^-1 = a^(2^m - 2), by repeated multiplication."""
    out = 1
    for _ in range(fld.period - 1):
        out = fld.mul(out, a)
    return out


def _reference_berlekamp_massey(fld, synd):
    """The general Berlekamp-Massey over every syndrome: the locator
    (ascending coefficients) and its LFSR length."""
    C, B, L, shift, b = [1], [1], 0, 1, 1
    for N in range(len(synd)):
        d = synd[N]
        for i in range(1, min(L + 1, len(C))):
            d ^= fld.mul(C[i], synd[N - i])
        if d == 0:
            shift += 1
            continue
        coef = fld.mul(d, _reference_inverse(fld, b))
        update_from = C[:]
        C += [0] * (shift + len(B) - len(C))
        for i, bi in enumerate(B, shift):
            C[i] ^= fld.mul(coef, bi)
        if 2 * L <= N:
            L, B, b, shift = N + 1 - L, update_from, d, 1
        else:
            shift += 1
    return C, L


def _reference_decode(code, word):
    """safe_decode's contract from first principles: all 2t syndromes, the
    general Berlekamp-Massey, a Chien search evaluating the locator at
    alpha^-j one position at a time, and the syndromes again."""
    fld, n, t = code.fld, code.n, code.t
    word = np.asarray(word, dtype=np.uint8)
    synd = _reference_syndromes(fld, word, 2 * t)
    if not any(synd):
        return word.copy(), 0
    C, L = _reference_berlekamp_massey(fld, synd)
    while len(C) > 1 and C[-1] == 0:
        C.pop()
    if L > t or len(C) - 1 != L:
        return None
    fixed = word.copy()
    for j in range(n):              # a root alpha^-j flips position n-1-j
        x, value = fld.alpha_pow(-j), 0
        for c in reversed(C):
            value = fld.mul(value, x) ^ c
        if value == 0:
            fixed[n - 1 - j] ^= 1
    if int((fixed != word).sum()) != L \
            or any(_reference_syndromes(fld, fixed, 2 * t)):
        return None
    return fixed, L


# ------------------------------- both package decoders against the reference

def _assert_same_decode(got, want, words):
    if want is None:
        assert got is None
        return
    cw, distance = got
    assert type(distance) is int and distance == want[1]
    assert cw.dtype == np.uint8 and np.array_equal(cw, want[0])
    assert cw.shape == want[0].shape and not np.shares_memory(cw, words)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(NAMED_CODES)), st.data())
def test_decode_rows_equals_safe_decode(params, data):
    """safe_decode and decode_rows equal the reference decoder row by
    row on every field, for all six codes:
    words at distance 0 ... t+3 from random codewords, random words, the
    zero and the all-ones word, in batches of 0, 1 or more rows than one
    chunk."""
    code = BchCode.make(*params)
    n, k, t = params
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kinds = data.draw(st.lists(st.one_of(
        st.sampled_from(("zero", "ones", "random")),
        st.integers(0, t + 3)), max_size=12))
    words = np.zeros((len(kinds), n), dtype=np.uint8)
    for w, kind in zip(words, kinds):
        if kind == "ones":
            w[:] = 1
        elif kind == "random":
            w[:] = rng.integers(0, 2, n)
        elif kind != "zero":
            w[:] = encode(code, rng.integers(0, 2, k).astype(np.uint8))
            w[rng.choice(n, kind, replace=False)] ^= 1
    chunk = data.draw(st.sampled_from((1, 2, 5, bch.DECODE_CHUNK)))
    with mock.patch.object(bch, "DECODE_CHUNK", chunk):
        got = decode_rows(code, words)
    assert len(got) == len(words)
    for word, g in zip(words, got):
        want = _reference_decode(code, word)
        _assert_same_decode(safe_decode(code, word), want, words)
        _assert_same_decode(g, want, words)


@pytest.mark.parametrize("params", sorted(NAMED_CODES))
def test_syndromes_equal_reference(params):
    """All 2t syndromes, derived from the odd ones by S_2j = S_j^2, equal
    the sums of alpha^(i(n-1-pos)) over the ones of a word, on random
    words, codewords with up to t + 1 flips and the zero word."""
    code = BchCode.make(*params)
    n, k, t = params
    rng = np.random.default_rng(n + k)
    words = [np.zeros(n, dtype=np.uint8), *rng.integers(0, 2, (8, n))]
    for flips in range(t + 2):
        w = encode(code, rng.integers(0, 2, k).astype(np.uint8))
        w[rng.choice(n, flips, replace=False)] ^= 1
        words.append(w)
    for word in words:
        got = syndromes(code, word)
        assert got.dtype == np.int64 and got.shape == (2 * t,)
        assert got.tolist() == _reference_syndromes(code.fld, word, 2 * t)


def test_decode_rows_across_chunks():
    """A batch of more than two chunks at the module's chunk size: every
    third row a codeword with up to t flips, the others random."""
    code = BchCode.make(127, 92, 5)
    rng = np.random.default_rng(11)
    words = rng.integers(0, 2, (2 * bch.DECODE_CHUNK + 3, code.n)) \
        .astype(np.uint8)
    for i in range(0, len(words), 3):
        words[i] = encode(code, rng.integers(0, 2, code.k).astype(np.uint8))
        words[i, rng.choice(code.n, i % (code.t + 1), replace=False)] ^= 1
    got = decode_rows(code, words)
    assert len(got) == len(words)
    assert sum(g is not None for g in got) >= len(words) // 3
    for word, g in zip(words, got):
        _assert_same_decode(g, _reference_decode(code, word), words)
