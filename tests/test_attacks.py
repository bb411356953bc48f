"""Attack channel behavior."""
import hashlib

import numpy as np
import pytest

from blockmark import attacks
from blockmark.attacks import AttackSpec, attack, delete_prefix, \
    insert_prefix
from blockmark.bch import BchCode, ContractError, int_to_bits
from blockmark.detector import extract_bits
from blockmark.generation import EmbedConfig, TokenSequence, UniformSource, \
    embed
from blockmark.keying import SecretKey

KEY = SecretKey(bytes(range(32)))
CODE = BchCode.make(31, 6, 7)


def _seq(n_tokens=500, seed=3):
    rng = np.random.default_rng(seed)
    return TokenSequence(rng.integers(0, 256, n_tokens), 256)


def test_spec_contracts():
    with pytest.raises(ContractError):
        AttackSpec("scramble", 0.1)
    with pytest.raises(ContractError):
        AttackSpec("substitute", 1.5)


def test_seeds_are_checked_when_given():
    """A seed that is not an integer raises ContractError where it is
    given: AttackSpec("insert", 0.1, 1.5) used to build and fail inside
    numpy, and a bool seed attacked with seed 1."""
    for seed in (1.5, "3", True, None):
        with pytest.raises(ContractError, match="rng_seed"):
            AttackSpec("insert", 0.1, seed)
        with pytest.raises(ContractError, match="rng_seed"):
            insert_prefix(_seq(), 2, seed)
    spec = AttackSpec("insert", 0.1, np.int64(3))
    assert np.array_equal(attack(_seq(), spec).tokens,
                          attack(_seq(), AttackSpec("insert", 0.1, 3)).tokens)
    assert np.array_equal(insert_prefix(_seq(), 2, np.uint8(4)).tokens,
                          insert_prefix(_seq(), 2, 4).tokens)


def test_negative_seeds_are_refused_when_given():
    """A negative seed raises ContractError where it is given; it used to
    build and end in numpy's ValueError when drawn."""
    with pytest.raises(ContractError, match="rng_seed must be >= 0"):
        AttackSpec("insert", 0.1, -2)
    with pytest.raises(ContractError, match="rng_seed must be >= 0"):
        insert_prefix(_seq(), 2, -1)
    AttackSpec("insert", 0.1, 0)
    insert_prefix(_seq(), 2, 0)


def test_rate_zero_is_identity():
    seq = _seq()
    for kind in ("substitute", "delete", "insert"):
        out = attack(seq, AttackSpec(kind, 0.0, 1))
        assert np.array_equal(out.tokens, seq.tokens)


def test_substitute_changes_expected_fraction():
    seq = _seq(20000)
    out = attack(seq, AttackSpec("substitute", 0.2, 1))
    assert len(out) == len(seq)
    changed = float(np.mean(out.tokens != seq.tokens))
    # hit rate 0.2, minus collisions where the random draw equals the original
    expected = 0.2 * (1 - 1 / 256)
    assert abs(changed - expected) < 0.02


def test_delete_and_insert_lengths():
    seq = _seq(20000)
    deleted = attack(seq, AttackSpec("delete", 0.1, 2))
    inserted = attack(seq, AttackSpec("insert", 0.1, 2))
    assert abs(len(deleted) - 18000) < 300
    assert abs(len(inserted) - 22000) < 300


def test_insert_preserves_original_subsequence():
    seq = _seq(200)
    out = attack(seq, AttackSpec("insert", 0.3, 5))
    # original tokens must appear in order within the attacked stream
    it = iter(out.tokens.tolist())
    assert all(tok in it for tok in seq.tokens.tolist())
    # digest of the per-token insertion loop that np.insert replaced
    assert out.tokens.dtype == np.int64
    assert hashlib.sha256(out.tokens.tobytes()).hexdigest() == \
        "eece754257d14561a4445cbdbe17fc5d14513c3fceb757c2576d1f80b86f78ac"


def test_bitflip_requires_key_material():
    with pytest.raises(ContractError):
        attack(_seq(), AttackSpec("bitflip", 0.1, 1))


def test_bitflip_flips_extracted_bits_at_rate():
    cfg = EmbedConfig(code=CODE, delta=0.0, scheme="hard", token_count=3100,
                      rng_seed=11)
    seq = embed(UniformSource(512), KEY, int_to_bits(9, 6), cfg)
    clean = extract_bits(seq, KEY, CODE.n, CODE.k, 0)
    out = attack(seq, AttackSpec("bitflip", 0.1, 4), key=KEY, n=CODE.n)
    dirty = extract_bits(out, KEY, CODE.n, CODE.k, 0)
    flip_rate = float(np.mean(clean != dirty))
    se = (0.1 * 0.9 / 3100) ** 0.5
    assert abs(flip_rate - 0.1) <= 3.5 * se


def test_bitflip_draws_are_pinned():
    """The bit-flip channel's tokens, pinned as the channel produced them
    before it refused one-list blocks."""
    cfg = EmbedConfig(code=CODE, delta=0.0, scheme="hard", token_count=300,
                      rng_seed=11)
    seq = embed(UniformSource(64), KEY, int_to_bits(9, 6), cfg)
    out = attack(seq, AttackSpec("bitflip", 0.3, 4), key=KEY, n=CODE.n)
    assert int((out.tokens != seq.tokens).sum()) == 71
    assert hashlib.sha256(out.tokens.astype("<i8").tobytes()).hexdigest() \
        == "b7ebb2c4d89f95cee04b25d428bb6fa8d049a16a16e2086b14ee37c72426c805"


def test_bitflip_draws_are_pinned_across_codes():
    """Bit-flip tokens over n = 31 and 127, rates 0.1 and 0.4, V = 512
    and 32768, pinned as the channel produced them when it also took the
    code's k: a block's two lists depend on its seed alone."""
    sha = hashlib.sha256()
    for n in (31, 127):
        for V in (512, 32768):
            rng = np.random.default_rng(V + n)
            seq = TokenSequence(rng.integers(0, V, 12 * n + 3), V)
            for rate in (0.1, 0.4):
                out = attack(seq, AttackSpec("bitflip", rate, 7), key=KEY,
                             n=n)
                sha.update(out.tokens.astype("<i8").tobytes())
    assert sha.hexdigest() == \
        "0df48cb6ce97b43369afbacdc1e745c116fd28da914651041fd3bf0d6d38c58b"


def test_bitflip_looks_up_each_hit_block_once(monkeypatch):
    """Bit-flip looks up at most one partition per block it hits, not
    one per hit token."""
    blocks = []
    original = attacks.partition_bits

    def counting(bk, vocab_size):
        blocks.append(bk.index)
        return original(bk, vocab_size)
    monkeypatch.setattr(attacks, "partition_bits", counting)
    seq = _seq(10 * CODE.n + 7)
    spec = AttackSpec("bitflip", 0.3, 4)
    attack(seq, spec, key=KEY, n=CODE.n)
    hits = np.flatnonzero(
        np.random.default_rng(spec.rng_seed).random(len(seq)) < spec.rate)
    assert len(hits) > len(blocks)
    assert blocks == sorted(set(hits // CODE.n))


def test_bitflip_refuses_a_one_list_block():
    """A block whose keyed partition puts every id in one list has no
    opposite list to draw from."""
    seq = TokenSequence([0, 0, 0], 1)
    with pytest.raises(ContractError, match="block 0 puts every token id"):
        attack(seq, AttackSpec("bitflip", 1.0, 0), key=KEY, n=CODE.n)
    out = attack(seq, AttackSpec("bitflip", 0.0, 0), key=KEY, n=CODE.n)
    assert out.tokens.tolist() == [0, 0, 0]


# each id still names the (n, k) the case once passed, k = 6 of (31,6,7)
@pytest.mark.parametrize("n", [0, -31, True, 31.0, "31"],
                         ids=["0-6", "-31-6", "True-6", "31.0-6", "31-6"])
def test_bitflip_refuses_a_bad_block_length_or_dimension(n):
    """n must be an integer >= 1: n = 0 used to divide by zero and flip
    every hit token against block 0's partition.  The check comes before
    any draw."""
    with pytest.raises(ContractError, match="bitflip: n must be an "
                                            "integer >= 1"):
        attack(_seq(64), AttackSpec("bitflip", 0.5, 1), key=KEY, n=n)


def test_bitflip_takes_numpy_integers():
    seq = _seq(64)
    spec = AttackSpec("bitflip", 0.5, 1)
    assert np.array_equal(
        attack(seq, spec, key=KEY, n=np.int64(31)).tokens,
        attack(seq, spec, key=KEY, n=31).tokens)


def test_substitute_halves_to_bit_error_rate():
    """A uniform replacement keeps its keyed bit with probability ~1/2, so
    token substitution at rate p induces a bit error rate of ~p/2."""
    cfg = EmbedConfig(code=CODE, delta=0.0, scheme="hard",
                      token_count=100000, rng_seed=13)
    seq = embed(UniformSource(1024), KEY, int_to_bits(9, 6), cfg)
    clean = extract_bits(seq, KEY, CODE.n, CODE.k, 0)
    out = attack(seq, AttackSpec("substitute", 0.2, 7))
    dirty = extract_bits(out, KEY, CODE.n, CODE.k, 0)
    rate = float(np.mean(clean != dirty))
    se = (0.1 * 0.9 / 100000) ** 0.5
    assert abs(rate - 0.1) <= 3 * se


def test_prefix_helpers_shift_stream():
    seq = _seq(100)
    ins = insert_prefix(seq, 4, rng_seed=1)
    assert len(ins) == 104
    assert np.array_equal(ins.tokens[4:], seq.tokens)
    dele = delete_prefix(seq, 4)
    assert len(dele) == 96
    assert np.array_equal(dele.tokens, seq.tokens[4:])
    assert np.array_equal(insert_prefix(seq, 0).tokens, seq.tokens)


def test_prefix_helpers_refuse_a_bad_shift():
    """r must be an integer >= 0: a negative r used to keep the last |r|
    tokens (delete) or fail inside numpy (insert).  An r beyond the text
    is allowed."""
    seq = _seq(10)
    for bad in (-2, -1, 1.0, 2.5, True, False, "3", None, np.float64(2)):
        for helper in (insert_prefix, delete_prefix):
            with pytest.raises(ContractError, match="r must be an integer"):
                helper(seq, bad)
    assert len(delete_prefix(seq, 25)) == 0
    assert len(delete_prefix(seq, np.int64(3))) == 7
    assert len(insert_prefix(seq, 25)) == 35


def test_attacks_are_deterministic():
    seq = _seq()
    a = attack(seq, AttackSpec("substitute", 0.3, 9))
    b = attack(seq, AttackSpec("substitute", 0.3, 9))
    assert np.array_equal(a.tokens, b.tokens)
