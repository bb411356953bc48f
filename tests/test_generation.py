"""Embedding schemes and synthetic logit sources."""
import numpy as np
import pytest

from blockmark.bch import BchCode, ContractError, int_to_bits
from blockmark.detector import extract_bits
from blockmark.generation import (ControlledMassSource, EmbedConfig,
                                  GenerationError, TokenSequence,
                                  UniformSource, embed, sample_unwatermarked)
from blockmark.keying import SecretKey, derive_block_key, partition_bits, \
    plan_block

KEY = SecretKey(bytes(range(32)))
CODE = BchCode.make(31, 6, 7)
PAYLOAD = int_to_bits(45, 6)


def _schedule(token_count):
    full = np.concatenate([
        plan_block(KEY, j, PAYLOAD, CODE).target_bits
        for j in range(token_count // CODE.n + 1)])
    return full[:token_count]


def test_token_sequence_range_check():
    with pytest.raises(ContractError):
        TokenSequence([0, 5], vocab_size=4)
    with pytest.raises(ContractError):
        TokenSequence([-1], vocab_size=4)


def test_token_sequence_rejects_non_integer_ids():
    for bad in ([1.7, 2.2], [1.0, 2.0], [True, False], ["3", "1"],
                [2 ** 70], np.array([1, 2], dtype=np.float32)):
        with pytest.raises(ContractError):
            TokenSequence(bad, vocab_size=4)
    assert TokenSequence([], vocab_size=4).tokens.dtype == np.int64
    small = TokenSequence(np.array([3, 1], dtype=np.uint8), vocab_size=4)
    assert small.tokens.dtype == np.int64
    assert small.tokens.tolist() == [3, 1]


def test_hard_mode_is_exact():
    cfg = EmbedConfig(code=CODE, delta=0.0, scheme="hard", token_count=124,
                      rng_seed=9)
    seq = embed(UniformSource(256), KEY, PAYLOAD, cfg)
    bits = extract_bits(seq, KEY, CODE.n, CODE.k, 0)
    assert np.array_equal(bits, _schedule(124))


def test_soft_mode_large_delta_matches_hard():
    cfg = EmbedConfig(code=CODE, delta=40.0, scheme="soft", token_count=124,
                      rng_seed=9)
    seq = embed(UniformSource(256), KEY, PAYLOAD, cfg)
    bits = extract_bits(seq, KEY, CODE.n, CODE.k, 0)
    assert np.array_equal(bits, _schedule(124))


def test_soft_mode_zero_delta_is_noise():
    cfg = EmbedConfig(code=CODE, delta=0.0, scheme="soft", token_count=4000,
                      rng_seed=9)
    seq = embed(UniformSource(512), KEY, PAYLOAD, cfg)
    bits = extract_bits(seq, KEY, CODE.n, CODE.k, 0)
    ber = float(np.mean(bits != _schedule(4000)))
    assert 0.45 <= ber <= 0.55


def test_soft_error_rate_follows_closed_form():
    """BER under ControlledMassSource(m) tracks (1-m)/(m e^delta + 1-m)."""
    for mass, delta in [(0.5, 2.0), (0.3, 2.5), (0.7, 3.0)]:
        cfg = EmbedConfig(code=CODE, delta=delta, scheme="soft",
                          token_count=20000, rng_seed=int(mass * 10) + 1)
        seq = embed(ControlledMassSource(1024, mass), KEY, PAYLOAD, cfg)
        bits = extract_bits(seq, KEY, CODE.n, CODE.k, 0)
        ber = float(np.mean(bits != _schedule(20000)))
        import math
        expected = (1 - mass) / (mass * math.exp(delta) + 1 - mass)
        se = math.sqrt(expected * (1 - expected) / 20000)
        assert abs(ber - expected) <= 3.5 * se, (mass, delta, ber, expected)


def test_controlled_mass_is_exact():
    """The source pins the pre-bias green softmax mass exactly."""
    src = ControlledMassSource(512, 0.3)
    bk = derive_block_key(KEY, 0, 6)
    green = partition_bits(bk, 512) == 1
    logits = src.logits(green)
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    assert abs(float(probs[green].sum()) - 0.3) < 1e-12


def test_controlled_mass_contracts():
    with pytest.raises(ContractError):
        ControlledMassSource(512, 0.0)
    src = ControlledMassSource(4, 0.5)
    with pytest.raises(GenerationError):
        src.logits(np.zeros(4, dtype=bool))


def test_embed_config_contracts():
    with pytest.raises(ContractError):
        EmbedConfig(code=CODE, delta=-1.0, scheme="soft", token_count=10,
                    rng_seed=0)
    with pytest.raises(ContractError):
        EmbedConfig(code=CODE, delta=1.0, scheme="medium", token_count=10,
                    rng_seed=0)
    with pytest.raises(ContractError):
        EmbedConfig(code=CODE, delta=1.0, scheme="soft", token_count=0,
                    rng_seed=0)


def test_embed_deterministic_under_seed():
    cfg = EmbedConfig(code=CODE, delta=2.0, scheme="soft", token_count=100,
                      rng_seed=77)
    a = embed(UniformSource(256), KEY, PAYLOAD, cfg)
    b = embed(UniformSource(256), KEY, PAYLOAD, cfg)
    assert np.array_equal(a.tokens, b.tokens)


def test_unwatermarked_is_uniform():
    seq = sample_unwatermarked(UniformSource(16), 16000, 5)
    counts = np.bincount(seq.tokens, minlength=16)
    # chi-square against uniform; 15 dof, 3-sigma-ish ceiling
    expected = 1000.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 40.0
