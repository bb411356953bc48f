"""Embedding schemes and synthetic logit sources."""
import hashlib
import itertools
import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockmark import bch, generation, keying
from blockmark.bch import NAMED_CODES, BchCode, ContractError, int_to_bits, \
    max_weight_codeword
from blockmark.detector import extract_bits
from blockmark.generation import (ControlledMassSource, EmbedConfig,
                                  GenerationError, LogitSource,
                                  TokenSequence, UniformSource, embed,
                                  sample_unwatermarked)
from blockmark.keying import SecretKey, derive_block_key, partition_bits, \
    plan_block

KEY = SecretKey(bytes(range(32)))
CODE = BchCode.make(31, 6, 7)
PAYLOAD = int_to_bits(45, 6)
# _grid_digest() as the sampler that hashed every block's whole partition
# computed it
GRID_SHA256 = "8b36446d06d801acd21842ff5cce8cf0bea70c6fd572d8ba37058b7b7ea60ee3"
# _per_step_digest() as the sampler that drew rng.gumbel(size=V) per step
# computed it
PER_STEP_SHA256 = \
    "28069d2c0a3ccd3c39e2fa1ddc740a5bc9e991b1ab8fb1ac10b1174182342a3a"


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
    for delta in (-1.0, np.inf, np.nan):      # delta must be finite, >= 0
        for scheme in ("soft", "hard"):
            with pytest.raises(ContractError, match="delta"):
                EmbedConfig(code=CODE, delta=delta, scheme=scheme,
                            token_count=10, rng_seed=0)
    with pytest.raises(ContractError):
        EmbedConfig(code=CODE, delta=1.0, scheme="medium", token_count=10,
                    rng_seed=0)
    with pytest.raises(ContractError):
        EmbedConfig(code=CODE, delta=1.0, scheme="soft", token_count=0,
                    rng_seed=0)


def test_embed_config_refuses_wrongly_typed_settings():
    """A wrongly typed setting raises ContractError when the config is
    built: a float count or seed used to fail inside numpy, and a bool
    count embedded one token.  numpy integers count as integers."""
    base = dict(code=CODE, delta=1.0, scheme="soft", token_count=10,
                rng_seed=0)
    for name, value in (("token_count", 40.5), ("token_count", True),
                        ("rng_seed", 1.5), ("rng_seed", False),
                        ("diverse", 1), ("diverse", None),
                        ("delta", True), ("delta", "2")):
        with pytest.raises(ContractError, match=name):
            EmbedConfig(**{**base, name: value})
    cfg = EmbedConfig(**{**base, "token_count": np.int64(10),
                         "rng_seed": np.uint32(3)})
    assert len(embed(UniformSource(64), KEY, PAYLOAD, cfg).tokens) == 10
    # a code that is not a BchCode used to fail later, inside embed
    with pytest.raises(ContractError, match="code must be a BchCode"):
        EmbedConfig(**{**base, "code": (31, 6, 7)})


def test_embed_refuses_a_payload_that_is_not_binary():
    """A payload entry outside {0, 1} raises ContractError: [2,1,0,1,0,1]
    used to embed exactly the tokens of [0,1,0,1,0,1]."""
    cfg = EmbedConfig(code=CODE, delta=2.0, scheme="soft", token_count=40,
                      rng_seed=1)
    for bad in ([2, 1, 0, 1, 0, 1], [-1, 1, 0, 1, 0, 1],
                [0.5, 1, 0, 1, 0, 1], ["1", "0", "1", "0", "1", "0"]):
        with pytest.raises(ContractError, match="payload"):
            embed(UniformSource(64), KEY, bad, cfg)
    assert np.array_equal(
        embed(UniformSource(64), KEY, [True, 1, 0, 1.0, 0, 1], cfg).tokens,
        embed(UniformSource(64), KEY, [1, 1, 0, 1, 0, 1], cfg).tokens)


def test_sample_unwatermarked_checks_count_and_seed():
    """A count or seed that is not an integer raises ContractError; both
    used to fail inside numpy or Python."""
    src = UniformSource(16)
    for count, seed, name in ((2.5, 0, "token_count"),
                              (True, 0, "token_count"),
                              (5, 1.5, "rng_seed"), (5, "7", "rng_seed")):
        with pytest.raises(ContractError, match=name):
            sample_unwatermarked(src, count, seed)
    assert np.array_equal(sample_unwatermarked(src, np.int64(5), 3).tokens,
                          sample_unwatermarked(src, 5, np.uint16(3)).tokens)


def test_negative_seeds_are_refused_when_given():
    """A negative seed raises ContractError where it is given; it used to
    end in numpy's ValueError when drawn."""
    with pytest.raises(ContractError, match="rng_seed must be >= 0"):
        EmbedConfig(code=CODE, delta=2.0, scheme="soft", token_count=10,
                    rng_seed=-1)
    with pytest.raises(ContractError, match="rng_seed must be >= 0"):
        sample_unwatermarked(UniformSource(16), 5, -3)
    assert len(sample_unwatermarked(UniformSource(16), 5, 0)) == 5


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


# ------------------------------------------ the package against the oracle

def _literal_embed(src, key, payload, cfg) -> list:
    """`embed` as the scheme states it, one step at a time: one `logits`
    call with the step's target list, the soft bias or the hard
    restriction, then np.argmax(scores + rng.gumbel(size=V))."""
    rng = np.random.default_rng(cfg.rng_seed)
    code, V = cfg.code, src.vocab_size
    tokens = []
    for t in range(cfg.token_count):
        j, b = divmod(t, code.n)
        if b == 0:
            part = partition_bits(derive_block_key(key, j, code.k), V)
            bits = plan_block(key, j, payload, code, cfg.diverse).target_bits
        green = part == bits[b]
        logits = src.logits(green)
        if cfg.scheme == "hard":
            if not green.any():
                raise GenerationError("empty target list in hard mode")
            scores = np.where(green, logits, -np.inf)
        else:
            scores = logits + cfg.delta * green
        tokens.append(int(np.argmax(scores + rng.gumbel(size=V))))
    return tokens


def _literal_h0(src, token_count, rng_seed) -> list:
    """`sample_unwatermarked` one step at a time: one `logits(None)`
    call, then np.argmax(logits + rng.gumbel(size=V))."""
    rng = np.random.default_rng(rng_seed)
    return [int(np.argmax(src.logits(None) + rng.gumbel(size=src.vocab_size)))
            for _ in range(token_count)]


class _Stateful(LogitSource):
    """A source that is not two-level: its logits come from its own seeded
    generator, so they depend on how many calls came before, and are
    rounded to tenths, so many of them tie.  It records every green list
    it is asked for."""

    def __init__(self, vocab_size, seed):
        self.vocab_size = vocab_size
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def logits(self, green_mask=None):
        self.calls.append(None if green_mask is None else green_mask.copy())
        return np.round(self.rng.normal(scale=2.0, size=self.vocab_size), 1)


def _outcome(fn):
    try:
        out = fn()
    except Exception as exc:           # the same exception on both paths
        return type(exc), str(exc)
    return out if isinstance(out, list) else out.tokens.tolist()


def _same_calls(a: _Stateful, b: _Stateful) -> bool:
    """Both sources were asked for the same green lists, in order."""
    return len(a.calls) == len(b.calls) and all(
        (x is None and y is None) or np.array_equal(x, y)
        for x, y in zip(a.calls, b.calls))


@pytest.mark.parametrize("nkt", sorted(NAMED_CODES),
                         ids=lambda nkt: "-".join(map(str, nkt)))
def test_two_level_embed_equals_per_step(nkt):
    """Tokens (or the exception) of both sampling paths equal the literal
    sampler's, which reads the whole partition: the two-level sampler
    through both synthetic sources, the per-step path through a stateful
    source, which also gets the same `logits` calls.  V from 1 to 32768,
    soft, hard and huge deltas, both plans and a partial last block.  At
    V = 1 one class is empty, so hard mode meets an empty list.  An
    infinite delta is refused before either path runs."""
    code = BchCode.make(*nkt)
    cases = [(V, scheme, delta, mass)
             for V in (1, 2, 3, 64, 1024, 32768)
             for scheme, delta in (("soft", 2.5), ("hard", 0.0))
             for mass in (None, 0.3)]
    cases += [(V, "soft", delta, mass) for V in (64, 1024)
              for delta in (0.0, 1e30, np.inf) for mass in (None, 0.3)]
    errors = set()
    for i, (V, scheme, delta, mass) in enumerate(cases):
        if delta == np.inf:
            with pytest.raises(ContractError):
                EmbedConfig(code=code, delta=delta, scheme=scheme,
                            token_count=code.n + 2, rng_seed=i)
            continue
        src = ControlledMassSource(V, mass) if mass else UniformSource(V)
        payload = int_to_bits(i % (1 << code.k), code.k)
        for diverse in (False, True):
            cfg = EmbedConfig(code=code, delta=delta, scheme=scheme,
                              token_count=code.n + 2, rng_seed=i,
                              diverse=diverse)
            fast = _outcome(lambda: embed(src, KEY, payload, cfg))
            want = _outcome(lambda: _literal_embed(src, KEY, payload, cfg))
            assert fast == want, (V, scheme, delta, mass, diverse)
            if isinstance(fast, tuple) and mass is None:
                errors.add(fast)
            if mass is None:             # once per case and plan
                a, b = _Stateful(V, i), _Stateful(V, i)
                assert _outcome(lambda: embed(a, KEY, payload, cfg)) == \
                    _outcome(lambda: _literal_embed(b, KEY, payload, cfg))
                assert _same_calls(a, b)
    assert errors == {(GenerationError, "empty target list in hard mode")}


@pytest.mark.parametrize("nkt, V, T", [((15, 5, 3), 64, 3 * 1024 + 40),
                                      ((31, 6, 7), 1024, 3 * 64 + 7),
                                      ((63, 7, 15), 4096, 3 * 16 + 5)],
                         ids=["V64", "V1024", "V4096"])
def test_two_level_embed_equals_literal_across_chunks(nkt, V, T):
    """The two-level sampler draws a chunk of 1024, 64 or 16 rows at a time
    across blocks: some chunks hold several blocks, and some blocks
    straddle a chunk edge.  Over texts of at least three chunks, both
    sources, soft and hard, and both plans, its tokens equal the literal
    sampler's."""
    code = BchCode.make(*nkt)
    arms = itertools.product((("soft", 2.5), ("hard", 0.0)), (None, 0.3),
                             (False, True))
    for i, ((scheme, delta), mass, diverse) in enumerate(arms):
        src = ControlledMassSource(V, mass) if mass else UniformSource(V)
        cfg = EmbedConfig(code=code, delta=delta, scheme=scheme,
                          token_count=T, rng_seed=i, diverse=diverse)
        payload = int_to_bits(3 * i + 1, code.k)
        assert embed(src, KEY, payload, cfg).tokens.tolist() == \
            _literal_embed(src, KEY, payload, cfg), (scheme, mass, diverse)


def test_two_level_text_of_three_chunks_equals_literal():
    """A text of three _CHUNK-double chunks and a partial fourth at
    V = 1024, so that every chunk holds several blocks and blocks
    straddle chunk edges: both sources, soft and hard, both plans, equal
    to the literal sampler."""
    code, V = BchCode.make(31, 6, 7), 1024
    T = 3 * (generation._CHUNK // V) + 7
    arms = itertools.product((("soft", 2.5), ("hard", 0.0)), (None, 0.3),
                             (False, True))
    for i, ((scheme, delta), mass, diverse) in enumerate(arms):
        src = ControlledMassSource(V, mass) if mass else UniformSource(V)
        cfg = EmbedConfig(code=code, delta=delta, scheme=scheme,
                          token_count=T, rng_seed=40 + i, diverse=diverse)
        payload = int_to_bits(5 * i + 2, code.k)
        assert embed(src, KEY, payload, cfg).tokens.tolist() == \
            _literal_embed(src, KEY, payload, cfg), (scheme, mass, diverse)


def test_hard_failure_in_a_later_block_of_a_chunk():
    """At V = 3 one chunk holds every row of the text.  Under this key
    block 4 alone of blocks 0..5 puts every id in one list: a text of
    blocks 0..3 embeds, and one that reaches block 4 raises as the
    literal sampler does, in hard mode (an empty list) and through the
    controlled-mass source (a degenerate partition)."""
    key = SecretKey(bytes([3]) * 32)
    code = BchCode.make(15, 5, 3)
    parts = [partition_bits(derive_block_key(key, j, code.k), 3)
             for j in range(6)]
    assert [len(set(p.tolist())) for p in parts] == [2, 2, 2, 2, 1, 2]
    payload = int_to_bits(9, code.k)
    for scheme, delta, mass in (("hard", 0.0, None), ("soft", 2.5, 0.3),
                                ("hard", 0.0, 0.3)):
        src = ControlledMassSource(3, mass) if mass else UniformSource(3)
        for T, fails in ((4 * code.n, False), (6 * code.n, True)):
            cfg = EmbedConfig(code=code, delta=delta, scheme=scheme,
                              token_count=T, rng_seed=5)
            got = _outcome(lambda: embed(src, key, payload, cfg))
            assert got == _outcome(lambda: _literal_embed(src, key, payload,
                                                          cfg))
            assert isinstance(got, tuple) == fails
            if fails:
                assert got[0] is GenerationError


def test_two_level_unwatermarked_equals_per_step():
    """Both paths of H0 sampling equal the literal sampler, over lengths
    that cross the chunks of either path."""
    for V in (1, 2, 3, 64, 1024, 32768):
        two_level = max(1, generation._CHUNK // V)
        per_step = max(1, generation._STEP_CHUNK // V)
        for seed, T in ((0, 0), (1, 5), (2, two_level + 3),
                        (3, 2 * per_step + 1)):
            src = ControlledMassSource(V, 0.4) if V > 1 else UniformSource(V)
            assert _outcome(lambda: sample_unwatermarked(src, T, seed)) == \
                _outcome(lambda: _literal_h0(src, T, seed))
            a, b = _Stateful(V, seed), _Stateful(V, seed)
            assert _outcome(lambda: sample_unwatermarked(a, T, seed)) == \
                _outcome(lambda: _literal_h0(b, T, seed))
            assert a.calls == [None] * T and _same_calls(a, b)


def _per_step_digest() -> str:
    """sha256 over the tokens, or the exception's type and text, of the
    per-step path through a stateful source: one embedding per code, V in
    {1, 2, 3, 64, 1024}, soft delta 0, 2.5 or 1e30 or hard, and either
    plan, with a partial last block; then H0 samples of lengths up to and
    past a chunk of 2^14 doubles."""
    h = hashlib.sha256()

    def add(fn):
        try:
            h.update(fn().tokens.astype("<i8").tobytes())
        except GenerationError as exc:
            h.update(f"{type(exc).__name__}: {exc}".encode())
    arms = (("soft", 0.0), ("soft", 2.5), ("soft", 1e30), ("hard", 0.0))
    for i, (nkt, V, (scheme, delta), diverse) in enumerate(itertools.product(
            sorted(NAMED_CODES), (1, 2, 3, 64, 1024), arms, (False, True))):
        code = BchCode.make(*nkt)
        cfg = EmbedConfig(code=code, delta=delta, scheme=scheme,
                          token_count=code.n + 3, rng_seed=i,
                          diverse=diverse)
        add(lambda: embed(_Stateful(V, i), KEY,
                          int_to_bits(5 * i + 3, code.k), cfg))
    for i, V in enumerate((1, 2, 3, 64, 1024)):
        for T in (0, 1, (1 << 14) // V, (1 << 14) // V + 3):
            add(lambda: sample_unwatermarked(_Stateful(V, T), T, i))
    return h.hexdigest()


def test_per_step_is_pinned():
    """The per-step path's tokens and exceptions, pinned as the sampler
    that drew rng.gumbel(size=V) at every step produced them."""
    assert _per_step_digest() == PER_STEP_SHA256


def _grid_digest() -> str:
    """sha256 over the tokens, or the exception's type and text, of one
    embedding per code, V in {2, 3, 64, 1024}, soft or hard scheme and
    uniform or controlled-mass source."""
    h = hashlib.sha256()
    for i, (nkt, V, (scheme, delta), mass) in enumerate(itertools.product(
            sorted(NAMED_CODES), (2, 3, 64, 1024),
            (("soft", 2.5), ("hard", 0.0)), (None, 0.3))):
        code = BchCode.make(*nkt)
        src = ControlledMassSource(V, mass) if mass else UniformSource(V)
        cfg = EmbedConfig(code=code, delta=delta, scheme=scheme,
                          token_count=code.n + 5, rng_seed=i,
                          diverse=bool(i % 3 == 0))
        try:
            seq = embed(src, KEY, int_to_bits(7 * i + 1, code.k), cfg)
            h.update(seq.tokens.astype("<i8").tobytes())
        except GenerationError as exc:
            h.update(f"{type(exc).__name__}: {exc}".encode())
    return h.hexdigest()


def test_embed_grid_is_pinned():
    """The two-level sampler's tokens and exceptions over a grid of codes,
    vocabularies, schemes and sources, pinned as the full-partition
    sampler produced them."""
    assert _grid_digest() == GRID_SHA256


def test_cold_uniform_embedding_hashes_few_ids(monkeypatch):
    """A UniformSource embedding hashes the keyed bits of only the few ids
    that each token's walk reads, not the whole vocabulary per block."""
    monkeypatch.setattr(keying, "_cache", OrderedDict())
    monkeypatch.setattr(keying, "_held", 0)
    hashed = []
    token_bits = keying.token_bits

    def counting(seed, tokens):
        hashed.append(len(tokens))
        return token_bits(seed, tokens)
    monkeypatch.setattr(keying, "token_bits", counting)
    code = BchCode.make(127, 92, 5)
    tokens = 0
    for i, (scheme, delta) in enumerate((("soft", 6.0), ("soft", 0.0),
                                         ("hard", 0.0))):
        cfg = EmbedConfig(code=code, delta=delta, scheme=scheme,
                          token_count=400, rng_seed=i)
        key = SecretKey(bytes([i]) * 32)
        tokens += len(embed(UniformSource(32768), key,
                            int_to_bits(i, code.k), cfg))
    assert 0 < sum(hashed) / tokens <= 16


class _PerStepMass(ControlledMassSource):
    """A subclass, so embedding samples it step by step."""


@pytest.mark.parametrize("diverse", [False, True])
@pytest.mark.parametrize("src", [UniformSource(64), _PerStepMass(64, 0.5)],
                         ids=["two-level", "per-step"])
def test_embedding_derives_each_block_key_once(monkeypatch, src, diverse):
    """An embedding of B blocks, the last one partial, makes exactly B
    derive_block_key calls: the block's plan is built from the key that
    its keyed bits were read with."""
    calls = []
    derive = keying.derive_block_key

    def counting(key, j, k):
        calls.append(j)
        return derive(key, j, k)
    monkeypatch.setattr(keying, "derive_block_key", counting)
    monkeypatch.setattr(generation, "derive_block_key", counting)
    cfg = EmbedConfig(code=CODE, delta=4.0, scheme="soft",
                      token_count=3 * CODE.n + 5, rng_seed=1,
                      diverse=diverse)
    embed(src, KEY, PAYLOAD, cfg)
    assert calls == [0, 1, 2, 3]


@pytest.mark.parametrize("nkt", sorted(NAMED_CODES),
                         ids=lambda nkt: "-".join(map(str, nkt)))
def test_block_targets_equal_plan_block(nkt):
    """_blocks builds every block's target bits from one plan_rows call;
    they equal plan_block's block by block, under both plans, over a text
    of four blocks, the last one partial: for a random payload, and for
    payloads that make c1 of block 0 (coin 0) or block 1 (coin 1) the zero
    word or c_max.  In each of the latter the diverse plan targets c_max,
    through the zero-target rule, the zero-partner rule or the coin."""
    code = BchCode.make(*nkt)
    T = 3 * code.n + 4
    keys = [derive_block_key(KEY, j, code.k) for j in (0, 1)]
    assert [keying.diverse_coin(bk) for bk in keys] == [0, 1]
    ones = max_weight_codeword(code)[:code.k]
    cases = [(None, int_to_bits(0x2B, code.k))]
    cases += [(j, bk.randomizer ^ flip) for j, bk in enumerate(keys)
              for flip in (0, ones)]
    for j, payload in cases:
        for diverse in (False, True):
            cfg = EmbedConfig(code=code, delta=2.0, scheme="soft",
                              token_count=T, rng_seed=0, diverse=diverse)
            got = [bits for *_, bits in
                   generation._blocks(UniformSource(64), KEY, payload, cfg)]
            assert [len(bits) for bits in got] == [code.n] * 3 + [4]
            for i, bits in enumerate(got):
                plan = plan_block(KEY, i, payload, code, diverse)
                assert np.array_equal(bits, plan.target_bits[:len(bits)])
            if j is not None:
                c1 = bch.encode(code, payload ^ keys[j].randomizer)
                assert np.array_equal(got[j], c1) or diverse
                assert got[j].all() or not diverse


def _zero_at(index: int, seed: int = 5) -> np.random.Generator:
    """A generator whose draw number `index` is the double 0.0: PCG64 emits
    the state it steps to, and 0.0 when that state is 0."""
    mult = 0x2360ED051FC65DA44385DF649FCCF645     # PCG64's LCG multiplier
    bg = np.random.PCG64(seed)
    state = bg.state
    inc = state["state"]["inc"]
    state["state"]["state"] = -inc * pow(mult, -1, 1 << 128) % (1 << 128)
    bg.state = state
    bg.advance((1 << 128) - index)
    return np.random.Generator(bg)


@pytest.mark.parametrize("index", [0, 1, 63, 64, 100, 127, 128, 255])
def test_zero_uniform_is_redrawn_like_gumbel(index):
    """rng.gumbel redraws u = 0; both samplers drop that double from the
    stream in the same place, within a row, across rows and, for the
    per-step sampler, at the edge of two chunks of two rows."""
    V, rows = 64, 4
    probe = _zero_at(index).random(index + 1)
    assert probe[index] == 0.0 and probe[:index].all()
    consts = np.array([[0.0, 1.5], [2.0, -np.inf], [0.0, 0.0], [3.0, 1.0]])
    part = np.arange(V) % 3 == 0
    scores = np.where(part, consts[:, 1:], consts[:, :1])
    rng_b = _zero_at(index)
    want = [int(np.argmax(row + rng_b.gumbel(size=V))) for row in scores]
    rng_a = _zero_at(index)
    assert generation._two_level_argmax(
        rng_a, V, lambda rows, ids: part.astype(np.int8)[ids],
        consts) == want
    assert rng_a.random() == rng_b.random()     # the streams stay aligned
    rng_a, rng_b = _zero_at(index), _zero_at(index)
    rng_b.gumbel(size=rows * V)
    assert generation._gumbel_argmax(rng_a, scores[:2], np.empty(2 * V)) + \
        generation._gumbel_argmax(rng_a, scores[2:],
                                  np.empty((rows - 2) * V)) == want
    assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("where", [0, 77, -1], ids=["first", "inner", "last"])
def test_zero_uniform_in_a_later_chunk_is_redrawn_like_gumbel(where):
    """Each sampler draws every chunk of a text into one reused buffer.  A
    u = 0 in the second chunk of a two-chunk text (its first, an inner or
    its last double) leaves the stream as rng.gumbel makes it leave: the
    tokens and the next double equal the literal sampler's."""
    for V, chunk in ((1 << 15, generation._CHUNK),
                     (1 << 12, generation._STEP_CHUNK)):
        rows = chunk // V
        index = rows * V + where if where >= 0 else 2 * rows * V - 1
        consts = np.tile([[0.0, 1.5], [2.0, -np.inf]], (rows, 1))
        part = np.arange(V) % 3 == 0
        scores = np.where(part, consts[:, 1:], consts[:, :1])
        rng_b = _zero_at(index)
        want = [int(np.argmax(row + rng_b.gumbel(size=V))) for row in scores]
        rng_a = _zero_at(index)
        if chunk == generation._CHUNK:
            got = generation._two_level_argmax(
                rng_a, V, lambda rows, ids: part.astype(np.int8)[ids], consts)
        else:
            def fill(span, out):
                out[...] = scores[span]
            got = generation._per_step(rng_a, V, len(scores), fill).tolist()
        assert got == want, V
        assert rng_a.random() == rng_b.random()


_SCORE = st.one_of(
    st.sampled_from([0.0, 2.5, -np.inf, np.inf, np.nan, 1e12, 1e17]),
    st.floats(-40.0, 40.0),
    st.floats(1e12 - 64.0, 1e12 + 64.0),     # ulp 2^-13
    st.floats(2.0 ** 53, 2.0 ** 54))          # ulp 2: G rounds to ties


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.data())
def test_gumbel_argmax_equals_literal_sampler(V, data):
    """The per-step kernel equals np.argmax(scores + rng.gumbel(size=V))
    row by row over equal, infinite, NaN and huge scores, split into two
    chunks anywhere, and leaves the stream where the literal sampler
    does."""
    rows = data.draw(st.integers(1, 8))
    scores = np.array(data.draw(st.lists(
        st.lists(_SCORE, min_size=V, max_size=V),
        min_size=rows, max_size=rows)))
    edge = data.draw(st.integers(1, rows))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = generation._gumbel_argmax(rng_a, scores[:edge],
                                    np.empty(edge * V))
    if edge < rows:
        got += generation._gumbel_argmax(rng_a, scores[edge:],
                                         np.empty((rows - edge) * V))
    want = [int(np.argmax(row + rng_b.gumbel(size=V))) for row in scores]
    assert got == want
    assert rng_a.random() == rng_b.random()


_ANY = st.one_of(
    st.floats(),                              # NaN and +-inf included
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]),
    st.floats(2.0 ** 33, 1e300).flatmap(      # the window leaves 2^-20
        lambda x: st.sampled_from([x, -x])))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_window_is_ulp_of_largest_finite_score(rows, V, data):
    """_window(v) = max(2^-20, ulp(M + 64)), M the largest finite |v| (0
    when there is none), over rows with +-inf, NaN, no finite value at
    all, and |v| >= 2^33, where the window grows past 2^-20."""
    values = np.array(data.draw(st.lists(
        st.lists(_ANY, min_size=V, max_size=V),
        min_size=rows, max_size=rows)))
    finite = [abs(x) for x in values.ravel().tolist() if math.isfinite(x)]
    want = max(2.0 ** -20, math.ulp(max(finite, default=0.0) + 64.0))
    assert generation._window(values) == want
    if finite and max(finite) >= 2.0 ** 33:
        assert want > 2.0 ** -20


class _Scripted:
    """A generator that hands out a fixed list of doubles."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None, out=None):
        size = size if out is None else out.size
        got, self.values = self.values[:size], self.values[size:]
        if out is None:
            return np.array(got)
        out[...] = got
        return out


def test_near_minimum_ties_go_to_smallest_id():
    """Where G is flat and the constant large, ids whose u lies a few
    doubles above the minimum round to the same score; np.argmax then
    takes the smallest id, not the smallest u."""
    d = 2.0 ** -53
    u = [0.6 + 3 * d, 0.6 + d, 0.6, 0.9, 0.5, 0.1, 0.3, 0.9]
    consts = np.array([[100.0], [0.0]])
    want = [int(np.argmax(c + np.array([generation._gumbel(x) for x in row])))
            for c, row in zip(consts[:, 0], (u[:4], u[4:]))]
    assert want == [0, 1]
    assert generation._two_level_argmax(_Scripted(u), 4, None,
                                        consts) == want


def test_rescoring_follows_libm_where_vectorised_log_differs():
    """numpy's vectorised log may differ from libm's in the last bit.  Two
    ids whose errors go opposite ways can then rank one way in the
    vectorised scores and the other way in rng.gumbel's; the kernel
    rescores both and follows rng.gumbel."""
    V = 1 << 14
    u = np.random.default_rng(0).random((1, V))
    fast = -np.log(-np.log(1.0 - u))[0]
    exact = np.array([generation._gumbel(x) for x in u[0]])
    band = (1.0 <= exact) & (exact < 2.0)        # one binade: one ulp
    up = np.flatnonzero(band & (fast > exact))
    down = np.flatnonzero(band & (fast < exact))
    if not (up.size and down.size):
        pytest.skip("numpy's vectorised log equals libm's on this host")
    i0, i1 = up[0], down[0]
    scores = np.full((1, V), -np.inf)
    scores[0, i0] = 0.0
    # exact: id i1 scores one ulp above id i0; vectorised: at least one
    # ulp below it
    scores[0, i1] = exact[i0] + math.ulp(exact[i0]) - exact[i1]
    assert scores[0, i1] + exact[i1] > exact[i0]
    assert scores[0, i1] + fast[i1] < fast[i0]
    want = int(np.argmax(scores[0] + exact))
    assert want == i1
    assert generation._gumbel_argmax(_Scripted(u[0]), scores,
                                     np.empty(V)) == [want]


def test_walk_follows_libm_where_vectorised_log_differs():
    """The two-level walk's twin of the test above: the minima of two
    classes rank one way in the vectorised scores of the walk's
    candidates and the other way in rng.gumbel's, and the walk follows
    rng.gumbel.  Id 1 (class 1) wins exactly, id 2 (class 0) in the
    vectorised scores; the other ids draw 0.9 and are never read."""
    u = np.random.default_rng(0).random(1 << 14)
    fast = -np.log(-np.log(1.0 - u))
    exact = np.array([generation._gumbel(x) for x in u])
    band = (1.0 <= exact) & (exact < 2.0)        # one binade: one ulp
    up = np.flatnonzero(band & (fast > exact))
    down = np.flatnonzero(band & (fast < exact))
    found = None
    for i0, i1 in itertools.product(up[:8], down[:8]):
        pair = np.array([u[i1], u[i0]])       # ids 1 and 2, in read order
        walk = -np.log(-np.log(1.0 - pair))   # as the walk scores them
        c1 = exact[i0] + math.ulp(exact[i0]) - exact[i1]
        if c1 + exact[i1] > exact[i0] and c1 + walk[0] < walk[1]:
            found = u[i0], u[i1], c1
            break
    if found is None:
        pytest.skip("numpy's vectorised log equals libm's on this host")
    u0, u1, c1 = found
    V = 16
    draws = np.full(V, 0.9)
    draws[1], draws[2] = u1, u0
    consts = np.array([[0.0, c1]])
    want = int(np.argmax(consts[0][np.arange(V) % 2]
                         + [generation._gumbel(x) for x in draws]))
    assert want == 1
    assert generation._two_level_argmax(
        _Scripted(draws), V, lambda rows, ids: ids % 2, consts) == [want]


def test_uniforms_follow_gumbel_stream():
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    u = generation._uniforms(a, np.empty(4096))
    assert np.array_equal([generation._gumbel(x) for x in u],
                          b.gumbel(size=4096))


class _Recording(ControlledMassSource):
    """A stateful subclass: it records every green list it is asked for,
    and its logits depend on how many calls came before."""

    def __init__(self, vocab_size):
        super().__init__(vocab_size, 0.5)
        self.calls = []

    def logits(self, green_mask=None):
        self.calls.append(None if green_mask is None else green_mask.copy())
        out = np.zeros(self.vocab_size)
        out[len(self.calls) % self.vocab_size] = 1.0
        return out


def test_overriding_source_gets_one_logits_call_per_step():
    src = _Recording(64)
    cfg = EmbedConfig(code=CODE, delta=2.0, scheme="soft", token_count=70,
                      rng_seed=4)
    embed(src, KEY, PAYLOAD, cfg)
    bits = _schedule(70)
    want = [partition_bits(derive_block_key(KEY, t // CODE.n, CODE.k), 64)
            == bits[t] for t in range(70)]
    assert len(src.calls) == 70
    assert all(np.array_equal(g, w) for g, w in zip(src.calls, want))
    src.calls.clear()
    sample_unwatermarked(src, 9, 1)
    assert src.calls == [None] * 9


@pytest.mark.parametrize("empty_at", [0, 1, 7, 15, 16, 17, 30, 39])
def test_hard_failure_mid_chunk_stops_the_logits_calls(empty_at):
    """In hard mode a step whose target list is empty ends the block right
    after its own `logits` call: steps 0..i of the chunk that holds it are
    asked for, with their lists, and no later step is, as in the loop
    that takes one step at a time.  V = 1024 makes chunks of 16 steps."""
    V = 1024
    part = np.zeros(V, dtype=np.int8)         # every id keyed 0: bit 1 empty
    bits = np.zeros(40, dtype=np.int8)
    bits[empty_at] = 1
    bits[empty_at + 1:] = np.arange(39 - empty_at) % 2
    cfg = EmbedConfig(code=CODE, delta=0.0, scheme="hard", token_count=40,
                      rng_seed=0)
    src = _Stateful(V, 3)
    with pytest.raises(GenerationError, match=generation._EMPTY):
        generation._per_step_block(src, np.random.default_rng(0), cfg, 0,
                                   part, bits)
    literal = _Stateful(V, 3)
    with pytest.raises(GenerationError, match=generation._EMPTY):
        for b in bits:
            green = part == b
            literal.logits(green)
            if not green.any():
                raise GenerationError(generation._EMPTY)
    assert len(src.calls) == empty_at + 1
    assert _same_calls(src, literal)
