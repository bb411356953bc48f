"""Embedding schemes and synthetic logit sources."""
import hashlib
import itertools
from collections import OrderedDict

import numpy as np
import pytest

from blockmark import generation, keying
from blockmark.bch import NAMED_CODES, BchCode, ContractError, int_to_bits
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


# ------------------------------------------------ the two-level sampler

class _PerStep(LogitSource):
    """Delegates `logits` to a source, so embedding and H0 sampling take
    the per-step Gumbel path with the same logits."""

    def __init__(self, inner):
        self.inner = inner
        self.vocab_size = inner.vocab_size

    def logits(self, green_mask=None):
        return self.inner.logits(green_mask)


def _outcome(fn):
    try:
        return fn().tokens.tolist()
    except Exception as exc:           # the same exception on both paths
        return type(exc), str(exc)


@pytest.mark.parametrize("nkt", sorted(NAMED_CODES),
                         ids=lambda nkt: "-".join(map(str, nkt)))
def test_two_level_embed_equals_per_step(nkt):
    """Tokens (or the exception) of the two-level sampler equal the
    per-step Gumbel path's, which reads the whole partition: V from 1 to
    32768, soft, hard and huge deltas, both sources, both plans and a
    partial last block.  At V = 1 one class is empty, so hard mode meets
    an empty list.  An infinite delta is refused before either path
    runs."""
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
            slow = _outcome(lambda: embed(_PerStep(src), KEY, payload, cfg))
            assert fast == slow, (V, scheme, delta, mass, diverse)
            if isinstance(fast, tuple) and mass is None:
                errors.add(fast)
    assert errors == {(GenerationError, "empty target list in hard mode")}


def test_two_level_unwatermarked_equals_per_step():
    for V in (1, 2, 3, 64, 1024, 32768):
        rows = max(1, generation._CHUNK // V)     # one chunk and a bit
        for seed, T in ((0, 0), (1, 5), (2, rows + 3)):
            src = ControlledMassSource(V, 0.4) if V > 1 else UniformSource(V)
            assert _outcome(lambda: sample_unwatermarked(src, T, seed)) == \
                _outcome(lambda: sample_unwatermarked(_PerStep(src), T,
                                                      seed))


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


@pytest.mark.parametrize("index", [0, 1, 63, 64, 100, 255])
def test_zero_uniform_is_redrawn_like_gumbel(index):
    """rng.gumbel redraws u = 0; the sampler drops that double from the
    stream in the same place, within a row and across rows."""
    V, rows = 64, 4
    probe = _zero_at(index).random(index + 1)
    assert probe[index] == 0.0 and probe[:index].all()
    rng_a, rng_b = _zero_at(index), _zero_at(index)
    consts = np.array([[0.0, 1.5], [2.0, -np.inf], [0.0, 0.0], [3.0, 1.0]])
    part = np.arange(V) % 3 == 0
    got = generation._two_level_argmax(rng_a, V, part.astype(np.int8)
                                       .__getitem__, consts)
    want = [int(np.argmax(np.where(part, c1, c0) + rng_b.gumbel(size=V)))
            for c0, c1 in consts]
    assert got == want
    assert rng_a.random() == rng_b.random()     # the streams stay aligned


class _Scripted:
    """A generator that hands out a fixed list of doubles."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size):
        out, self.values = self.values[:size], self.values[size:]
        return np.array(out)


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


def test_uniforms_follow_gumbel_stream():
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    u = generation._uniforms(a, 4096)
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
