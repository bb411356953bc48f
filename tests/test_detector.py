"""Extraction alignment, blind voting and the full detector."""
import os
import subprocess
import sys
import tracemalloc
from collections import OrderedDict
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockmark import detector, keying
from blockmark.attacks import AttackSpec, attack, delete_prefix, insert_prefix
from blockmark.bch import NAMED_CODES, BchCode, ContractError, bits_to_int, \
    encode, int_to_bits, max_weight_codeword, safe_decode
from blockmark.detector import (BlockResult, DetectConfig, _vote,
                                block_windows, detect, detect_all,
                                extract_bits, stage1_vote)
from blockmark.generation import EmbedConfig, TokenSequence, UniformSource, \
    embed, sample_unwatermarked
from blockmark.keying import SecretKey, derive_block_key, diverse_coin, \
    partition_bits, plan_block, token_bits

KEY = SecretKey(bytes(range(32)))
CODE = BchCode.make(31, 6, 7)
PAYLOAD = int_to_bits(45, 6)


def _wm(tokens=200, seed=42, delta=6.0, scheme="soft"):
    cfg = EmbedConfig(code=CODE, delta=delta, scheme=scheme,
                      token_count=tokens, rng_seed=seed)
    return embed(UniformSource(512), KEY, PAYLOAD, cfg)


def _cfg(**kw):
    base = dict(code=CODE, key=KEY, s_max=5, tau=3, mode="both")
    base.update(kw)
    return DetectConfig(**base)


def test_config_contracts():
    with pytest.raises(ContractError):
        _cfg(tau=0)
    with pytest.raises(ContractError):
        _cfg(s_max=-1)
    with pytest.raises(ContractError):
        _cfg(mode="fancy")
    with pytest.raises(ContractError, match="prompt_len"):
        _cfg(prompt_len=-1)


def test_config_refuses_wrongly_typed_settings():
    """A wrongly typed setting raises ContractError when the config is
    built: s_max 2.5 and prompt_len 1.5 used to fail at detection, and
    tau True was taken as 1.  numpy integers count as integers."""
    for name, value in (("s_max", 2.5), ("s_max", True), ("tau", True),
                        ("tau", 1.0), ("prompt_len", 1.5),
                        ("prompt_len", False), ("diverse", 1),
                        ("diverse", "yes")):
        with pytest.raises(ContractError, match=name):
            _cfg(**{name: value})
    # a code or key of the wrong type used to fail at detection; a wrong
    # key is named by its type only, never shown
    for name, value in (("code", (31, 6, 7)), ("code", "31,6,7"),
                        ("key", bytes(range(32))),
                        ("key", KEY.to_hex())):
        with pytest.raises(ContractError, match=f"{name} must be a") as exc:
            _cfg(**{name: value})
        assert KEY.to_hex() not in str(exc.value)
        assert repr(bytes(range(32))) not in str(exc.value)
    rep = detect(_wm(), _cfg(s_max=np.int64(2), tau=np.int32(3),
                             prompt_len=np.uint8(0)))
    assert rep.is_wm and np.array_equal(rep.payload, PAYLOAD)


def test_extract_offset_identities():
    seq = _wm(100)
    # positive offset s drops the first s tokens from the stream frame
    plus = extract_bits(seq, KEY, CODE.n, CODE.k, 2)
    assert len(plus) == 98
    dropped = extract_bits(delete_prefix(seq, 2), KEY, CODE.n, CODE.k, 0)
    assert np.array_equal(plus, dropped)
    # negative offset: a leading zero-filled hole of |s| positions, then
    # the same framing as a 2-token prefix insertion
    minus = extract_bits(seq, KEY, CODE.n, CODE.k, -2)
    assert len(minus) == 102
    assert not minus[:2].any()
    padded = extract_bits(insert_prefix(seq, 2, rng_seed=0), KEY,
                          CODE.n, CODE.k, 0)
    assert np.array_equal(minus[2:], padded[2:])


def test_extract_prefix_shift_inverse():
    """Prepending r tokens is exactly undone by offset +r, and deleting
    the first r tokens by offset -r (past the zero-filled hole)."""
    seq = _wm(150)
    base = extract_bits(seq, KEY, CODE.n, CODE.k, 0)
    for r in (1, 3, 5):
        ins = extract_bits(insert_prefix(seq, r, rng_seed=r), KEY,
                           CODE.n, CODE.k, r)
        assert np.array_equal(ins, base)
        dele = extract_bits(delete_prefix(seq, r), KEY, CODE.n, CODE.k,
                            -r)
        assert np.array_equal(dele[r:], base[r:])


def test_extract_prompt_skipped():
    seq = _wm(100)
    with_prompt = TokenSequence(
        np.concatenate([np.array([7, 8, 9], dtype=np.int64), seq.tokens]),
        seq.vocab_size)
    a = extract_bits(seq, KEY, CODE.n, CODE.k, 0)
    b = extract_bits(with_prompt, KEY, CODE.n, CODE.k, 0, prompt_len=3)
    assert np.array_equal(a, b)


def test_extract_contracts():
    seq = _wm(50)
    with pytest.raises(ContractError):
        extract_bits(seq, KEY, CODE.n, CODE.k, CODE.n + 1)
    # a negative prompt length would read only the end of the text
    with pytest.raises(ContractError, match="prompt_len"):
        extract_bits(seq, KEY, CODE.n, CODE.k, 0, -5)
    empty = extract_bits(seq, KEY, CODE.n, CODE.k, 31, prompt_len=40)
    assert len(empty) == 0 and empty.dtype == np.uint8


def test_stage1_vote_recovers_payload():
    seq = _wm(200)
    stream = extract_bits(seq, KEY, CODE.n, CODE.k, 0)
    msg, votes = stage1_vote(stream, CODE, KEY)
    assert msg is not None
    assert np.array_equal(msg, PAYLOAD)
    assert votes[45] == 6  # every block votes for the payload


def test_stage1_vote_empty_on_noise_mostly():
    h0 = sample_unwatermarked(UniformSource(512), 200, 8)
    stream = extract_bits(h0, KEY, CODE.n, CODE.k, 0)
    msg, votes = stage1_vote(stream, CODE, KEY)
    # random blocks rarely decode; any votes are scattered singletons
    assert sum(votes.values()) <= 3


def test_detect_clean():
    rep = detect(_wm(), _cfg())
    assert rep.is_wm
    assert rep.matched == rep.block_count == 6
    assert rep.best_offset == 0
    assert np.array_equal(rep.payload, PAYLOAD)


def test_detect_reports_injected_shift():
    seq = _wm(scheme="hard", delta=0.0)
    for r in (1, 2, 5):
        rep = detect(insert_prefix(seq, r, rng_seed=r), _cfg())
        assert rep.is_wm and rep.best_offset == r
        assert np.array_equal(rep.payload, PAYLOAD)
        rep = detect(delete_prefix(seq, r), _cfg())
        assert rep.is_wm and rep.best_offset == -r
        assert np.array_equal(rep.payload, PAYLOAD)


def test_detect_shift_beyond_budget_fails():
    seq = _wm(scheme="hard", delta=0.0)
    rep = detect(insert_prefix(seq, 9, rng_seed=0), _cfg(s_max=5, tau=6))
    assert not rep.is_wm
    assert rep.payload is None


def test_detect_h0_negative():
    h0 = sample_unwatermarked(UniformSource(512), 200, 21)
    rep = detect(h0, _cfg(tau=2))
    assert not rep.is_wm
    assert rep.payload is None


def test_detect_short_text_diagnostic():
    tiny = sample_unwatermarked(UniformSource(512), 10, 0)
    rep = detect(tiny, _cfg())
    assert not rep.is_wm
    assert rep.block_count == 0
    assert "shorter" in rep.diagnostic


def test_mode_nesting_on_matched_counts():
    """designated_only <= both <= shift_only matched counts, per text."""
    seq = attack(_wm(), AttackSpec("substitute", 0.15, 3))
    m = {mode: detect(seq, _cfg(mode=mode, tau=1)).matched
         for mode in ("designated_only", "both", "shift_only")}
    assert m["designated_only"] <= m["both"] <= m["shift_only"]


def test_naive_mode_counts_any_codeword():
    h0 = sample_unwatermarked(UniformSource(512), 3100, 4)
    rep = detect(h0, _cfg(mode="naive", tau=1, s_max=0))
    # ~10.6% of 100 random blocks decode somewhere under the naive test
    assert rep.block_count == 100
    assert 2 <= rep.matched <= 25


def test_matched_monotone_in_s_max():
    seq = attack(_wm(scheme="hard", delta=0.0),
                 AttackSpec("delete", 0.03, 6))
    prev = -1
    for s_max in (0, 1, 3, 5):
        rep = detect(seq, _cfg(s_max=s_max, tau=1))
        assert rep.matched >= prev
        prev = rep.matched


def test_diverse_mode_roundtrip():
    cfg = EmbedConfig(code=CODE, delta=0.0, scheme="hard", token_count=200,
                      rng_seed=2, diverse=True)
    seq = embed(UniformSource(512), KEY, PAYLOAD, cfg)
    rep = detect(seq, _cfg(diverse=True))
    assert rep.is_wm
    assert rep.matched == 6
    assert np.array_equal(rep.payload, PAYLOAD)


def test_diverse_mode_recovers_payload_not_complement():
    """A payload and its complement draw the same diverse votes; the
    keyed coins orient the tie.  Random keys and payloads, so some blocks
    have c1 = 0 or c1 = c_max."""
    src = UniformSource(512)
    for i in range(60):
        rng = np.random.default_rng(i)
        key = SecretKey(rng.bytes(32))
        payload = rng.integers(0, 2, CODE.k).astype(np.uint8)
        seq = embed(src, key, payload, EmbedConfig(
            code=CODE, delta=6.0, scheme="soft", token_count=200,
            rng_seed=i, diverse=True))
        rep = detect(seq, DetectConfig(code=CODE, key=key, s_max=2,
                                       diverse=True))
        assert rep.is_wm and np.array_equal(rep.payload, payload), i
        stream = extract_bits(seq, key, CODE.n, CODE.k, 0)
        msg, votes = stage1_vote(stream, CODE, key, diverse=True)
        assert np.array_equal(msg, payload), i
        p = bits_to_int(payload)
        assert votes[p] == votes[p ^ (1 << CODE.k) - 1]


def test_diverse_block_carrying_c_max_casts_no_orientation_vote():
    """With payload = r_0, block 0's c1 is zero and it embeds c_max
    whatever its coin says.  Under a key whose block-0 coin is 0, a coin
    vote from that block would go to the complement and tie block 1's
    vote, and the smaller complement would win."""
    code = BchCode.make(15, 5, 3)
    mask = (1 << code.k) - 1

    def fits(key):
        bk = derive_block_key(key, 0, code.k)
        p = bits_to_int(bk.randomizer)
        return diverse_coin(bk) == 0 and p ^ mask < p

    key = next(k for k in (SecretKey(bytes([i]) * 32) for i in range(256))
               if fits(k))
    payload = derive_block_key(key, 0, code.k).randomizer
    plans = [plan_block(key, j, payload, code, diverse=True)
             for j in range(2)]
    assert np.array_equal(plans[0].target_bits, max_weight_codeword(code))
    assert not np.array_equal(plans[1].target_bits,
                              max_weight_codeword(code))

    seq = embed(UniformSource(SMALL_V), key, payload, EmbedConfig(
        code=code, delta=0.0, scheme="hard", token_count=2 * code.n,
        rng_seed=0, diverse=True))
    stream = extract_bits(seq, key, code.n, code.k, 0)
    assert np.array_equal(stream, np.concatenate(
        [plan.target_bits for plan in plans]))
    msg, votes = stage1_vote(stream, code, key, diverse=True)
    assert np.array_equal(msg, payload)
    assert votes[bits_to_int(payload)] == votes[bits_to_int(payload) ^ mask]
    cfg = DetectConfig(code=code, key=key, diverse=True)
    rep = detect(seq, cfg)
    assert rep.is_wm and rep.matched == 2
    assert np.array_equal(rep.payload, payload)
    assert np.array_equal(_ref_detect(seq, cfg)[3], payload)


# ------------------------------------------------ differential properties

CODES = [BchCode.make(*c) for c in sorted(NAMED_CODES)]
SMALL_V = 64


def _ref_stream(tokens, key, code, s, bits=None):
    """Brute force: the keyed bit of each token read at offset s, one
    call per (block, id) pair; `bits` keeps those bits, and a caller may
    share it across offsets."""
    U = len(tokens) - s
    out = np.zeros(max(U, 0), dtype=np.uint8)
    bits = {} if bits is None else bits
    for idx, v in enumerate(tokens):
        p = idx - s
        if 0 <= p < U:
            j = p // code.n
            if (j, v) not in bits:
                bits[j, v] = token_bits(
                    derive_block_key(key, j, code.k).seed, [int(v)])[0]
            out[p] = bits[j, v]
    return out


def _ref_offsets(seq, cfg):
    """The two-stage detector spelled out: per offset, decode every block,
    vote, rebuild each block's designated codewords with plan_block.
    Yields (ratio, matched, offset, payload, per_block, M) of each offset
    that holds a block, in search order."""
    code, key = cfg.code, cfg.key
    n, k = code.n, code.k
    offsets = [0]
    if cfg.mode in ("shift_only", "both"):
        for s in range(1, cfg.s_max + 1):
            offsets += [-s, s]
    c_max = max_weight_codeword(code)
    keyed = {}
    for s in offsets:
        bits = _ref_stream(seq.tokens[cfg.prompt_len:], key, code, s, keyed)
        M = len(bits) // n
        if M == 0:
            continue
        decoded = [safe_decode(code, bits[j * n:(j + 1) * n])
                   for j in range(M)]
        votes, orientation = {}, {}
        for j, dec in enumerate(decoded):
            if dec is None:
                continue
            bk = derive_block_key(key, j, k)
            cands = [dec[0][:k] ^ bk.randomizer]
            if cfg.diverse:
                cands.append((dec[0] ^ c_max)[:k] ^ bk.randomizer)
                if (dec[0] ^ c_max).any():
                    o = bits_to_int(cands[diverse_coin(bk)])
                    orientation[o] = orientation.get(o, 0) + 1
            for c in cands:
                votes[bits_to_int(c)] = votes.get(bits_to_int(c), 0) + 1
        payload = None
        if votes:
            payload = int_to_bits(min(votes, key=lambda v: (
                -votes[v], -orientation.get(v, 0), v)), k)
        per_block = []
        for j, dec in enumerate(decoded):
            if cfg.mode in ("shift_only", "naive"):
                ok = dec is not None
            else:
                ok = (dec is not None and payload is not None
                      and any(np.array_equal(dec[0], d) for d in plan_block(
                          key, j, payload, code, cfg.diverse).designated))
            per_block.append(BlockResult(ok, dec[1] if dec else None, s))
        matched = sum(b.matched for b in per_block)
        yield matched / M, matched, s, payload, per_block, M


def _ref_detect(seq, cfg):
    """The reference report as _ref_offsets' first offset of the best
    ratio, None when no offset holds a block."""
    best = None
    for record in _ref_offsets(seq, cfg):
        if best is None or record[0] > best[0]:
            best = record
    return best


@st.composite
def _texts(draw, min_blocks=0, max_blocks=3, kinds=None, pushed=False):
    """A text built block by block at the stream level: each block carries
    the designated codeword (or its diverse partner, the zero word, c_max,
    another codeword or noise) plus a few flipped bits, mapped to tokens
    of the matching keyed bit; then a prefix shift and a prompt.  With
    `pushed`, one block gets t+1 ... t+3 flips."""
    code = draw(st.sampled_from(CODES))
    n, k = code.n, code.k
    key = SecretKey(bytes([draw(st.integers(0, 255))]) * 32)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = draw(st.integers(min_blocks, max_blocks))
    if draw(st.booleans()):
        payload = derive_block_key(key, 0, k).randomizer.copy()  # c1 = 0
    else:
        payload = rng.integers(0, 2, k).astype(np.uint8)
    c_max = max_weight_codeword(code)
    push = draw(st.integers(0, M - 1)) if pushed and M else None
    words = []
    for j in range(M):
        c1 = encode(code, payload ^ derive_block_key(key, j, k).randomizer)
        kind = draw(st.sampled_from(kinds or ("c1", "c2", "zero", "cmax",
                                              "other", "noise")))
        w = {"c1": c1, "c2": c1 ^ c_max,
             "zero": np.zeros(n, dtype=np.uint8), "cmax": c_max,
             "other": encode(code, rng.integers(0, 2, k).astype(np.uint8)),
             "noise": rng.integers(0, 2, n).astype(np.uint8)}[kind].copy()
        flips = draw(st.integers(0, code.t + 1)) if kinds is None else 0
        if j == push:
            flips = draw(st.integers(code.t + 1, code.t + 3))
        w[rng.choice(n, flips, replace=False)] ^= 1
        words.append(w)
    bits = np.concatenate(words + [rng.integers(
        0, 2, draw(st.integers(0, n - 1))).astype(np.uint8)])
    toks = np.empty(len(bits), dtype=np.int64)
    for p, b in enumerate(bits):
        part = partition_bits(derive_block_key(key, p // n, k), SMALL_V)
        toks[p] = rng.choice(np.flatnonzero(part == b))
    return code, key, payload, toks, rng


@settings(max_examples=60, deadline=None)
@given(_texts(), st.data())
def test_streams_match_token_bit_oracle(text, data):
    """extract_bits at each offset, and each offset's blocks sliced from
    one block_windows over [-s_max, s_max], equal the keyed-bit oracle,
    texts shorter than a block included."""
    code, key, _, toks, rng = text
    n = code.n
    shift = data.draw(st.integers(-n, n))
    if shift > 0:
        toks = np.concatenate([rng.integers(0, SMALL_V, shift), toks])
    else:
        toks = toks[-shift:]
    toks = toks[:data.draw(st.sampled_from([len(toks), n - 1, 3, 0]))]
    prompt = data.draw(st.integers(0, 3))
    toks = np.concatenate([rng.integers(0, SMALL_V, prompt), toks])
    s_max = data.draw(st.integers(0, n))
    seq = TokenSequence(toks, SMALL_V)
    rows, bks = block_windows(seq, key, n, code.k, -s_max, s_max, prompt)
    T = len(toks) - prompt
    assert rows.shape == (max(-(-(T + s_max) // n), 0), n + 2 * s_max)
    assert [bk.seed for bk in bks] == \
        [derive_block_key(key, j, code.k).seed for j in range(len(rows))]
    for s in range(-s_max, s_max + 1):
        want = _ref_stream(toks[prompt:], key, code, s)
        assert np.array_equal(extract_bits(seq, key, n, code.k, s, prompt),
                              want)
        M = len(want) // n
        blocks = rows[:M, s + s_max:s + s_max + n]
        assert np.array_equal(blocks.ravel(), want[:M * n])


MODE_NAMES = ("designated_only", "shift_only", "both", "naive")


def _assert_report_equals_reference(rep, ref, cfg):
    if ref is None:
        assert (rep.is_wm, rep.payload, rep.best_offset, rep.matched,
                rep.block_count, rep.per_block, rep.score) == \
            (False, None, 0, 0, 0, [], 0.0)
        assert rep.diagnostic == "text shorter than one block"
        return
    score, matched, s, payload, per_block, M = ref
    assert rep.is_wm == (matched >= cfg.tau)
    if rep.is_wm:
        assert np.array_equal(rep.payload, payload)
    else:
        assert rep.payload is None
    assert (rep.best_offset, rep.matched, rep.block_count, rep.score,
            rep.diagnostic) == (s, matched, M, score, "")
    assert rep.per_block == per_block


@settings(max_examples=300, deadline=None)
@given(_texts(), st.data())
def test_detect_matches_reference(text, data):
    """detect, and detect_all over 1-4 configs that share code, key,
    diverse and prompt but vary mode, s_max and tau, equal the reference
    field by field.  The codes of k > 7, whose decode_rows batches decode
    many blocks cheaply, search up to s_max = n."""
    code, key, _, toks, rng = text
    shift = data.draw(st.integers(-3, 3))
    toks = (np.concatenate([rng.integers(0, SMALL_V, shift), toks])
            if shift > 0 else toks[-shift:])
    prompt = data.draw(st.integers(0, 3))
    seq = TokenSequence(
        np.concatenate([rng.integers(0, SMALL_V, prompt), toks]), SMALL_V)
    diverse = data.draw(st.booleans())
    cfgs = [DetectConfig(code=code, key=key,
                         s_max=data.draw(st.integers(
                             0, code.n if code.k > 7 else 8)),
                         tau=data.draw(st.integers(1, 3)),
                         mode=data.draw(st.sampled_from(MODE_NAMES)),
                         diverse=diverse, prompt_len=prompt)
            for _ in range(data.draw(st.integers(1, 4)))]
    reps = detect_all(seq, cfgs)
    assert len(reps) == len(cfgs)
    for cfg, rep in zip(cfgs, reps):
        ref = _ref_detect(seq, cfg)
        _assert_report_equals_reference(rep, ref, cfg)
    _assert_report_equals_reference(detect(seq, cfgs[0]),
                                    _ref_detect(seq, cfgs[0]), cfgs[0])


@st.composite
def _search_texts(draw):
    """A detection task for the shift search: an embedding under either
    plan, clean, behind r <= max s_max inserted or deleted prefix tokens,
    substituted, or an unwatermarked text or a _texts text (blocks that
    decode to codewords other than the designated one) instead, of 2-4
    blocks or one (where every decodable offset is perfect, so ties
    decide), behind a 0-2 token prompt, and 1-4 configs of mixed mode and
    s_max."""
    kind = draw(st.sampled_from(("clean", "insert", "delete", "substitute",
                                 "h0", "one block", "blocks")))
    diverse = draw(st.booleans())
    cfgs = [dict(mode=draw(st.sampled_from(MODE_NAMES)),
                 s_max=draw(st.integers(0, 4)), tau=draw(st.integers(1, 3)))
            for _ in range(draw(st.integers(1, 4)))]
    if kind == "blocks":
        code, key, _, toks, rng = draw(_texts(min_blocks=1, max_blocks=4))
        seq = TokenSequence(toks, SMALL_V)
    else:
        code = draw(st.sampled_from(CODES))
        key = SecretKey(bytes([draw(st.integers(0, 255))]) * 32)
        seed = draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        blocks = 1 if kind == "one block" else draw(st.integers(2, 4))
        T = blocks * code.n + draw(st.integers(0, code.n - 1))
        src = UniformSource(SMALL_V)
        seq = sample_unwatermarked(src, T, seed) if kind == "h0" else embed(
            src, key, rng.integers(0, 2, code.k).astype(np.uint8),
            EmbedConfig(code=code, delta=6.0, scheme="soft", token_count=T,
                        rng_seed=seed, diverse=diverse))
    r = draw(st.integers(0, max(c["s_max"] for c in cfgs)))
    if kind == "insert":
        seq = insert_prefix(seq, r, rng_seed=seed)
    elif kind == "delete":
        seq = delete_prefix(seq, r)
    elif kind == "substitute":
        seq = attack(seq, AttackSpec("substitute",
                                     draw(st.sampled_from((0.02, 0.1))),
                                     seed))
    prompt = draw(st.integers(0, 2))
    seq = TokenSequence(np.concatenate(
        [rng.integers(0, SMALL_V, prompt), seq.tokens]), SMALL_V)
    return seq, [DetectConfig(code=code, key=key, diverse=diverse,
                              prompt_len=prompt, **c) for c in cfgs]


def _blocks(seq, cfg, s):
    """The (M, n) blocks of cfg's text at offset s, from extract_bits."""
    n = cfg.code.n
    bits = extract_bits(seq, cfg.key, n, cfg.code.k, s, cfg.prompt_len)
    return bits[:len(bits) // n * n].reshape(-1, n)


def _designating(code, key, j, cw, diverse):
    """The payload ints that designate codeword cw in block j: its vote
    key msg(cw) ^ r_j, and in diverse mode the partner's unless cw is
    the zero word."""
    vote = bits_to_int(cw[:code.k]) ^ bits_to_int(
        derive_block_key(key, j, code.k).randomizer)
    c_max = bits_to_int(max_weight_codeword(code)[:code.k])
    return {vote, vote ^ c_max} if diverse and cw.any() else {vote}


def _near_designated(code, key, j, block, keys):
    """Whether block j lies within t of a codeword G(p ^ r_j) that a
    payload p in `keys` designates: brute force, one encode per key."""
    r = bits_to_int(derive_block_key(key, j, code.k).randomizer)
    return min(np.count_nonzero(block != encode(code, int_to_bits(
        p ^ r, code.k))) for p in keys) <= code.t


def _may_share_payload(code, key, blocks, diverse):
    """The offset rule from the block bits: with X_j = b_j ^ G(r_j), each
    X_0 ^ X_j has weight <= 2t, or, in diverse mode, >= n - 2t (the
    all-ones c_max between a block's codeword and block 0's)."""
    xs = [b ^ encode(code, derive_block_key(key, j, code.k).randomizer)
          for j, b in enumerate(blocks)]
    for x in xs[1:]:
        w = np.count_nonzero(x != xs[0])
        if w > 2 * code.t and not (diverse and w >= code.n - 2 * code.t):
            return False
    return True


def _schedule(seq, cfgs):
    """The lazy shift search's decode schedule, spelled out from the
    reference: the decode_rows calls detect_all makes, in order, each
    as its (offset, block index) pairs.  While a config of s_max > 0
    waits for an offset of ratio 1, each offset is walked block by block
    up to its first block that does not decode, one call a block.  Once
    block 0 decodes at an offset that passes the rule of
    _may_share_payload, a block within t of a codeword that a payload
    designating block 0 designates is settled without decoding, for the
    walk and for any later completion of the offset.  When every waiting
    config is `both`, an offset that fails the rule is given up before
    any block is decoded, and the walk stops at the first block after
    block 0 that is not settled.  An offset walked to its end is
    recorded.  A config with no recorded offset of ratio 1 then completes
    its offsets, config by config, decoding in one call every block of
    them that the walks neither decoded nor settled."""
    cfg0 = cfgs[0]
    code, key, T = cfg0.code, cfg0.key, len(seq.tokens) - cfg0.prompt_len
    reach = [c.s_max if c.mode in ("shift_only", "both") else 0
             for c in cfgs]
    order = [0, *(s for d in range(1, max(reach) + 1) for s in (-d, d))]
    counts = {s: (T - s) // code.n for s in order if T - s >= code.n}
    perfect = [{s for ratio, _, s, *_ in _ref_offsets(seq, c) if ratio == 1}
               for c in cfgs]
    done = dict.fromkeys(counts, 0)
    settled = {s: set() for s in counts}
    calls, recorded = [], set()

    def need(stops):
        blind = [(s, j) for s, stop in stops.items()
                 for j in range(done[s], stop) if j not in settled[s]]
        if blind:
            calls.append(blind)
        for s, stop in stops.items():
            done[s] = max(done[s], stop)
    waiting = [i for i, r in enumerate(reach) if r]
    for s in counts:
        waiting = [i for i in waiting if order.index(s) <= 2 * reach[i]]
        if not waiting:
            break
        blocks = _blocks(seq, cfg0, s)
        banded = _may_share_payload(code, key, blocks, cfg0.diverse)
        designated = all(cfgs[i].mode == "both" for i in waiting)
        if designated and not banded:
            continue
        for j, block in enumerate(blocks):
            if j and designated and j not in settled[s]:
                break
            need({s: j + 1})
            dec = safe_decode(code, block)
            if dec is None:
                break
            if j == 0 and banded:
                keys = _designating(code, key, 0, dec[0], cfg0.diverse)
                settled[s] = {i for i, b in enumerate(blocks)
                              if i and _near_designated(code, key, i, b,
                                                        keys)}
        else:
            recorded.add(s)
            waiting = [i for i in waiting if s not in perfect[i]]
    for i, r in enumerate(reach):
        searched = [s for s in order[:2 * r + 1] if s in counts]
        if not perfect[i] & recorded & set(searched):
            need({s: counts[s] for s in searched})
            recorded.update(searched)
    return calls


def _decode_calls(seq, cfgs):
    """detect_all's reports and the blocks of each of its decode_rows
    calls."""
    calls = []
    decode = detector.decode_rows

    def recording(code, blocks):
        calls.append(blocks.copy())
        return decode(code, blocks)
    with mock.patch.object(detector, "decode_rows", recording):
        reps = detect_all(seq, cfgs)
    return reps, calls


def _call_blocks(seq, cfg, schedule):
    """The blocks of each decode_rows call of a _schedule."""
    blocks = {s: _blocks(seq, cfg, s) for call in schedule for s, _ in call}
    return [np.array([blocks[s][j] for s, j in call]) for call in schedule]


def _assert_decoded_once(calls, want):
    assert len(calls) == len(want)
    assert all(np.array_equal(got, w) for got, w in zip(calls, want))


@settings(max_examples=150, deadline=None)
@given(_search_texts())
def test_shift_search_stops_at_first_perfect_offset(task):
    """detect_all walks each offset only as far as the search needs and
    its reports still equal the reference.  Its decode_rows calls are
    exactly those of _schedule, for every code: no block of an offset the
    rule rules out, then each walked block alone that is not within t of
    a codeword the payloads of block 0 designate, then, in one call per
    config that completes its offsets, every block of them not yet
    decoded or settled.  Each block is decoded at most once, and no
    offset past the last one a waiting config searches."""
    seq, cfgs = task
    reps, calls = _decode_calls(seq, cfgs)
    for cfg, rep in zip(cfgs, reps):
        _assert_report_equals_reference(rep, _ref_detect(seq, cfg), cfg)
    schedule = _schedule(seq, cfgs)
    walked = [block for call in schedule for block in call]
    assert len(walked) == len(set(walked))
    _assert_decoded_once(calls, _call_blocks(seq, cfgs[0], schedule))


def test_shift_search_waits_only_for_configs_with_offsets_left():
    """A config with no perfect offset holds the search only until its
    own offsets run out.  Three blocks carry codewords whose vote keys
    differ, and three more tokens follow: shift_only at s_max 3 finds
    offset 0 perfect, both at s_max 1 finds no perfect offset.  So
    (15,5,3) walks offset 0 to its end (shift_only waits, and no block
    after block 0 lies within t of a codeword block 0's vote key
    designates, so each decodes); at -1 and +1, where both waits alone,
    the raw blocks already rule out one payload throughout, so neither is
    decoded in the walk.  Then both completes -1 and +1 in one call, and
    no block of +-2 or +-3 is decoded."""
    code = BchCode.make(15, 5, 3)
    rng = np.random.default_rng(0)
    bits = np.concatenate([encode(code, int_to_bits(m, code.k))
                           for m in (3, 17, 3)])
    toks = [rng.choice(np.flatnonzero(partition_bits(
        derive_block_key(KEY, p // code.n, code.k), SMALL_V) == b))
        for p, b in enumerate(bits)]
    seq = TokenSequence(toks + [1, 2, 3], SMALL_V)
    cfgs = [DetectConfig(code=code, key=KEY, s_max=3, mode="shift_only"),
            DetectConfig(code=code, key=KEY, s_max=1, mode="both")]
    reps, calls = _decode_calls(seq, cfgs)
    assert [(r.best_offset, r.matched, r.block_count) for r in reps] == \
        [(0, 3, 3), (0, 1, 3)]
    for cfg, rep in zip(cfgs, reps):
        _assert_report_equals_reference(rep, _ref_detect(seq, cfg), cfg)
    assert [_may_share_payload(code, KEY, _blocks(seq, cfgs[1], s), False)
            for s in (-1, 1)] == [False, False]
    schedule = [[(0, 0)], [(0, 1)], [(0, 2)],
                [(s, j) for s in (-1, 1) for j in range(3)]]
    assert _schedule(seq, cfgs) == schedule
    _assert_decoded_once(calls, _call_blocks(seq, cfgs[0], schedule))


@pytest.mark.parametrize("params", [c for c in sorted(NAMED_CODES)
                                    if c[1] > 7])
def test_long_message_text_without_perfect_offset_decodes_once(params):
    """An unwatermarked text under a code of k > 7, searched with `both`
    at s_max 2, has no offset of ratio 1.  Its raw blocks rule out one
    payload throughout at every offset, so the walk decodes nothing, and
    the completion decodes every block of the five offsets in a single
    decode_rows call: decode_rows' fixed cost is paid once a text."""
    code = BchCode.make(*params)
    seq = sample_unwatermarked(UniformSource(SMALL_V), 3 * code.n + 5, 7)
    cfg = DetectConfig(code=code, key=KEY, s_max=2, mode="both")
    offsets = (0, -1, 1, -2, 2)
    assert not any(_may_share_payload(code, KEY, _blocks(seq, cfg, s), False)
                   for s in offsets)
    (rep,), calls = _decode_calls(seq, [cfg])
    _assert_report_equals_reference(rep, _ref_detect(seq, cfg), cfg)
    assert rep.score < 1
    _assert_decoded_once(calls, [np.concatenate([_blocks(seq, cfg, s)
                                                 for s in offsets])])


@st.composite
def _lazy_tasks(draw):
    """A text whose blocks carry the designated codeword (in diverse mode
    either of the pair) but one, pushed t+1 ... t+3 flips away, behind
    r <= 3 inserted or deleted prefix tokens, sometimes cut shorter than
    a block, behind a 0-2 token prompt; and 2-4 configs, at least one
    searching offset 0 alone and one searching beyond it."""
    diverse = draw(st.booleans())
    code, key, _, toks, rng = draw(_texts(
        max_blocks=4, kinds=("c1", "c2") if diverse else ("c1",),
        pushed=True))
    r = draw(st.integers(-3, 3))
    toks = (np.concatenate([rng.integers(0, SMALL_V, r), toks]) if r > 0
            else toks[-r:])
    toks = toks[:draw(st.sampled_from([len(toks), code.n - 1, 3]))]
    prompt = draw(st.integers(0, 2))
    seq = TokenSequence(
        np.concatenate([rng.integers(0, SMALL_V, prompt), toks]), SMALL_V)
    top = code.n if code.k > 7 else 8
    cfgs = [dict(mode=draw(st.sampled_from(MODE_NAMES)), s_max=0),
            dict(mode=draw(st.sampled_from(("shift_only", "both"))),
                 s_max=draw(st.integers(1, top)))]
    cfgs += [dict(mode=draw(st.sampled_from(MODE_NAMES)),
                  s_max=draw(st.integers(0, top)))
             for _ in range(draw(st.integers(0, 2)))]
    return seq, [DetectConfig(code=code, key=key, diverse=diverse,
                              prompt_len=prompt,
                              tau=draw(st.integers(1, 3)), **c)
                 for c in draw(st.permutations(cfgs))]


@settings(max_examples=150, deadline=None)
@given(_lazy_tasks())
def test_lazy_search_matches_reference(task):
    """detect_all with the lazy shift search equals the reference on
    every report field, for all six codes, both plans, texts shorter than
    a block, and configs of reach 0 beside shift configs, where a pushed
    block rules out the true offset and the offsets walked partway are
    completed; no block is decoded twice."""
    seq, cfgs = task
    reps, calls = _decode_calls(seq, cfgs)
    for cfg, rep in zip(cfgs, reps):
        _assert_report_equals_reference(rep, _ref_detect(seq, cfg), cfg)
    cfg = cfgs[0]
    T = len(seq.tokens) - cfg.prompt_len
    reach = max(c.s_max for c in cfgs)
    assert sum(map(len, calls)) <= sum(max((T - s) // cfg.code.n, 0)
                                       for s in range(-reach, reach + 1))
    _assert_decoded_once(calls, _call_blocks(seq, cfgs[0],
                                             _schedule(seq, cfgs)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CODES), st.booleans(), st.data())
def test_verified_blocks_equal_the_blind_decoder(code, diverse, data):
    """The walk's verification against safe_decode, for every code under
    both plans: the payloads are those that designate a random codeword,
    the zero word or c_max in block 0, and each block lies at distance 0,
    t, t + 1 from a codeword one of them designates, or is random.
    _verify reads the blocks as X_j = b_j ^ G(r_j) beside G(r_j) and the
    payloads as G(p).  A block within t is verified as exactly
    safe_decode's (codeword, distance); any other is left to the blind
    decoder, which finds no designated codeword there."""
    key = SecretKey(bytes([data.draw(st.integers(0, 255))]) * 32)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n, k, t = code.n, code.k, code.t
    M = data.draw(st.integers(1, 6))
    rands = [bits_to_int(derive_block_key(key, j, k).randomizer)
             for j in range(M)]
    first = {"other": encode(code, rng.integers(0, 2, k).astype(np.uint8)),
             "zero": np.zeros(n, dtype=np.uint8),
             "cmax": max_weight_codeword(code)}[
        data.draw(st.sampled_from(("other", "zero", "cmax")))]
    keys = _designating(code, key, 0, first, diverse)
    designated = [[encode(code, int_to_bits(p ^ r, k)) for p in sorted(keys)]
                  for r in rands]
    words = []
    for j in range(M):
        word = designated[j][data.draw(st.integers(0, len(keys) - 1))].copy()
        flips = data.draw(st.sampled_from((0, t, t + 1, None)))
        if flips is None:
            word = rng.integers(0, 2, n).astype(np.uint8)
        else:
            word[rng.choice(n, flips, replace=False)] ^= 1
        words.append(word)
    masks = np.array([encode(code, int_to_bits(r, k)) for r in rands])
    got = detector._verify(code, np.array(words) ^ masks, masks, np.array(
        [encode(code, int_to_bits(p, k)) for p in sorted(keys)]))
    assert len(got) == M
    for j, (word, mine) in enumerate(zip(words, got)):
        blind = safe_decode(code, word)
        assert (mine is not None) == _near_designated(code, key, j, word,
                                                      keys)
        if mine is not None:
            assert np.array_equal(mine[0], blind[0])
            assert mine[0].dtype == blind[0].dtype
            assert type(mine[1]) is int and mine[1] == blind[1] <= t
        else:
            assert blind is None or not any(
                np.array_equal(blind[0], cw) for cw in designated[j])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CODES), st.booleans(), st.data())
def test_offset_rule_keeps_every_offset_a_payload_designates(code, diverse,
                                                             data):
    """The walk's offset rule never gives up an offset whose blocks one
    payload designates throughout, for every code under both plans.  Each block carries a codeword p designates (in diverse mode
    either of its pair, c_max partners included) and up to t errors;
    block 0 and some later blocks carry exactly t, on supports disjoint
    from block 0's, so X_0 ^ X_j lies exactly 2t from 0 or from c_max.
    The rule's input is the blocks XOR G(r_j); the test checks first, by
    safe_decode and plan_block, that p designates every block."""
    key = SecretKey(bytes([data.draw(st.integers(0, 255))]) * 32)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n, k, t = code.n, code.k, code.t
    M = data.draw(st.integers(2, 6))
    bks = [derive_block_key(key, j, k) for j in range(M)]
    # a random payload, or one whose c1 in block 0 is zero or c_max
    payload = [rng.integers(0, 2, k).astype(np.uint8),
               bks[0].randomizer.copy(),
               bks[0].randomizer ^ max_weight_codeword(code)[:k]][
                   data.draw(st.integers(0, 2))]
    first = rng.choice(n, t, replace=False)
    others = np.setdiff1d(np.arange(n), first)
    blocks = []
    for j, bk in enumerate(bks):
        pair = plan_block(key, j, payload, code, diverse).designated
        word = pair[data.draw(st.integers(0, len(pair) - 1))].copy()
        errors = data.draw(st.sampled_from(("disjoint t", "up to t")))
        if j == 0:
            word[first] ^= 1
        elif errors == "disjoint t":
            word[rng.choice(others, t, replace=False)] ^= 1
        else:
            word[rng.choice(n, rng.integers(0, t + 1), replace=False)] ^= 1
        dec = safe_decode(code, word)
        assert dec is not None and any(
            np.array_equal(dec[0], d) for d in pair)
        blocks.append(word)
    masks = np.array([encode(code, bk.randomizer) for bk in bks])
    assert detector._may_designate_all(code, np.array(blocks) ^ masks,
                                       diverse)
    assert _may_share_payload(code, key, blocks, diverse)


@st.composite
def _verified_tasks(draw):
    """A text for the verification walk: an embedding under either plan,
    clean, with a block after block 1 moved to exactly t or t + 1 errors
    from its designated codeword, behind r <= 3 inserted or deleted
    prefix tokens, or substituted at 0.05 or 0.1, and 1-3 configs of
    mixed mode and s_max."""
    code = draw(st.sampled_from(CODES))
    n, k = code.n, code.k
    diverse = draw(st.booleans())
    key = SecretKey(bytes([draw(st.integers(0, 255))]) * 32)
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 2, k).astype(np.uint8)
    M = draw(st.integers(2, 5))
    seq = embed(UniformSource(SMALL_V), key, payload, EmbedConfig(
        code=code, delta=draw(st.sampled_from((2.5, 6.0))), scheme="soft",
        token_count=M * n + draw(st.integers(0, n - 1)), rng_seed=seed,
        diverse=diverse))
    kind = draw(st.sampled_from(("clean", "boundary", "insert", "delete",
                                 "substitute")))
    r = draw(st.integers(1, 3))
    if kind == "boundary" and M > 2:
        j = draw(st.integers(2, M - 1))
        part = partition_bits(derive_block_key(key, j, k), SMALL_V)
        want = plan_block(key, j, payload, code, diverse).target_bits.copy()
        want[rng.choice(n, draw(st.sampled_from((code.t, code.t + 1))),
                        replace=False)] ^= 1
        toks = seq.tokens.copy()
        for i in np.flatnonzero(part[toks[j * n:(j + 1) * n]] != want):
            toks[j * n + i] = rng.choice(np.flatnonzero(part == want[i]))
        seq = TokenSequence(toks, SMALL_V)
    elif kind == "insert":
        seq = insert_prefix(seq, r, rng_seed=seed)
    elif kind == "delete":
        seq = delete_prefix(seq, r)
    elif kind == "substitute":
        seq = attack(seq, AttackSpec("substitute",
                                     draw(st.sampled_from((0.05, 0.1))), seed))
    return seq, [DetectConfig(code=code, key=key, diverse=diverse,
                              mode=draw(st.sampled_from(MODE_NAMES)),
                              s_max=draw(st.integers(0, 4)),
                              tau=draw(st.integers(1, 3)))
                 for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=120, deadline=None)
@given(_verified_tasks())
def test_verification_leaves_reports_as_the_blind_walk_gives_them(task):
    """detect_all's reports equal those of the walk that settles blocks by
    decoding them blind (verification patched to decode every block and
    keep those whose codeword a payload of block 0 designates), field by
    field and in the types of their numbers, and equal the reference; the
    verifying walk decodes no more blocks."""
    seq, cfgs = task
    reps, calls = _decode_calls(seq, cfgs)

    def blind_verify(code, xs, masks, words):
        # a codeword cw of block j is G(p ^ r_j) iff cw ^ G(r_j) = G(p)
        return [dec if dec is not None and any(
            np.array_equal(dec[0] ^ mask, w) for w in words) else None
            for dec, mask in zip(detector.decode_rows(
                code, xs ^ masks[:len(xs)]), masks)]
    with mock.patch.object(detector, "_verify", blind_verify):
        blind, blind_calls = _decode_calls(seq, cfgs)
    assert [repr(asdict(r)) for r in reps] == \
        [repr(asdict(r)) for r in blind]
    assert sum(map(len, calls)) <= sum(map(len, blind_calls))
    for cfg, rep in zip(cfgs, reps):
        _assert_report_equals_reference(rep, _ref_detect(seq, cfg), cfg)


def _carrying(key, V, T, prefix, rng):
    """A T-token text at vocabulary V whose tokens carry PAYLOAD's target
    bits under `key` behind `prefix` random tokens, each id drawn until
    its keyed bit fits: built without the keyed-bit cache."""
    toks = list(rng.integers(0, V, prefix))
    for j in range(-(-(T - prefix) // CODE.n)):
        bk = derive_block_key(key, j, CODE.k)
        for b in plan_block(key, j, PAYLOAD, CODE).target_bits:
            v = int(rng.integers(V))
            while token_bits(bk.seed, [v])[0] != b:
                v = int(rng.integers(V))
            toks.append(v)
    return TokenSequence(toks[:T], V)


def _hash_counter(monkeypatch):
    """The length of each keying.token_bits call from now on."""
    hashed = []
    original = keying.token_bits

    def counting(seed, tokens):
        hashed.append(len(tokens))
        return original(seed, tokens)
    monkeypatch.setattr(keying, "token_bits", counting)
    return hashed


def test_detect_at_largest_vocabulary_hashes_only_windows(monkeypatch):
    """At V = 2^32 - 1 a detection hashes at most one window of
    n + 2 s_max ids per block, allocates nothing of vocabulary size, and
    equals the reference.  The text carries the payload's target bits,
    each id drawn until its keyed bit fits, behind a 3-token prefix."""
    V, T, s_max, n = (1 << 32) - 1, 300, 5, CODE.n
    seq = _carrying(KEY, V, T, 3, np.random.default_rng(5))
    hashed = _hash_counter(monkeypatch)
    cfg = DetectConfig(code=CODE, key=KEY, s_max=s_max, tau=3)
    tracemalloc.start()
    try:
        rep = detect(seq, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < sum(hashed) <= -(-(T + s_max) // n) * (n + 2 * s_max)
    assert peak < 1 << 24
    assert rep.is_wm and rep.best_offset == 3
    assert np.array_equal(rep.payload, PAYLOAD)
    _assert_report_equals_reference(rep, _ref_detect(seq, cfg), cfg)


def test_cold_detection_allocates_nothing_of_vocabulary_size(monkeypatch):
    """A detection at V = 32768 under a key never seen before hashes each
    block's window directly: its traced peak stays below one vocabulary
    of int8, and the only entries it leaves hold no bits, one per block
    seed it read."""
    V, T, s_max = 1 << 15, 250, 2
    key = SecretKey(bytes([77]) * 32)
    seq = _carrying(key, V, T, 1, np.random.default_rng(12))
    monkeypatch.setattr(keying, "_cache", OrderedDict())
    monkeypatch.setattr(keying, "_held", 0)
    cfg = DetectConfig(code=CODE, key=key, s_max=s_max, tau=3)
    tracemalloc.start()
    try:
        rep = detect(seq, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < V
    rows = -(-(T + s_max) // CODE.n)
    assert list(keying._cache.items()) == [
        ((derive_block_key(key, j, CODE.k).seed, V), None)
        for j in range(rows)]
    assert rep.is_wm and rep.best_offset == 1
    _assert_report_equals_reference(rep, _ref_detect(seq, cfg), cfg)


def test_repeat_detections_read_windows_from_the_cache(monkeypatch):
    """Detections of one text under one key: the first hashes each
    block's window as it stands, the second fills each block's array with
    its window's distinct ids, and every later one hashes nothing.  All
    reports equal the reference."""
    V, T, s_max, n = 1024, 200, 3, CODE.n
    key = SecretKey(bytes([78]) * 32)
    seq = _carrying(key, V, T, 2, np.random.default_rng(13))
    toks = seq.tokens.tolist()
    windows = [toks[max(a, 0):a + n + 2 * s_max]
               for a in range(-s_max, T, n)]
    monkeypatch.setattr(keying, "_cache", OrderedDict())
    monkeypatch.setattr(keying, "_held", 0)
    hashed = _hash_counter(monkeypatch)
    cfg = DetectConfig(code=CODE, key=key, s_max=s_max, tau=3)
    ref = _ref_detect(seq, cfg)
    calls = []
    for _ in range(3):
        hashed.clear()
        _assert_report_equals_reference(detect(seq, cfg), ref, cfg)
        calls.append(list(hashed))
    assert calls == [[len(w) for w in windows],
                     [len(set(w)) for w in windows], []]
    assert all(bits is not None for bits in keying._cache.values())


@st.composite
def _batches(draw):
    """Texts under one key and code, at V = 64 or 2000, embedded (either
    plan, sometimes behind a prefix) or unwatermarked; a detection config
    per text; and a schedule of (text, clear the cache first) steps."""
    code = draw(st.sampled_from([BchCode.make(15, 5, 3), CODE]))
    key = SecretKey(bytes([draw(st.integers(0, 255))]) * 32)
    texts = []
    for i in range(draw(st.integers(1, 4))):
        V = draw(st.sampled_from([SMALL_V, 2000]))
        T = draw(st.integers(code.n - 2, 4 * code.n))
        diverse = draw(st.booleans())
        if draw(st.booleans()):
            payload = int_to_bits(draw(st.integers(0, (1 << code.k) - 1)),
                                  code.k)
            seq = embed(UniformSource(V), key, payload, EmbedConfig(
                code=code, delta=4.0, scheme="soft", token_count=T,
                rng_seed=i, diverse=diverse))
            seq = insert_prefix(seq, draw(st.integers(0, 3)), rng_seed=i)
        else:
            seq = sample_unwatermarked(UniformSource(V), T, i)
        texts.append((seq, DetectConfig(
            code=code, key=key, s_max=draw(st.integers(0, 3)),
            tau=draw(st.integers(1, 2)), diverse=diverse)))
    steps = draw(st.lists(st.tuples(st.integers(0, len(texts) - 1),
                                    st.booleans()), min_size=1, max_size=8))
    return texts, steps


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batch_under_one_key_matches_reference_through_the_cache(data):
    """Texts under one key, embedded and detected in any order through a
    cache that holds three arrays of 64 ids, emptied at random steps,
    detect as the reference does.  A vocabulary beyond the bound leaves
    no entry, and _held always counts the entries."""
    bound = 3 * (SMALL_V + keying._ENTRY_BYTES)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(keying, "CACHE_BYTES", bound)
        mp.setattr(keying, "_cache", OrderedDict())
        mp.setattr(keying, "_held", 0)
        texts, steps = data.draw(_batches())
        refs = [_ref_detect(seq, cfg) for seq, cfg in texts]
        for i, clear in steps:
            if clear:
                keying._cache.clear()
                keying._held = 0
            seq, cfg = texts[i]
            _assert_report_equals_reference(detect(seq, cfg), refs[i], cfg)
            assert all(V == SMALL_V for _, V in keying._cache)
            assert keying._held == sum(
                keying._ENTRY_BYTES + (0 if b is None else b.nbytes)
                for b in keying._cache.values()) <= bound


def test_detect_at_s_max_n_decodes_in_bounded_memory():
    """One (127,92,5) detection of a 4000-token text at s_max = n stacks
    about 8k blocks into one decode, which decode_rows takes
    DECODE_CHUNK rows at a time: the traced peak stays under 8 MiB, where
    one Chien search over every block at once would need about 60 MiB.
    The text carries the payload behind a 40-token prefix."""
    code = BchCode.make(127, 92, 5)
    V, T, prefix = 1 << 16, 4000, 40
    payload = int_to_bits(0x2B0F_5A17_C3E9_64D1_8A2, code.k)
    rng = np.random.default_rng(8)
    toks = list(rng.integers(0, V, prefix))
    for j in range(-(-(T - prefix) // code.n)):
        bk = derive_block_key(KEY, j, code.k)
        for b in plan_block(KEY, j, payload, code).target_bits:
            v = int(rng.integers(V))
            while token_bits(bk.seed, [v])[0] != b:
                v = int(rng.integers(V))
            toks.append(v)
    seq = TokenSequence(toks[:T], V)
    cfg = DetectConfig(code=code, key=KEY, s_max=code.n, tau=3)
    tracemalloc.start()
    try:
        rep = detect(seq, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 23
    assert rep.is_wm and rep.best_offset == prefix
    assert rep.matched == rep.block_count == (T - prefix) // code.n
    assert np.array_equal(rep.payload, payload)


def test_detect_all_rejects_configs_that_do_not_share_a_pass():
    """One pass per text serves only configs with the same code, key,
    diverse flag and prompt length; anything else is a broken contract,
    and so is an empty config list."""
    seq = _wm(100)
    base = dict(code=CODE, key=KEY, s_max=2, mode="both")
    for other in (dict(code=BchCode.make(15, 5, 3)),
                  dict(key=SecretKey(bytes(32))), dict(diverse=True),
                  dict(prompt_len=1)):
        with pytest.raises(ContractError, match="share"):
            detect_all(seq, [DetectConfig(**base),
                             DetectConfig(**{**base, **other})])
    with pytest.raises(ContractError, match="share"):
        detect_all(seq, [])
    # mode, s_max and tau may differ
    reps = detect_all(seq, [DetectConfig(**base),
                            DetectConfig(**{**base, "mode": "naive",
                                            "s_max": 0, "tau": 2})])
    assert len(reps) == 2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_texts(min_blocks=6, max_blocks=7, kinds=("c1",)), st.data())
def test_prefix_shift_recovered(text, data):
    """A clean text with r <= s_max tokens prepended is recovered at
    best_offset = r: offset r reads the original stream exactly, and a
    misaligned offset would need six blocks voting for one key."""
    code, key, payload, toks, rng = text
    s_max = data.draw(st.integers(0, 8))
    r = data.draw(st.integers(0, s_max))
    seq = insert_prefix(TokenSequence(toks, SMALL_V), r,
                        rng_seed=int(rng.integers(1 << 30)))
    rep = detect(seq, DetectConfig(code=code, key=key, s_max=s_max, tau=1))
    assert rep.best_offset == r
    assert rep.matched == rep.block_count == len(toks) // code.n
    assert np.array_equal(rep.payload, payload)


@pytest.mark.parametrize("code", [BchCode.make(15, 5, 3), CODE])
@pytest.mark.parametrize("diverse", [False, True])
def test_vote_keys_equal_plan_matches(code, diverse):
    """A payload designates a decoded codeword exactly when plan_block
    says so, for every payload, including the zero word and c_max (the
    diverse pair's degenerate cases)."""
    c_max = max_weight_codeword(code)
    rng = np.random.default_rng(1)
    words = [np.zeros(code.n, dtype=np.uint8), c_max] + [
        encode(code, rng.integers(0, 2, code.k).astype(np.uint8))
        for _ in range(3)]
    for j in range(4):
        r = derive_block_key(KEY, j, code.k).randomizer
        for cw in words:
            coins = [diverse_coin(derive_block_key(KEY, j, code.k))] \
                if diverse else None
            _, _, (payloads,) = _vote(code, [(cw, 0)], [bits_to_int(r)],
                                   coins)
            for p in range(1 << code.k):
                plan = plan_block(KEY, j, int_to_bits(p, code.k), code,
                                  diverse)
                assert (p in payloads) == any(
                    np.array_equal(cw, d) for d in plan.designated)


def test_detect_does_not_import_numpy_ma():
    """Detection calls no np.unique, whose first call imports numpy.ma:
    a fresh process's first detect pays for no more than it uses."""
    import blockmark
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from blockmark.bch import BchCode\n"
        "from blockmark.detector import DetectConfig, detect\n"
        "from blockmark.generation import TokenSequence\n"
        "from blockmark.keying import SecretKey\n"
        "cfg = DetectConfig(code=BchCode.make(31, 6, 7),\n"
        "                   key=SecretKey(bytes(32)), s_max=2)\n"
        "detect(TokenSequence(np.arange(100) % 50, 64), cfg)\n"
        "print('numpy.ma' in sys.modules)\n")
    src = str(Path(blockmark.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"
