"""Two-stage detection: bit-stream extraction with alignment offsets,
blind per-block voting, and designated-codeword verification over a
sliding window of linear shifts.  Includes the naive any-codeword
baseline.

Offset sign convention
----------------------
``extract_bits`` with offset s maps the token at post-prompt position idx
to stream position idx - s.  Prepending r tokens is therefore undone by
s = +r and deleting the first r tokens by s = -r; ``detect`` reports that
recovering offset as ``best_offset``.  Stream positions that no token
maps to (idx - s < 0, or the leading hole when s < 0) are skipped or
zero-filled respectively.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bch import BchCode, ContractError, bits_to_int, int_to_bits, \
    max_weight_codeword, safe_decode
from .generation import TokenSequence
from .keying import SecretKey, derive_block_key, diverse_coin, token_bits

MODES = ("designated_only", "shift_only", "both", "naive")


@dataclass
class DetectConfig:
    code: BchCode
    key: SecretKey
    s_max: int = 0
    tau: int = 1
    mode: str = "both"
    diverse: bool = False
    prompt_len: int = 0

    def __post_init__(self):
        if self.tau < 1:
            raise ContractError("tau must be >= 1")
        if self.prompt_len < 0:
            raise ContractError("prompt_len must be >= 0")
        if not 0 <= self.s_max <= self.code.n:
            raise ContractError("s_max must lie in [0, n]")
        if self.mode not in MODES:
            raise ContractError(f"unknown mode {self.mode!r}")


@dataclass
class BlockResult:
    matched: bool
    distance: int | None
    offset: int


@dataclass
class DetectionReport:
    is_wm: bool
    payload: np.ndarray | None
    best_offset: int
    matched: int
    block_count: int
    per_block: list = field(default_factory=list)
    score: float = 0.0
    diagnostic: str = ""


@dataclass(frozen=True)
class KeyedTable:
    """Keyed bits f_j(v) of the (block j, token v) pairs that a set of
    offsets reads in one text, each pair hashed once.  `block_keys[j]` is
    block j's key, derived once."""
    pairs: np.ndarray        # sorted codes j << 32 | v
    bits: np.ndarray
    block_keys: list

    def lookup(self, pairs: np.ndarray) -> np.ndarray:
        i = np.searchsorted(self.pairs, pairs)
        if not (i < len(self.pairs)).all() or \
                not np.array_equal(self.pairs[i], pairs):
            raise ContractError("keyed table does not cover this offset")
        return self.bits[i]


def _reads(toks: np.ndarray, n: int, offset: int):
    """Stream positions that tokens fill at `offset`, and the (block,
    token) pair codes read there."""
    idx = np.arange(max(offset, 0), len(toks))
    pos = idx - offset
    return pos, (pos // n << 32) | toks[idx]


def keyed_table(seq: TokenSequence, key: SecretKey, n: int, k: int,
                offsets, prompt_len: int = 0) -> KeyedTable:
    """Hash every distinct (block, token) pair that extract_bits reads at
    any of `offsets`: O(T) hashes per text, whatever the vocabulary."""
    toks = seq.tokens[prompt_len:]
    pairs = np.sort(np.concatenate([_reads(toks, n, s)[1] for s in offsets]))
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    blocks = pairs >> 32
    bks = [derive_block_key(key, j, k)
           for j in range(blocks[-1] + 1 if len(pairs) else 0)]
    bits = np.empty(len(pairs), dtype=np.uint8)
    starts = np.flatnonzero(np.diff(blocks, prepend=-1))
    for a, b in zip(starts, [*starts[1:], len(pairs)]):
        bits[a:b] = token_bits(bks[blocks[a]].seed,
                               (pairs[a:b] & 0xFFFFFFFF).tolist())
    return KeyedTable(pairs, bits, bks)


def extract_bits(seq: TokenSequence, key: SecretKey, n: int, k: int,
                 offset: int = 0, prompt_len: int = 0,
                 table: KeyedTable | None = None) -> np.ndarray:
    """Keyed binary projection of a token sequence at a given alignment,
    as a uint8 bit array.

    The bits come from `table` (a keyed_table of this text covering this
    offset) or, without one, from a table hashed for this offset alone.
    """
    if abs(offset) > n:
        raise ContractError("offset magnitude must be <= n")
    if prompt_len < 0:
        raise ContractError("prompt_len must be >= 0")
    toks = seq.tokens[prompt_len:]
    U = len(toks) - offset          # highest stream position + 1
    if U <= 0:
        return np.zeros(0, dtype=np.uint8)
    if table is None:
        table = keyed_table(seq, key, n, k, [offset], prompt_len)
    pos, pairs = _reads(toks, n, offset)
    bits = np.zeros(U, dtype=np.uint8)
    bits[pos] = table.lookup(pairs)
    return bits


def _decode_blocks(code: BchCode, bits: np.ndarray):
    M = len(bits) // code.n
    return [safe_decode(code, bits[j * code.n:(j + 1) * code.n])
            for j in range(M)]


def _vote(code: BchCode, decoded, randomizers, coins=None):
    """The stage-1 vote over decoded blocks, with messages and
    randomizers as ints.

    Returns the winning message int (None without votes), the vote table
    keyed by message int and, per block, the payloads that designate its
    decoded codeword cw_j: the vote key msg(cw_j) XOR r_j, none when the
    block does not decode.  In diverse mode (`coins`, each block's
    diverse_coin, given) the pair partner cw_j XOR c_max adds its key too:
    as a vote, and as a designating payload unless cw_j is zero
    (plan_block replaces a zero partner by c1).

    The most votes win, ties to the smallest message.  In diverse mode a
    payload and its complement draw the same votes, so their ties go
    first to the most orientation votes: each block that decodes to a
    codeword other than c_max votes its key, complemented when its coin
    is 1, which is the payload when the block carries the codeword its
    coin picked.  A block that decodes to c_max casts none: plan_block
    embeds c_max for c1 = 0 and for c1 = c_max whatever the coin says.
    """
    designating = []
    votes: dict[int, int] = {}
    orientation: dict[int, int] = {}
    if coins is not None:
        c_max_key = bits_to_int(max_weight_codeword(code)[:code.k])
    for j, (dec, r) in enumerate(zip(decoded, randomizers)):
        if dec is None:
            designating.append(())
            continue
        cw = dec[0]
        msg = bits_to_int(cw[:code.k])
        key = msg ^ r
        votes[key] = votes.get(key, 0) + 1
        if coins is None:
            designating.append((key,))
            continue
        alt = key ^ c_max_key        # msg is linear: msg(cw ^ c_max)
        votes[alt] = votes.get(alt, 0) + 1
        designating.append((key, alt) if cw.any() else (key,))
        if msg != c_max_key:         # the code is systematic: cw != c_max
            oriented = alt if coins[j] else key
            orientation[oriented] = orientation.get(oriented, 0) + 1
    best = min(votes, key=lambda v: (-votes[v], -orientation.get(v, 0), v)) \
        if votes else None
    return best, votes, designating


def stage1_vote(bits: np.ndarray, code: BchCode, key: SecretKey,
                diverse: bool = False):
    """Blind payload estimation by majority vote over the decodable blocks
    of an extract_bits stream.

    Returns (message or None, vote table keyed by message int), with
    ties broken as in `_vote`.
    """
    decoded = _decode_blocks(code, bits)
    bks = [derive_block_key(key, j, code.k) for j in range(len(decoded))]
    rands = [bits_to_int(bk.randomizer) for bk in bks]
    coins = [diverse_coin(bk) for bk in bks] if diverse else None
    best, votes, _ = _vote(code, decoded, rands, coins)
    return (None if best is None else int_to_bits(best, code.k)), votes


def detect_all(seq: TokenSequence, cfgs) -> list:
    """The detection core: one report per config sharing code, key,
    diverse and prompt_len.  Each offset that any config searches is
    extracted, decoded and voted once, over one keyed table.  A config
    then picks its offsets (0 alone, or 0, -1, +1, ... +-s_max with the
    shift search) and its match rule: the block's vote key msg(cw_j) XOR
    r_j is the voted payload, so cw_j is the designated codeword and none
    is rebuilt, or (naive, shift_only) the block decodes.  It keeps the
    offset of the strictly best matched ratio, first in search order."""
    shared = {(c.code, c.key, c.diverse, c.prompt_len) for c in cfgs}
    if len(shared) != 1:
        raise ContractError("detect_all needs configs that share code, key, "
                            "diverse and prompt_len")
    (code, key, diverse, prompt_len), = shared
    T = len(seq.tokens[prompt_len:])
    reaches = [c.s_max if c.mode in ("shift_only", "both") else 0
               for c in cfgs]
    order = [0, *(s for d in range(1, max(reaches) + 1) for s in (-d, d))]
    offsets = [s for s in order if T - s >= code.n]
    passes = {}   # offset: (decoded blocks, voted payload, designating)
    if offsets:
        table = keyed_table(seq, key, code.n, code.k, offsets, prompt_len)
        rands = [bits_to_int(bk.randomizer) for bk in table.block_keys]
        coins = [diverse_coin(bk) for bk in table.block_keys] if diverse \
            else None
        for s in offsets:
            bits = extract_bits(seq, key, code.n, code.k, s, prompt_len,
                                table=table)
            decoded = _decode_blocks(code, bits)
            payload, _, designating = _vote(code, decoded, rands, coins)
            passes[s] = decoded, payload, designating

    reports = []
    for cfg, reach in zip(cfgs, reaches):
        any_codeword = cfg.mode in ("naive", "shift_only")
        best = None   # (score, matched, offset, payload, per_block)
        for s in order[:2 * reach + 1]:
            if s not in passes:
                continue
            decoded, payload, designating = passes[s]
            per_block = [BlockResult(dec is not None if any_codeword
                                     else payload in payloads,
                                     dec[1] if dec else None, s)
                         for dec, payloads in zip(decoded, designating)]
            matched = sum(b.matched for b in per_block)
            score = matched / len(per_block)
            if best is None or score > best[0]:
                best = (score, matched, s, payload, per_block)
        if best is None:
            reports.append(DetectionReport(
                False, None, 0, 0, 0, diagnostic="text shorter than one block"))
            continue
        score, matched, s, payload, per_block = best
        is_wm = matched >= cfg.tau
        reports.append(DetectionReport(
            is_wm, int_to_bits(payload, code.k) if is_wm else None,
            best_offset=s, matched=matched, block_count=len(per_block),
            per_block=per_block, score=score))
    return reports


def detect(seq: TokenSequence, cfg: DetectConfig) -> DetectionReport:
    """Two-stage detection of one text: detect_all for one config."""
    return detect_all(seq, [cfg])[0]
