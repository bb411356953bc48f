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

from .bch import BchCode, ContractError, bits_to_int, check_setting, \
    decode_rows, encode_rows, int_to_bits, max_weight_codeword
from .generation import TokenSequence
from .keying import SecretKey, derive_block_key, diverse_coin, window_bits

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
        for name, kind in (("code", BchCode), ("key", SecretKey),
                           ("s_max", int), ("tau", int), ("prompt_len", int),
                           ("diverse", bool)):
            check_setting(name, getattr(self, name), kind)
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


def block_windows(seq: TokenSequence, key: SecretKey, n: int, k: int,
                  lo: int, hi: int, prompt_len: int = 0):
    """Keyed bits of everything block j reads at any offset in [lo, hi]:
    row j holds f_j of the post-prompt tokens at j*n+lo ... (j+1)*n+hi-1,
    and 0 where no token exists.  Block j of the stream at offset s is
    rows[j, s-lo:s-lo+n].  Returns (rows, block keys), one
    derive_block_key and one keying.window_bits read per row: at most
    O(T) hashes per text, whatever the vocabulary, and none for an id a
    text under the same key has read before."""
    toks = seq.tokens[prompt_len:]
    T = len(toks)
    width = n + hi - lo
    rows = np.zeros((max(-(-(T - lo) // n), 0), width), dtype=np.uint8)
    bks = []
    for j in range(len(rows)):
        a = j * n + lo
        first, last = max(a, 0), min(a + width, T)
        bks.append(derive_block_key(key, j, k))
        rows[j, first - a:last - a] = window_bits(
            bks[j].seed, seq.vocab_size, toks[first:last])
    return rows, bks


def extract_bits(seq: TokenSequence, key: SecretKey, n: int, k: int,
                 offset: int = 0, prompt_len: int = 0) -> np.ndarray:
    """Keyed binary projection of a token sequence at a given alignment,
    as a uint8 bit array: the blocks of a one-offset block_windows."""
    if abs(offset) > n:
        raise ContractError("offset magnitude must be <= n")
    if prompt_len < 0:
        raise ContractError("prompt_len must be >= 0")
    rows, _ = block_windows(seq, key, n, k, offset, offset, prompt_len)
    return rows.ravel()[:len(seq.tokens[prompt_len:]) - offset]


def _verify(code: BchCode, xs: np.ndarray, masks: np.ndarray,
            words: np.ndarray) -> list:
    """safe_decode of each block b_j, given as X_j = b_j XOR G(r_j) in the
    rows of xs with G(r_j) in those of masks, that lies within t of a
    codeword G(p XOR r_j) designated by a payload p whose G(p) is a row
    of words; None for every other block.  G is linear, so G(p XOR r_j)
    = G(p) XOR G(r_j), and b_j lies as far from it as X_j from G(p): one
    Hamming count.  Decoding within radius t is unique, so such a block
    decodes to exactly (that codeword, its distance); two designated
    codewords of one block differ by c_max, of weight n > 2t, so at most
    one is that close."""
    dist = (xs != words[:, None]).sum(axis=2)
    return [(words[c] ^ masks[j], d) if d <= code.t else None
            for j, (c, d) in enumerate(zip(dist.argmin(axis=0).tolist(),
                                           dist.min(axis=0).tolist()))]


def _may_designate_all(code: BchCode, xs: np.ndarray, diverse: bool) -> bool:
    """Whether one payload may designate every block of an offset, from
    its blocks alone: xs holds each block b_j XOR G(r_j).  A block that
    decodes to a codeword p designates is G(p XOR r_j) XOR e_j, plus
    c_max in diverse mode, with wt(e_j) <= t; G is linear, so X_j = G(p)
    XOR e_j (XOR c_max), and X_0 XOR X_j has weight <= 2t, or >= n - 2t
    when c_max, the all-ones word, lies between them.  A block outside
    that band rules out every payload: no decoding needed."""
    w = (xs[1:] != xs[0]).sum(axis=1)
    near = w <= 2 * code.t
    if diverse:
        near |= w >= code.n - 2 * code.t
    return bool(near.all())


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
    M = len(bits) // code.n
    decoded = decode_rows(code, bits[:M * code.n].reshape(M, code.n))
    best, votes, _ = _vote(code, decoded, *_randomizers_and_coins(
        [derive_block_key(key, j, code.k) for j in range(M)], diverse))
    return (None if best is None else int_to_bits(best, code.k)), votes


def _randomizers_and_coins(bks, diverse: bool):
    """_vote's randomizers and coins (None unless diverse) of the blocks
    keyed by `bks`."""
    return ([bits_to_int(bk.randomizer) for bk in bks],
            [diverse_coin(bk) for bk in bks] if diverse else None)


def detect_all(seq: TokenSequence, cfgs) -> list:
    """The detection core: one report per config sharing code, key,
    diverse and prompt_len.  A config searches its offsets (0 alone, or
    0, -1, +1, ... +-s_max with the shift search) and keeps the first, in
    that order, with the best ratio of blocks under its mask: decodable
    (naive, shift_only) or designated (the offset's voted payload is the
    block's vote key msg(cw_j) XOR r_j).  Every offset's blocks are slices
    of one block_windows, each decoded at most once, when first needed.

    While a config that searches beyond offset 0 waits for an offset of
    ratio 1, the offsets are walked in search order, block by block, and
    one is given up at the first block that rules out ratio 1 for every
    waiting config: one that does not decode or, when all of them use the
    designated mask, one that no payload designating block 0 designates.
    Such a walk first gives up, with no decoding, an offset whose raw
    blocks no payload can designate throughout (_may_designate_all, the
    band).  Once block 0 decodes at an offset inside the band, every block
    within t of a codeword that a payload designating block 0 designates
    takes that (codeword, distance) from _verify, also when the offset is
    completed later, and is never decoded; every other block is decoded
    blind when the walk reaches it.  Only a walk to the last block
    records the offset (decoded blocks, vote, both masks); the search
    ends when no config waits.  A config reports its first recorded
    offset of ratio 1, or records all its offsets, decoding every block
    still unknown at them in one decode_rows call, and reports the
    best.  No report changes: each rule is necessary for ratio 1, the
    most, and the first tie wins, and a block within t of a codeword
    decodes to it."""
    shared = {(c.code, c.key, c.diverse, c.prompt_len) for c in cfgs}
    if len(shared) != 1:
        raise ContractError("detect_all needs configs that share code, key, "
                            "diverse and prompt_len")
    (code, key, diverse, prompt_len), = shared
    T = len(seq.tokens[prompt_len:])
    reaches = [c.s_max if c.mode in ("shift_only", "both") else 0
               for c in cfgs]
    # the index of each config's mask in a record: decodable or designated
    rules = [2 if c.mode in ("naive", "shift_only") else 3 for c in cfgs]
    order = [0, *(s for d in range(1, max(reaches) + 1) for s in (-d, d))]
    # the number of blocks at each offset that holds one, in search order
    counts = {s: (T - s) // code.n for s in order if T - s >= code.n}
    records = {}   # offset: (decoded, payload, decodable, designated)
    # (mask, number of offsets searched) of each waiting config
    waiting = {(rule, 2 * reach + 1)
               for rule, reach in zip(rules, reaches) if reach}
    if counts:
        n, lo = code.n, min(counts)
        rows, bks = block_windows(seq, key, n, code.k, lo, max(counts),
                                  prompt_len)
        rands, coins = _randomizers_and_coins(bks, diverse)
        masks = encode_rows(code, np.array([bk.randomizer for bk in bks]))
        known = {}   # (offset, block index): the block's decoded result

        def decode(wanted):
            # the results of the blocks (s, j) in `wanted`; those not yet
            # known are decoded in one decode_rows call
            blind = [b for b in wanted if b not in known]
            if blind:
                known.update(zip(blind, decode_rows(code, np.array(
                    [rows[j, s - lo:s - lo + n] for s, j in blind]))))
            return [known[b] for b in wanted]

        def record(s):
            if s not in records:
                blocks = decode([(s, j) for j in range(counts[s])])
                payload, _, designating = _vote(code, blocks, rands, coins)
                records[s] = (blocks, payload,
                              [dec is not None for dec in blocks],
                              [payload in keys for keys in designating])
            return records[s]

        for s in counts:
            waiting = {(r, w) for r, w in waiting if order.index(s) < w}
            if not waiting:
                break
            M = counts[s]
            xs = rows[:M, s - lo:s - lo + n] ^ masks[:M]
            # every waiting config counts designated blocks alone
            designated = all(r == 3 for r, _ in waiting)
            if designated and not _may_designate_all(code, xs, diverse):
                continue
            for j in range(M):
                if j and designated and (s, j) not in known:
                    break
                dec, = decode([(s, j)])
                if dec is None:
                    break
                # outside the band, as at the offsets around a watermarked
                # one, where block 0 still decodes, verification would
                # mostly settle nothing
                if j == 0 and (designated
                               or _may_designate_all(code, xs, diverse)):
                    # G(v) of block 0's vote key v, and in diverse mode
                    # G(v XOR msg(c_max)) = G(v) XOR c_max unless the
                    # block decodes to zero: the payloads _vote gives it
                    g = dec[0] ^ masks[0]
                    settled = _verify(code, xs, masks, np.array(
                        [g, g ^ 1] if diverse and dec[0].any() else [g]))
                    known.update(((s, i), v) for i, v in enumerate(settled)
                                 if i and v)
            else:
                waiting = {(r, w) for r, w in waiting
                           if not all(record(s)[r])}

    reports = []
    for cfg, reach, rule in zip(cfgs, reaches, rules):
        searched = [s for s in order[:2 * reach + 1] if s in counts]
        if not searched:
            reports.append(DetectionReport(
                False, None, 0, 0, 0, diagnostic="text shorter than one block"))
            continue
        if not any(all(records[s][rule]) for s in searched if s in records):
            decode([(s, j) for s in searched for j in range(counts[s])])
            for s in searched:
                record(s)
        # max keeps the first of equal ratios, so the search order decides
        s = max((s for s in searched if s in records),
                key=lambda o: sum(records[o][rule]) / len(records[o][rule]))
        blocks, payload = records[s][:2]
        matches = records[s][rule]
        matched = sum(matches)
        is_wm = matched >= cfg.tau
        reports.append(DetectionReport(
            is_wm, int_to_bits(payload, code.k) if is_wm else None,
            best_offset=s, matched=matched, block_count=len(blocks),
            per_block=[BlockResult(m, dec[1] if dec else None, s)
                       for dec, m in zip(blocks, matches)],
            score=matched / len(blocks)))
    return reports


def detect(seq: TokenSequence, cfg: DetectConfig) -> DetectionReport:
    """Two-stage detection of one text: detect_all for one config."""
    return detect_all(seq, [cfg])[0]
