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

from .bch import BchCode, ContractError, bits_to_int, decode_rows, \
    int_to_bits, max_weight_codeword, safe_decode
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


def block_windows(seq: TokenSequence, key: SecretKey, n: int, k: int,
                  lo: int, hi: int, prompt_len: int = 0):
    """Keyed bits of everything block j reads at any offset in [lo, hi]:
    row j holds f_j of the post-prompt tokens at j*n+lo ... (j+1)*n+hi-1,
    and 0 where no token exists.  Block j of the stream at offset s is
    rows[j, s-lo:s-lo+n].  Returns (rows, block keys), one
    derive_block_key and one token_bits call per row: O(T) hashes per
    text, whatever the vocabulary."""
    toks = seq.tokens[prompt_len:]
    T = len(toks)
    width = n + hi - lo
    rows = np.zeros((max(-(-(T - lo) // n), 0), width), dtype=np.uint8)
    bks = []
    for j in range(len(rows)):
        a = j * n + lo
        first, last = max(a, 0), min(a + width, T)
        bks.append(derive_block_key(key, j, k))
        rows[j, first - a:last - a] = token_bits(bks[j].seed,
                                                 toks[first:last].tolist())
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


def _decode_blocks(code: BchCode, blocks: np.ndarray):
    """safe_decode of each row of an (M, n) block matrix: block by block
    for codes of k <= 7, in one decode_rows batch for longer messages."""
    if code.k <= 7:
        # decode_rows is faster here too, but a faster campaign runs more
        # benchmark rounds, whose kept records take campaign peak_rss_mb
        # to its bound (ROADMAP item 2)
        return [safe_decode(code, block) for block in blocks]
    return decode_rows(code, blocks)


def _decoded_offsets(code: BchCode, rows: np.ndarray, T: int, offsets: list):
    """(offset, decoded blocks) of each offset in turn, its blocks sliced
    from the block_windows `rows` of a T-token text over the offsets'
    range.  A stage of offsets is decoded when the caller first asks for
    one of them, so a caller that stops early decodes no later stage."""
    lo = min(offsets)
    # k <= 7 decodes block by block, so a stage of one offset costs
    # nothing; each decode_rows call has a fixed cost, so one stage
    stages = [[s] for s in offsets] if code.k <= 7 else [offsets]
    for stage in stages:
        counts = [(T - s) // code.n for s in stage]
        decoded = _decode_blocks(code, np.concatenate(
            [rows[:M, s - lo:s - lo + code.n]
             for s, M in zip(stage, counts)]))
        at = 0
        for s, M in zip(stage, counts):
            yield s, decoded[at:at + M]
            at += M


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
    decoded = _decode_blocks(code, bits[:M * code.n].reshape(M, code.n))
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
    diverse and prompt_len.  Each offset that any config searches gets one
    record per text: its decoded blocks, voted payload, and which blocks
    decode and which carry the designated codeword, i.e. have the voted
    payload as their vote key msg(cw_j) XOR r_j, so none is rebuilt.  The
    blocks of every offset are slices of one block_windows, decoded in
    _decoded_offsets' stages.  A config searches its offsets (0 alone, or
    0, -1, +1, ... +-s_max with the shift search) and keeps the first, in
    that order, with the best ratio of blocks under its mask: decodable
    (naive, shift_only) or designated.  The search stops at the first
    offset by which every config that searches beyond 0 has an offset of
    ratio 1 or has run out of offsets: no later offset could win."""
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
    offsets = [s for s in order if T - s >= code.n]
    records = {}   # offset: (decoded, payload, decodable, designated)
    # (mask, number of offsets searched) of each config that searches
    # beyond offset 0 and has neither found an offset of ratio 1 nor run
    # out of offsets: once none is left, no later offset can change a
    # report, for a ratio is at most 1 and the first of equal ratios wins
    pending = {(rule, 2 * reach + 1)
               for rule, reach in zip(rules, reaches) if reach}
    if offsets:
        rows, bks = block_windows(seq, key, code.n, code.k, min(offsets),
                                  max(offsets), prompt_len)
        rands, coins = _randomizers_and_coins(bks, diverse)
        for s, blocks in _decoded_offsets(code, rows, T, offsets):
            payload, _, designating = _vote(code, blocks, rands, coins)
            records[s] = (blocks, payload,
                          [dec is not None for dec in blocks],
                          [payload in keys for keys in designating])
            i = order.index(s)
            pending = {(rule, width) for rule, width in pending
                       if i + 1 < width and not all(records[s][rule])}
            if not pending:
                break

    reports = []
    for cfg, reach, rule in zip(cfgs, reaches, rules):
        searched = [s for s in order[:2 * reach + 1] if s in records]
        if not searched:
            reports.append(DetectionReport(
                False, None, 0, 0, 0, diagnostic="text shorter than one block"))
            continue
        # max keeps the first of equal ratios, so the search order decides
        s = max(searched, key=lambda o: sum(records[o][rule])
                / len(records[o][rule]))
        decoded, payload = records[s][:2]
        matches = records[s][rule]
        matched = sum(matches)
        is_wm = matched >= cfg.tau
        reports.append(DetectionReport(
            is_wm, int_to_bits(payload, code.k) if is_wm else None,
            best_offset=s, matched=matched, block_count=len(decoded),
            per_block=[BlockResult(m, dec[1] if dec else None, s)
                       for dec, m in zip(decoded, matches)],
            score=matched / len(decoded)))
    return reports


def detect(seq: TokenSequence, cfg: DetectConfig) -> DetectionReport:
    """Two-stage detection of one text: detect_all for one config."""
    return detect_all(seq, [cfg])[0]
