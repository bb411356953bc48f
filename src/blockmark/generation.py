"""Synthetic logit sources and the block-wise embedding loop."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bch import BchCode, ContractError, check_seed, check_setting
from .keying import SecretKey, bits_of, check_vocab_size, \
    derive_block_key, keyed_bits, partition_bits, plan_rows


class GenerationError(RuntimeError):
    pass


class LogitSource:
    """Per-step logit provider.  `green_mask` is the keyed target list of
    the current step (None when sampling without a watermark)."""

    vocab_size: int

    def logits(self, green_mask: np.ndarray | None) -> np.ndarray:
        raise NotImplementedError


class _TwoLevelSource(LogitSource):
    """A history-free source whose logits are `green_logit(g)` on a green
    list of g tokens and 0 on the rest (0 everywhere without a list).
    `embed` and `sample_unwatermarked` sample the two classes below from
    uniforms (`_two_level_argmax`) instead of calling `logits` per step."""

    def green_logit(self, green_count: int) -> float:
        raise NotImplementedError

    def logits(self, green_mask=None) -> np.ndarray:
        out = np.zeros(self.vocab_size)
        if green_mask is not None:
            out[green_mask] = self.green_logit(int(green_mask.sum()))
        return out


class UniformSource(_TwoLevelSource):
    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size

    def green_logit(self, green_count: int) -> float:
        return 0.0


class ControlledMassSource(_TwoLevelSource):
    """Pins the pre-bias softmax mass of the green list to exactly `mass`.

    With g green tokens out of V, assigning green logit
    log(mass*(V-g) / ((1-mass)*g)) and 0 elsewhere yields green mass
    = mass in closed form, recomputed each step for the step's partition.
    """

    def __init__(self, vocab_size: int, mass: float):
        check_setting("mass", mass, float)
        if not 0.0 < mass < 1.0:
            raise ContractError("mass must lie in (0, 1)")
        self.vocab_size = vocab_size
        self.mass = mass

    def green_logit(self, green_count: int) -> float:
        g = green_count
        if g == 0 or g == self.vocab_size:
            raise GenerationError("degenerate partition for controlled mass")
        return math.log(self.mass * (self.vocab_size - g)
                        / ((1.0 - self.mass) * g))


# Exactly these classes take the two-level sampler; any other source,
# a subclass included, gets one `logits` call per step.
_TWO_LEVEL = (UniformSource, ControlledMassSource)


def logit_source(vocab_size: int, mass: float | None) -> LogitSource:
    """The uniform source, or with `mass` the controlled-mass source."""
    if mass is None:
        return UniformSource(vocab_size)
    return ControlledMassSource(vocab_size, mass)


@dataclass
class EmbedConfig:
    code: BchCode
    delta: float
    scheme: str              # "soft" or "hard"
    token_count: int
    rng_seed: int
    diverse: bool = False    # plan each block with the diverse pair

    def __post_init__(self):
        for name, kind in (("code", BchCode), ("delta", float),
                           ("token_count", int), ("diverse", bool)):
            check_setting(name, getattr(self, name), kind)
        check_seed("rng_seed", self.rng_seed)
        if not 0 <= self.delta < math.inf:
            raise ContractError("delta must be finite and >= 0")
        if self.token_count < 1:
            raise ContractError("token_count must be >= 1")
        if self.scheme not in ("soft", "hard"):
            raise ContractError(f"unknown scheme {self.scheme!r}")


@dataclass
class TokenSequence:
    tokens: np.ndarray
    vocab_size: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        check_vocab_size(self.vocab_size)
        tokens = np.asarray(self.tokens)
        # np.asarray([]) is float64: only a non-empty array must be integer
        if tokens.size and not np.issubdtype(tokens.dtype, np.integer):
            raise ContractError(f"token ids must be integers, "
                                f"got {tokens.dtype}")
        self.tokens = tokens.astype(np.int64, copy=False)
        if self.tokens.ndim != 1:
            raise ContractError("tokens must be a flat sequence")
        if self.tokens.size and (self.tokens.min() < 0
                                 or self.tokens.max() >= self.vocab_size):
            raise ContractError("token id out of range")

    def __len__(self):
        return len(self.tokens)


# Uniform doubles drawn at a time by the two-level sampler (2^18 ran
# slower), and by the per-step sampler, which ran slower and took more
# memory at 2^16.
_CHUNK = 1 << 17
_STEP_CHUNK = 1 << 14
_WINDOW = 2.0 ** -20      # see _two_level_argmax
_READ = 8.0               # mean ids a row of _two_level_argmax reads first
_EMPTY = "empty target list in hard mode"


def _gumbel(u: float) -> float:
    """The variate rng.gumbel makes of the uniform double u: numpy's
    loc - scale * log(-log(1 - u)) with the libm log that math.log calls."""
    return 0.0 - math.log(-math.log(1.0 - u))


def _uniforms(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """`out` (flat, contiguous) filled with the next out.size doubles that
    rng.gumbel(size=out.size) would transform.  It redraws u = 0, so a
    zero leaves the stream and the rest move up."""
    rng.random(out=out)
    while out.min() == 0.0:
        keep = out[out != 0.0]
        out[:keep.size] = keep
        rng.random(out=out[keep.size:])
    return out


def _window(values: np.ndarray) -> float:
    """max(2^-20, ulp(M + 64)), M the largest finite |value|: at least
    the rounding step of any score c + G(u), since |G(u)| < 64, and far
    more than the error of a log."""
    mags = np.abs(values)
    top = mags.max(initial=0.0)
    if not top < math.inf:
        # inf or NaN: the bits of a double |v| order as |v| does, and those
        # of inf and NaN lie above those of every finite one; clear them
        bits = mags.view(np.int64)
        bits *= bits < 0x7FF << 52
        top = bits.max().view(np.float64)
    return max(_WINDOW, math.ulp(float(top) + 64.0))


def _approx(consts, u: np.ndarray) -> np.ndarray:
    """consts + G(u) with numpy's vectorised log, in one scratch array."""
    out = np.subtract(1.0, u)
    np.log(out, out=out)
    np.negative(out, out=out)
    np.log(out, out=out)
    return np.subtract(consts, out, out=out)


def _settle(choice: np.ndarray, rows, consts, us, ids) -> None:
    """Of the candidates of each row r (rows ascending) within 2w of its
    approximate best, keep choice[r] where the row has one; where it has
    more, set it to the one with the highest exact key (c + G(u), -id):
    np.argmax's choice, the highest score and on a tie the smallest id."""
    crowded = np.bincount(rows, minlength=len(choice))[rows] > 1
    if not crowded.any():
        return
    best = {}
    for r, c, x, v in zip(rows[crowded].tolist(), consts[crowded].tolist(),
                          us[crowded].tolist(), ids[crowded].tolist()):
        key = (c + _gumbel(x), -v)
        if r not in best or key > best[r]:
            best[r] = key
    for r, key in best.items():
        choice[r] = -key[1]


def _two_level_argmax(rng: np.random.Generator, vocab_size: int, classes,
                      consts: np.ndarray) -> list:
    """One token per row r of `consts`, equal to
    np.argmax(logits + rng.gumbel(size=V)) for logits that are consts[r, c]
    on the ids of class c, and drawing the same doubles, a _CHUNK of them
    at a time.  `classes(rows, ids)` gives the class of each id of an
    array, read in the row of `rows` (ascending); None: every id is class
    0.  It is asked only about the ids a row reads.

    The variate G(u) falls as u grows, by at least e per unit, and
    |c + G(u)| < |c| + 64.  So an id whose u exceeds its class minimum m by
    more than w = max(2^-20, ulp(|c| + 64)) scores below the class's best,
    c + G(m), even after rounding and the error of log.  A row reads the
    ids with u <= top, from top = _READ / V up by a factor 4 per pass,
    until every class that can win (constant not -inf) has m + w <= top:
    then every id within w of m has been read.  Once top >= 1 all V ids
    are read, and a class with none is empty.  A row whose classes that
    can win are all empty is hard mode with an empty list: it raises.

    The ids read within w of their class minimum are the row's
    candidates.  They are scored with numpy's vectorised log, which may
    differ from libm's in the last bits of G(u).  That error is far below
    w, which is at least a rounding step of any score, so a score computed
    either way lies within w of the other, and the exact best lies within
    2w of the approximate best.  A row with one candidate that close takes
    it; in a row with more, those are scored again exactly, the highest
    score wins and ties go to the smallest id, as in np.argmax.
    """
    (T, C), V = consts.shape, vocab_size
    w = _window(consts)
    # per cell r*C + c (class c of row r): inf, -inf if it cannot win
    unseen = np.where(np.isfinite(consts), math.inf, -math.inf)
    out = np.full(T, -1)

    # one chunk's rows; a function, so that a chunk's arrays are freed
    # before the next chunk is drawn
    def walk(todo):
        sub = _uniforms(rng, buf[:todo.size * V]).reshape(-1, V)
        top = _READ / V
        while todo.size:
            flat = np.flatnonzero(sub <= top)
            rr, ids = np.divmod(flat, V)
            x = sub.ravel()[flat]
            cell = rr * C
            if classes is not None and flat.size:
                cell += classes(todo[rr], ids)
            end = unseen[todo].ravel()        # a cell's minimum plus w
            np.minimum.at(end, cell, x)
            end += w
            done = (end <= top).reshape(-1, C).all(axis=1) | (top >= 1)
            near = np.flatnonzero((x <= end[cell]) & done[rr])
            rows, ids, x = rr[near], ids[near], x[near]
            c = consts[todo].ravel()[cell[near]]
            score = _approx(c, x)
            best = np.full(len(todo), -math.inf)
            np.maximum.at(best, rows, score)
            close = score >= best[rows] - 2 * w
            rows, ids = rows[close], ids[close]
            choice = np.full(len(todo), -1)
            choice[rows] = ids
            _settle(choice, rows, c[close], x[close], ids)
            out[todo[done]] = choice[done]
            todo, sub, top = todo[~done], sub[~done], top * 4

    step = max(1, _CHUNK // V)
    buf = np.empty(min(step, T) * V)      # every chunk's draw
    for a in range(0, T, step):
        walk(np.arange(a, min(a + step, T)))
    if (out < 0).any():                   # a row with no candidate
        raise GenerationError(_EMPTY)
    return out.tolist()


def _gumbel_argmax(rng: np.random.Generator, scores: np.ndarray,
                   out: np.ndarray) -> list:
    """One token per row r of `scores`, equal to
    np.argmax(scores[r] + rng.gumbel(size=V)) row after row, and drawing
    the same doubles, into `out` (scores.size doubles).

    Every id is scored at once with numpy's vectorised log, which may
    differ from libm's in the last bits of G(u).  That error is far below
    w (`_window`), which is at least a rounding step of any score, so a
    score computed either way lies within w of the other, and the exact
    best lies within 2w of the approximate best.  A row with one id that
    close takes it; in a row with more, those ids are scored again
    exactly, the highest score wins and ties go to the smallest id.  A
    row holding NaN scores NaN there, and np.argmax returns its first
    NaN; no id of such a row is rescored.
    """
    u = _uniforms(rng, out).reshape(scores.shape)
    approx = _approx(scores, u)
    top = approx.argmax(axis=1)
    edge = approx[np.arange(len(top)), top] - 2 * _window(scores)
    rows, ids = np.divmod(np.flatnonzero(approx >= edge[:, None]),
                          scores.shape[1])
    _settle(top, rows, scores[rows, ids], u[rows, ids], ids)
    return top.tolist()


def _per_step(rng: np.random.Generator, vocab_size: int, steps: int,
              fill) -> np.ndarray:
    """`steps` tokens, token i equal to
    np.argmax(s_i + rng.gumbel(size=V)) for the scores s_i of step i.
    For each chunk of _STEP_CHUNK doubles of steps, in order,
    `fill(span, out)` writes the scores of the steps of the slice `span`
    into the rows of `out`, before the chunk's noise is drawn
    (`_gumbel_argmax`)."""
    out = np.empty(steps, dtype=np.int64)
    rows = max(1, _STEP_CHUNK // vocab_size)
    buf = np.empty((min(rows, steps), vocab_size))
    draw = np.empty(buf.size)
    for a in range(0, steps, rows):
        b = min(a + rows, steps)
        fill(slice(a, b), buf[:b - a])
        out[a:b] = _gumbel_argmax(rng, buf[:b - a],
                                  draw[:(b - a) * vocab_size])
    return out


def _levels(src: LogitSource, cfg: EmbedConfig, green_count: int):
    """A two-level step's scores before the noise, off and on its green
    list of green_count > 0 tokens: the logits 0 and
    green_logit(green_count), plus delta on the list (soft), or -inf off
    it (hard)."""
    on = src.green_logit(green_count)
    if cfg.scheme == "hard":
        return -math.inf, on
    return 0.0, on + cfg.delta


def _two_level_text(src, rng, cfg, blocks) -> list:
    """The tokens of a text of two-level steps, from its blocks' (seed,
    keyed bits, target bits), drawn a _CHUNK of doubles of rows at a time
    across block boundaries (`_two_level_argmax`).  Every error of
    `_levels` is raised before the first draw."""
    V, n = src.vocab_size, cfg.code.n

    def table(sizes):
        # levels of classes 0 and 1 (the ids whose keyed bit is 0 or 1)
        # per target bit b, whose green list is class b, of sizes[b] ids
        off, on = _levels(src, cfg, sizes[0])
        return np.array([(on, off), _levels(src, cfg, sizes[1])])
    if type(src) is UniformSource:
        # its levels need only that a list is not empty, which the walk
        # finds out: one table for every block
        consts = table((1, 1))[np.concatenate([b for *_, b in blocks])]
    else:
        consts = []
        for _, part, bits in blocks:
            ones = int(np.count_nonzero(part))
            consts.append(table((len(part) - ones, ones))[bits])
        consts = np.concatenate(consts)

    def classes(rows, ids):
        # the keyed bit of each id in its row's own block, filled through
        # bits_of; rows arrive ascending, so each block's are one run
        first, last = rows[0] // n, rows[-1] // n
        if first == last:
            seed, part, _ = blocks[first]
            return bits_of(seed, part, ids)
        cuts = np.searchsorted(rows, np.arange(first + 1, last + 1) * n)
        cuts = cuts.tolist()
        out = np.empty(len(ids), dtype=np.int8)
        for (seed, part, _), a, b in zip(blocks[first:last + 1], [0] + cuts,
                                         cuts + [len(ids)]):
            out[a:b] = bits_of(seed, part, ids[a:b])
        return out
    return _two_level_argmax(rng, V, classes, consts)


def _per_step_block(src, rng, cfg, seed, part, bits) -> np.ndarray:
    hard = cfg.scheme == "hard"

    def fill(span, out):
        # the target lists of the span's steps, one row per step: one
        # logits call per step with its list, then the bias of all rows
        green = part == bits[span, None]
        listed = green.any(axis=1)
        for i, on in enumerate(green):
            out[i] = src.logits(on)
            if hard and not listed[i]:
                raise GenerationError(_EMPTY)
        if hard:
            np.copyto(out, -np.inf, where=~green)
        else:
            out += cfg.delta * green
    return _per_step(rng, src.vocab_size, len(bits), fill)


def _blocks(src, key, payload, cfg):
    """(seed, keyed bits, target bits) of each block of the text, in
    order.  Every block's key is derived first, then all target bits in
    one plan_rows call.  A UniformSource hashes only the keyed bits its
    walk reads."""
    code, V, T = cfg.code, src.vocab_size, cfg.token_count
    bks = [derive_block_key(key, j, code.k) for j in range(-(-T // code.n))]
    targets = plan_rows(bks, payload, code, cfg.diverse)[1].ravel()[:T]
    lazy = type(src) is UniformSource
    for bk, start in zip(bks, range(0, T, code.n)):
        part = keyed_bits(bk.seed, V) if lazy else partition_bits(bk, V)
        yield bk.seed, part, targets[start:start + code.n]


def embed(src: LogitSource, key: SecretKey, payload: np.ndarray,
          cfg: EmbedConfig) -> TokenSequence:
    """Generate cfg.token_count tokens carrying the payload.

    Token t lives in block j = t // n at in-block position b = t % n and
    is biased (soft) or restricted (hard) toward the token list whose
    keyed bit equals the block's target bit at position b.  Tokens are
    Gumbel-max samples; the two-level sources draw them from uniforms a
    chunk of rows at a time across blocks, other sources a chunk of steps
    of a block at a time, with the same tokens and the same random stream
    as one rng.gumbel(size=V) per step.
    """
    code = cfg.code
    rng = np.random.default_rng(cfg.rng_seed)
    blocks = _blocks(src, key, payload, cfg)
    if type(src) in _TWO_LEVEL:
        tokens = _two_level_text(src, rng, cfg, list(blocks))
    else:
        tokens = np.concatenate([_per_step_block(src, rng, cfg, *block)
                                 for block in blocks])
    return TokenSequence(tokens, src.vocab_size,
                         meta={"scheme": cfg.scheme, "delta": cfg.delta,
                               "n": code.n, "k": code.k, "t": code.t})


def sample_unwatermarked(src: LogitSource, token_count: int,
                         rng_seed: int) -> TokenSequence:
    """Plain softmax sampling, no bias; the H0 corpus."""
    check_vocab_size(src.vocab_size)
    check_setting("token_count", token_count, int)
    check_seed("rng_seed", rng_seed)
    if token_count < 0:
        raise ContractError("token_count must be >= 0")
    rng = np.random.default_rng(rng_seed)
    if type(src) in _TWO_LEVEL:
        # one class, every logit 0
        tokens = _two_level_argmax(rng, src.vocab_size, None,
                                   np.zeros((token_count, 1)))
    else:
        def fill(span, out):
            for row in out:
                row[...] = src.logits(None)
        tokens = _per_step(rng, src.vocab_size, token_count, fill)
    return TokenSequence(tokens, src.vocab_size, meta={"scheme": "none"})
