"""Synthetic logit sources and the block-wise embedding loop."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bch import BchCode, ContractError
from .keying import SecretKey, check_vocab_size, derive_block_key, \
    partition_bits, plan_block


class GenerationError(RuntimeError):
    pass


class LogitSource:
    """Per-step logit provider.  `green_mask` is the keyed target list of
    the current step (None when sampling without a watermark)."""

    vocab_size: int

    def logits(self, green_mask: np.ndarray | None) -> np.ndarray:
        raise NotImplementedError


class UniformSource(LogitSource):
    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size
        self._zeros = np.zeros(vocab_size)

    def logits(self, green_mask=None) -> np.ndarray:
        return self._zeros


class ControlledMassSource(LogitSource):
    """Pins the pre-bias softmax mass of the green list to exactly `mass`.

    With g green tokens out of V, assigning green logit
    log(mass*(V-g) / ((1-mass)*g)) and 0 elsewhere yields green mass
    = mass in closed form, recomputed each step for the step's partition.
    """

    def __init__(self, vocab_size: int, mass: float):
        if not 0.0 < mass < 1.0:
            raise ContractError("mass must lie in (0, 1)")
        self.vocab_size = vocab_size
        self.mass = mass

    def logits(self, green_mask=None) -> np.ndarray:
        out = np.zeros(self.vocab_size)
        if green_mask is None:
            return out
        g = int(green_mask.sum())
        if g == 0 or g == self.vocab_size:
            raise GenerationError("degenerate partition for controlled mass")
        a = math.log(self.mass * (self.vocab_size - g)
                     / ((1.0 - self.mass) * g))
        out[green_mask] = a
        return out


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
        if self.delta < 0:
            raise ContractError("delta must be >= 0")
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


def _gumbel_sample(rng: np.random.Generator, logits: np.ndarray) -> int:
    # argmax of logits + Gumbel noise == softmax sampling
    return int(np.argmax(logits + rng.gumbel(size=logits.shape)))


def embed(src: LogitSource, key: SecretKey, payload: np.ndarray,
          cfg: EmbedConfig) -> TokenSequence:
    """Generate cfg.token_count tokens carrying the payload.

    Token t lives in block j = t // n at in-block position b = t % n and
    is biased (soft) or restricted (hard) toward the token list whose
    keyed bit equals the block's target bit at position b.
    """
    code = cfg.code
    n = code.n
    rng = np.random.default_rng(cfg.rng_seed)
    tokens = np.empty(cfg.token_count, dtype=np.int64)

    part = None
    target = None
    cur_j = -1
    for t in range(cfg.token_count):
        j, b = divmod(t, n)
        if j != cur_j:
            bk = derive_block_key(key, j, code.k)
            part = partition_bits(bk, src.vocab_size)
            target = plan_block(key, j, payload, code,
                                cfg.diverse).target_bits
            cur_j = j
        green = part == target[b]
        logits = src.logits(green)
        if cfg.scheme == "hard":
            if not green.any():
                raise GenerationError("empty target list in hard mode")
            masked = np.where(green, logits, -np.inf)
            tokens[t] = _gumbel_sample(rng, masked)
        else:
            tokens[t] = _gumbel_sample(rng, logits + cfg.delta * green)
    return TokenSequence(tokens, src.vocab_size,
                         meta={"scheme": cfg.scheme, "delta": cfg.delta,
                               "n": n, "k": code.k, "t": code.t})


def sample_unwatermarked(src: LogitSource, token_count: int,
                         rng_seed: int) -> TokenSequence:
    """Plain softmax sampling, no bias; the H0 corpus."""
    rng = np.random.default_rng(rng_seed)
    logits = None
    tokens = np.empty(token_count, dtype=np.int64)
    for t in range(token_count):
        logits = src.logits(None)
        tokens[t] = _gumbel_sample(rng, logits)
    return TokenSequence(tokens, src.vocab_size, meta={"scheme": "none"})
