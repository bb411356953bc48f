"""Token-level attack channels: substitution, deletion-like, insertion-like,
and the keyed bit-flip channel used for theory validation."""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .bch import ContractError, check_seed, check_setting
from .generation import TokenSequence
from .keying import SecretKey, derive_block_key, partition_bits

KINDS = ("substitute", "delete", "insert", "bitflip")


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    rate: float
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractError(f"unknown attack kind {self.kind!r}")
        check_setting("rate", self.rate, float)
        check_seed("rng_seed", self.rng_seed)
        if not 0.0 <= self.rate <= 1.0:
            raise ContractError("rate must lie in [0, 1]")


def attack(seq: TokenSequence, spec: AttackSpec, key: SecretKey | None = None,
           n: int | None = None) -> TokenSequence:
    """Apply an attack channel; per-position decisions are independent
    Bernoulli(rate) draws.

    bitflip replaces each hit token with a uniform token from the opposite
    keyed list of its block, which needs the key and the block length n.
    """
    rng = np.random.default_rng(spec.rng_seed)
    toks = seq.tokens
    V = seq.vocab_size

    if spec.kind == "substitute":
        hit = rng.random(len(toks)) < spec.rate
        out = toks.copy()
        out[hit] = rng.integers(0, V, size=int(hit.sum()))
        return TokenSequence(out, V, meta=dict(seq.meta))

    if spec.kind == "delete":
        keep = rng.random(len(toks)) >= spec.rate
        return TokenSequence(toks[keep], V, meta=dict(seq.meta))

    if spec.kind == "insert":
        hit = rng.random(len(toks)) < spec.rate
        extra = rng.integers(0, V, size=int(hit.sum()))
        return TokenSequence(np.insert(toks, np.flatnonzero(hit) + 1, extra),
                             V, meta=dict(seq.meta))

    # bitflip
    if key is None or n is None:
        raise ContractError("bitflip channel requires key and n")
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ContractError(f"bitflip: n must be an integer >= 1, got {n!r}")
    hit = rng.random(len(toks)) < spec.rate
    out = toks.copy()
    block = None
    # the hits come in index order, so block by block: one partition and
    # its two lists, indexed by the bit they are opposite to, per block
    for idx in np.flatnonzero(hit):
        j = int(idx // n)
        if j != block:
            block = j
            # the partition reads only the block seed: no randomizer bits
            part = partition_bits(derive_block_key(key, j, 0), V)
            opposite_of = (np.flatnonzero(part == 1),
                           np.flatnonzero(part == 0))
        opposite = opposite_of[part[toks[idx]]]
        if not opposite.size:
            raise ContractError(f"bitflip: block {j} puts every token id "
                                "in one keyed list")
        out[idx] = opposite[rng.integers(0, len(opposite))]
    return TokenSequence(out, V, meta=dict(seq.meta))


def _check_shift(r) -> None:
    if isinstance(r, bool) or not isinstance(r, numbers.Integral) or r < 0:
        raise ContractError(f"r must be an integer >= 0, got {r!r}")


def insert_prefix(seq: TokenSequence, r: int, rng_seed: int = 0) -> TokenSequence:
    """Prepend r uniform random tokens: a deterministic +r stream shift."""
    _check_shift(r)
    check_seed("rng_seed", rng_seed)
    if r == 0:
        return TokenSequence(seq.tokens.copy(), seq.vocab_size,
                             meta=dict(seq.meta))
    rng = np.random.default_rng(rng_seed)
    prefix = rng.integers(0, seq.vocab_size, size=r)
    return TokenSequence(np.concatenate([prefix, seq.tokens]),
                         seq.vocab_size, meta=dict(seq.meta))


def delete_prefix(seq: TokenSequence, r: int) -> TokenSequence:
    """Drop the first r tokens: a deterministic -r stream shift."""
    _check_shift(r)
    return TokenSequence(seq.tokens[r:].copy(), seq.vocab_size,
                         meta=dict(seq.meta))
