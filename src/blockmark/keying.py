"""Keyed pseudorandom material: block seeds, vocabulary partitions,
randomizer masks, and per-block codeword plans.

All derivations are SHA-256 with single-byte domain separators:
0x01 block seed, 0x02 token bit, 0x03 randomizer, 0x04 diverse choice.
Integers are hashed little-endian (LE64 block index, LE32 token id).
Everything is bit-exact across runs and platforms.
"""
from __future__ import annotations

import hashlib
import struct
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bch import BchCode, ContractError, check_bits, check_setting, \
    encode_rows, max_weight_codeword

KEY_LEN = 32
MAX_VOCAB = 1 << 32      # token ids hash as LE32

_LE64 = struct.Struct("<Q").pack
_LE32 = struct.Struct("<I").pack


@dataclass(frozen=True)
class SecretKey:
    key_bytes: bytes

    def __post_init__(self):
        if len(self.key_bytes) != KEY_LEN:
            raise ContractError(f"secret key must be {KEY_LEN} bytes")

    @staticmethod
    def from_hex(text: str) -> "SecretKey":
        return SecretKey(bytes.fromhex(text.strip()))

    def to_hex(self) -> str:
        return self.key_bytes.hex()


@dataclass(frozen=True)
class BlockKey:
    index: int
    seed: bytes              # 32 bytes
    randomizer: np.ndarray   # length-k bit mask

    def __post_init__(self):
        self.randomizer.setflags(write=False)


def _digest(*parts: bytes) -> bytes:
    return hashlib.sha256(b"".join(parts)).digest()


def _first_bits(data: bytes, count: int) -> np.ndarray:
    """First `count` bits of a byte string, MSB-first within each byte."""
    arr = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    return arr[:count].copy()


def check_vocab_size(vocab_size: int) -> None:
    if isinstance(vocab_size, bool) \
            or not isinstance(vocab_size, (int, np.integer)):
        raise ContractError(f"vocab_size must be an integer, "
                            f"got {vocab_size!r}")
    if not 1 <= vocab_size < MAX_VOCAB:
        raise ContractError(f"vocab_size must lie in [1, 2^32), "
                            f"got {vocab_size}")


@lru_cache(maxsize=1024)
def derive_block_key(key: SecretKey, j: int, k: int) -> BlockKey:
    """Block j's seed and k-bit randomizer under `key`.  A BlockKey is
    immutable, so each (key, j, k) is derived once and then handed out
    again from a bounded cache, dropping the least recently used."""
    if j < 0:
        raise ContractError("block index must be >= 0")
    seed = _digest(key.key_bytes, b"\x01", _LE64(j))
    randomizer = _first_bits(_digest(seed, b"\x03"), k)
    return BlockKey(index=j, seed=seed, randomizer=randomizer)


def token_bits(seed: bytes, tokens) -> np.ndarray:
    """Keyed bit f_j(v) of each token id v under block seed `seed`:
    SHA-256(seed || 0x02 || LE32(v))[0] & 1, as a uint8 array."""
    state = hashlib.sha256(seed + b"\x02")
    pack = _LE32

    def first_byte(v):
        # a copy of the hashed prefix, so only the id is hashed per token
        h = state.copy()
        h.update(pack(v))
        return h.digest()[0]
    out = np.fromiter(map(first_byte, tokens), dtype=np.uint8,
                      count=len(tokens))
    return out & 1


def token_bit(bk: BlockKey, v: int) -> int:
    """Keyed bit of token v in block bk: the membership function f_j.
    ContractError unless v is an id in [0, MAX_VOCAB)."""
    check_setting("token id", v, int)
    if not 0 <= v < MAX_VOCAB:
        raise ContractError(f"token id must lie in [0, 2^32), got {v}")
    return int(token_bits(bk.seed, (v,))[0])


# Bound on the bytes of keyed bits kept between calls: 16 MiB, 512 blocks
# at V = 32768.  An entry counts its bits and _ENTRY_BYTES for the
# objects that hold them; an entry that only window_bits has read holds
# no bits yet (None).
CACHE_BYTES = 16 << 20
_ENTRY_BYTES = 512
_cache: OrderedDict = OrderedDict()   # (seed, V) -> bits or None, LRU first
_held = 0                             # bytes that _cache counts


def _size(bits) -> int:
    return _ENTRY_BYTES + (0 if bits is None else bits.nbytes)


def _keep(key, bits) -> None:
    """Hold `bits` as the most recently used entry of `key`, dropping the
    least recently used entries to stay within CACHE_BYTES."""
    global _held
    if key in _cache:
        _held -= _size(_cache.pop(key))
    while _held + _size(bits) > CACHE_BYTES:
        _held -= _size(_cache.popitem(last=False)[1])
    _cache[key] = bits
    _held += _size(bits)


def keyed_bits(seed: bytes, vocab_size: int) -> np.ndarray:
    """The cached keyed bits of block seed `seed` over the ids of a
    vocabulary: one int8 per id, -1 for an id not yet hashed.  `bits_of`
    fills it in.  The cache keeps at most CACHE_BYTES, dropping the least
    recently used; an array larger than that is returned but not kept."""
    check_vocab_size(vocab_size)
    key = (seed, int(vocab_size))
    bits = _cache.get(key)
    if bits is not None:
        _cache.move_to_end(key)
        return bits
    bits = np.full(vocab_size, -1, dtype=np.int8)
    if _size(bits) <= CACHE_BYTES:
        _keep(key, bits)
    return bits


def bits_of(seed: bytes, bits: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """bits[ids] of a `keyed_bits` array, hashing first each id of `ids`
    (any shape) that is not yet hashed."""
    got = bits[ids]
    new = np.sort(ids[got < 0], axis=None)
    if new.size:
        first = np.ones(new.size, dtype=bool)
        np.not_equal(new[1:], new[:-1], out=first[1:])
        new = new[first]
        bits[new] = token_bits(seed, new.tolist())
        got = bits[ids]
    return got


def window_bits(seed: bytes, vocab_size: int, ids: np.ndarray) -> np.ndarray:
    """The keyed bits of the ids of one window (a 1-D array) under block
    seed `seed`, as uint8.  The first read of a (seed, V) hashes the ids
    and leaves an entry without bits; a later read, like any keyed_bits
    call, gives the entry its array and reads through bits_of.  So a seed
    read once allocates nothing of vocabulary size.  Where the array
    would not be kept, the ids are hashed and nothing is recorded."""
    key = (seed, int(vocab_size))
    if key in _cache:
        return bits_of(seed, keyed_bits(seed, vocab_size), ids).view(np.uint8)
    if _ENTRY_BYTES + vocab_size <= CACHE_BYTES:
        _keep(key, None)
    return token_bits(seed, ids.tolist())


def partition_bits(bk: BlockKey, vocab_size: int) -> np.ndarray:
    """Keyed bit per token id for the whole vocabulary (read-only array)."""
    bits = keyed_bits(bk.seed, vocab_size)
    bits_of(bk.seed, bits, np.flatnonzero(bits < 0))
    out = bits.view(np.uint8)
    out.setflags(write=False)
    return out


def diverse_coin(bk: BlockKey) -> int:
    """The keyed coin that picks a diverse block's codeword from its pair:
    SHA-256(seed_j || 0x04)[0] & 1."""
    return _digest(bk.seed, b"\x04")[0] & 1


@dataclass(frozen=True)
class BlockPlan:
    designated: tuple      # one codeword (payload plan) or a pair (diverse)
    target_bits: np.ndarray

    def matches(self, cw: np.ndarray) -> bool:
        return any(np.array_equal(cw, d) for d in self.designated)


def plan_block(key: SecretKey, j: int, payload: np.ndarray, code: BchCode,
               diverse: bool = False) -> BlockPlan:
    """Designated codeword(s) and embedded bit schedule for block j.

    The payload plan embeds encode(payload XOR r_j).  The diverse plan
    pairs that codeword with its offset by the maximum-weight codeword and
    picks one of the two by a keyed coin; the all-zero vector is never a
    target.
    """
    pairs, targets = plan_rows([derive_block_key(key, j, code.k)], payload,
                               code, diverse)
    return BlockPlan(tuple(pairs[0]), targets[0])


def plan_rows(bks: list, payload: np.ndarray, code: BchCode,
              diverse: bool) -> tuple:
    """plan_block of each block that a BlockKey of `bks` keys, as arrays:
    the designated codewords, (B, 1, n) or (B, 2, n) with the diverse
    pair, and the target bits, (B, n), every c1 from one encode_rows
    product."""
    payload = check_bits("payload", payload)
    if payload.shape != (code.k,):
        raise ContractError(f"payload must have length {code.k}")
    rand = np.array([bk.randomizer for bk in bks], dtype=np.uint8)
    c1 = encode_rows(code, payload ^ rand.reshape(len(bks), code.k))
    if not diverse:
        return c1[:, None], c1
    c2 = c1 ^ max_weight_codeword(code)
    # a zero partner (c1 = c_max) becomes c1
    np.copyto(c2, c1, where=~c2.any(axis=1, keepdims=True))
    pairs = np.stack([c1, c2], axis=1)
    targets = pairs[np.arange(len(bks)), [diverse_coin(bk) for bk in bks]]
    # a zero target (c1 degenerate, coin 0) becomes its partner, c_max
    np.copyto(targets, c2, where=~targets.any(axis=1, keepdims=True))
    return pairs, targets
