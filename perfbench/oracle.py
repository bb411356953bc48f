"""Detection oracle that shares no code with the package.

Keyed bits are hashed here with hashlib SHA-256 following the README
"Conventions" (0x01 block seed, 0x02 token bit, 0x03 randomizer; LE64
block index, LE32 token id).  The BCH generator polynomial is rebuilt from
minimal polynomials over GF(2^m).  For k <= 7 the oracle lists the whole
codebook and re-derives decoding, the blind vote, designated matching and
the offset search by brute force; for larger k it can still say how far a
block lies from its designated codeword.
"""
from __future__ import annotations

import hashlib
import struct
from fractions import Fraction

import numpy as np

# Primitive polynomials of the package's fields (standard table entries).
PRIMITIVE = {4: 0b10011, 5: 0b100101, 6: 0b1000011, 7: 0b10001001}

PINNED_SEED0 = ("d48d69a9fa153796eabdf32088d1e539"
                "6f630aed4ab182e7e167f770ad6439ac")
PINNED_F0 = (0, 0, 1, 1, 1, 0, 1, 0)
PINNED_R0 = (0, 1, 1, 1, 1, 0)


class OracleError(AssertionError):
    """The oracle failed its own self-check."""


# --------------------------------------------------------------- keying

def block_seed(key: bytes, j: int) -> bytes:
    return hashlib.sha256(key + b"\x01" + struct.pack("<Q", j)).digest()


def randomizer(seed: bytes, k: int) -> int:
    """First k bits of SHA-256(seed || 0x03), MSB first, as an int."""
    return int.from_bytes(hashlib.sha256(seed + b"\x03").digest(), "big") \
        >> (256 - k)


def token_bit(seed: bytes, v: int) -> int:
    return hashlib.sha256(seed + b"\x02" + struct.pack("<I", v)).digest()[0] & 1


def check_pinned_vectors() -> None:
    seed0 = block_seed(bytes(32), 0)
    if seed0.hex() != PINNED_SEED0:
        raise OracleError("seed_0 differs from the pinned vector")
    if tuple(token_bit(seed0, v) for v in range(8)) != PINNED_F0:
        raise OracleError("f_0(0..7) differs from the pinned vector")
    r0 = randomizer(seed0, 6)
    if tuple((r0 >> (5 - i)) & 1 for i in range(6)) != PINNED_R0:
        raise OracleError("r_0[:6] differs from the pinned vector")


class KeyBits:
    """Memoised block seeds, randomizers and token bits of one key."""

    def __init__(self, key: bytes):
        self.key = key
        self._seeds: dict[int, bytes] = {}
        self._bits: dict[tuple[int, int], int] = {}

    def seed(self, j: int) -> bytes:
        s = self._seeds.get(j)
        if s is None:
            s = self._seeds[j] = block_seed(self.key, j)
        return s

    def bit(self, j: int, v: int) -> int:
        b = self._bits.get((j, v))
        if b is None:
            b = self._bits[(j, v)] = token_bit(self.seed(j), v)
        return b

    def randomizer(self, j: int, k: int) -> int:
        return randomizer(self.seed(j), k)


def extract(tokens, kb: KeyBits, n: int, offset: int) -> np.ndarray:
    """Stream bits at an offset: token idx lands at position idx - offset;
    positions no token reaches stay 0."""
    T = len(tokens)
    U = T - offset
    if U <= 0:
        return np.zeros(0, dtype=np.uint8)
    out = np.zeros(U, dtype=np.uint8)
    for idx in range(max(0, offset), T):
        p = idx - offset
        out[p] = kb.bit(p // n, int(tokens[idx]))
    return out


# ------------------------------------------------------------------ BCH

def _gf_mul(a: int, b: int, m: int, poly: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= poly
    return out


def _poly_mul_gf(p, q, m, poly):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] ^= _gf_mul(a, b, m, poly)
    return out


def generator_poly(n: int, t: int) -> int:
    """Narrow-sense BCH generator as a bitmask (bit d = coeff of x^d)."""
    m = n.bit_length()
    if (1 << m) - 1 != n:
        raise OracleError(f"n={n} is not 2^m - 1")
    poly = PRIMITIVE[m]
    alpha_pow = [1]
    for _ in range(n - 1):
        alpha_pow.append(_gf_mul(alpha_pow[-1], 2, m, poly))
    roots = set()
    for i in range(1, 2 * t + 1):
        c = i % n
        while c not in roots:
            roots.add(c)
            c = 2 * c % n
    g = [1]
    for r in sorted(roots):
        g = _poly_mul_gf(g, [alpha_pow[r], 1], m, poly)
    if any(c not in (0, 1) for c in g):
        raise OracleError("generator polynomial is not binary")
    return sum(1 << d for d, c in enumerate(g) if c)


class Code:
    """Systematic binary BCH code; codeword bit i is the coefficient of
    x^(n-1-i), message bits sit in codeword[:k]."""

    def __init__(self, n: int, k: int, t: int):
        self.n, self.k, self.t = n, k, t
        self.gen = generator_poly(n, t)
        if self.gen.bit_length() - 1 != n - k:
            raise OracleError(f"generator degree != n-k for {(n, k, t)}")
        self._book = None

    def encode_int(self, msg: int) -> int:
        r = self.n - self.k
        shifted = msg << r
        rem = shifted
        while rem.bit_length() > r:
            rem ^= self.gen << (rem.bit_length() - 1 - r)
        return shifted | rem

    def encode(self, msg: int) -> np.ndarray:
        return int_bits(self.encode_int(msg), self.n)

    def codebook(self) -> np.ndarray:
        """(2^k, n) codewords, row v encodes message v; k <= 7 only.
        Checked once to be linear, systematic and of distance >= 2t+1."""
        if self._book is None:
            if self.k > 7:
                raise OracleError("codebook listing needs k <= 7")
            ints = [self.encode_int(v) for v in range(1 << self.k)]
            members = set(ints)
            if len(members) != len(ints):
                raise OracleError("encoder is not injective")
            if any(a ^ b not in members for a in ints for b in ints):
                raise OracleError("codebook is not linear")
            if any(c >> (self.n - self.k) != v for v, c in enumerate(ints)):
                raise OracleError("codebook is not systematic")
            if min(bin(c).count("1") for c in ints[1:]) < 2 * self.t + 1:
                raise OracleError("minimum distance below 2t+1")
            self._book = np.stack([int_bits(c, self.n) for c in ints])
        return self._book

    def decode_msg(self, word: np.ndarray):
        """Message of the unique codeword within distance t, else None."""
        dist = (self.codebook() != word).sum(axis=1)
        v = int(np.argmin(dist))
        return v if dist[v] <= self.t else None


def int_bits(value: int, width: int) -> np.ndarray:
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)],
                    dtype=np.uint8)


def bits_int(bits) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


# ------------------------------------------------------------ detection

def offset_order(s_max: int):
    yield 0
    for s in range(1, s_max + 1):
        yield -s
        yield s


def detect(tokens, key: bytes, code: Code, s_max: int, tau: int,
           mode: str = "both", kb: KeyBits | None = None) -> dict:
    """Brute-force two-stage detector (non-diverse plans).

    Per offset: decode each complete block to the unique codeword within
    t, vote payload = message XOR r_j (ties to the smallest value), and
    count blocks equal to encode(payload XOR r_j) -- or, in shift_only
    mode, count decodable blocks.  The offset with the strictly highest
    matched/M wins, searched in the order 0, -1, +1, -2, +2, ...
    """
    kb = kb or KeyBits(key)
    n, k = code.n, code.k
    offsets = [0] if mode == "designated_only" else list(offset_order(s_max))
    best = None
    for s in offsets:
        bits = extract(tokens, kb, n, s)
        M = len(bits) // n
        if M == 0:
            continue
        msgs = [code.decode_msg(bits[j * n:(j + 1) * n]) for j in range(M)]
        votes: dict[int, int] = {}
        for j, v in enumerate(msgs):
            if v is not None:
                cand = v ^ kb.randomizer(j, k)
                votes[cand] = votes.get(cand, 0) + 1
        payload = min(votes, key=lambda c: (-votes[c], c)) if votes else None
        if mode == "shift_only":
            matched = sum(v is not None for v in msgs)
        elif payload is None:
            matched = 0
        else:
            matched = sum(v is not None and v == payload ^ kb.randomizer(j, k)
                          for j, v in enumerate(msgs))
        score = Fraction(matched, M)
        if best is None or score > best[0]:
            best = (score, s, matched, M, payload)
    if best is None:
        return {"payload": None, "best_offset": 0, "matched": 0,
                "block_count": 0}
    _, s, matched, M, payload = best
    return {"payload": payload if matched >= tau else None, "best_offset": s,
            "matched": matched, "block_count": M}


def designated_distances(tokens, key: bytes, code: Code, payload: int,
                         offset: int, kb: KeyBits | None = None) -> list[int]:
    """Hamming distance of each complete block at `offset` to its
    designated codeword encode(payload XOR r_j); works for any k."""
    kb = kb or KeyBits(key)
    n = code.n
    bits = extract(tokens, kb, n, offset)
    out = []
    for j in range(len(bits) // n):
        cw = code.encode(payload ^ kb.randomizer(j, code.k))
        out.append(int((bits[j * n:(j + 1) * n] != cw).sum()))
    return out


def target_bits(kb: KeyBits, code: Code, payload: int, count: int):
    """Embedded bit schedule: block j carries encode(payload XOR r_j)."""
    blocks = -(-count // code.n)
    return np.concatenate([code.encode(payload ^ kb.randomizer(j, code.k))
                           for j in range(blocks)])[:count]
