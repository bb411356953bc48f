"""Binary BCH codes: systematic encoder and bounded-radius decoder.

Bit conventions
---------------
A codeword is a length-n uint8 array ``c`` where ``c[i]`` is the coefficient
of x^(n-1-i).  Systematic encoding places the k message bits in ``c[:k]``,
so message recovery is a slice.
"""
from __future__ import annotations

import functools
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .gf import FieldGF2m


class ContractError(ValueError):
    """Raised when an operation precondition is violated."""


def check_setting(name: str, value, kind: type) -> None:
    """ContractError unless value is of kind: int (numpy's included),
    float (any real number), bool or a class such as BchCode; only a bool
    setting takes a bool."""
    known = {int: (numbers.Integral, "an integer"),
             float: (numbers.Real, "a number"),
             bool: (bool, "true or false")}
    abstract, what = known.get(kind, (kind, f"a {kind.__name__}"))
    if isinstance(value, bool) != (kind is bool) or \
            not isinstance(value, abstract):
        # a wrong key may be the secret itself: name only its type
        got = repr(value) if kind in known else type(value).__name__
        raise ContractError(f"{name} must be {what}, got {got}")


def check_seed(name: str, value) -> None:
    """ContractError unless value is an integer >= 0, as numpy's
    generators take it (a bool is no seed)."""
    check_setting(name, value, int)
    if value < 0:
        raise ContractError(f"{name} must be >= 0, got {value!r}")


def check_bits(name: str, bits) -> np.ndarray:
    """bits as a uint8 array; ContractError unless every entry is 0 or 1
    (a bit is never taken mod 2)."""
    bits = np.asarray(bits)
    if not ((bits == 0) | (bits == 1)).all():
        raise ContractError(f"{name} entries must be 0 or 1")
    return bits.astype(np.uint8, copy=False)


# Named instances: (n, k, t) -> extension degree m.  All are narrow-sense
# codes with designed distance 2t+1.
NAMED_CODES = {
    (15, 5, 3): 4,
    (31, 6, 7): 5,
    (31, 16, 3): 5,
    (63, 7, 15): 6,
    (63, 45, 3): 6,
    (127, 92, 5): 7,
}

# Rows that decode_rows decodes at once.  Its transient arrays grow with
# this, not with the batch: about 11(t+1)n bytes a row in the Chien search
# (int16 indices, the intp copy np.take makes of them, uint8 values).
DECODE_CHUNK = 256


def code_params(spec) -> tuple:
    """The (n, k, t) of a sequence of three integers; anything else, a
    string included, raises ContractError."""
    if not isinstance(spec, str):
        try:
            n, k, t = (operator.index(x) for x in spec)
            return n, k, t
        except (TypeError, ValueError):
            pass
    raise ContractError(f"code must be three integers n,k,t, got {spec!r}")


def _cyclotomic_closure(n: int, powers: range) -> set[int]:
    closure: set[int] = set()
    for i in powers:
        c = i % n
        while c not in closure:
            closure.add(c)
            c = (2 * c) % n
    return closure


def _generator_poly(fld: FieldGF2m, n: int, t: int) -> int:
    """Generator of the narrow-sense BCH code with designed distance 2t+1.

    Returns the polynomial as an int bitmask (bit d = coefficient of x^d).
    """
    roots = _cyclotomic_closure(n, range(1, 2 * t + 1))
    g = [1]  # ascending coefficients over GF(2^m)
    for r in sorted(roots):
        a = fld.alpha_pow(r)
        # g(x) *= (x + alpha^r)
        nxt = [0] * (len(g) + 1)
        for i, c in enumerate(g):
            nxt[i] ^= fld.mul(c, a)
            nxt[i + 1] ^= c
        g = nxt
    mask = 0
    for d, c in enumerate(g):
        if c not in (0, 1):
            raise AssertionError("generator polynomial not binary")
        if c:
            mask |= 1 << d
    return mask


def _poly_mod(value: int, divisor: int, divisor_deg: int) -> int:
    deg = value.bit_length() - 1
    while deg >= divisor_deg:
        value ^= divisor << (deg - divisor_deg)
        deg = value.bit_length() - 1
    return value


@dataclass(frozen=True)
class BchCode:
    """A named code, equal to and hashed as its (n, k, t).  Building one
    derives its field `fld`, its `generator` (a bitmask, degree n-k), the
    generator matrix and the decoder tables; an unknown (n, k, t) raises
    ContractError."""
    n: int
    k: int
    t: int

    def __post_init__(self):
        n, k, t = key = self.n, self.k, self.t
        if key not in NAMED_CODES:
            raise ContractError(f"unknown code instance {key}; "
                                f"supported: {sorted(NAMED_CODES)}")
        m = NAMED_CODES[key]
        fld = FieldGF2m(m)
        if n != (1 << m) - 1:
            raise AssertionError("code length inconsistent with field")
        gen = _generator_poly(fld, n, t)
        if gen.bit_length() - 1 != n - k:
            raise AssertionError(
                f"generator degree {gen.bit_length() - 1} != n-k for {key}")
        # row i: the systematic codeword of the message with bit i alone set
        units = [1 << (n - 1 - i) for i in range(k)]
        gen_rows = np.array([int_to_bits(x ^ _poly_mod(x, gen, n - k), n)
                             for x in units], dtype=np.float32)
        period = fld.period
        # alpha^{i*(n-1-pos)} of the odd i < 2t at every position
        odd = np.array([[fld.alpha_pow(i * (n - 1 - pos)) for pos in range(n)]
                        for i in range(1, 2 * t, 2)])
        chien = np.array([(period - j) % period for j in range(n)],
                         dtype=np.int64)   # the exponents -j mod period
        planes = (odd[:, :, None] >> np.arange(m)) & 1
        self.__dict__.update(
            generator=gen, fld=fld,
            _gen_rows=gen_rows,   # (k, n) float32 generator matrix
            # decode_rows' tables: per position the bits of S_1, S_3, ...,
            # S_2t-1, bit b of S_2i+1 in column i*m + b, (n, t*m) float32;
            # the exponents -l*j mod period of every locator degree l <= t
            # at every j < n, (t+1, n) int16; and alpha^i for i < 2*period
            # followed by zeros, read at 2*period for a zero coefficient,
            # uint8
            _odd_planes=planes.transpose(1, 0, 2).reshape(n, t * m)
            .astype(np.float32),
            _chien_pow=(np.arange(t + 1)[:, None] * chien
                        % period).astype(np.int16),
            _exp0=np.concatenate([fld.exp, np.zeros(period)])
            .astype(np.uint8))

    @staticmethod
    @functools.cache
    def make(n: int, k: int, t: int) -> "BchCode":
        """The one BchCode of each (n, k, t), built on first use."""
        return BchCode(n, k, t)


def bits_to_int(bits: np.ndarray) -> int:
    """Pack a bit array, bits[0] most significant."""
    bits = np.asarray(bits, dtype=np.uint8)
    return int.from_bytes(np.packbits(bits).tobytes(), "big") \
        >> (-len(bits) % 8)


def int_to_bits(value: int, width: int) -> np.ndarray:
    """The low `width` bits of value, most significant first."""
    size = -(-width // 8)
    raw = (value & ((1 << width) - 1)).to_bytes(size, "big")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[8 * size - width:]


def encode_rows(code: BchCode, msgs: np.ndarray) -> np.ndarray:
    """(R, n) systematic codewords of the rows of an (R, k) bit matrix:
    one product with the generator matrix, taken mod 2."""
    msgs = check_bits("message", msgs)
    if msgs.ndim != 2 or msgs.shape[1] != code.k:
        raise ContractError(f"messages must be rows of length {code.k}")
    # a sum of at most k <= 92 ones is exact in float32
    return (msgs @ code._gen_rows).astype(np.uint8) & 1


def encode(code: BchCode, msg: np.ndarray) -> np.ndarray:
    """Systematic encoding; message bits end up in codeword[:k]."""
    msg = np.asarray(msg)
    if msg.shape != (code.k,):
        raise ContractError(f"message must have length {code.k}")
    return encode_rows(code, msg[None])[0]


def syndromes(code: BchCode, received: np.ndarray) -> np.ndarray:
    """All 2t syndromes S_1 ... S_2t of a word, from its odd syndromes."""
    odd = _odd_syndromes(code, check_bits("word", received)[None])
    return np.array(_all_syndromes(code.fld, odd[0].tolist()),
                    dtype=np.int64)


def is_codeword(code: BchCode, bits: np.ndarray) -> bool:
    bits = np.asarray(bits, dtype=np.uint8)[None]
    return bits.shape == (1, code.n) and not _odd_syndromes(code, bits).any()


def message_of(code: BchCode, cw: np.ndarray) -> np.ndarray:
    cw = np.asarray(cw, dtype=np.uint8)
    if not is_codeword(code, cw):
        raise ContractError("input is not a codeword")
    return cw[:code.k].copy()


def _odd_syndromes(code: BchCode, words: np.ndarray) -> np.ndarray:
    """(R, t) odd syndromes S_1, S_3, ..., S_2t-1 of the rows of an (R, n)
    uint8 matrix: one product with the bit planes, taken mod 2."""
    planes = (words @ code._odd_planes).astype(np.uint8) & 1
    return np.packbits(planes.reshape(len(words), code.t, code.fld.m),
                       axis=-1, bitorder="little")[..., 0]


def _all_syndromes(fld: FieldGF2m, odd: list[int]) -> list[int]:
    """S_1 ... S_2t of a binary word from its t odd syndromes S_1, S_3,
    ..., S_2t-1: S_2j = S_j^2."""
    exp, log = fld._exp_l, fld._log_l
    S = [0] * (2 * len(odd))
    S[0::2] = odd
    for j in range(1, len(odd) + 1):
        s = S[j - 1]
        S[2 * j - 1] = exp[2 * log[s]] if s else 0
    return S


def _binary_berlekamp_massey(fld: FieldGF2m, odd: list[int]):
    """The error locator of a binary word (ascending coefficients, no
    trailing zeros) from its t odd syndromes S_1, S_3, ..., S_2t-1, or None
    when its LFSR length exceeds t or differs from its degree: more than
    t errors.  Berlekamp-Massey over S_1 ... S_2t, where S_2i = S_i^2, and
    then the discrepancy of every step N odd (0-based) is zero, so only
    the t steps N even are run."""
    exp, log, period = fld._exp_l, fld._log_l, fld.period
    S = _all_syndromes(fld, odd)
    C = [1]
    B = [1]
    L = 0
    shift = 1
    b = 1
    for N in range(0, len(S), 2):
        d = S[N]
        for i in range(1, min(L + 1, len(C))):
            if C[i] and S[N - i]:
                d ^= exp[log[C[i]] + log[S[N - i]]]
        if d:
            coef = log[d] - log[b]             # the log of d / b
            if coef < 0:
                coef += period
            update_from = C[:]
            need = shift + len(B)
            if len(C) < need:
                C += [0] * (need - len(C))
            for i, bi in enumerate(B, shift):
                if bi:
                    C[i] ^= exp[coef + log[bi]]
            if 2 * L <= N:
                L = N + 1 - L
                B = update_from
                b = d
                shift = 0
        shift += 2                              # this step and step N + 1
    while len(C) > 1 and C[-1] == 0:
        C.pop()
    return C if L <= len(odd) and len(C) - 1 == L else None


def safe_decode(code: BchCode, received: np.ndarray):
    """Bounded-radius decoding of one word: decode_rows of one row.

    Returns (codeword, distance) when a codeword lies within Hamming
    distance t of the input, otherwise None.  Never corrects beyond t.
    """
    received = np.asarray(received)
    if received.shape != (code.n,):
        raise ContractError(f"received word must have length {code.n}")
    return decode_rows(code, received[None])[0]


def decode_rows(code: BchCode, words: np.ndarray) -> list:
    """Bounded-radius decoding of every row of an (R, n) bit matrix: per
    row (codeword, distance) when a codeword lies within Hamming distance
    t, otherwise None.  DECODE_CHUNK rows at a time: one syndrome product
    per chunk, a scalar binary Berlekamp-Massey per row with a nonzero
    syndrome, one Chien search over every locator of degree L <= t, and
    the syndrome product again on the corrected rows.  A decoded row is a
    view of a fresh array."""
    words = check_bits("word", words)
    if words.ndim != 2 or words.shape[1] != code.n:
        raise ContractError(f"rows must have length {code.n}")
    out = []
    for a in range(0, len(words), DECODE_CHUNK):
        out += _decode_chunk(code, words[a:a + DECODE_CHUNK])
    return out


def _decode_chunk(code: BchCode, words: np.ndarray) -> list:
    fld, t = code.fld, code.t
    log, zero = fld._log_l, 2 * fld.period
    fixed = words.copy()
    result = [None] * len(words)
    synd = _odd_syndromes(code, words)
    nonzero = synd.any(axis=1)
    for i in np.flatnonzero(~nonzero).tolist():
        result[i] = fixed[i], 0
    rows, degrees, locators = [], [], []     # locators as logs, zero -> 2p
    for i, odd in zip(np.flatnonzero(nonzero).tolist(),
                      synd[nonzero].tolist()):
        C = _binary_berlekamp_massey(fld, odd)
        if C is not None:
            rows.append(i)
            degrees.append(len(C) - 1)
            locators.append([log[c] if c else zero for c in C]
                            + [zero] * (t + 1 - len(C)))
    if not rows:
        return result
    # Chien search: C(alpha^-j) of every locator at every j at once
    vals = np.bitwise_xor.reduce(np.take(code._exp0, np.array(
        locators, dtype=np.int16)[:, :, None] + code._chien_pow), axis=1)
    roots = vals == 0
    rooted = roots.sum(axis=1) == degrees
    rows, degrees = np.array(rows)[rooted], np.array(degrees)[rooted]
    fixed[rows] ^= roots[rooted, ::-1]
    clean = ~_odd_syndromes(code, fixed[rows]).any(axis=1)
    for i, L in zip(rows[clean].tolist(), degrees[clean].tolist()):
        result[i] = fixed[i], L
    return result


def max_weight_codeword(code: BchCode) -> np.ndarray:
    """Codeword of maximal Hamming weight: the all-ones word.

    A narrow-sense BCH code of length 2^m - 1 has no root alpha^0 (0 is
    never in the cyclotomic closure of 1..2t), so (x+1) does not divide
    g(x), g(1) = 1 and the all-ones vector is a codeword of weight n.
    """
    return np.ones(code.n, dtype=np.uint8)


def all_codewords(code: BchCode) -> np.ndarray:
    """(2^k, n) matrix of every codeword; only sensible for small k."""
    if code.k > 16:
        raise ValueError("too many codewords to enumerate")
    values = np.arange(1 << code.k)[:, None]
    return encode_rows(code, values >> np.arange(code.k - 1, -1, -1) & 1)
