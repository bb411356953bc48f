"""Arithmetic over GF(2^m) via log/antilog tables."""
from __future__ import annotations

import numpy as np

# Fixed primitive polynomials, one per extension degree.
PRIMITIVE_POLYS = {
    4: 0b10011,       # x^4 + x + 1
    5: 0b100101,      # x^5 + x^2 + 1
    6: 0b1000011,     # x^6 + x + 1
    7: 0b10001001,    # x^7 + x^3 + 1
    8: 0b100011101,   # x^8 + x^4 + x^3 + x^2 + 1
}


class FieldGF2m:
    """GF(2^m) with precomputed exp/log tables.

    Elements are ints in [0, 2^m).  Addition is XOR; multiplication goes
    through the discrete log of the primitive element alpha.
    """

    def __init__(self, m: int):
        if m not in PRIMITIVE_POLYS:
            raise ValueError(f"unsupported extension degree m={m}; "
                             f"supported: {sorted(PRIMITIVE_POLYS)}")
        primitive_poly = PRIMITIVE_POLYS[m]
        self.m = m
        self.order = 1 << m
        self.period = self.order - 1

        exp = np.zeros(2 * self.period, dtype=np.int64)
        log = np.zeros(self.order, dtype=np.int64)
        x = 1
        for i in range(self.period):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & self.order:
                x ^= primitive_poly
        if x != 1:
            raise ValueError(f"0x{primitive_poly:x} is not primitive for m={m}")
        exp[self.period:] = exp[:self.period]
        self.exp = exp
        self.log = log
        # plain lists are faster for scalar lookups in the decoder hot path
        self._exp_l = exp.tolist()
        self._log_l = log.tolist()

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp_l[self._log_l[a] + self._log_l[b]]

    def alpha_pow(self, i: int) -> int:
        return self._exp_l[i % self.period]
