"""Field arithmetic checks for GF(2^m)."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from blockmark.gf import FieldGF2m, PRIMITIVE_POLYS


@pytest.mark.parametrize("m", sorted(PRIMITIVE_POLYS))
def test_exp_log_roundtrip(m):
    fld = FieldGF2m(m)
    for x in range(1, 1 << m):
        assert fld.exp[fld.log[x]] == x
    # exp table is periodic with period 2^m - 1
    assert fld.exp[0] == fld.exp[fld.period] == 1


@pytest.mark.parametrize("m", [4, 5])
def test_mul_matches_carryless_polynomial_product(m):
    fld = FieldGF2m(m)
    poly = PRIMITIVE_POLYS[m]

    def slow_mul(a, b):
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
        for d in range(acc.bit_length() - 1, m - 1, -1):
            if acc >> d & 1:
                acc ^= poly << (d - m)
        return acc

    rng = np.random.default_rng(0)
    for _ in range(300):
        a = int(rng.integers(0, 1 << m))
        b = int(rng.integers(0, 1 << m))
        assert fld.mul(a, b) == slow_mul(a, b)


@given(st.integers(1, 31), st.integers(1, 31), st.integers(1, 31))
def test_field_axioms_m5(a, b, c):
    fld = FieldGF2m(5)
    assert fld.mul(a, b) == fld.mul(b, a)
    assert fld.mul(a, fld.mul(b, c)) == fld.mul(fld.mul(a, b), c)
    # distributivity over XOR addition
    assert fld.mul(a, b ^ c) == fld.mul(a, b) ^ fld.mul(a, c)


def test_mul_by_zero():
    fld = FieldGF2m(4)
    for a in range(16):
        assert fld.mul(a, 0) == 0
        assert fld.mul(0, a) == 0


@pytest.mark.parametrize("m", [1, 2, 3, 9, 16, 17])
def test_unsupported_degree_rejected(m):
    """Only degrees with a shipped primitive polynomial are accepted."""
    with pytest.raises(ValueError):
        FieldGF2m(m)


def test_alpha_pow_wraps():
    fld = FieldGF2m(4)
    assert fld.alpha_pow(0) == 1
    assert fld.alpha_pow(15) == 1
    assert fld.alpha_pow(16) == fld.alpha_pow(1)
    assert fld.mul(fld.alpha_pow(-1), fld.alpha_pow(1)) == 1
