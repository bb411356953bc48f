"""Closed-form quantities, checked against independent oracles where
feasible and against published reference values."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from blockmark.bch import ContractError
from blockmark.bounds import (BoundNotApplicable, BoundParams, agg_fpr_bound,
                              ball_volume, blind_fpr_bound, delta_for_target,
                              entropy_bound, entropy_q, fnr_bound, fpr_any,
                              kl_bernoulli, p0, p0_shift, p1, p_emb,
                              param_search, report, s_max_guideline)


def test_ball_volume_exhaustive_oracle():
    """Count vectors within distance t of the origin by enumeration."""
    for n, t in [(6, 2), (8, 3), (10, 4)]:
        count = sum(1 for v in itertools.product((0, 1), repeat=n)
                    if sum(v) <= t)
        assert ball_volume(2, n, t) == count
    # ternary: distance counts differing coordinates, q-1 choices each
    count3 = sum(1 for v in itertools.product((0, 1, 2), repeat=5)
                 if sum(x != 0 for x in v) <= 2)
    assert ball_volume(3, 5, 2) == count3


def test_ball_volume_reference_values():
    assert ball_volume(2, 31, 7) == 3572224
    assert ball_volume(2, 15, 3) == 576
    assert ball_volume(2, n=31, t=0) == 1
    assert ball_volume(2, 31, 31) == 2 ** 31


def test_ball_volume_contracts():
    with pytest.raises(ValueError):
        ball_volume(1, 10, 2)
    with pytest.raises(ValueError):
        ball_volume(2, 10, 11)


def test_fpr_reference_values():
    assert fpr_any(2, 31, 6, 7) == Fraction(3572224, 2 ** 25)
    assert round(float(fpr_any(2, 31, 6, 7)), 3) == 0.106
    assert abs(float(p0(2, 31, 7)) - 1.6634e-3) / 1.6634e-3 < 1e-4
    assert abs(float(p0(2, 63, 3)) - 4.52e-15) / 4.52e-15 < 0.01
    assert abs(float(p0(2, 127, 5)) - 1.56e-30) / 1.56e-30 < 0.01


def test_p0_shift_models():
    base = p0(2, 31, 7)
    union = p0_shift(base, 21, "union")
    indep = p0_shift(base, 21, "independent")
    # the union value equals the first-order expansion S*p0 of the
    # independent model and matches the published 3.49e-2 figure; the
    # exact independent value sits (S-1)*p0/2 ~ 1.7% below it
    assert abs(union - 3.49e-2) / 3.49e-2 < 0.005
    assert abs(indep - 3.49e-2) / 3.49e-2 < 0.02
    assert indep < union
    assert p0_shift(Fraction(1, 2), 21, "union") == 1.0
    with pytest.raises(ValueError):
        p0_shift(base, 4, "union")
    with pytest.raises(ValueError):
        p0_shift(base, 3, "geometric")


def test_entropy_function():
    assert entropy_q(2, 0.5) == pytest.approx(1.0)
    assert entropy_q(2, 0.0) == 0.0
    assert entropy_q(4, 0.75) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        entropy_q(2, 0.6)


def test_entropy_bound_dominates_p0():
    for n, t in [(31, 7), (63, 15), (127, 5)]:
        assert float(p0(2, n, t)) <= entropy_bound(2, n, t)


def test_kl_bernoulli():
    assert kl_bernoulli(0.5, 0.5) == 0.0
    assert kl_bernoulli(0.0, 0.3) == pytest.approx(-math.log(0.7))
    assert kl_bernoulli(1.0, 0.3) == pytest.approx(-math.log(0.3))
    assert kl_bernoulli(0.4, 0.1) > 0


def test_agg_fpr_bound_window():
    val = agg_fpr_bound(6, 1 / 3, 0.0349)
    assert 0.0 < val < 1.0
    with pytest.raises(BoundNotApplicable):
        agg_fpr_bound(6, 0.01, 0.0349)  # theta below p
    assert blind_fpr_bound(6, 6, 1 / 3, 0.0349) == \
        pytest.approx(min(1.0, 64 * val))


def test_p_emb_reference_values():
    assert p_emb(2.0, 0.5) == pytest.approx(0.1192, abs=5e-5)
    assert p_emb(2.5, 0.5) == pytest.approx(0.0759, abs=5e-5)
    assert p_emb(3.0, 0.5) == pytest.approx(0.0474, abs=5e-5)
    assert p_emb(0.0, 0.5) == pytest.approx(0.5)
    assert p_emb(50.0, 0.5) < 1e-20


def test_p_emb_domain():
    """p_emb takes every delta but NaN: where e^delta is a float it is the
    closed form itself, bit for bit, a negative delta included; beyond
    that it falls to its limit 0 without an OverflowError, where it used
    to raise one.  A report, whose delta is an embedding's, refuses a NaN
    or negative delta, where it used to report p_emb NaN or near 1."""
    for mass in (0.05, 0.5, 0.95):
        for delta in (-50.0, -5.0, 0.0, 1e-9, 2.5, 50.0, 700.0, 709.78):
            assert p_emb(delta, mass) == \
                (1.0 - mass) / (mass * math.exp(delta) + 1.0 - mass)
        values = [p_emb(d, mass) for d in (709.78, 709.79, 710.0, 745.0,
                                           746.0, 1e4, math.inf)]
        assert values == sorted(values, reverse=True)
        assert values[1] > 0.0 and values[-3:] == [0.0, 0.0, 0.0]
    with pytest.raises(ContractError, match="delta must be a number"):
        p_emb(math.nan, 0.5)
    for bad in (-5.0, -1e-12, math.nan):
        with pytest.raises(ContractError, match="delta must be >= 0"):
            report(BoundParams(delta=bad))
    assert report(BoundParams(delta=1000.0))["p_emb"] == 0.0


@given(st.floats(0.01, 0.49), st.floats(0.05, 0.95))
def test_delta_inverts_p_emb(p_star, mass):
    delta = delta_for_target(p_star, mass)
    assert p_emb(delta, mass) == pytest.approx(p_star, rel=1e-9)


def test_p1_binomial_oracle():
    rng = np.random.default_rng(0)
    n, t, p = 31, 7, 0.12
    draws = rng.binomial(n, p, size=200000)
    emp = float(np.mean(draws <= t))
    assert p1(n, t, p) == pytest.approx(emp, abs=0.005)
    assert p1(31, 31, 0.9) == pytest.approx(1.0)
    assert p1(31, 0, 0.0) == pytest.approx(1.0)


def test_p1_guideline_uses_radius_three():
    # the published 0.79/0.73 guideline pair corresponds to decode radius 3
    assert p1(31, 3, 0.0759) == pytest.approx(0.79, abs=0.005)
    assert p1(31, 3, 0.0859) == pytest.approx(0.73, abs=0.005)


def test_fnr_bound_window():
    assert fnr_bound(6, 0.5, 0.99) < 1e-3
    with pytest.raises(BoundNotApplicable):
        fnr_bound(6, 0.9, 0.5)


def test_s_max_guideline():
    assert s_max_guideline(1.5, 31, 0.2) == 10
    assert s_max_guideline(1.0, 31, 0.0) == 0
    with pytest.raises(ValueError):
        s_max_guideline(0.5, 31, 0.1)


def test_param_search_meets_targets():
    best = param_search(alpha=1e-3, beta=1e-3, p_att=0.0)
    assert best is not None
    ps = p0_shift(p0(2, best.n, best.t), best.S, "independent")
    p1v = p1(best.n, best.t, p_emb(best.delta, best.mass))
    assert blind_fpr_bound(best.k, best.M, best.theta, ps) <= 1e-3
    assert fnr_bound(best.M, best.theta, p1v) <= 1e-3


def test_report_is_json_friendly():
    import json
    rep = report(BoundParams())
    json.dumps(rep)
    assert rep["ball_volume"] == 3572224
    assert rep["p0_exact"].startswith("6977/")
