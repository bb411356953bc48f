"""Closed-form false-positive / false-negative quantities for the
designated-codeword detector: exact Hamming-ball volumes, single-block
and shift-searched FPR, Chernoff aggregates, soft-embedding error, block
success probability, and parameter selection helpers.

Volumes and single-block rates use exact big-integer / rational
arithmetic; aggregate bounds use natural-log KL in float space.  A
rational too small for a float reads as a subnormal or 0.0.  An argument
outside a function's domain raises ContractError.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .bch import NAMED_CODES, ContractError


class BoundNotApplicable(ValueError):
    """The stated validity window of a bound is violated."""


@dataclass
class BoundParams:
    q: int = 2
    n: int = 31
    k: int = 6
    t: int = 7
    s_max: int = 5
    theta: float = 1 / 6
    M: int = 6
    delta: float = 2.5
    mass: float = 0.5
    p_att: float = 0.0

    @property
    def S(self) -> int:
        return 2 * self.s_max + 1


def ball_volume(q: int, n: int, t: int) -> int:
    """Number of length-n q-ary vectors within Hamming distance t."""
    if q < 2 or n < 1 or not 0 <= t <= n:
        raise ContractError(f"invalid ball parameters q={q}, n={n}, t={t}")
    return sum(math.comb(n, i) * (q - 1) ** i for i in range(t + 1))


def fpr_any(q: int, n: int, k: int, t: int) -> Fraction:
    """Single-block FPR of the any-codeword presence test."""
    return Fraction(q ** k * ball_volume(q, n, t), q ** n)


def p0(q: int, n: int, t: int) -> Fraction:
    """Single-block FPR of the designated-codeword test."""
    return Fraction(ball_volume(q, n, t), q ** n)


def p0_shift(p0_value, S: int, model: str = "union") -> float:
    """FPR after searching S candidate offsets.

    union: min(1, S*p0).  independent: 1 - (1 - p0)^S, treating the S
    shifted decoding events as independent.
    """
    if S < 1 or S % 2 == 0:
        raise ContractError(f"S must be odd and >= 1, got {S}")
    p = float(p0_value)
    if model == "union":
        return min(1.0, S * p)
    if model == "independent":
        return -math.expm1(S * math.log1p(-p))
    raise ContractError(f"unknown shift model {model!r}")


def entropy_q(q: int, x: float) -> float:
    """q-ary entropy function in base q."""
    if x == 0.0:
        return 0.0
    if not 0.0 < x <= (q - 1) / q:
        raise ContractError("entropy argument out of range")
    lq = math.log(q)
    return (x * math.log(q - 1) / lq
            - x * math.log(x) / lq
            - (1 - x) * math.log(1 - x) / lq)


def entropy_bound(q: int, n: int, t: int) -> float:
    """Upper bound on p0 via the volume bound V_q <= q^(n*H_q(t/n))."""
    h = entropy_q(q, t / n)
    return q ** (-n * (1.0 - h))


def kl_bernoulli(a: float, b: float) -> float:
    """Bernoulli KL divergence D(a || b), natural log."""
    if not (0.0 <= a <= 1.0 and 0.0 < b < 1.0):
        raise ContractError("invalid KL arguments")
    out = 0.0
    if a > 0.0:
        out += a * math.log(a / b)
    if a < 1.0:
        out += (1 - a) * math.log((1 - a) / (1 - b))
    return out


def agg_fpr_bound(M: int, theta: float, p: float) -> float:
    """Chernoff bound on Pr[match ratio >= theta] under H0.

    Valid only for p < theta < 1; outside that window the bound does not
    apply and BoundNotApplicable is raised.
    """
    if not p < theta < 1.0:
        raise BoundNotApplicable(f"requires p < theta < 1 (p={p}, theta={theta})")
    return math.exp(-M * kl_bernoulli(theta, p))


def blind_fpr_bound(k: int, M: int, theta: float, p: float) -> float:
    """Aggregate FPR bound with the 2^k blind-estimation correction."""
    return min(1.0, 2 ** k * agg_fpr_bound(M, theta, p))


def p_emb(delta: float, mass: float) -> float:
    """Per-symbol soft-embedding error (1-m) / (m*e^delta + 1-m), 0 at
    delta = inf.  A negative delta is in its domain: delta_for_target
    returns one where the mass alone keeps the error under its target."""
    if not 0.0 < mass < 1.0:
        raise ContractError(f"mass must lie in (0, 1), got {mass}")
    if math.isnan(delta):
        raise ContractError(f"delta must be a number, got {delta}")
    try:
        return (1.0 - mass) / (mass * math.exp(delta) + 1.0 - mass)
    except OverflowError:                 # e^delta beyond a float
        small = math.exp(-delta)
        return (1.0 - mass) * small / (mass + (1.0 - mass) * small)


def delta_for_target(p_star: float, mass: float) -> float:
    """Smallest bias guaranteeing embedding error <= p_star."""
    if not 0.0 < p_star < 0.5:
        raise ContractError("target error must lie in (0, 1/2)")
    logit = math.log(mass / (1.0 - mass))
    return math.log((1.0 - p_star) / p_star) - logit


def p1(n: int, t: int, p_tot: float) -> float:
    """Single-block decode success: Pr[Bin(n, p_tot) <= t]."""
    if not 0.0 <= p_tot <= 1.0:
        raise ContractError("p_tot must lie in [0, 1]")
    total = math.fsum(math.comb(n, i) * p_tot ** i * (1 - p_tot) ** (n - i)
                      for i in range(t + 1))
    return min(1.0, max(0.0, total))


def fnr_bound(M: int, theta: float, p1_value: float) -> float:
    """Chernoff bound on Pr[match ratio < theta] under H1 (theta < p1)."""
    if not 0.0 < theta < p1_value:
        raise BoundNotApplicable(
            f"requires 0 < theta < p1 (theta={theta}, p1={p1_value})")
    if p1_value >= 1.0:
        return 0.0   # success is certain, the lower tail is empty
    return math.exp(-M * kl_bernoulli(theta, p1_value))


def s_max_guideline(alpha: float, n: int, p_insdel: float) -> int:
    """Shift budget covering expected insertion/deletion drift with a
    safety factor alpha."""
    if alpha < 1.0 or not 0.0 <= p_insdel <= 1.0:
        raise ContractError("invalid guideline parameters")
    return math.ceil(alpha * n * p_insdel)


# The grid that param_search scans.
SEARCH_DELTAS = (1.5, 2.0, 2.5, 3.0, 6.0)
SEARCH_S_MAX = (0, 1, 3, 5, 10)
SEARCH_MAX_BLOCKS = 64


def param_search(alpha: float, beta: float, p_att: float,
                 mass: float = 0.5) -> BoundParams | None:
    """Smallest-M configuration over the shipped code instances and the
    SEARCH_* grid meeting blind-FPR <= alpha and FNR <= beta; ties break
    toward smaller n, then smaller delta."""
    best = None
    for (n, k, t), _m in sorted(NAMED_CODES.items()):
        for delta, s_max in itertools.product(SEARCH_DELTAS, SEARCH_S_MAX):
            pe = p_emb(delta, mass)
            ptot = min(1.0, pe + p_att)
            ps = p0_shift(p0(2, n, t), 2 * s_max + 1, "independent")
            p1v = p1(n, t, ptot)
            for M in range(1, SEARCH_MAX_BLOCKS + 1):
                for tau in range(1, M + 1):
                    theta = tau / M
                    if theta >= 1.0 or not ps < theta < p1v:
                        continue
                    if blind_fpr_bound(k, M, theta, ps) > alpha:
                        continue
                    if fnr_bound(M, theta, p1v) > beta:
                        continue
                    cand = (M, n, delta)
                    if best is None or cand < (best.M, best.n, best.delta):
                        best = BoundParams(q=2, n=n, k=k, t=t, s_max=s_max,
                                           theta=theta, M=M, delta=delta,
                                           mass=mass, p_att=p_att)
                    break  # larger tau only loosens FNR validity
    return best


def report(params: BoundParams) -> dict:
    """All closed-form quantities for one parameter set, JSON-friendly.
    Its delta is an embedding's, so it must be >= 0, as EmbedConfig's."""
    if not params.delta >= 0.0:            # NaN fails this too
        raise ContractError(f"delta must be >= 0, got {params.delta}")
    q, n, k, t = params.q, params.n, params.k, params.t
    p0_exact = p0(q, n, t)
    ps_union = p0_shift(p0_exact, params.S, "union")
    ps_indep = p0_shift(p0_exact, params.S, "independent")
    pe = p_emb(params.delta, params.mass)
    ptot = min(1.0, pe + params.p_att)
    p1v = p1(n, t, ptot)
    out = {
        "ball_volume": ball_volume(q, n, t),
        "fpr_any": float(fpr_any(q, n, k, t)),
        "p0": float(p0_exact),
        "p0_exact": f"{p0_exact.numerator}/{p0_exact.denominator}",
        "p0_shift_union": ps_union,
        "p0_shift_independent": ps_indep,
        "entropy_bound": entropy_bound(q, n, t),
        "p_emb": pe,
        "p_tot": ptot,
        "p1": p1v,
    }
    try:
        out["agg_fpr_bound"] = agg_fpr_bound(params.M, params.theta, ps_indep)
        out["blind_fpr_bound"] = blind_fpr_bound(k, params.M, params.theta,
                                                 ps_indep)
    except BoundNotApplicable as exc:
        out["agg_fpr_bound"] = None
        out["blind_fpr_bound"] = None
        out["agg_fpr_note"] = str(exc)
    try:
        out["fnr_bound"] = fnr_bound(params.M, params.theta, p1v)
    except BoundNotApplicable as exc:
        out["fnr_bound"] = None
        out["fnr_note"] = str(exc)
    return out
