"""Acceptance gate: eleven end-to-end criteria covering codec exactness,
closed-form rates, embedding and channel laws, alignment recovery, bound
soundness, detector ablations, latency and determinism.

Each criterion prints one PASS/FAIL line (visible even under pytest
output capture) and asserts the same condition.
"""
import hashlib
import math
import sys
import time

import numpy as np
import pytest

from blockmark.attacks import AttackSpec, attack, delete_prefix, insert_prefix
from blockmark.bch import (BchCode, all_codewords, encode, int_to_bits,
                           safe_decode)
from blockmark.bounds import (agg_fpr_bound, ball_volume, fpr_any, p0,
                              p0_shift, p1, p_emb)
from blockmark.detector import DetectConfig, detect, extract_bits
from blockmark.generation import (ControlledMassSource, EmbedConfig,
                                  TokenSequence, UniformSource, embed,
                                  sample_unwatermarked)
from blockmark.harness import ExperimentSpec, ber_curve, latency_bench, \
    run_campaign, write_metrics
from blockmark.keying import SecretKey, plan_block

KEY = SecretKey(bytes(range(32)))
CODE = BchCode.make(31, 6, 7)


def _verdict(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}{tail}"
    print(line, flush=True)
    import conftest
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def _h0_text(rng, T, V=512):
    return TokenSequence(rng.integers(0, V, T), V)


def test_criterion_01_codec_exactness():
    t0 = time.perf_counter()
    code = BchCode.make(15, 5, 3)
    cws = all_codewords(code)

    # all weight <= 3 error patterns (incl. zero): 1 + 15 + 105 + 455 = 576
    patterns = [np.zeros(15, dtype=np.uint8)]
    idx = np.arange(15)
    for w in (1, 2, 3):
        from itertools import combinations
        for pos in combinations(idx, w):
            e = np.zeros(15, dtype=np.uint8)
            e[list(pos)] = 1
            patterns.append(e)
    assert len(patterns) == 576

    ok = True
    for cw in cws:
        for e in patterns:
            out = safe_decode(code, cw ^ e)
            if out is None or not np.array_equal(out[0], cw) \
                    or out[1] != int(e.sum()):
                ok = False
                break

    rng = np.random.default_rng(12)
    rejected = 0
    while rejected < 10000:
        word = rng.integers(0, 2, 15).astype(np.uint8)
        if int((cws ^ word).sum(axis=1).min()) > 3:  # oracle distance
            rejected += 1
            if safe_decode(code, word) is not None:
                ok = False
                break
    dt = time.perf_counter() - t0
    _verdict(1, "codec exactness", ok and dt < 10.0, f"{dt:.1f}s")


def test_criterion_02_exact_rates():
    checks = [
        ball_volume(2, 31, 7) == 3572224,
        round(float(fpr_any(2, 31, 6, 7)), 3) == 0.106,
        round(float(p0(2, 31, 7)), 7) == round(1.6634e-3, 7),
        abs(float(p0(2, 63, 3)) - 4.52e-15) / 4.52e-15 < 0.01,
        abs(float(p0(2, 127, 5)) - 1.56e-30) / 1.56e-30 < 0.01,
    ]
    # The published 3.49e-2 shifted-FPR figure is the first-order value
    # S*p0 of the independent-shift formula 1-(1-p0)^S (the two agree to
    # O(p0^2)).  The union model reproduces it to 0.1%; the exact
    # independent evaluation sits (S-1)*p0/2 = 1.7% below it.
    base = p0(2, 31, 7)
    checks.append(abs(p0_shift(base, 21, "union") - 3.49e-2) / 3.49e-2
                  < 0.005)
    checks.append(abs(p0_shift(base, 21, "independent") - 3.49e-2) / 3.49e-2
                  < 0.02)
    _verdict(2, "exact ball volumes and FPRs", all(checks),
             f"{sum(checks)}/{len(checks)} checks")


def test_criterion_03_soft_embedding_law():
    t0 = time.perf_counter()
    rows = ber_curve([2.0, 2.5, 3.0], 0.5, 100000, CODE, 512, 0)
    refs = {2.0: 0.1192, 2.5: 0.0759, 3.0: 0.0474}
    ok = True
    details = []
    for row in rows:
        if row["delta"] is None:
            ok &= 0.48 <= row["ber"] <= 0.52
            details.append(f"h0={row['ber']:.3f}")
        else:
            ref = refs[row["delta"]]
            se = math.sqrt(ref * (1 - ref) / 100000)
            ok &= abs(row["ber"] - ref) <= 3 * se
            details.append(f"d{row['delta']:g}={row['ber']:.4f}")
    dt = time.perf_counter() - t0
    _verdict(3, "soft-embedding error law", ok and dt < 30.0,
             ", ".join(details) + f", {dt:.1f}s")


def test_criterion_04_h0_calibration():
    t0 = time.perf_counter()
    N = 100000
    rng = np.random.default_rng(2026)
    bits = rng.integers(0, 2, (N, 31)).astype(np.uint8)
    payload = int_to_bits(13, 6)
    plans = [plan_block(KEY, j, payload, CODE).target_bits
             for j in range(64)]
    designated = 0
    naive = 0
    for i in range(N):
        out = safe_decode(CODE, bits[i])
        if out is not None:
            naive += 1
            if np.array_equal(out[0], plans[i % 64]):
                designated += 1
    p_des = float(p0(2, 31, 7))
    p_nai = 0.1065
    z_des = abs(designated / N - p_des) / math.sqrt(p_des * (1 - p_des) / N)
    z_nai = abs(naive / N - p_nai) / math.sqrt(p_nai * (1 - p_nai) / N)
    factor = naive / max(designated, 1)
    dt = time.perf_counter() - t0
    ok = z_des <= 3 and z_nai <= 3 and factor >= 50 and dt < 60.0
    _verdict(4, "H0 calibration", ok,
             f"designated={designated / N:.2e} (z={z_des:.1f}), "
             f"naive={naive / N:.4f} (z={z_nai:.1f}), "
             f"factor={factor:.0f}, {dt:.0f}s")


def test_criterion_05_alignment_recovery():
    s_max = 5
    payload = int_to_bits(45, 6)
    cfg_ok = DetectConfig(code=CODE, key=KEY, s_max=s_max, tau=3,
                          mode="both")

    recovered = True
    for trial in range(100):
        seq = embed(UniformSource(512), KEY, payload, EmbedConfig(
            code=CODE, delta=0.0, scheme="hard", token_count=200,
            rng_seed=trial))
        for r in range(1, s_max + 1):
            rep = detect(insert_prefix(seq, r, rng_seed=trial * 10 + r),
                         cfg_ok)
            recovered &= (rep.is_wm and rep.best_offset == r
                          and rep.payload is not None
                          and np.array_equal(rep.payload, payload))
            rep = detect(delete_prefix(seq, r), cfg_ok)
            recovered &= (rep.is_wm and rep.best_offset == -r
                          and rep.payload is not None
                          and np.array_equal(rep.payload, payload))

    cfg_strict = DetectConfig(code=CODE, key=KEY, s_max=s_max, tau=6,
                              mode="both")
    escaped = 0
    r_bad = s_max + 1
    for trial in range(500):
        seq = embed(UniformSource(512), KEY, payload, EmbedConfig(
            code=CODE, delta=0.0, scheme="hard", token_count=200,
            rng_seed=1000 + trial))
        if detect(insert_prefix(seq, r_bad, rng_seed=trial), cfg_strict).is_wm:
            escaped += 1
        if detect(delete_prefix(seq, r_bad), cfg_strict).is_wm:
            escaped += 1
    _verdict(5, "alignment recovery", recovered and escaped == 0,
             f"r<=5 exact, r=6 escapes={escaped}/1000")


def test_criterion_06_channel_law():
    payload6 = int_to_bits(45, 6)
    ok = True
    details = []

    def block_success_rate(code, payload, p_tot, blocks, seed):
        """Designated decode success over `blocks` hard-embedded blocks
        pushed through the keyed bit-flip channel."""
        per_run = 100 * code.n  # 100 blocks per generated text
        hits = 0
        for run in range(blocks // 100):
            seq = embed(UniformSource(512), KEY, payload, EmbedConfig(
                code=code, delta=0.0, scheme="hard", token_count=per_run,
                rng_seed=seed + run))
            noisy = attack(seq, AttackSpec("bitflip", p_tot, seed + run),
                           key=KEY, n=code.n)
            bits = extract_bits(noisy, KEY, code.n, code.k, 0)
            for j in range(100):
                out = safe_decode(code, bits[j * code.n:(j + 1) * code.n])
                if out is not None and np.array_equal(
                        out[0],
                        plan_block(KEY, j, payload, code).target_bits):
                    hits += 1
        return hits / blocks

    for p_tot in (0.05, 0.10, 0.15):
        emp = block_success_rate(CODE, payload6, p_tot, 10000,
                                 int(p_tot * 1000))
        ref = p1(31, 7, p_tot)
        se = math.sqrt(ref * (1 - ref) / 10000)
        ok &= abs(emp - ref) <= 3 * se
        details.append(f"p{p_tot:g}:{emp:.3f}/{ref:.3f}")

    # The published guideline pair 0.79/0.73 at p_tot = 0.0759/0.0859
    # corresponds to decode radius t=3 (it does not satisfy the t=7
    # binomial tail); reproduce it with the radius-3 instance.
    code3 = BchCode.make(31, 16, 3)
    payload16 = int_to_bits(777, 16)
    for p_tot, ref in ((0.0759, 0.79), (0.0859, 0.73)):
        emp = block_success_rate(code3, payload16, p_tot, 10000,
                                 int(p_tot * 1e4))
        se = math.sqrt(ref * (1 - ref) / 10000)
        ok &= abs(emp - ref) <= 3 * se
        details.append(f"g{p_tot:g}:{emp:.3f}/{ref}")
    _verdict(6, "bit-flip channel law", ok, ", ".join(details))


def test_criterion_07_chernoff_soundness():
    # tau = 3 keeps theta well above p0_shift for both M; below that the
    # blind payload vote (absent from the fixed-payload Chernoff model)
    # dominates the empirical rate
    s_max = 5
    S = 2 * s_max + 1
    p_shift = p0_shift(p0(2, 31, 7), S, "union")
    rng = np.random.default_rng(7)
    ok = True
    details = []
    for M in (6, 16):
        cfg = DetectConfig(code=CODE, key=KEY, s_max=s_max, tau=1,
                           mode="both")
        T = M * 31
        counts = [detect(_h0_text(rng, T), cfg).matched
                  for _ in range(10000)]
        for tau in (3, 4):
            theta = tau / M
            assert theta > p_shift
            bound = agg_fpr_bound(M, theta, p_shift)
            emp = sum(c >= tau for c in counts) / 10000
            ok &= emp <= bound
            details.append(f"M{M}t{tau}:{emp:.4f}<={bound:.4f}")
    _verdict(7, "Chernoff aggregate-FPR soundness", ok, ", ".join(details))


@pytest.fixture(scope="module")
def ablation_rows():
    spec = ExperimentSpec(
        trials=2000, text_len=200, delta=6.0, vocab_size=512,
        attacks=[AttackSpec("substitute", 0.0), AttackSpec("insert", 0.1)],
        s_max_grid=(5,), tau_grid=(1, 2, 3, 4, 5, 6),
        mode_grid=("both", "shift_only", "designated_only"),
        master_seed=31)
    return run_campaign(spec)


def test_criterion_08_ablation_ordering(ablation_rows):
    rows = {(r.attack_kind, r.attack_rate, r.mode, r.tau): r
            for r in ablation_rows}

    def row(mode, tau):
        return rows[("insert", 0.1, mode, tau)]

    # FPR-matched comparison at the full detector's tau=1 operating point:
    # shift_only's best TPR at no-worse FPR must not beat it
    anchor = row("both", 1)
    matched_tprs = [row("shift_only", t).tpr for t in range(1, 7)
                    if row("shift_only", t).fpr <= anchor.fpr]
    shift_matched_tpr = max(matched_tprs, default=0.0)
    ok = anchor.tpr >= shift_matched_tpr

    # designated verification never raises FPR above the any-codeword test
    ok &= all(row("both", t).fpr <= row("shift_only", t).fpr
              for t in range(1, 7))

    # without shift search, insertion attacks collapse sensitivity
    ok &= all(row("designated_only", t).tpr <= row("both", t).tpr
              and row("designated_only", t).tpr <= row("shift_only", t).tpr
              for t in range(1, 7))
    _verdict(8, "detector ablation ordering", ok,
             f"both@tau1 tpr={anchor.tpr:.3f} fpr={anchor.fpr:.3f}, "
             f"shift matched tpr={shift_matched_tpr:.3f}")


def test_criterion_09_threshold_monotonicity(ablation_rows):
    grouped = {}
    for r in ablation_rows:
        grouped.setdefault((r.attack_kind, r.attack_rate, r.mode,
                            r.s_max), {})[r.tau] = r
    ok = True
    for group in grouped.values():
        for tau in range(2, 7):
            ok &= group[tau].fpr <= group[tau - 1].fpr
            ok &= group[tau].tpr <= group[tau - 1].tpr
    # Absolute tau=2 false-positive level on clean unwatermarked text at
    # the nominal alignment (no shift search; with the shift window open,
    # the blind vote raises the floor to ~2^k-corrected levels)
    rng = np.random.default_rng(98)
    cfg = DetectConfig(code=CODE, key=KEY, s_max=0, tau=1, mode="both")
    fp = sum(detect(_h0_text(rng, 200), cfg).matched >= 2
             for _ in range(5000))
    ok &= fp / 5000 <= 0.005
    _verdict(9, "threshold monotonicity", ok,
             f"rows monotone, clean tau=2 fpr={fp / 5000:.4f} <= 0.005")


def _median_detect_s(seq, cfg, repeats=5):
    detect(seq, cfg)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        detect(seq, cfg)
        times.append(time.perf_counter() - t0)
    return sorted(times)[repeats // 2]


def test_criterion_10_latency():
    """The watermarked text of latency_bench may stop its shift search at
    offset 0; an unwatermarked text of the same code and length searches
    every offset, so both are held to the bounds."""
    rows = latency_bench([500], [(63, 7, 15)], [0, 5], repeats=5)
    by_s = {r["s_max"]: r["median_s"] for r in rows}
    code = BchCode.make(63, 7, 15)
    clean = sample_unwatermarked(UniformSource(512), 500, 10)
    clean_by_s = {s_max: _median_detect_s(clean, DetectConfig(
        code=code, key=KEY, s_max=s_max, tau=1)) for s_max in (0, 5)}
    ok, detail = True, []
    for name, times in (("watermarked", by_s), ("unwatermarked", clean_by_s)):
        ratio = times[5] / times[0]
        ok &= times[5] < 0.6 and ratio <= 15.0
        detail.append(f"{name} s_max=5: {times[5] * 1e3:.1f}ms, "
                      f"ratio={ratio:.1f}x")
    _verdict(10, "detection latency", ok, "; ".join(detail))


def test_criterion_11_determinism(tmp_path):
    spec = ExperimentSpec(
        trials=50, text_len=200,
        attacks=[AttackSpec("substitute", 0.05), AttackSpec("delete", 0.05)],
        s_max_grid=(0, 5), tau_grid=(1, 3), mode_grid=("both",),
        master_seed=5)
    for name in ("a.csv", "b.csv"):
        with open(tmp_path / name, "w", newline="", encoding="utf-8") as fh:
            write_metrics(fh, run_campaign(spec))
    ha = hashlib.sha256((tmp_path / "a.csv").read_bytes()).hexdigest()
    hb = hashlib.sha256((tmp_path / "b.csv").read_bytes()).hexdigest()
    _verdict(11, "campaign determinism", ha == hb,
             f"sha256 {ha[:12]} == {hb[:12]}")
