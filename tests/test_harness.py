"""Campaign harness: determinism, metric arithmetic, output format."""
import csv
import io
import math

import numpy as np
import pytest

from blockmark import detector, harness
from blockmark.attacks import AttackSpec
from blockmark.bch import BchCode, ContractError, bits_to_int, encode, \
    int_to_bits, safe_decode
from blockmark.keying import derive_block_key
from blockmark.harness import (CSV_FIELDS, ExperimentSpec, ber_curve,
                               latency_bench, roc_auc, roc_sweep,
                               run_campaign, wilson, write_metrics)


@pytest.fixture(scope="module")
def small_rows(tmp_path_factory):
    spec = ExperimentSpec(trials=40,
                          attacks=[AttackSpec("substitute", 0.0),
                                   AttackSpec("delete", 0.05)],
                          s_max_grid=(0, 5), tau_grid=(1, 2, 3),
                          mode_grid=("both",), master_seed=17)
    return spec, run_campaign(spec)


def test_wilson_interval():
    lo, hi = wilson(50, 100)
    assert lo < 0.5 < hi
    assert wilson(0, 0) == (0.0, 1.0)
    lo0, hi0 = wilson(0, 100)
    assert lo0 == pytest.approx(0.0, abs=1e-12) and hi0 < 0.05
    # interval tightens with n
    assert wilson(500, 1000)[1] - wilson(500, 1000)[0] < hi - lo


def test_from_dict_roundtrip():
    spec = ExperimentSpec.from_dict({
        "trials": 10, "code": [15, 5, 3], "text_len": 60,
        "attacks": [{"kind": "insert", "rate": 0.1}],
        "s_max_grid": [0, 1], "tau_grid": [1], "mode_grid": ["both"],
        "master_seed": 5})
    assert spec.code == (15, 5, 3)
    assert spec.attacks[0].kind == "insert"
    assert spec.s_max_grid == (0, 1)


def test_campaign_row_grid(small_rows):
    spec, rows = small_rows
    assert len(rows) == 2 * 2 * 3  # attacks x s_max x tau
    ids = {r.config_id for r in rows}
    assert len(ids) == len(rows)


def test_campaign_rates_sane(small_rows):
    _, rows = small_rows
    for r in rows:
        assert 0.0 <= r.fpr <= 1.0 and 0.0 <= r.tpr <= 1.0
        assert r.match_rate <= r.tpr + 1e-12
        assert r.tpr_lo <= r.tpr <= r.tpr_hi
        assert r.fpr_lo <= r.fpr <= r.fpr_hi


def test_tau_monotonicity(small_rows):
    spec, rows = small_rows
    by_cfg = {}
    for r in rows:
        by_cfg.setdefault((r.attack_kind, r.attack_rate, r.mode, r.s_max),
                          {})[r.tau] = r
    for group in by_cfg.values():
        for tau in (2, 3):
            assert group[tau].tpr <= group[tau - 1].tpr
            assert group[tau].fpr <= group[tau - 1].fpr


def test_clean_campaign_separates(small_rows):
    _, rows = small_rows
    clean = [r for r in rows if r.attack_rate == 0.0 and r.tau == 3
             and r.s_max == 0]
    assert clean and all(r.tpr == 1.0 and r.fpr == 0.0 for r in clean)


def test_diverse_campaign_embeds_with_the_diverse_plan(monkeypatch):
    """A diverse campaign embeds with the plan its detector checks."""
    cfgs = []

    def recording_embed(src, key, payload, cfg):
        cfgs.append(cfg)
        return embed(src, key, payload, cfg)

    embed = harness.embed
    monkeypatch.setattr(harness, "embed", recording_embed)
    spec = ExperimentSpec(trials=3, s_max_grid=(0,), tau_grid=(3,),
                          diverse=True, master_seed=12)
    (row,) = run_campaign(spec)
    assert len(cfgs) == 3 and all(cfg.diverse for cfg in cfgs)
    assert row.tpr == 1.0


def test_from_dict_rejects_unknown_keys():
    """A misspelt setting raises instead of running the default."""
    with pytest.raises(ContractError, match="diverce"):
        ExperimentSpec.from_dict({"diverce": True})
    with pytest.raises(ContractError) as err:
        ExperimentSpec.from_dict({"trails": 5, "mode": "naive", "attacks": [
            {"kind": "delete", "rate": 0.1, "seed": 2},
            {"kind": "insert", "rate": 0.1, "rng_seed": 1, "sed": 3}]})
    # a campaign seeds its attacks from master_seed, so rng_seed is none
    for name in ("trails", "mode", "attacks[0].seed", "attacks[1].rng_seed",
                 "attacks[1].sed"):
        assert name in str(err.value)
    # where a campaign's CSV goes is the CLI's --output, not a setting
    with pytest.raises(ContractError, match="output_path"):
        ExperimentSpec.from_dict({"output_path": "m.csv"})
    spec = ExperimentSpec.from_dict({"diverse": True, "code": [15, 5, 3],
                                     "attacks": [{"kind": "delete",
                                                  "rate": 0.1}]})
    assert spec.diverse and spec.code == (15, 5, 3)
    assert spec.attacks == [AttackSpec("delete", 0.1)]


def test_campaign_decodes_each_text_once_per_offset(monkeypatch):
    """The ablation grid scores its three modes from one pass per text:
    one block_windows call, and each block of each offset (0, +-1 .. +-5)
    decoded at most once, not once per (mode, offset).  shift_only
    waits for a perfect offset, so each offset is walked one block per
    decode_rows call up to its first block that does not decode,
    except, at an offset whose blocks pass the band of the offset rule,
    for the blocks after block 0 within t of the codeword that block 0's
    vote key designates, which the walk verifies without decoding.  The
    clean watermarked text decodes block 0 of offset 0, and of its other
    five blocks only those not within t, and nothing else.  No offset of
    the H0 text walks to its end, so both then completes its 11 offsets
    in one call of the blocks that the walk neither decoded nor verified,
    in search order, and every block of every offset is decoded at most
    once."""
    events = []
    windows, decode = detector.block_windows, detector.decode_rows

    def recording_windows(seq, key, *args):
        events.append((seq, key, []))
        return windows(seq, key, *args)

    def recording_decode(code, blocks):
        events[-1][2].append(blocks.copy())
        return decode(code, blocks)
    monkeypatch.setattr(detector, "block_windows", recording_windows)
    monkeypatch.setattr(detector, "decode_rows", recording_decode)
    spec = ExperimentSpec(trials=1, code=(31, 6, 7), text_len=200,
                          attacks=[AttackSpec("substitute", 0.0)],
                          s_max_grid=(5,), tau_grid=(1,),
                          mode_grid=("both", "shift_only",
                                     "designated_only"), master_seed=3)
    rows = run_campaign(spec)
    assert [r.mode for r in rows] == ["both", "shift_only", "designated_only"]
    assert all(r.tpr == 1.0 and r.match_rate == 1.0 for r in rows)

    code = BchCode.make(31, 6, 7)
    order = [0, *(s for d in range(1, 6) for s in (-d, d))]
    # the watermarked text and the H0 text of one trial
    (wm, key, wm_calls), (h0, _, h0_calls) = events

    def blocks_at(seq, s):
        bits = detector.extract_bits(seq, key, code.n, code.k, s)
        return bits[:len(bits) // code.n * code.n].reshape(-1, code.n)

    def assert_calls(calls, want):
        assert len(calls) == len(want)
        assert all(np.array_equal(got, w) for got, w in zip(calls, want))

    def rand(j):
        return bits_to_int(derive_block_key(key, j, code.k).randomizer)

    def banded(blocks):
        # every X_0 ^ X_j, X_j = b_j ^ G(r_j), of weight <= 2t (the
        # campaign embeds with the payload plan: no c_max band)
        xs = [b ^ encode(code, int_to_bits(rand(j), code.k))
              for j, b in enumerate(blocks)]
        return all(np.count_nonzero(x != xs[0]) <= 2 * code.t for x in xs)

    def verified(blocks, j):
        # block j > 0 within t of G(v ^ r_j), v the vote key of block 0,
        # at an offset inside the band
        first = safe_decode(code, blocks[0])
        if j == 0 or first is None or not banded(blocks):
            return False
        v = bits_to_int(first[0][:code.k]) ^ rand(0)
        cw = encode(code, int_to_bits(v ^ rand(j), code.k))
        return np.count_nonzero(blocks[j] != cw) <= code.t

    wm_blocks = blocks_at(wm, 0)
    assert len(wm_blocks) == 6
    assert_calls(wm_calls, [wm_blocks[j:j + 1] for j in range(6)
                            if not verified(wm_blocks, j)])
    assert len(wm_calls) < 6
    blocks = {s: blocks_at(h0, s) for s in order}
    walked = {s: [safe_decode(code, b) is not None
                  for b in blocks[s]].index(False) + 1 for s in order}
    rest = {s: [j for j in range(walked[s], len(blocks[s]))
                if not verified(blocks[s], j)] for s in order}
    assert any(rest.values())
    assert_calls(h0_calls, [
        *(blocks[s][j:j + 1] for s in order for j in range(walked[s])
          if not verified(blocks[s], j)),
        np.concatenate([blocks[s][rest[s]] for s in order])])


def test_campaign_grid_is_checked_before_the_first_trial(monkeypatch):
    """A tau below 1, an unknown mode or an s_max outside [0, n] raises
    before any text is generated; tau 0 used to give tpr = fpr = 1."""
    def no_embedding(*args, **kwargs):
        raise AssertionError("a text was generated")

    monkeypatch.setattr(harness, "embed", no_embedding)
    for cfg, message in (({"tau_grid": [0]}, "tau"),
                         ({"tau_grid": [2, -1]}, "tau"),
                         ({"tau_grid": []}, "tau"),
                         ({"mode_grid": ["bothh"]}, "bothh"),
                         ({"mode_grid": []}, "mode"),
                         ({"s_max_grid": [32]}, "s_max"),
                         ({"s_max_grid": [-1]}, "s_max")):
        spec = ExperimentSpec.from_dict({"trials": 3, **cfg})
        with pytest.raises(ContractError, match=message):
            run_campaign(spec)
        with pytest.raises(ContractError, match=message):
            roc_sweep(spec)


def test_master_seeds_are_checked_when_given():
    """A negative or non-integer master seed raises ContractError before
    any draw; each used to end in numpy's ValueError or TypeError."""
    code = BchCode.make(31, 6, 7)
    with pytest.raises(ContractError, match="master_seed must be >= 0"):
        ExperimentSpec(master_seed=-1)
    for seed, message in ((-1, ">= 0"), (1.5, "an integer")):
        with pytest.raises(ContractError, match=f"master_seed must be "
                                                f"{message}"):
            ber_curve([1.0], 0.5, 62, code, 64, master_seed=seed)
    with pytest.raises(ContractError, match="master_seed must be >= 0"):
        latency_bench([62], [(31, 6, 7)], [0], repeats=1, master_seed=-1)


def test_csv_deterministic():
    spec = ExperimentSpec(trials=15, s_max_grid=(3,), tau_grid=(1, 2),
                          master_seed=99)
    a, b = io.StringIO(), io.StringIO()
    write_metrics(a, run_campaign(spec))
    write_metrics(b, run_campaign(spec))
    assert a.getvalue() == b.getvalue()


def _csv_records(rows, **kw):
    out = io.StringIO(newline="")
    write_metrics(out, rows, **kw)
    out.seek(0)
    return list(csv.DictReader(out))


def test_csv_format(small_rows):
    _, rows = small_rows
    recs = _csv_records(rows)
    assert list(recs[0]) == CSV_FIELDS
    assert all(r["format_version"] == "1" for r in recs)
    assert all(r["mean_latency_ms"] == "" for r in recs)


def test_roc_sweep_and_auc():
    spec = ExperimentSpec(trials=40, s_max_grid=(3,), mode_grid=("both",),
                          master_seed=8)
    curves = roc_sweep(spec)
    (key, pts), = curves.items()
    assert len(pts) == 6  # tau from 1 to M
    auc = roc_auc(pts)
    assert 0.9 <= auc <= 1.0  # clean delta=6 separates almost perfectly
    # degenerate curve has chance-level area
    assert roc_auc([(1, 0.5, 0.5)]) == pytest.approx(0.5)


def test_ber_curve_monotone():
    code = BchCode.make(31, 6, 7)
    rows = ber_curve([1.0, 3.0, 6.0], 0.5, 6200, code, 512, 4)
    wm = [r["ber"] for r in rows if r["arm"] == "watermarked"]
    assert wm[0] > wm[1] > wm[2]
    h0 = [r for r in rows if r["arm"] == "unwatermarked"]
    assert len(h0) == 1 and 0.45 <= h0[0]["ber"] <= 0.55


def test_latency_bench_refuses_repeats_below_one(monkeypatch):
    """repeats of 0, below or not an integer raises ContractError before
    any text is embedded or detected; 0 used to detect and then end in an
    IndexError."""
    def no_work(*args, **kwargs):
        raise AssertionError("work before the check")
    monkeypatch.setattr(harness, "embed", no_work)
    monkeypatch.setattr(harness, "detect", no_work)
    for repeats, message in ((0, ">= 1"), (-3, ">= 1"), (1.0, "an integer"),
                             (True, "an integer")):
        with pytest.raises(ContractError, match=f"repeats must be {message}"):
            latency_bench([62], [(31, 6, 7)], [0], repeats=repeats)


def test_latency_bench_shape():
    rows = latency_bench([124], [(31, 6, 7)], [0, 1], repeats=3)
    assert len(rows) == 2
    assert all(r["median_s"] > 0 for r in rows)
