"""Tests of the benchmark itself: the oracle, the tracer, a tiny round of
every workload and the command line.

    python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from blockmark import attacks, bch, detector, generation, keying  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_pinned_vectors():
    oracle.check_pinned_vectors()


def test_oracle_rejects_wrong_vectors(monkeypatch):
    monkeypatch.setattr(oracle, "PINNED_F0", (1,) * 8)
    with pytest.raises(oracle.OracleError):
        oracle.check_pinned_vectors()


@pytest.mark.parametrize("params", [(15, 5, 3), (31, 6, 7), (63, 7, 15)])
def test_codebook_matches_program(params):
    code = oracle.Code(*params)
    book = code.codebook()   # linear, systematic, distance >= 2t+1
    prog = bch.BchCode.make(*params)
    for v in range(1 << code.k):
        assert np.array_equal(book[v], bch.encode(prog, bch.int_to_bits(
            v, code.k)))


def test_high_rate_encoder_matches_program():
    code, prog = oracle.Code(127, 92, 5), bch.BchCode.make(127, 92, 5)
    rng = np.random.default_rng(3)
    for _ in range(20):
        msg = rng.integers(0, 2, 92).astype(np.uint8)
        assert np.array_equal(code.encode(oracle.bits_int(msg)),
                              bch.encode(prog, msg))


def test_keyed_bits_match_program():
    key = keying.SecretKey(bytes(range(32)))
    kb = oracle.KeyBits(key.key_bytes)
    for j in (0, 1, 7, 300):
        bk = keying.derive_block_key(key, j, 6)
        assert kb.seed(j) == bk.seed
        assert kb.randomizer(j, 6) == oracle.bits_int(bk.randomizer)
        part = keying.partition_bits(bk, 64)
        assert [kb.bit(j, v) for v in range(64)] == part.tolist()


def _texts(rng, key, code, V=256):
    payload = int(rng.integers(1, 1 << code.k))
    src = generation.UniformSource(V)
    out = []
    for T in (40, 120, 200):
        wm = generation.embed(src, key, bch.int_to_bits(payload, code.k),
                              generation.EmbedConfig(
                                  code=code, delta=2.5, scheme="soft",
                                  token_count=T, rng_seed=T))
        out += [wm, attacks.insert_prefix(wm, 3, 1),
                attacks.delete_prefix(wm, 2),
                attacks.attack(wm, attacks.AttackSpec("insert", 0.1, T)),
                attacks.attack(wm, attacks.AttackSpec("substitute", 0.1, T)),
                generation.sample_unwatermarked(src, T, T + 1)]
    return out


@pytest.mark.parametrize("mode", ["both", "shift_only", "designated_only"])
def test_oracle_agrees_with_detect(mode):
    rng = np.random.default_rng(5)
    key = keying.SecretKey(rng.bytes(32))
    code = bch.BchCode.make(31, 6, 7)
    ocode = oracle.Code(31, 6, 7)
    kb = oracle.KeyBits(key.key_bytes)
    for seq in _texts(rng, key, code):
        cfg = detector.DetectConfig(code=code, key=key, s_max=4, tau=2,
                                    mode=mode)
        got = workloads.report_tuple(detector.detect(seq, cfg))
        assert got == oracle.detect(seq.tokens, key.key_bytes, ocode, 4, 2,
                                    mode=mode, kb=kb)


def test_designated_distances_count_matches():
    rng = np.random.default_rng(9)
    key = keying.SecretKey(rng.bytes(32))
    code = bch.BchCode.make(127, 92, 5)
    payload = int.from_bytes(rng.bytes(12), "big") >> 4
    seq = generation.embed(
        generation.UniformSource(512), key, bch.int_to_bits(payload, 92),
        generation.EmbedConfig(code=code, delta=6.0, scheme="soft",
                               token_count=300, rng_seed=1))
    rep = detector.detect(seq, detector.DetectConfig(code=code, key=key,
                                                     s_max=2, tau=1))
    dist = oracle.designated_distances(seq.tokens, key.key_bytes,
                                       oracle.Code(127, 92, 5), payload, 0)
    assert bch.bits_to_int(rep.payload) == payload
    assert rep.matched == sum(d <= 5 for d in dist) == len(dist)


TINY = [workloads.DetectWarm(per_kind=1, lo=100, hi=200),
        workloads.DetectCold(per_kind=1, lo=300, hi=330),
        workloads.Embed(tokens=96),
        workloads.Campaign(calls=2)]


@pytest.mark.parametrize("wl", TINY, ids=lambda w: w.name)
def test_tiny_workload_round(wl, tmp_path):
    wl.build(4, tmp_path)
    state = wl.load(tmp_path)
    wl.warm(state)
    ops = wl.ops(state)
    rounds = [workloads.time_round(ops, keep=True), workloads.time_round(ops)]
    outcome = wl.check(state, rounds)
    assert (outcome.attempted, outcome.failed) == (2 * len(ops), 0), \
        outcome.notes


def test_check_counts_a_wrong_output(tmp_path):
    wl = TINY[0]
    wl.build(4, tmp_path)
    state = wl.load(tmp_path)
    rounds = [workloads.time_round(wl.ops(state))]
    rounds[0][0].output = dict(rounds[0][0].output, matched=-1)
    assert wl.check(state, rounds).failed == 1


def test_tracer_spans_and_restore(tmp_path):
    wl = TINY[0]
    originals = (detector.detect, detector.safe_decode, bch.syndromes)
    t = tracer.Tracer()
    t0 = time.perf_counter()
    t.install(workloads.LOGIT_CLASSES)
    wl.build(4, tmp_path)
    state = wl.load(tmp_path)
    workloads.time_round(wl.ops(state))
    wall = time.perf_counter() - t0
    t.uninstall()
    assert (detector.detect, detector.safe_decode, bch.syndromes) == originals
    m = tracer.layer_metrics(t.raw())
    n = len(state["seqs"])
    assert m["detector.detect.calls"] == 2 * n    # per text + CLI batch
    assert m["cli.cmd_detect.calls"] == wl.CLI_BATCHES
    assert m["generation.embed.calls"] == 3
    assert m["gf.mul.calls"] > 0
    assert m["detector.offsets_per_text"] == 11
    assert 0 < m["trace.self_s_total"] <= wall
    t.dump(tmp_path / "spans.npz")
    spans = np.load(tmp_path / "spans.npz")
    assert len(spans["name"]) == m["trace.spans"]
    assert (spans["end_ns"] >= spans["start_ns"]).all()


def test_benchmark_json_lists_the_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        tracer.METRICS
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_line_run(trace):
    proc = _run(ROOT, "--workload", "campaign", "--seed", "3",
                "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    names = tracer.METRICS if trace == "1" else run.END_TO_END
    assert set(res["metrics"]) == set(names)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "campaign", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
