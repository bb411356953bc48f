"""The four benchmark workloads.

Each workload makes its inputs from the benchmark seed (``build``), turns
them into in-memory state (``load``), fills the program's caches where the
workload calls for it (``warm``), lists one round of operations (``ops``,
timed by ``time_round``) and verifies every operation's output afterwards
(``check``), against the oracle in ``oracle.py`` or against properties the
method must have.  The program is only called through its public modules,
looked up as module attributes so that the tracer sees every call.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from blockmark import attacks, bch, bounds, cli, detector, generation, \
    harness, keying, seqio

import oracle


class ZipfMarkovSource(generation.LogitSource):
    """Stateful stand-in for a language model.

    Logits follow a Zipf law over a token ranking; every step moves the
    ranking by a step drawn from the source's own seeded RNG, so
    consecutive calls never return the same logits and the output depends
    on how many steps came before.  The green mask is ignored, as a real
    model would.
    """

    def __init__(self, vocab_size: int, seed: int, exponent: float = 1.1):
        self.vocab_size = vocab_size
        self._rng = np.random.default_rng(seed)
        self._zipf = -exponent * np.log(np.arange(1, vocab_size + 1))
        self._rank = self._rng.permutation(vocab_size)
        self._shift = 0

    def logits(self, green_mask=None) -> np.ndarray:
        self._shift = (self._shift
                       + int(self._rng.integers(1, self.vocab_size))) \
            % self.vocab_size
        return self._zipf[(self._rank + self._shift) % self.vocab_size]


LOGIT_CLASSES = (generation.UniformSource, generation.ControlledMassSource,
                 ZipfMarkovSource)


def sub_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def rng_for(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


def mixed_batch(rng, kinds, per_kind: int, lo: int, hi: int):
    """Shuffled (kind, length) pairs.  Each kind gets the centres of
    `per_kind` equal strata of [lo, hi), so every seed has the same mix of
    kinds and lengths -- and so the same number of code blocks, which sets
    most of a detection's cost."""
    lengths = [int(lo + (hi - lo) * (i + 0.5) / per_kind)
               for i in range(per_kind)]
    pairs = [(kind, T) for kind in kinds for T in lengths]
    order = rng.permutation(len(pairs))
    return [pairs[i][0] for i in order], [pairs[i][1] for i in order]


def binom_upper(N: int, p: float, tail: float) -> int:
    """Smallest x with Pr[Bin(N, p) > x] <= tail."""
    cdf, x = 0.0, 0
    while x <= N:
        cdf += math.comb(N, x) * p ** x * (1 - p) ** (N - x)
        if 1.0 - cdf <= tail:
            return x
        x += 1
    return N


def h0_excess_ok(reports, code, s_max: int) -> bool:
    """Designated matches on H0 texts beyond the one the blind vote takes
    from its own block stay within the 1e-9 binomial tail of p0_shift."""
    excess = sum(max(r["matched"] - 1, 0) for r in reports)
    blocks = sum(r["block_count"] for r in reports)
    p = bounds.p0_shift(bounds.p0(2, code.n, code.t), 2 * s_max + 1, "union")
    return excess <= binom_upper(blocks, p, 1e-9)


def report_tuple(rep) -> dict:
    payload = None if rep.payload is None else bch.bits_to_int(rep.payload)
    return {"payload": payload, "best_offset": rep.best_offset,
            "matched": rep.matched, "block_count": rep.block_count}


@dataclass
class Op:
    """One timed call: `fn` runs inside the timed region, `digest` turns
    its result into what the check compares, outside it."""
    name: str
    fn: object
    digest: object
    items: int = 1


@dataclass
class Record:
    op: int
    seconds: float
    calib: float             # calibration seconds around the call
    output: object = None
    error: str | None = None
    result: object = None    # the raw return value, kept on request


@dataclass
class Outcome:
    attempted: int
    failed: int
    notes: list = field(default_factory=list)


# Calibration time at nominal host speed.  The host this benchmark was
# built on runs the calibration mix in 0.28-0.83 ms depending on what its
# neighbours do, and a benchmark operation slows in step (correlation of
# the logs 0.81-0.85); timings are reported as seconds * CALIB_NOMINAL_S /
# calibration, i.e. as if the host ran at nominal speed.
CALIB_NOMINAL_S = 3.0e-4
_CALIB_ARRAY = np.arange(4096, dtype=np.int64)


def calibrate() -> float:
    """Seconds for a fixed mix of the work the package does: SHA-256
    through hashlib from a bytecode loop, and small numpy reductions."""
    t0 = time.perf_counter()
    h, x = hashlib.sha256, 0
    for i in range(400):
        x ^= h(i.to_bytes(4, "little")).digest()[0]
    for _ in range(20):
        x ^= int(np.bitwise_xor.reduce(_CALIB_ARRAY[::3]))
    return time.perf_counter() - t0


def host_speed() -> float:
    """The fastest of three calibrations: one preempted calibration must
    not pass for a slow host."""
    return min(calibrate(), calibrate(), calibrate())


def time_round(ops: list[Op], keep: bool = False) -> list[Record]:
    """Run and time each op once, with a calibration before and after it;
    `keep` also keeps the raw results."""
    out = []
    before = host_speed()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            result = op.fn()
            error = None
        except Exception as exc:  # counted as a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        after = host_speed()
        calib = math.sqrt(before * after)
        before = after
        if error:
            out.append(Record(i, dt, calib, error=error))
        else:
            out.append(Record(i, dt, calib, op.digest(result),
                              result=result if keep else None))
    return out


def no_lap() -> None:
    pass


class SetupClock:
    """Set-up time at nominal host speed.  The set-up calls `lap` after
    each short step (one text, one warm-up call); each step is corrected by
    the calibrations at its two ends, the way `time_round` corrects a call.
    The first step, from `start` to the first lap, has only the calibration
    at its end."""

    def __init__(self, start: float):
        self.raw = 0.0
        self.corrected = 0.0
        self._start = start
        self._calib = None

    def lap(self) -> None:
        dt = time.perf_counter() - self._start
        calib = host_speed()
        ref = calib if self._calib is None else math.sqrt(self._calib * calib)
        self.raw += dt
        self.corrected += dt * CALIB_NOMINAL_S / ref
        self._calib = calib
        self._start = time.perf_counter()


class Workload:
    name = ""
    vocab_size = 0
    item_unit = ""
    # inputs come from another process and every round from a fresh one,
    # so no key is ever warm in the detector
    cold = False
    # ops whose latency feeds p50/p90 (the rest feed throughput only)
    latency_ops = None
    # ops whose items/second is the workload's throughput
    throughput_ops = None

    def build(self, seed: int, workdir: Path, lap=no_lap) -> None:
        """Write the inputs for `seed` to `workdir`, calling `lap` after
        each text."""
        raise NotImplementedError

    def load(self, workdir: Path):
        raise NotImplementedError

    def warm(self, state, lap=no_lap) -> None:
        """Fill the program's caches before timing: one untimed round,
        calling `lap` after each op.  Failures are counted in the timed
        rounds."""
        for op in self.ops(state):
            try:
                op.fn()
            except Exception:
                pass
            lap()

    def ops(self, state) -> list[Op]:
        raise NotImplementedError

    def check(self, state, rounds: list[list[Record]]) -> Outcome:
        """Verify the rounds' outputs; the oracle first proves itself on
        the pinned keying vectors (OracleError if it cannot)."""
        oracle.check_pinned_vectors()
        return self._check(state, rounds)

    def _check(self, state, rounds: list[list[Record]]) -> Outcome:
        raise NotImplementedError


def _same_as_first(rounds, ok: list[bool]) -> None:
    """Mark ops whose output changed between rounds: every workload is
    deterministic, so a repeated op must give the identical result."""
    for rnd in rounds[1:]:
        for rec in rnd:
            first = rounds[0][rec.op]
            if rec.error or rec.output != first.output:
                ok[rec.op] = False


def _count(rounds, ok: list[bool]) -> Outcome:
    attempted = sum(len(r) for r in rounds)
    failed = sum(1 for rnd in rounds for rec in rnd
                 if rec.error or not ok[rec.op])
    errors = sorted({rec.error for rnd in rounds for rec in rnd
                     if rec.error})
    return Outcome(attempted, failed, errors)


# ------------------------------------------------------------ detect-warm

class DetectWarm(Workload):
    """One key, (31,6,7), V=1024, s_max=5: a mixed batch of clean,
    prefix-shifted, attacked and unwatermarked texts detected text by
    text through ``detector.detect`` and, split in four JSONL files,
    through ``cli.main(["detect", ...])``, with partitions warm."""

    name = "detect-warm"
    vocab_size = 1024
    item_unit = "texts"
    CODE = (31, 6, 7)
    S_MAX = 5
    TAU = 3
    DELTA = 2.5
    KINDS = ("clean", "shift", "attack", "h0")
    CLI_BATCHES = 4

    def __init__(self, per_kind: int = 8, lo: int = 100, hi: int = 1000):
        self.per_kind = per_kind
        self.lo, self.hi = lo, hi

    def build(self, seed, workdir, lap=no_lap):
        rng = rng_for(seed, 1)
        code = bch.BchCode.make(*self.CODE)
        key = keying.SecretKey(rng.bytes(32))
        kinds, lengths = mixed_batch(rng, self.KINDS, self.per_kind,
                                     self.lo, self.hi)
        src = generation.UniformSource(self.vocab_size)
        seqs, meta = [], []
        for i, (kind, T) in enumerate(zip(kinds, lengths)):
            info = {"kind": str(kind), "payload": None, "shift": 0}
            if kind == "h0":
                seq = generation.sample_unwatermarked(
                    src, T, sub_seed(seed, 2, i))
            else:
                payload = int(rng.integers(1, 1 << code.k))
                info["payload"] = payload
                seq = generation.embed(
                    src, key, bch.int_to_bits(payload, code.k),
                    generation.EmbedConfig(code=code, delta=self.DELTA,
                                           scheme="soft", token_count=T,
                                           rng_seed=sub_seed(seed, 3, i)))
                if kind == "shift":
                    r = int(rng.integers(1, self.S_MAX + 1))
                    if rng.random() < 0.5:
                        seq = attacks.insert_prefix(seq, r,
                                                    sub_seed(seed, 4, i))
                        info["shift"] = r
                    else:
                        seq = attacks.delete_prefix(seq, r)
                        info["shift"] = -r
                elif kind == "attack":
                    atk = ("substitute", "insert", "delete")[i % 3]
                    rate = float(rng.uniform(0.05, 0.10))
                    seq = attacks.attack(seq, attacks.AttackSpec(
                        atk, rate, sub_seed(seed, 5, i)))
                    info["attack"] = [atk, rate]
            seqs.append(seq)
            meta.append(info)
            lap()
        seqio.write_sequences(workdir / "texts.jsonl", seqs)
        (workdir / "inputs.json").write_text(json.dumps(
            {"key": key.to_hex(), "texts": meta}))

    def load(self, workdir):
        inputs = json.loads((workdir / "inputs.json").read_text())
        key = keying.SecretKey.from_hex(inputs["key"])
        seqio.write_key(workdir / "key.txt", key)
        code = bch.BchCode.make(*self.CODE)
        seqs = seqio.read_sequences(workdir / "texts.jsonl")
        for b in range(self.CLI_BATCHES):
            seqio.write_sequences(workdir / f"batch{b}.jsonl",
                                  seqs[b::self.CLI_BATCHES])
        return {
            "workdir": workdir, "key": key, "code": code,
            "meta": inputs["texts"], "seqs": seqs,
            "cfg": detector.DetectConfig(code=code, key=key, s_max=self.S_MAX,
                                         tau=self.TAU, mode="both"),
        }

    def ops(self, state):
        cfg = state["cfg"]
        ops = [Op("detect", (lambda s=s: detector.detect(s, cfg)),
                  report_tuple) for s in state["seqs"]]
        wd = state["workdir"]
        for b in range(self.CLI_BATCHES):
            argv = ["detect", "--key-file", str(wd / "key.txt"),
                    "--code", ",".join(map(str, self.CODE)),
                    "--s-max", str(self.S_MAX), "--tau", str(self.TAU),
                    "--input", str(wd / f"batch{b}.jsonl"),
                    "--output", str(wd / f"reports{b}.jsonl")]
            ops.append(Op("cli", (lambda argv=argv: cli.main(argv)),
                          (lambda _, b=b: _read_reports(
                              wd / f"reports{b}.jsonl")),
                          items=len(state["seqs"][b::self.CLI_BATCHES])))
        return ops

    latency_ops = ("detect",)
    throughput_ops = ("cli",)

    def _check(self, state, rounds):
        code, key = state["code"], state["key"].key_bytes
        ocode = oracle.Code(*self.CODE)
        kb = oracle.KeyBits(key)
        expect = [oracle.detect(s.tokens, key, ocode, self.S_MAX, self.TAU,
                                kb=kb) for s in state["seqs"]]
        n_text = len(expect)
        first = rounds[0]
        ok = [True] * len(first)
        for i, (rec, exp, info) in enumerate(zip(first, expect,
                                                 state["meta"])):
            good = rec.error is None and rec.output == exp
            if info["kind"] in ("clean", "shift"):
                good &= (exp["payload"] == info["payload"]
                         and exp["best_offset"] == info["shift"])
            ok[i] = good
        for b in range(self.CLI_BATCHES):
            rec = first[n_text + b]
            ok[n_text + b] = rec.error is None and \
                rec.output == expect[b::self.CLI_BATCHES]
        h0 = [e for e, info in zip(expect, state["meta"])
              if info["kind"] == "h0"]
        if not h0_excess_ok(h0, code, self.S_MAX):
            ok = [False] * len(ok)
        _same_as_first(rounds, ok)
        return _count(rounds, ok)


def _read_reports(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [{k: rec[k] for k in ("payload", "best_offset", "matched",
                                     "block_count")}
                for rec in map(json.loads, fh)]


# ------------------------------------------------------------ detect-cold

class DetectCold(Workload):
    """(127,92,5), V=32768, s_max=2: every text under its own key, half
    watermarked under it and half unwatermarked, detected by a process
    that has never seen the key."""

    name = "detect-cold"
    vocab_size = 32768
    cold = True
    item_unit = "texts"
    CODE = (127, 92, 5)
    S_MAX = 2
    TAU = 1
    DELTA = 6.0

    def __init__(self, per_kind: int = 6, lo: int = 300, hi: int = 600):
        self.per_kind = per_kind
        self.lo, self.hi = lo, hi

    def build(self, seed, workdir, lap=no_lap):
        rng = rng_for(seed, 11)
        code = bch.BchCode.make(*self.CODE)
        kinds, lengths = mixed_batch(rng, ("wm", "h0"), self.per_kind,
                                     self.lo, self.hi)
        src = generation.UniformSource(self.vocab_size)
        seqs, meta = [], []
        for i, (kind, T) in enumerate(zip(kinds, lengths)):
            key = keying.SecretKey(rng.bytes(32))
            info = {"kind": str(kind), "key": key.to_hex(), "payload": None}
            if kind == "wm":
                payload = int.from_bytes(rng.bytes(12), "big") >> 4
                info["payload"] = payload
                seq = generation.embed(
                    src, key, bch.int_to_bits(payload, code.k),
                    generation.EmbedConfig(code=code, delta=self.DELTA,
                                           scheme="soft", token_count=T,
                                           rng_seed=sub_seed(seed, 12, i)))
            else:
                # uniform sampling draws uniform token ids; drawing them
                # directly skips V Gumbel draws per token
                seq = generation.TokenSequence(
                    rng.integers(0, self.vocab_size, T), self.vocab_size)
            seqs.append(seq)
            meta.append(info)
            lap()
        seqio.write_sequences(workdir / "texts.jsonl", seqs)
        (workdir / "inputs.json").write_text(json.dumps({"texts": meta}))

    def load(self, workdir):
        inputs = json.loads((workdir / "inputs.json").read_text())
        code = bch.BchCode.make(*self.CODE)
        cfgs = [detector.DetectConfig(
            code=code, key=keying.SecretKey.from_hex(info["key"]),
            s_max=self.S_MAX, tau=self.TAU, mode="both")
            for info in inputs["texts"]]
        return {"code": code, "meta": inputs["texts"], "cfgs": cfgs,
                "seqs": seqio.read_sequences(workdir / "texts.jsonl")}

    def warm(self, state, lap=no_lap):
        """Nothing: every key must be new to the detector."""

    def ops(self, state):
        return [Op("detect", (lambda s=s, c=c: detector.detect(s, c)),
                   report_tuple)
                for s, c in zip(state["seqs"], state["cfgs"])]

    latency_ops = ("detect",)
    throughput_ops = ("detect",)

    def _check(self, state, rounds):
        ocode = oracle.Code(*self.CODE)
        first = rounds[0]
        ok = [True] * len(first)
        h0 = []
        for i, (rec, info, seq) in enumerate(zip(first, state["meta"],
                                                 state["seqs"])):
            if rec.error:
                ok[i] = False
                continue
            out = rec.output
            key = bytes.fromhex(info["key"])
            if info["kind"] == "wm" and (out["payload"] != info["payload"]
                                         or out["best_offset"] != 0):
                ok[i] = False
                continue
            if out["payload"] is None:
                ok[i] = out["matched"] == 0
            else:
                dist = oracle.designated_distances(
                    seq.tokens, key, ocode, out["payload"],
                    out["best_offset"])
                ok[i] = (out["block_count"] == len(dist) and out["matched"]
                         == sum(d <= ocode.t for d in dist))
            if info["kind"] == "h0":
                h0.append(out)
        if not h0_excess_ok(h0, state["code"], self.S_MAX):
            ok = [False] * len(ok)
        _same_as_first(rounds, ok)
        return _count(rounds, ok)


# ------------------------------------------------------------------ embed

class Embed(Workload):
    """One key, V=1024, codes (31,6,7) and (63,7,15); soft delta 2, 2.5
    and 6 and the hard scheme over a uniform, a controlled-mass (0.5) and
    a stateful Zipf source; plus one unwatermarked text per source."""

    name = "embed"
    vocab_size = 1024
    item_unit = "tokens"
    CODES = ((31, 6, 7), (63, 7, 15))
    ARMS = (("soft", 2.0), ("soft", 2.5), ("soft", 6.0), ("hard", 0.0))
    SOURCES = ("uniform", "mass0.5", "zipf")
    MASS = 0.5

    def __init__(self, tokens: int = 512):
        self.tokens = tokens

    def build(self, seed, workdir, lap=no_lap):
        rng = rng_for(seed, 21)
        inputs = {"key": keying.SecretKey(rng.bytes(32)).to_hex(),
                  "payloads": [int(rng.integers(1, 1 << c[1]))
                               for c in self.CODES],
                  "seed": seed}
        (workdir / "inputs.json").write_text(json.dumps(inputs))

    def _source(self, name, seed):
        if name == "uniform":
            return generation.UniformSource(self.vocab_size)
        if name == "mass0.5":
            return generation.ControlledMassSource(self.vocab_size, self.MASS)
        return ZipfMarkovSource(self.vocab_size, seed)

    def load(self, workdir):
        inputs = json.loads((workdir / "inputs.json").read_text())
        seed = inputs["seed"]
        key = keying.SecretKey.from_hex(inputs["key"])
        specs = []
        for ci, code_t in enumerate(self.CODES):
            for ai, (scheme, delta) in enumerate(self.ARMS):
                for si, src in enumerate(self.SOURCES):
                    specs.append({"code": code_t, "scheme": scheme,
                                  "delta": delta, "source": src,
                                  "payload": inputs["payloads"][ci],
                                  "seed": sub_seed(seed, 22, ci, ai, si)})
        for si, src in enumerate(self.SOURCES):
            specs.append({"code": None, "scheme": "none", "source": src,
                          "seed": sub_seed(seed, 23, si)})
        return {"key": key, "specs": specs}

    def ops(self, state):
        key = state["key"]
        ops = []
        for spec in state["specs"]:
            if spec["code"] is None:
                def fn(spec=spec):
                    return generation.sample_unwatermarked(
                        self._source(spec["source"], spec["seed"] + 1),
                        self.tokens, spec["seed"])
                ops.append(Op("h0", fn, _tokens_digest, items=self.tokens))
                continue
            code = bch.BchCode.make(*spec["code"])
            cfg = generation.EmbedConfig(
                code=code, delta=spec["delta"], scheme=spec["scheme"],
                token_count=self.tokens, rng_seed=spec["seed"])
            payload = bch.int_to_bits(spec["payload"], code.k)

            def fn(spec=spec, cfg=cfg, payload=payload):
                src = self._source(spec["source"], spec["seed"] + 1)
                return generation.embed(src, key, payload, cfg)
            ops.append(Op("embed", fn, _tokens_digest, items=self.tokens))
        return ops

    latency_ops = ("embed", "h0")
    throughput_ops = ("embed", "h0")

    def _check(self, state, rounds):
        key = state["key"].key_bytes
        kb = oracle.KeyBits(key)
        first = rounds[0]
        ok = [rec.error is None for rec in first]
        ber_bits: dict[float, list[int]] = {}
        h0_bits = []
        ocodes = {c: oracle.Code(*c) for c in self.CODES}
        for i, (rec, spec) in enumerate(zip(first, state["specs"])):
            if rec.error:
                continue
            tokens = rec.result.tokens.tolist()
            ok[i] = len(tokens) == self.tokens and \
                0 <= min(tokens) and max(tokens) < self.vocab_size
            if spec["code"] is None:
                if spec["source"] != "zipf":
                    ocode = ocodes[self.CODES[0]]
                    payload = state["specs"][0]["payload"]
                    errs = self._errors(tokens, kb, ocode, payload)
                    h0_bits.extend([errs.sum(), len(errs)])
                continue
            ocode = ocodes[spec["code"]]
            errs = self._errors(tokens, kb, ocode, spec["payload"])
            if spec["scheme"] == "hard":
                ok[i] &= not errs.any()
            elif spec["source"] == "mass0.5":
                acc = ber_bits.setdefault(spec["delta"], [0, 0])
                acc[0] += int(errs.sum())
                acc[1] += len(errs)
            if spec["scheme"] == "hard" or spec["delta"] >= 6.0:
                got = oracle.detect(tokens, key, ocode, 0, 1, kb=kb)
                ok[i] &= got["payload"] == spec["payload"]
        notes = []
        for delta, (wrong, total) in ber_bits.items():
            ref = bounds.p_emb(delta, self.MASS)
            se = math.sqrt(ref * (1 - ref) / total)
            notes.append(f"ber(delta={delta:g})={wrong / total:.4f} "
                         f"ref={ref:.4f}")
            if abs(wrong / total - ref) > 4 * se:
                ok = [False] * len(ok)
        wrong, total = sum(h0_bits[0::2]), sum(h0_bits[1::2])
        if abs(wrong / total - 0.5) > 4 * math.sqrt(0.25 / total):
            ok = [False] * len(ok)
        _same_as_first(rounds, ok)
        out = _count(rounds, ok)
        out.notes += notes
        return out

    @staticmethod
    def _errors(tokens, kb, ocode, payload):
        bits = oracle.extract(tokens, kb, ocode.n, 0)
        return bits != oracle.target_bits(kb, ocode, payload, len(bits))


def _tokens_digest(seq) -> str:
    return hashlib.sha256(
        np.asarray(seq.tokens, dtype=np.int64).tobytes()).hexdigest()


# --------------------------------------------------------------- campaign

class Campaign(Workload):
    """``harness.run_campaign`` on the ablation configuration: (31,6,7),
    V=512, T=200, delta=6, substitute@0 and insert@0.1, modes
    both/shift_only/designated_only, s_max=5, tau 1..6; one trial per
    call, each call under its own master seed."""

    name = "campaign"
    vocab_size = 512
    item_unit = "trials"
    MODES = ("both", "shift_only", "designated_only")
    TAUS = tuple(range(1, 7))
    S_MAX = 5

    def __init__(self, calls: int = 24):
        self.calls = calls

    def spec(self, master_seed: int):
        return harness.ExperimentSpec(
            trials=1, code=(31, 6, 7), vocab_size=self.vocab_size,
            text_len=200, scheme="soft", delta=6.0,
            attacks=[attacks.AttackSpec("substitute", 0.0),
                     attacks.AttackSpec("insert", 0.1)],
            s_max_grid=(self.S_MAX,), tau_grid=self.TAUS,
            mode_grid=self.MODES, master_seed=master_seed)

    def build(self, seed, workdir, lap=no_lap):
        rng = rng_for(seed, 31)
        seeds = [int(x) for x in rng.integers(0, 2 ** 31, self.calls)]
        (workdir / "inputs.json").write_text(json.dumps(
            {"master_seeds": seeds, "seed": seed}))

    def load(self, workdir):
        inputs = json.loads((workdir / "inputs.json").read_text())
        return {"specs": [self.spec(m) for m in inputs["master_seeds"]],
                "seed": inputs["seed"]}

    def ops(self, state):
        def rows_digest(rows):
            return [(r.config_id, r.tpr, r.fpr, r.match_rate,
                     r.mean_matched_ratio) for r in rows]
        return [Op("campaign", (lambda s=s: harness.run_campaign(s)),
                   rows_digest) for s in state["specs"]]

    latency_ops = ("campaign",)
    throughput_ops = ("campaign",)

    def _check(self, state, rounds):
        first = rounds[0]
        ok = [rec.error is None for rec in first]
        # rates summed over the round's one-trial calls: (attack, mode, tau)
        tp: dict[tuple, float] = {}
        fp: dict[tuple, float] = {}
        for rec in first:
            for cid, tpr, fpr, _, _ in rec.output or ():
                atk, mode, _s, tau = cid.split("|")
                k = (atk, mode, int(tau[3:]))
                tp[k] = tp.get(k, 0) + tpr
                fp[k] = fp.get(k, 0) + fpr
        good = bool(tp)
        for atk in {k[0] for k in tp}:
            for tau in self.TAUS:
                good &= fp[(atk, "both", tau)] <= fp[(atk, "shift_only", tau)]
                if tau > 1:
                    for mode in self.MODES:
                        good &= tp[(atk, mode, tau)] <= tp[(atk, mode, tau - 1)]
                        good &= fp[(atk, mode, tau)] <= fp[(atk, mode, tau - 1)]
        good &= self._oracle_agrees(state["seed"])
        if not good:
            ok = [False] * len(ok)
        _same_as_first(rounds, ok)
        return _count(rounds, ok)

    def _oracle_agrees(self, seed) -> bool:
        """The detector modes the campaign runs agree with the oracle on
        a watermarked and an unwatermarked text after insert@0.1."""
        rng = rng_for(seed, 32)
        code = bch.BchCode.make(31, 6, 7)
        key = keying.SecretKey(rng.bytes(32))
        payload = int(rng.integers(1, 64))
        src = generation.UniformSource(self.vocab_size)
        texts = [
            generation.embed(src, key, bch.int_to_bits(payload, 6),
                             generation.EmbedConfig(
                                 code=code, delta=6.0, scheme="soft",
                                 token_count=200, rng_seed=sub_seed(seed, 33))),
            generation.sample_unwatermarked(src, 200, sub_seed(seed, 34))]
        ocode = oracle.Code(31, 6, 7)
        kb = oracle.KeyBits(key.key_bytes)
        for i, seq in enumerate(texts):
            seq = attacks.attack(seq, attacks.AttackSpec(
                "insert", 0.1, sub_seed(seed, 35, i)))
            for mode in self.MODES:
                got = report_tuple(detector.detect(seq, detector.DetectConfig(
                    code=code, key=key, s_max=self.S_MAX, tau=1, mode=mode)))
                want = oracle.detect(seq.tokens, key.key_bytes, ocode,
                                     self.S_MAX, 1, mode=mode, kb=kb)
                if got != want:
                    return False
        return True


WORKLOADS = {w.name: w for w in (DetectWarm(), DetectCold(), Embed(),
                                 Campaign())}
