"""Monte-Carlo experiment pipelines: detection campaigns, ROC sweeps,
BER curves and detection latency measurement.  Fully deterministic under
a master seed; per-trial RNG streams are derived from (master seed,
attack index, arm, trial index) so execution order cannot change tallies.
"""
from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .attacks import AttackSpec, attack
from .bch import BchCode, ContractError, check_seed, check_setting, \
    code_params, int_to_bits
from .detector import DetectConfig, block_windows, detect, detect_all
from .generation import ControlledMassSource, EmbedConfig, TokenSequence, \
    UniformSource, embed, logit_source, sample_unwatermarked
from .keying import SecretKey, plan_rows
from .seqio import FORMAT_VERSION

# an attack entry's settings; its seed derives from master_seed
ATTACK_KEYS = ("kind", "rate")
WILSON_Z = 1.959963984540054     # two-sided 95% normal quantile


@dataclass
class ExperimentSpec:
    trials: int = 2000
    code: tuple = (31, 6, 7)
    vocab_size: int = 512
    text_len: int = 200
    scheme: str = "soft"
    delta: float = 6.0
    mass: float | None = None        # None: uniform logit source
    attacks: list = field(default_factory=lambda: [AttackSpec("substitute", 0.0)])
    s_max_grid: tuple = (5,)
    tau_grid: tuple = (1,)
    mode_grid: tuple = ("both",)
    diverse: bool = False
    master_seed: int = 0

    def __post_init__(self):
        """Refuse a setting of the wrong type with ContractError, before
        the first trial; grids become tuples."""
        self.code = code_params(self.code)
        for name in ("s_max_grid", "tau_grid", "mode_grid"):
            grid = getattr(self, name)
            if not isinstance(grid, (list, tuple)):
                raise ContractError(f"{name} must be a list, got {grid!r}")
            setattr(self, name, tuple(grid))
        settings = [("diverse", self.diverse, bool)]
        settings += [(name, getattr(self, name), int) for name in
                     ("trials", "vocab_size", "text_len")]
        settings += [(f"{name} item", v, int)
                     for name in ("s_max_grid", "tau_grid")
                     for v in getattr(self, name)]
        settings += [(name, getattr(self, name), float)
                     for name in ("delta", "mass")
                     if getattr(self, name) is not None]
        for setting in settings:
            check_setting(*setting)
        check_seed("master_seed", self.master_seed)

    @staticmethod
    def from_dict(cfg: dict) -> "ExperimentSpec":
        """The spec a config dict spells; a key that names no setting
        raises ContractError, so a misspelt one cannot fall back to its
        default unseen."""
        known = ExperimentSpec.__dataclass_fields__
        entries = cfg.get("attacks", [{"kind": "substitute", "rate": 0.0}])
        if not isinstance(entries, list) or not all(
                isinstance(a, dict) and {"kind", "rate"} <= a.keys()
                for a in entries):
            raise ContractError("attacks must be a list of objects with a "
                                f"kind and a rate, got {entries!r}")
        unknown = [str(k) for k in cfg if k not in known] + [
            f"attacks[{i}].{k}" for i, a in enumerate(entries)
            for k in a if k not in ATTACK_KEYS]
        if unknown:
            raise ContractError(f"unknown config keys: {', '.join(unknown)}")
        attacks = [AttackSpec(a["kind"], a["rate"]) for a in entries]
        kwargs = {k: v for k, v in cfg.items() if k != "attacks"}
        return ExperimentSpec(attacks=attacks, **kwargs)


@dataclass
class MetricsRow:
    config_id: str
    attack_kind: str
    attack_rate: float
    mode: str
    s_max: int
    tau: int
    trials: int
    tpr: float
    fpr: float
    precision: float | None
    f1: float | None
    match_rate: float
    mean_matched_ratio: float
    tpr_lo: float
    tpr_hi: float
    fpr_lo: float
    fpr_hi: float
    diagnostic: str = ""


CSV_FIELDS = ["format_version", *(f.name for f in fields(MetricsRow))]
# always blank, so that the CSV layout stays fixed: a campaign's modes share
# one detection pass, and detection latency is latency_bench's to measure
CSV_FIELDS.insert(CSV_FIELDS.index("tpr_lo"), "mean_latency_ms")


def wilson(successes: int, n: int):
    """Wilson 95% score interval for a binomial rate."""
    z = WILSON_Z
    if n == 0:
        return 0.0, 1.0
    p = successes / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _seed_for(master: int, *path: int) -> int:
    ss = np.random.SeedSequence([master, *path])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _random_payload(code: BchCode, rng: np.random.Generator) -> np.ndarray:
    v = int(rng.integers(1, 1 << code.k))   # nonzero message
    return int_to_bits(v, code.k)


def _derive_key(master: int) -> SecretKey:
    rng = np.random.default_rng(_seed_for(master, 905))
    return SecretKey(rng.bytes(32))


@dataclass
class TrialOutcome:
    matched: int
    block_count: int
    payload_ok: bool


def _run_trials(spec: ExperimentSpec):
    """Generate, attack and detect; returns raw per-trial outcomes keyed by
    (attack index, mode, s_max, arm) where arm is 'wm' or 'h0'.  Every
    (mode, s_max) is scored from one detect_all pass per text."""
    code = BchCode.make(*spec.code)
    key = _derive_key(spec.master_seed)
    src = logit_source(spec.vocab_size, spec.mass)
    cfgs = [DetectConfig(code=code, key=key, s_max=s_max, mode=mode,
                         tau=1, diverse=spec.diverse)
            for mode in spec.mode_grid for s_max in spec.s_max_grid]
    if not cfgs or min(spec.tau_grid, default=0) < 1:
        raise ContractError("a campaign needs a mode, an s_max and taus >= 1")

    results: dict[tuple, list[TrialOutcome]] = {}
    for ai, atk in enumerate(spec.attacks):
        for trial in range(spec.trials):
            rng = np.random.default_rng(
                _seed_for(spec.master_seed, 1, ai, trial))
            payload = _random_payload(code, rng)
            wm = embed(src, key, payload, EmbedConfig(
                code=code, delta=spec.delta, scheme=spec.scheme,
                token_count=spec.text_len, diverse=spec.diverse,
                rng_seed=_seed_for(spec.master_seed, 2, ai, trial)))
            h0 = sample_unwatermarked(
                src, spec.text_len, _seed_for(spec.master_seed, 3, ai, trial))
            arms = {"wm": (wm, payload), "h0": (h0, None)}
            for arm_i, (arm, (seq, true_payload)) in enumerate(arms.items()):
                if atk.rate > 0.0:
                    seq = attack(seq, AttackSpec(
                        atk.kind, atk.rate,
                        _seed_for(spec.master_seed, 4, ai, trial, arm_i)),
                        key=key, n=code.n)
                for cfg, rep in zip(cfgs, detect_all(seq, cfgs)):
                    ok = (true_payload is not None
                          and rep.payload is not None
                          and np.array_equal(rep.payload, true_payload))
                    outcome = TrialOutcome(rep.matched, rep.block_count, ok)
                    results.setdefault((ai, cfg.mode, cfg.s_max, arm),
                                       []).append(outcome)
    return code, results


def _grid(spec: ExperimentSpec, results):
    """(attack, mode, s_max, watermarked outcomes, H0 outcomes) for every
    grid point, in campaign row order."""
    for ai, atk in enumerate(spec.attacks):
        for mode in spec.mode_grid:
            for s_max in spec.s_max_grid:
                yield (atk, mode, s_max,
                       results.get((ai, mode, s_max, "wm"), []),
                       results.get((ai, mode, s_max, "h0"), []))


def _make_row(spec, atk, mode, s_max, wm, h0, tau) -> MetricsRow:
    n_wm, n_h0 = len(wm), len(h0)
    tp = sum(o.matched >= tau for o in wm)
    fp = sum(o.matched >= tau for o in h0)
    tpr = tp / n_wm if n_wm else 0.0
    fpr = fp / n_h0 if n_h0 else 0.0
    precision = tp / (tp + fp) if (tp + fp) else None
    f1 = None
    if precision is not None and (precision + tpr) > 0:
        f1 = 2 * precision * tpr / (precision + tpr)
    match = sum(o.payload_ok and o.matched >= tau for o in wm)
    ratios = [o.matched / o.block_count for o in wm if o.block_count]
    t_lo, t_hi = wilson(tp, n_wm)
    f_lo, f_hi = wilson(fp, n_h0)
    diag = "" if spec.text_len >= spec.code[0] else "text shorter than one block"
    cid = f"{atk.kind}@{atk.rate:g}|{mode}|s{s_max}|tau{tau}"
    return MetricsRow(
        config_id=cid, attack_kind=atk.kind, attack_rate=atk.rate,
        mode=mode, s_max=s_max, tau=tau, trials=spec.trials,
        tpr=tpr, fpr=fpr, precision=precision, f1=f1,
        match_rate=match / n_wm if n_wm else 0.0,
        mean_matched_ratio=sum(ratios) / len(ratios) if ratios else 0.0,
        tpr_lo=t_lo, tpr_hi=t_hi, fpr_lo=f_lo, fpr_hi=f_hi,
        diagnostic=diag)


def run_campaign(spec: ExperimentSpec) -> list[MetricsRow]:
    _, results = _run_trials(spec)
    return [_make_row(spec, *point, tau) for point in _grid(spec, results)
            for tau in spec.tau_grid]


def roc_sweep(spec: ExperimentSpec) -> dict:
    """(FPR, TPR) points sweeping tau over 1..M for every grid point."""
    code, results = _run_trials(spec)
    taus = range(1, spec.text_len // code.n + 1)
    curves = {}
    for atk, mode, s_max, wm, h0 in _grid(spec, results):
        rows = [_make_row(spec, atk, mode, s_max, wm, h0, tau) for tau in taus]
        curves[(atk.kind, atk.rate, mode, s_max)] = [(r.tau, r.fpr, r.tpr)
                                                     for r in rows]
    return curves


def roc_auc(points) -> float:
    """Trapezoidal area of a (tau, fpr, tpr) curve, closed at (0,0)/(1,1)."""
    pts = sorted([(f, t) for _, f, t in points] + [(0.0, 0.0), (1.0, 1.0)])
    area = 0.0
    for (f0, t0), (f1, t1) in zip(pts, pts[1:]):
        area += (f1 - f0) * (t0 + t1) / 2
    return area


def ber_curve(delta_grid, mass: float, bit_count: int, code: BchCode,
              vocab_size: int, master_seed: int = 0) -> list[dict]:
    """Per-delta bit error rate of watermarked text plus an unwatermarked
    reference arm, measured against the designated bit schedule."""
    check_seed("master_seed", master_seed)
    key = _derive_key(master_seed)
    src = ControlledMassSource(vocab_size, mass)
    rng = np.random.default_rng(_seed_for(master_seed, 10))
    payload = _random_payload(code, rng)
    rows = []
    for di, delta in enumerate(delta_grid):
        seq = embed(src, key, payload, EmbedConfig(
            code=code, delta=delta, scheme="soft", token_count=bit_count,
            rng_seed=_seed_for(master_seed, 11, di)))
        rows.append({"delta": delta, "arm": "watermarked",
                     "ber": _ber_against_plan(seq, key, payload, code)})
    h0 = sample_unwatermarked(UniformSource(vocab_size), bit_count,
                              _seed_for(master_seed, 12))
    rows.append({"delta": None, "arm": "unwatermarked",
                 "ber": _ber_against_plan(h0, key, payload, code)})
    return rows


def _ber_against_plan(seq: TokenSequence, key: SecretKey,
                      payload: np.ndarray, code: BchCode) -> float:
    """The share of seq's keyed bits at offset 0 that differ from the
    payload plan's target bits: one block_windows, one plan_rows."""
    rows, bks = block_windows(seq, key, code.n, code.k, 0, 0)
    U = len(seq.tokens)
    target = plan_rows(bks, payload, code, False)[1]
    return float(np.mean(rows.ravel()[:U] != target.ravel()[:U]))


def latency_bench(text_lens, codes, s_max_grid, repeats: int = 5,
                  vocab_size: int = 512, master_seed: int = 0) -> list[dict]:
    """Median single-text detection time per (T, code, s_max) cell."""
    check_seed("master_seed", master_seed)
    check_setting("repeats", repeats, int)
    if repeats < 1:
        raise ContractError(f"repeats must be >= 1, got {repeats}")
    key = _derive_key(master_seed)
    rows = []
    for T in text_lens:
        for code_params in codes:
            code = BchCode.make(*code_params)
            src = UniformSource(vocab_size)
            rng = np.random.default_rng(_seed_for(master_seed, 20, T, code.n))
            payload = _random_payload(code, rng)
            seq = embed(src, key, payload, EmbedConfig(
                code=code, delta=2.5, scheme="soft", token_count=T,
                rng_seed=_seed_for(master_seed, 21, T, code.n)))
            for s_max in s_max_grid:
                cfg = DetectConfig(code=code, key=key, s_max=s_max, tau=1)
                detect(seq, cfg)
                times = []
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    detect(seq, cfg)
                    times.append(time.perf_counter() - t0)
                rows.append({"text_len": T, "n": code.n, "s_max": s_max,
                             "median_s": sorted(times)[len(times) // 2]})
    return rows


def write_metrics(fh, rows: list[MetricsRow]) -> None:
    """Write the campaign CSV to an open text stream; identical (spec,
    master seed) runs give byte-identical files."""
    w = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
    w.writeheader()
    for row in rows:
        rec = asdict(row)
        rec["format_version"] = FORMAT_VERSION
        for field_name in ("tpr", "fpr", "precision", "f1", "match_rate",
                           "mean_matched_ratio", "tpr_lo", "tpr_hi",
                           "fpr_lo", "fpr_hi"):
            v = rec[field_name]
            rec[field_name] = "" if v is None else f"{v:.6f}"
        w.writerow(rec)
