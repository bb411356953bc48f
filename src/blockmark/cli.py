"""Command-line interface.

Subcommands: embed, sample-h0, attack, detect, bounds, params, campaign,
roc, ber, bench.  Sequences travel as JSON-lines files; metrics come out
as CSV, reports as JSON.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import asdict

from . import seqio
from .attacks import KINDS, AttackSpec, attack
from .bch import BchCode, ContractError, bits_to_int, code_params, \
    int_to_bits
from .bounds import BoundParams, param_search, report as bounds_report
from .detector import MODES, DetectConfig, detect
from .generation import EmbedConfig, UniformSource, embed, logit_source, \
    sample_unwatermarked
from .harness import ExperimentSpec, ber_curve, latency_bench, roc_sweep, \
    run_campaign, write_metrics


def _code_params(text: str) -> tuple:
    """The (n, k, t) an "n,k,t" option value spells."""
    try:
        return code_params([int(x) for x in text.split(",")])
    except (ValueError, ContractError):
        return code_params(text)    # refuses every string, naming this one


def _parse_code(text: str) -> BchCode:
    return BchCode.make(*_code_params(text))


def _add_common(p):
    p.add_argument("--key-file", required=True,
                   help="file holding 64 hex chars of key material")
    p.add_argument("--code", default="31,6,7", help="n,k,t")


@contextlib.contextmanager
def _output(path):
    """Standard output for "-", else the file at `path` (UTF-8, written
    with no newline translation)."""
    if path == "-":
        yield sys.stdout
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        yield fh


def _count(args) -> range:
    """The indices of the --count sequences to write; a negative count
    raises ContractError."""
    if args.count < 0:
        raise ContractError(f"count must be >= 0, got {args.count}")
    return range(args.count)


def cmd_embed(args):
    code = _parse_code(args.code)
    if not 0 <= args.payload < 1 << code.k:
        raise ContractError(f"payload must lie in [0, 2^{code.k}) for "
                            f"k = {code.k}, got {args.payload}")
    key = seqio.read_key(args.key_file)
    payload = int_to_bits(args.payload, code.k)
    src = logit_source(args.vocab_size, args.mass)
    seqs = []
    for i in _count(args):
        cfg = EmbedConfig(code=code, delta=args.delta, scheme=args.scheme,
                          token_count=args.tokens, rng_seed=args.seed + i)
        seqs.append(embed(src, key, payload, cfg))
    with _output(args.output) as out:
        seqio.dump_sequences(out, seqs)


def cmd_sample_h0(args):
    src = UniformSource(args.vocab_size)
    seqs = [sample_unwatermarked(src, args.tokens, args.seed + i)
            for i in _count(args)]
    with _output(args.output) as out:
        seqio.dump_sequences(out, seqs)


def cmd_attack(args):
    seqs = seqio.read_sequences(args.input)
    key = seqio.read_key(args.key_file) if args.key_file else None
    code = _parse_code(args.code) if args.code else None
    attacked = []
    for i, seq in enumerate(seqs):
        spec = AttackSpec(args.kind, args.rate, args.seed + i)
        attacked.append(attack(seq, spec, key=key,
                               n=code.n if code else None))
    with _output(args.output) as out:
        seqio.dump_sequences(out, attacked)


def cmd_detect(args):
    code = _parse_code(args.code)
    key = seqio.read_key(args.key_file)
    cfg = DetectConfig(code=code, key=key, s_max=args.s_max, tau=args.tau,
                       mode=args.mode, diverse=args.diverse,
                       prompt_len=args.prompt_len)
    items = seqio.read_sequences(args.input, keep_bad=True)
    with _output(args.output) as out:
        for item in items:
            if isinstance(item, seqio.BadRecord):
                rec = asdict(item)
            else:
                rep = detect(item, cfg)
                rec = asdict(rep)
                rec["payload"] = None if rep.payload is None \
                    else bits_to_int(rep.payload)
            rec["format_version"] = seqio.FORMAT_VERSION
            out.write(json.dumps(rec, sort_keys=True) + "\n")


def cmd_bounds(args):
    n, k, t = _code_params(args.code)
    params = BoundParams(q=args.q, n=n, k=k, t=t, s_max=args.s_max,
                         theta=args.theta, M=args.blocks, delta=args.delta,
                         mass=args.mass, p_att=args.p_att)
    json.dump(bounds_report(params), sys.stdout, indent=2, sort_keys=True)
    print()


def cmd_params(args):
    best = param_search(args.alpha, args.beta, args.p_att, mass=args.mass)
    if best is None:
        print(json.dumps({"found": False}))
        return
    out = {"found": True, "n": best.n, "k": best.k, "t": best.t,
           "M": best.M, "theta": best.theta, "delta": best.delta,
           "s_max": best.s_max}
    print(json.dumps(out, sort_keys=True))


def _load_spec(path) -> ExperimentSpec:
    with open(path, encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except ValueError as exc:     # not UTF-8 or not JSON
            raise ContractError(f"{path}: {exc}") from exc
    return ExperimentSpec.from_dict(spec)


def cmd_campaign(args):
    rows = run_campaign(_load_spec(args.config))
    with _output(args.output) as out:
        write_metrics(out, rows)


def cmd_roc(args):
    spec = _load_spec(args.config)
    curves = roc_sweep(spec)
    with _output(args.output) as out:
        out.write("format_version,attack_kind,attack_rate,mode,s_max,"
                  "tau,fpr,tpr\n")
        for (kind, rate, mode, s_max), pts in sorted(curves.items()):
            for tau, fpr, tpr in pts:
                out.write(f"{seqio.FORMAT_VERSION},{kind},{rate:g},{mode},"
                          f"{s_max},{tau},{fpr:.6f},{tpr:.6f}\n")


def cmd_ber(args):
    code = _parse_code(args.code)
    deltas = [float(d) for d in args.deltas.split(",")]
    rows = ber_curve(deltas, args.mass, args.bits, code, args.vocab_size,
                     args.seed)
    print("format_version,delta,arm,ber")
    for r in rows:
        d = "" if r["delta"] is None else f"{r['delta']:g}"
        print(f"{seqio.FORMAT_VERSION},{d},{r['arm']},{r['ber']:.6f}")


def cmd_bench(args):
    codes = [_code_params(c) for c in args.codes.split(";")]
    rows = latency_bench([int(x) for x in args.text_lens.split(",")],
                         codes,
                         [int(x) for x in args.s_max_grid.split(",")],
                         repeats=args.repeats, vocab_size=args.vocab_size,
                         master_seed=args.seed)
    print("format_version,text_len,n,s_max,median_s")
    for r in rows:
        print(f"{seqio.FORMAT_VERSION},{r['text_len']},{r['n']},{r['s_max']},"
              f"{r['median_s']:.4f}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="blockmark")
    sub = p.add_subparsers(dest="cmd", required=True)

    e = sub.add_parser("embed", help="generate watermarked sequences")
    _add_common(e)
    e.add_argument("--payload", type=int, required=True)
    e.add_argument("--tokens", type=int, default=200)
    e.add_argument("--count", type=int, default=1)
    e.add_argument("--vocab-size", type=int, default=1024)
    e.add_argument("--delta", type=float, default=2.5)
    e.add_argument("--scheme", choices=["soft", "hard"], default="soft")
    e.add_argument("--mass", type=float, default=None)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--output", required=True)
    e.set_defaults(func=cmd_embed)

    h = sub.add_parser("sample-h0", help="generate unwatermarked sequences")
    h.add_argument("--tokens", type=int, default=200)
    h.add_argument("--count", type=int, default=1)
    h.add_argument("--vocab-size", type=int, default=1024)
    h.add_argument("--seed", type=int, default=0)
    h.add_argument("--output", required=True)
    h.set_defaults(func=cmd_sample_h0)

    a = sub.add_parser("attack", help="apply an attack channel")
    a.add_argument("--kind", required=True, choices=KINDS)
    a.add_argument("--rate", type=float, required=True)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--key-file", default=None)
    a.add_argument("--code", default=None, help="n,k,t (bitflip only)")
    a.add_argument("--input", required=True)
    a.add_argument("--output", required=True)
    a.set_defaults(func=cmd_attack)

    d = sub.add_parser("detect", help="run the detector")
    _add_common(d)
    d.add_argument("--s-max", type=int, default=5)
    d.add_argument("--tau", type=int, default=1)
    d.add_argument("--mode", default="both", choices=MODES)
    d.add_argument("--diverse", action="store_true")
    d.add_argument("--prompt-len", type=int, default=0)
    d.add_argument("--input", required=True)
    d.add_argument("--output", default="-")
    d.set_defaults(func=cmd_detect)

    b = sub.add_parser("bounds", help="closed-form quantity report")
    b.add_argument("--code", default="31,6,7")
    b.add_argument("--q", type=int, default=2)
    b.add_argument("--s-max", type=int, default=5)
    b.add_argument("--theta", type=float, default=1 / 6)
    b.add_argument("--blocks", type=int, default=6)
    b.add_argument("--delta", type=float, default=2.5)
    b.add_argument("--mass", type=float, default=0.5)
    b.add_argument("--p-att", type=float, default=0.0)
    b.set_defaults(func=cmd_bounds)

    q = sub.add_parser("params", help="grid search for target error rates")
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--beta", type=float, required=True)
    q.add_argument("--p-att", type=float, default=0.0)
    q.add_argument("--mass", type=float, default=0.5)
    q.set_defaults(func=cmd_params)

    c = sub.add_parser("campaign", help="Monte-Carlo metrics campaign")
    c.add_argument("--config", required=True, help="JSON ExperimentSpec")
    c.add_argument("--output", default="-")
    c.set_defaults(func=cmd_campaign)

    r = sub.add_parser("roc", help="ROC sweep over tau")
    r.add_argument("--config", required=True)
    r.add_argument("--output", default="-")
    r.set_defaults(func=cmd_roc)

    be = sub.add_parser("ber", help="bit error rate vs bias strength")
    be.add_argument("--code", default="31,6,7")
    be.add_argument("--deltas", default="0,1.5,2,2.5,3,6")
    be.add_argument("--mass", type=float, default=0.5)
    be.add_argument("--bits", type=int, default=20000)
    be.add_argument("--vocab-size", type=int, default=1024)
    be.add_argument("--seed", type=int, default=0)
    be.set_defaults(func=cmd_ber)

    bn = sub.add_parser("bench", help="detection latency table")
    bn.add_argument("--text-lens", default="200,500")
    bn.add_argument("--codes", default="15,5,3;31,6,7;63,7,15")
    bn.add_argument("--s-max-grid", default="0,1,3,5")
    bn.add_argument("--repeats", type=int, default=5)
    bn.add_argument("--vocab-size", type=int, default=512)
    bn.add_argument("--seed", type=int, default=0)
    bn.set_defaults(func=cmd_bench)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ContractError, OSError) as exc:   # OSError: a file not opened
        raise SystemExit(f"blockmark: {exc}") from exc


if __name__ == "__main__":
    main()
