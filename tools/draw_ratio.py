#!/usr/bin/env python3
"""Cost of each two-level embedding relative to a bare draw of its doubles.

    PYTHONPATH=src python3 tools/draw_ratio.py [--pairs 41]

The package is imported from PYTHONPATH, so `PYTHONPATH=DIR/src` reads
the checkout in DIR.  For each of four two-level operations (a soft
UniformSource embedding, a soft ControlledMassSource embedding at mass
0.5, a hard UniformSource embedding, and an unwatermarked UniformSource
text), at (V=1024, T=512) and (V=512, T=200), code (31,6,7), pair i
times the operation once and `rng.random(T * V)` once, one right after
the other, the draw first in odd pairs.  Each line prints the median of
the per-pair ratios, their quartiles, and the median times in ms.  A
pair's two timings share the host's state at that moment, so the ratio
moves less with a shared host's drift than either time does.
"""
import argparse
import statistics
import time

import numpy as np

from blockmark.bch import BchCode, int_to_bits
from blockmark.generation import ControlledMassSource, EmbedConfig, \
    UniformSource, embed, sample_unwatermarked
from blockmark.keying import SecretKey

KEY = SecretKey(bytes(range(32)))
CODE = BchCode.make(31, 6, 7)
SIZES = ((1024, 512), (512, 200))


def operations(V: int, T: int) -> dict:
    """The timed operations at (V, T); each takes a seed."""
    def embedding(src, scheme, delta):
        def run(seed):
            cfg = EmbedConfig(code=CODE, delta=delta, scheme=scheme,
                              token_count=T, rng_seed=seed)
            embed(src, KEY, int_to_bits(seed % 64, CODE.k), cfg)
        return run
    return {
        "uniform": embedding(UniformSource(V), "soft", 2.0),
        "mass": embedding(ControlledMassSource(V, 0.5), "soft", 2.0),
        "hard": embedding(UniformSource(V), "hard", 0.0),
        "h0": lambda seed: sample_unwatermarked(UniformSource(V), T, seed),
    }


def seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pairs", type=int, default=41)
    args = p.parse_args(argv)
    for V, T in SIZES:
        for name, op in operations(V, T).items():
            op(0)                                  # warm the keyed bits
            ops, draws = [], []
            for i in range(args.pairs):
                def draw():
                    np.random.default_rng(i).random(T * V)
                if i % 2:
                    draws.append(seconds(draw))
                    ops.append(seconds(lambda: op(i)))
                else:
                    ops.append(seconds(lambda: op(i)))
                    draws.append(seconds(draw))
            ratios = [a / b for a, b in zip(ops, draws)]
            q1, med, q3 = statistics.quantiles(ratios, n=4,
                                               method="inclusive")
            print(f"V={V:<5} T={T:<4} {name:<8} ratio {med:.2f} "
                  f"(q {q1:.2f}-{q3:.2f})  op "
                  f"{statistics.median(ops) * 1e3:.3f} ms  draw "
                  f"{statistics.median(draws) * 1e3:.3f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
