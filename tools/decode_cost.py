#!/usr/bin/env python3
"""Per-call cost of bch.decode_rows with each Berlekamp-Massey form.

    PYTHONPATH=src python3 tools/decode_cost.py [--repeats 7] [--seed 0]

The package is imported from PYTHONPATH, so `PYTHONPATH=DIR/src` reads
the checkout in DIR.  For each of the six codes and 1, 2, 4, ..., 256
random rows (one chunk), with 12, 20, 24 and 28 between, a decode_rows
call runs once with bch.ARRAY_BM_ROWS patched to 1 (every chunk takes
the array form) and once with it patched above DECODE_CHUNK (every chunk
takes the scalar loop), the two alternating, `--repeats` times over
enough calls for about 20 ms each.  One line per code and row count
prints the median per-call µs of each form and their ratio; each code's
last line names its crossover: the fewest rows from which the array form
was the cheaper at every measured count.  The rows are random words, as
the blocks of unwatermarked and attacked texts are; rows nearer a
codeword cost the scalar loop less per row.
"""
import argparse
import statistics
import sys
import time
from unittest import mock

import numpy as np

from blockmark import bch

# 1, 2, 4, ..., 256 (DECODE_CHUNK), and every 4 rows where the codes cross
ROWS = sorted({1 << i for i in range(9)} | set(range(8, 32, 4)))
FORMS = {"array": 1, "scalar": bch.DECODE_CHUNK + 1}


def per_call_us(code, words, threshold: int, calls: int) -> float:
    with mock.patch.object(bch, "ARRAY_BM_ROWS", threshold):
        start = time.perf_counter()
        for _ in range(calls):
            bch.decode_rows(code, words)
        return (time.perf_counter() - start) / calls * 1e6


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeats", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    for key in sorted(bch.NAMED_CODES):
        code = bch.BchCode.make(*key)
        cheaper = []
        for rows in ROWS:
            words = rng.integers(0, 2, (rows, code.n)).astype(np.uint8)
            # one untimed call per form, then ~20 ms a timed repeat
            first = per_call_us(code, words, FORMS["scalar"], 1)
            per_call_us(code, words, FORMS["array"], 1)
            calls = max(1, int(2e4 / first))
            times = {form: [] for form in FORMS}
            for _ in range(args.repeats):
                for form, threshold in FORMS.items():
                    times[form].append(
                        per_call_us(code, words, threshold, calls))
            us = {form: statistics.median(t) for form, t in times.items()}
            cheaper.append(us["array"] < us["scalar"])
            print(f"{key!s:14} rows {rows:3}  scalar {us['scalar']:8.1f} us"
                  f"  array {us['array']:8.1f} us  "
                  f"array/scalar {us['array'] / us['scalar']:5.2f}")
        cross = next((r for i, r in enumerate(ROWS) if all(cheaper[i:])),
                     None)
        print(f"{key!s:14} crossover: array cheaper from "
              f"{cross if cross else 'no count'} rows"
              + ("" if cross is None or cross == 1 else
                 f" (scalar cheaper at {ROWS[ROWS.index(cross) - 1]})"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
