#!/usr/bin/env python3
"""Where a detection workload's p50_ms falls: detection time per text kind.

    PYTHONPATH=src python3 tools/batch_kinds.py --seed N \
        [--workload detect-warm|detect-cold] [--repeats 9]

The package is imported from PYTHONPATH, so `PYTHONPATH=DIR/src` reads
the checkout in DIR.  The batch is the one perfbench's workload builds at
benchmark seed N (`perfbench/workloads.py`, imported as it stands and
only read):

- detect-warm (the default): 32 texts of (31,6,7) at V = 1024, eight
  each of clean, prefix-shifted, attacked and unwatermarked, detected
  with `both` at s_max 5 under one key.  One untimed detection per text
  first warms the keyed-bit cache, as the workload does.
- detect-cold: 12 texts of (127,92,5) at V = 32768, six watermarked and
  six unwatermarked, each under its own key, detected with `both` at
  s_max 2.  The keyed-bit cache and the block keys are cleared before
  every detection, so that each one reads its key as new, as the
  workload's fresh process per round does.

Each text is then detected `--repeats` times in turn, and its time is the
median of its repeats.  One line per kind prints its number of texts, how
many of them have an offset of ratio 1 (a report of score 1), and the
median of their times in ms.  The last line does the same for the whole
batch.  The workload's p50_ms is the median over the same texts, so it
falls on a text of ratio 1 where more than half have one, and between the
dearest of them and the cheapest other text where exactly half do.
"""
import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from blockmark import detector, keying  # noqa: E402

# each workload's class and its text kinds, in print order
WORKLOADS = {"detect-warm": (workloads.DetectWarm,
                             workloads.DetectWarm.KINDS),
             "detect-cold": (workloads.DetectCold, ("wm", "h0"))}


def forget_keys() -> None:
    """Clear the keyed-bit cache and the block keys."""
    keying._cache.clear()
    keying._held = 0
    keying.derive_block_key.cache_clear()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workload", choices=WORKLOADS, default="detect-warm")
    p.add_argument("--repeats", type=int, default=9)
    args = p.parse_args(argv)
    make, kind_order = WORKLOADS[args.workload]
    cold = args.workload == "detect-cold"
    wl = make()
    with tempfile.TemporaryDirectory() as tmp:
        wl.build(args.seed, Path(tmp))
        state = wl.load(Path(tmp))
    seqs = state["seqs"]
    cfgs = state["cfgs"] if cold else [state["cfg"]] * len(seqs)
    kinds = [m["kind"] for m in state["meta"]]
    perfect = [detector.detect(seq, cfg).score == 1
               for seq, cfg in zip(seqs, cfgs)]
    times = [[] for _ in seqs]
    for _ in range(args.repeats):
        for seq, cfg, spent in zip(seqs, cfgs, times):
            if cold:
                forget_keys()
            start = time.perf_counter()
            detector.detect(seq, cfg)
            spent.append(time.perf_counter() - start)
    ms = [statistics.median(spent) * 1e3 for spent in times]
    for kind in (*kind_order, None):
        at = [i for i, k in enumerate(kinds) if kind in (k, None)]
        print(f"{kind or 'all':6} texts {len(at):2}  ratio-1 "
              f"{sum(perfect[i] for i in at):2}  median "
              f"{statistics.median(ms[i] for i in at):.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
