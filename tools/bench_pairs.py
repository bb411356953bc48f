#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written as BENCH_<topic>.json.

    python3 tools/bench_pairs.py --parent DIR --topic NAME --summary TEXT
        [--seed0 501] [--trace-metrics M,M] [--host NOTE]

DIR is a checkout of the parent commit (a git worktree, clone or archive);
the change is the checkout that holds this script.  For each of the four
workloads, pair i of 10 runs `perfbench/run.py --workload W --seed SEED0+i
--seconds S --trace 0`, S the run_seconds of BENCHMARK.json, in both
checkouts, one run at a time, the parent first in even pairs and the
change first in odd pairs.  Each metric's entry holds both sides' medians,
quartiles and spread, the relative change of the medians, the number of
pairs in which the change was better, and the bound from BENCHMARK.json.
With --trace-metrics, one `--trace 1` run per side and workload, seed 7,
adds the named per-layer metrics.  The file is written to the change's
root.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("detect-warm", "detect-cold", "embed", "campaign")
PAIRS = 10
TRACE_SEED = 7
COMMAND = ("python3 perfbench/run.py --workload W --seed S "
           "--seconds {seconds:g} --trace {trace}")


def run(checkout: Path, workload: str, seed: int, seconds: float,
        trace: int) -> tuple[dict, dict]:
    """One benchmark run in `checkout`: its info line and result line."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    info, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    return info, result


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "spread": round((q3 - q1) / median, 4)}


def compare(runs: dict, spec: dict) -> dict:
    """Per-metric comparison of the two sides' untraced runs."""
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        vals = {side: [r["metrics"][name]["value"] for _, r in runs[side]]
                for side in ("parent", "change")}
        sign = -1 if metric["better"] == "lower" else 1
        better = sum(sign * (c - p) > 0
                     for p, c in zip(vals["parent"], vals["change"]))
        p_med = statistics.median(vals["parent"])
        c_med = statistics.median(vals["change"])
        out[name] = {
            "parent": quartiles(vals["parent"]),
            "change": quartiles(vals["change"]),
            "change_vs_parent": round(c_med / p_med - 1, 4),
            "change_better_pairs": better,
            "pairs": len(vals["parent"]),
            "bound": metric["bound"],
            "parent_values": [round(v, 4) for v in vals["parent"]],
            "change_values": [round(v, 4) for v in vals["change"]],
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--topic", required=True)
    p.add_argument("--summary", required=True)
    p.add_argument("--seed0", type=int, default=501)
    p.add_argument("--trace-metrics", default="")
    p.add_argument("--host", default="",
                   help="a note on the host, written under machine")
    args = p.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    traced = [m for m in args.trace_metrics.split(",") if m]

    report = {
        "topic": args.topic,
        "summary": args.summary,
        "command": COMMAND.format(seconds=seconds, trace=0),
        "design": (f"{PAIRS} pairs per workload; pair i runs seed "
                   f"{args.seed0}+i on the parent commit and on this "
                   "change, parent first in even pairs and change first "
                   "in odd pairs; one run at a time"),
        "machine": None,
        "spread_definition": (f"(q3 - q1) / median over the {PAIRS} "
                              "runs of one side"),
        "workloads": {},
    }
    for wl in WORKLOADS:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 \
                else ("change", "parent")
            for side in order:
                runs[side].append(run(sides[side], wl, args.seed0 + i,
                                      seconds, 0))
                print(f"{wl} pair {i} {side} done", file=sys.stderr)
        info = runs["change"][0][0]
        report["machine"] = {**info["machine"], "host": args.host}
        report["workloads"][wl] = {
            "vocab_size": info["vocab_size"],
            "runs": {side: len(r) for side, r in runs.items()},
            "correct": all(res["correct"] for r in runs.values()
                           for _, res in r),
            "failed_ops": {side: sum(res["failed"] for _, res in r)
                           for side, r in runs.items()},
            "rounds_median": {side: statistics.median(
                run_info["rounds"] for run_info, _ in r)
                for side, r in runs.items()},
            "metrics": compare(runs, spec),
        }
    if traced:
        report["trace"] = {
            "command": COMMAND.replace(
                "--seed S", f"--seed {TRACE_SEED}").format(
                    seconds=seconds, trace=1),
            "workloads": {}}
        for wl in WORKLOADS:
            entry = report["trace"]["workloads"][wl] = {}
            for side, checkout in sides.items():
                _, res = run(checkout, wl, TRACE_SEED, seconds, 1)
                entry[side] = {"correct": res["correct"],
                               "failed": res["failed"],
                               **{m: round(res["metrics"][m]["value"], 4)
                                  for m in traced}}
    path = ROOT / f"BENCH_{args.topic}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
