#!/usr/bin/env python3
"""blockmark benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` of
the same checkout, never from an installed copy.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

--trace 0: three fresh processes each do the workload's set-up (imports,
codes, keys, inputs, warm-up) and time it step by step at nominal host
speed; the median of the three is ``setup_s``.
The workload then repeats whole rounds of its operations for ``--seconds``
seconds -- in this process, or for detect-cold in a fresh process per
round -- and every output is checked after timing.

--trace 1: one process does set-up plus one round untraced, another does
the same traced; per-layer metrics come from the traced one's spans and
the difference of the two wall times is the tracing overhead.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()   # a set-up process's clock starts here

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# at most nproc threads: keep numerical libraries single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "throughput": "items/s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import the package from this checkout's src/ or exit non-zero."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import blockmark
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import blockmark from {SRC}: {exc}")
    if Path(blockmark.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: blockmark imported from {blockmark.__file__}, "
                 f"not from {SRC}")
    import workloads
    return workloads.WORKLOADS


def child(args, phase: str, workdir: Path, *extra: str) -> dict | None:
    """Run this script in a fresh interpreter for one phase; returns the
    JSON object on its last stdout line, if it printed one."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--phase", phase,
           "--workdir", str(workdir), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"perfbench: {phase} process failed "
                 f"(exit {proc.returncode})")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------- phases

def phase_setup(wl, args, workdir: Path) -> None:
    """Set-up as a fresh process does it.  Prints its speed-corrected and
    raw time, which leave out the calibrations, and the time elapsed since
    T_START; with --traced, prints the trace instead."""
    import workloads
    clock = workloads.SetupClock(T_START)
    clock.lap()     # interpreter start-up and imports
    tracer = None
    if args.traced:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install(workloads.LOGIT_CLASSES)
    wl.build(args.seed, workdir, clock.lap)
    state = wl.load(workdir)
    clock.lap()
    wl.warm(state, clock.lap)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(OUT / "traces" / f"{wl.name}-seed{args.seed}-setup.npz")
        print(json.dumps(tracer.raw()))
    else:
        print(json.dumps({"setup_s": clock.corrected, "raw_s": clock.raw,
                          "elapsed_s": time.perf_counter() - T_START}))


def phase_round(wl, args, workdir: Path) -> None:
    """One detect-cold round in a process that has not seen the keys."""
    import workloads
    state = wl.load(workdir)
    records = workloads.time_round(wl.ops(state))
    print(json.dumps({"rss_mb": peak_rss_mb(),
                      "records": [[r.op, r.seconds, r.calib, r.output,
                                   r.error] for r in records]}))


def phase_trace(wl, args, workdir: Path, traced: bool) -> None:
    """Set-up plus one round, traced or not; reports wall time, the
    check outcome and (traced) the raw span sums."""
    import tracer as tracing
    import workloads
    raws = []
    tracer = tracing.Tracer() if traced else None
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.install(workloads.LOGIT_CLASSES)
    if wl.cold:
        out = child(args, "setup", workdir, *(["--traced"] if traced else []))
        if traced:
            raws.append(out)
    else:
        wl.build(args.seed, workdir)
    state = wl.load(workdir)
    wl.warm(state)
    records = workloads.time_round(wl.ops(state), keep=True)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        raws.append(tracer.raw())
        tracer.dump(OUT / "traces" / f"{wl.name}-seed{args.seed}.npz")
    outcome = wl.check(state, [records])
    print(json.dumps({"wall_s": wall, "attempted": outcome.attempted,
                      "failed": outcome.failed, "notes": outcome.notes,
                      "raw": tracing.merge(raws) if raws else None}))


# --------------------------------------------------------- run modes

def measure(wl, args, run_dir: Path) -> dict:
    import workloads
    # A set-up's time is what its process measured at nominal speed plus,
    # uncorrected, what lies outside its clock: starting the interpreter
    # and ending the process.
    setup, setup_raw = [], []
    for i in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        out = child(args, "setup", run_dir / f"setup{i}")
        outside = time.perf_counter() - t0 - out["elapsed_s"]
        setup.append(out["setup_s"] + outside)
        setup_raw.append(out["raw_s"] + outside)
    workdir = run_dir / "setup0"
    state = wl.load(workdir)
    ops = wl.ops(state)
    rounds = []
    rss = []
    t0 = time.perf_counter()
    if wl.cold:
        while time.perf_counter() - t0 < args.seconds:
            out = child(args, "round", workdir)
            rss.append(out["rss_mb"])
            rounds.append([workloads.Record(*rec) for rec in out["records"]])
    else:
        wl.warm(state)
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < args.seconds:
            rounds.append(workloads.time_round(ops, keep=not rounds))
        rss.append(peak_rss_mb())
    outcome = wl.check(state, rounds)

    # An op's time is the median of its speed-corrected repeats: the
    # host's speed drifts up to 2x over seconds to minutes, and correcting
    # each call by the calibration around it removes most of that (see
    # README).
    nominal = workloads.CALIB_NOMINAL_S
    typical = [statistics.median(rnd[i].seconds * nominal / rnd[i].calib
                                 for rnd in rounds) for i in range(len(ops))]
    raw = [statistics.median(rnd[i].seconds for rnd in rounds)
           for i in range(len(ops))]

    def summary(times):
        lat = [b for op, b in zip(ops, times) if op.name in wl.latency_ops]
        busy = [(op.items, b) for op, b in zip(ops, times)
                if op.name in wl.throughput_ops]
        return {"p50_ms": statistics.median(lat) * 1e3,
                "p90_ms": statistics.quantiles(
                    lat, n=10, method="inclusive")[8] * 1e3,
                "throughput": (sum(i for i, _ in busy)
                               / sum(s for _, s in busy))}

    metrics = {"setup_s": statistics.median(setup), **summary(typical),
               "peak_rss_mb": max(rss)}
    uncorrected = {"setup_s": statistics.median(setup_raw),
                   **summary(raw)}
    info = {"rounds": len(rounds), "ops_per_round": len(ops),
            "setup_s": setup, "setup_raw_s": setup_raw,
            "uncorrected": uncorrected,
            "notes": outcome.notes,
            "item": wl.item_unit}
    return {"outcome": outcome, "metrics": metrics, "info": info,
            "units": END_TO_END}


def trace(wl, args, run_dir: Path) -> dict:
    plain = child(args, "untraced", run_dir / "untraced")
    traced = child(args, "traced", run_dir / "traced")
    import tracer as tracing
    import workloads
    metrics = tracing.layer_metrics(traced["raw"])
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.untraced_wall_s"] = plain["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    outcome = workloads.Outcome(plain["attempted"] + traced["attempted"],
                                plain["failed"] + traced["failed"],
                                plain["notes"] + traced["notes"])
    consistent = metrics["trace.self_s_total"] <= traced["wall_s"]
    if not consistent:
        outcome.notes.append("span self times exceed the traced wall time")
    info = {"overhead_s": metrics["trace.overhead_s"],
            "notes": outcome.notes}
    return {"outcome": outcome, "metrics": metrics, "info": info,
            "units": tracing.METRICS, "consistent": consistent}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--phase", default=None, help=argparse.SUPPRESS,
                   choices=("setup", "round", "untraced", "traced"))
    p.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    p.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    known = import_program()
    if args.workload not in known:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(known)}")
    wl = known[args.workload]

    if args.phase is not None:
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        if args.phase == "setup":
            phase_setup(wl, args, workdir)
        elif args.phase == "round":
            phase_round(wl, args, workdir)
        else:
            phase_trace(wl, args, workdir, args.phase == "traced")
        return 0

    import numpy as np
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        res = (trace if args.trace else measure)(wl, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    outcome = res["outcome"]
    print(json.dumps({
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
        "workload": wl.name, "vocab_size": wl.vocab_size,
        "attempted": outcome.attempted, "failed": outcome.failed,
        **res["info"]}))
    print(json.dumps({
        "correct": outcome.failed == 0 and res.get("consistent", True),
        "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": {name: {"value": res["metrics"][name], "unit": unit}
                    for name, unit in res["units"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
