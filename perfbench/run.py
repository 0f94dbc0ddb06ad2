"""mubkit benchmark: three closed-loop workloads driven through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a mubkit checkout; NAME is build-square, verify-dense,
plan-batch or all.  One client sends the workload's operations one after
another, each through mubkit.cli.main in a single process and thread, and
the next only after the previous returned (see worker.py).

Inputs are generated from the seed before any measured process starts.
With --trace 0 the run starts SETUP_PROBES processes that only set up,
then one process that runs passes for S seconds, and reports the
end-to-end metrics.  Their times are scaled to a reference host speed
measured while they run (calibration.py); the raw wall times are on the
summary lines.  With --trace 1 it runs two processes for S/2 seconds
each that alternate untraced and traced passes, reports the per-layer
metrics with trace.overhead_s (traced minus the untraced pass before it,
median over pairs), and checks that every count repeats exactly across
the traced passes of both processes.  Metric names and units
come from BENCHMARK.json; layers.json says which end-to-end metric each
layer metric should move, and on which workload.

Summary lines and a run record go to stdout; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  fail_ratio is on
the summary lines: it is failed / attempted of that object.  Inputs,
spans and records are left under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import calibration
import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 10
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _spawn(work: str, spec: str, tag: str, deadline: float, seconds: float = 0.0,
           trace: bool = False, setup_only: bool = False) -> dict:
    out = os.path.join(work, f"result-{tag}.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--spec", spec, "--out", out,
            "--seconds", repr(seconds)]
    if trace:
        argv += ["--trace", os.path.join(work, f"spans-{tag}.json.gz")]
    if setup_only:
        argv.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(argv + ["--t0", repr(t0)], capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {tag} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _tally(results: list[dict]) -> tuple[int, int, list[str]]:
    verdicts = [v for r in results for row in r["verdicts"] for v in row]
    wrong = sorted({v for v in verdicts if v.startswith("wrong")})
    return len(verdicts), sum(v != "ok" for v in verdicts), wrong


def _record(root: str, workload: str, seed: int, trace: bool) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10)
            commit = got.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"workload": workload, "seed": seed, "trace": int(trace),
            "python": platform.python_version(), "cpus": len(os.sched_getaffinity(0)),
            "commit": commit, "src_sha256": digest.hexdigest()}


def run_untraced(work: str, spec: str, seconds: float, deadline: float) -> dict:
    setups = [_spawn(work, spec, f"setup{i}", deadline, setup_only=True)["setup_s"]
              for i in range(SETUP_PROBES - 1)]
    main = _spawn(work, spec, "main", deadline, seconds=seconds)
    setups.append(main["setup_s"])
    attempted, failed, wrong = _tally([main])
    ops = main["op_s"]
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(main["pass_s"]),
        "op_p50_ms": statistics.median(ops) * 1e3,
        "op_p90_ms": statistics.quantiles(ops, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    notes = {"passes": len(main["pass_s"]), "op_samples": len(ops),
             "op_samples_beyond_p90": sum(x * 1e3 > metrics["op_p90_ms"] for x in ops),
             "setup_samples": len(setups),
             "raw_pass_s": statistics.median(main["raw_pass_s"]),
             "raw_op_p50_ms": statistics.median(main["raw_op_s"]) * 1e3,
             "kernel_median_ms": main["kernel_median_s"] * 1e3,
             "kernel_ref_ms": calibration.REF_KERNEL_S * 1e3}
    return {"attempted": attempted, "failed": failed, "wrong": wrong,
            "metrics": metrics, "notes": notes}


def run_traced(work: str, spec: str, seconds: float, deadline: float) -> dict:
    runs = [_spawn(work, spec, f"traced{i}", deadline, seconds=seconds / 2, trace=True)
            for i in range(2)]
    attempted, failed, wrong = _tally(runs)
    layers = [layer for r in runs for layer in r["layers"]]
    for name in tracing.COUNTS:
        seen = sorted({layer[name] for layer in layers})
        if len(seen) > 1:
            wrong.append(f"wrong: count {name} differs between traced passes: {seen}")
    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    # Odd passes are traced, each right after an untraced one.
    metrics["trace.overhead_s"] = statistics.median(
        r["pass_s"][i] - r["pass_s"][i - 1] for r in runs for i in range(1, len(r["pass_s"]), 2))
    notes = {"traced_passes": len(layers),
             "untraced_pass_s": statistics.median(s for r in runs for s in r["pass_s"][::2]),
             "traced_pass_s": statistics.median(s for r in runs for s in r["pass_s"][1::2]),
             "missing_targets": runs[0]["missing_targets"],
             "spans": [f"spans-traced{i}.json.gz" for i in range(len(runs))]}
    return {"attempted": attempted, "failed": failed, "wrong": wrong,
            "metrics": metrics, "notes": notes}


def run_workload(root: str, bench: dict, workload: str, seed: int, seconds: float,
                 trace: bool, deadline: float) -> dict:
    work = os.path.join(root, ".perfbench", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    spec = inputs.write_spec(root, work, workload, seed)
    out = (run_traced if trace else run_untraced)(work, spec, seconds, deadline)
    out["record"] = _record(root, workload, seed, trace)
    with open(os.path.join(work, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    print(f"== {workload}  seed {seed}  {'traced' if trace else 'untraced'}")
    for m in bench["per_layer" if trace else "end_to_end"]:
        row = table.get(m["name"], {})
        why = f"  moves {', '.join(row['moves'])} on {', '.join(row['on'])}" \
            if row.get("moves") else ""
        print(f"  {m['name']:32s} {out['metrics'][m['name']]:16.6f} {m['unit']:6s}{why}")
    print(f"  {'fail_ratio':32s} {out['failed'] / out['attempted']:16.6f} {'1':6s}"
          f"  {out['failed']} of {out['attempted']} ops failed")
    print(f"  {json.dumps(out['notes'])}")
    for problem in out["wrong"]:
        print(f"  {problem}")
    print(f"record {json.dumps(out['record'], sort_keys=True)}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    needed = ["BENCHMARK.json", os.path.join("src", "mubkit", "cli.py"),
              os.path.join("tests", "data", "mols26.json")]
    absent = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if absent:
        print(f"perfbench: run from a mubkit checkout; missing {', '.join(absent)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = sorted(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        outs = {wl: run_workload(root, bench, wl, args.seed, args.seconds, bool(args.trace),
                                 time.monotonic() + DEADLINE_S) for wl in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    prefix = len(outs) > 1
    metrics = {}
    for wl, out in outs.items():
        for m in bench["per_layer" if args.trace else "end_to_end"]:
            key = f"{wl}.{m['name']}" if prefix else m["name"]
            metrics[key] = {"value": out["metrics"][m["name"]], "unit": m["unit"]}
    print(json.dumps({
        "correct": not any(out["wrong"] for out in outs.values()),
        "attempted": sum(out["attempted"] for out in outs.values()),
        "failed": sum(out["failed"] for out in outs.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
