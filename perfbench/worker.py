"""One measured process: import mubkit from the checkout, read the workload
spec, then run passes over its operation list through mubkit.cli.main,
in-process, single-threaded, with stdout and stderr captured.

    python3 perfbench/worker.py --spec SPEC --out RESULT --t0 T --seconds S
                                [--trace TRACEFILE] [--setup-only]

T is the parent's time.monotonic() just before it started this process, so
setup_s covers interpreter start, ``import mubkit`` and reading the spec.
Passes repeat until S seconds have gone (at least one; with --trace at
least one untraced and one traced).  Outputs are judged after the last
pass, once peak RSS has been read.

Without --trace, setup and every operation are timed at reference speed
(see calibration.py), with the raw wall times kept beside them.  Traced
runs take no calibration samples, so that the kernel's time falls into
no span.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time

import checks
import tracing
from calibration import Calibrator


def _import_cli(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from mubkit import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"mubkit was imported from {cli.__file__}, not from {src}")
    return cli


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_pass(cli, ops: list[dict], keep_output: bool) -> tuple[float, list]:
    """Run every op once; return the pass wall time and per-op records
    (rc, stdout or its digest, stderr or its digest, (start, end))."""
    records = []
    start = time.perf_counter()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(op["argv"])
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a stop
            rc = None
            err.write(f"raised {type(exc).__name__}: {exc}\n")
        t1 = time.perf_counter()
        o, e = out.getvalue(), err.getvalue()
        records.append((rc, o if keep_output else _digest(o),
                        e if keep_output else _digest(e), (t0, t1)))
    return time.perf_counter() - start, records


def judge_passes(spec: dict, passes: list[list]) -> list[list[str]]:
    """Verdict per pass and op.  Pass 0 is judged against the known answers;
    later passes must repeat its exit code and output bytes exactly."""
    first = []
    for n, (op, (rc, out, err, _)) in enumerate(zip(spec["ops"], passes[0])):
        rng = random.Random(f"{spec['seed']}/{n}")
        first.append((checks.judge(op["expect"], rc, out, err, rng), rc, _digest(out),
                      _digest(err)))
    verdicts = [[v for v, *_ in first]]
    for records in passes[1:]:
        row = []
        for (verdict, rc0, out0, err0), (rc, out, err, _) in zip(first, records):
            same = (rc, out, err) == (rc0, out0, err0)
            row.append(verdict if same else "wrong: output differs from the first pass")
        verdicts.append(row)
    return verdicts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spec", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    calibrator = None if args.trace else Calibrator()
    if calibrator is not None:
        calibrator.start()
    armed = time.perf_counter()
    cli = _import_cli(os.getcwd())
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.t0
    setup_end = time.perf_counter()
    result = {"setup_s": setup_s}
    if not args.setup_only:
        ops = spec["ops"]
        passes, pass_s, layers = [], [], []
        # Traced runs alternate untraced and traced passes, so each traced
        # pass has an untraced neighbour to measure the overhead against.
        min_passes = 1 if tracer is None else 2
        start = time.perf_counter()
        while len(passes) < min_passes or time.perf_counter() - start < args.seconds:
            traced = tracer is not None and len(passes) % 2 == 1
            if tracer is not None:
                tracer.enable(traced)
            seconds, records = run_pass(cli, ops, keep_output=not passes)
            passes.append(records)
            pass_s.append(seconds)
            if traced:
                layers.append(tracer.end_pass(seconds))
        # Read before judging, which parses the emitted documents.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.update(pass_s=pass_s, op_s=[t1 - t0 for records in passes
                                           for *_, (t0, t1) in records],
                      peak_rss_mb=peak_rss_mb, layers=layers)
        if tracer is not None:
            result["missing_targets"] = tracer.missing
            tracer.write(args.trace)
    if calibrator is not None:
        calibrator.stop()
        result.update(raw_setup_s=setup_s, kernel_median_s=calibrator.kernel_median_s(),
                      setup_s=calibrator.scale(armed, setup_end, wall=setup_s))
        if not args.setup_only:
            scaled = [[calibrator.scale(t0, t1) for *_, (t0, t1) in records]
                      for records in passes]
            result.update(raw_pass_s=result["pass_s"], raw_op_s=result["op_s"],
                          pass_s=[sum(row) for row in scaled],
                          op_s=[x for row in scaled for x in row])
    if not args.setup_only:
        result["verdicts"] = judge_passes(spec, passes)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
