"""One benchmark process: set up a workload, run its operations, check them.

Started by ``run.py`` in a fresh interpreter with ``src`` on PYTHONPATH and
BLAS limited to one thread; it pins itself to one CPU. It prints one JSON object on its last stdout
line. With ``--setup-only`` it stops where the first timed operation
would start. Otherwise it runs whole rounds of the workload's operation
list, a closed loop with a single caller, until ``--seconds`` have passed,
then checks every output outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np

import checks
import spinlab  # noqa: F401  (imports every spinlab module before tracing)
import workloads
from tracer import Tracer

FAILED = object()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    with tempfile.TemporaryDirectory(dir=args.out_dir) as tmp:
        rng = np.random.default_rng(args.seed)
        wl = workloads.WORKLOADS[args.workload](rng, tmp)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        result = run_rounds(wl, args.seconds, tracer)
    result["ready"] = ready
    problems = list(wl.setup_problems) + check_outputs(wl, result.pop("outputs"))
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more failed checks", file=sys.stderr)
    result["correct"] = not problems
    if tracer is not None:
        path = os.path.join(args.out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path)
        if tracer.absent:
            print(f"trace: absent from spinlab: {', '.join(tracer.absent)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_rounds(wl: workloads.Workload, seconds: float, tracer: Tracer | None) -> dict:
    """Whole rounds of the op list until ``seconds`` have passed (at least one).

    The host's speed swings by a quarter within seconds, so each timing is a
    median over many samples: ``ops_per_s`` is the median over rounds of
    completed operations over the round's wall time, and ``op_p50_s`` the
    median latency of every completed operation of every round.
    """
    outputs = {op.label: [] for op in wl.ops}
    samples = []   # latency of every completed operation
    round_s, round_rate = [], []
    attempted = failed = 0
    layers = None
    reported = set()
    begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        round_failed = 0
        for op in wl.ops:
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # an operation that raises counts as failed; the run goes on
                out = FAILED
            dt = time.perf_counter() - t0
            if out is FAILED:
                round_failed += 1
                if op.label not in reported:
                    reported.add(op.label)
                    print(f"operation failed: {op.label}\n{traceback.format_exc()}",
                          file=sys.stderr)
            else:
                samples.append(dt)
            outputs[op.label].append(out)
        failed += round_failed
        round_s.append(time.perf_counter() - round_start)
        round_rate.append((len(wl.ops) - round_failed) / round_s[-1])
        if tracer is not None and layers is None:
            layers = tracer.snapshot()
        if time.perf_counter() - begin >= seconds:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "rounds": len(round_s),
        "round_s": round_s,
        "ops_per_s": statistics.median(round_rate),
        "op_p50_s": statistics.median(samples) if samples else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
        "outputs": outputs,
    }


def check_outputs(wl: workloads.Workload, outputs: dict[str, list]) -> list[str]:
    problems = []
    for op in wl.ops:
        done = [out for out in outputs[op.label] if out is not FAILED]
        seen = []
        for out in done:
            if out in seen:   # rounds repeat inputs; check each distinct output once
                continue
            seen.append(out)
            problems += op.check(out)
        if op.twin is not None:
            for first, again in zip(outputs[op.twin], outputs[op.label]):
                if first is not FAILED and again is not FAILED:
                    problems += checks.check_identical(op.label, first, again)
    problems += wl.finish({label: [out for out in outs if out is not FAILED]
                           for label, outs in outputs.items()})
    return problems


if __name__ == "__main__":
    raise SystemExit(main())
