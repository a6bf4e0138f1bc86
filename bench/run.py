"""spinlab benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload routes --seed 1 --seconds 20 --trace 0

Run from the root of a source tree (``src/spinlab`` must exist). The
workload runs in a fresh Python process (``worker.py``) with ``src`` on
PYTHONPATH and BLAS held to one thread. With ``--trace 0`` the last
stdout line carries the end-to-end metrics; four more processes that only
set up give ``setup_s`` as the median of five set-ups. With
``--trace 1`` a single traced process gives the per-layer metrics and
writes its spans to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("routes", "sampling", "scan", "infogain")
SETUP_RUNS = 5
BUDGET_S = 170.0          # the whole command ends well within 180 s
BLAS_THREADS = "1"


def spawn(workload: str, seed: int, seconds: int, trace: int, extra: list[str],
          deadline: float) -> tuple[float, dict]:
    """Start worker.py, wait for it, return (start time, its JSON result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"  # same dict and set layout in every worker
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", str(OUT)] + extra
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"bench: worker exceeded the {BUDGET_S:.0f} s budget")
    if proc.returncode != 0:
        raise SystemExit(f"bench: worker exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise SystemExit("bench: worker printed no result")
    return started, json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload; return the worker's result with ``metrics`` added.

    Untraced, the metrics are the end-to-end ones, with ``setup_s`` the
    median over the main run and SETUP_RUNS - 1 processes that only set up.
    Traced, they are the per-layer metrics of a single process.
    """
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    run = (workload, seed, seconds, trace)
    started, res = spawn(*run, [], deadline)
    layers = res.pop("layers")
    if trace:
        res["metrics"] = layers
        return res
    setups = [res["ready"] - started]
    for _ in range(SETUP_RUNS - 1):
        t0, only = spawn(*run, ["--setup-only"], deadline)
        setups.append(only["ready"] - t0)
    res["metrics"] = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": res["ops_per_s"], "unit": "ops/s"},
        "op_p50_s": {"value": res["op_p50_s"], "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    return res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "spinlab" / "__init__.py").is_file():
        print(f"bench: no spinlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    res = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({k: v for k, v in res.items() if k != "metrics"}), file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
