"""Reference figures for bench/README.md: every workload untraced and traced.

    python3 bench/report.py

Runs each workload once untraced and once traced, with seed 1 and the run
length from BENCHMARK.json, through the same ``measure`` as ``run.py``.
Prints a markdown table of the end-to-end metrics, the tracing overhead
(median round time traced against untraced), and the per-layer metrics of
the traced run.
"""

from __future__ import annotations

import json
import statistics
import sys

import tracer
from run import ROOT, WORKLOADS, measure

SEED = 1


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    plain, traced = {}, {}
    for wl in WORKLOADS:
        plain[wl] = measure(wl, SEED, seconds, 0)
        traced[wl] = measure(wl, SEED, seconds, 1)
        print(f"{wl} done", file=sys.stderr)

    print(f"seed {SEED}, {seconds} s per run\n")
    print("| workload | setup_s | ops_per_s | op_p50_s | peak_rss_mb | rounds "
          "| round s | traced round s | overhead |")
    print("|---|---|---|---|---|---|---|---|---|")
    for wl in WORKLOADS:
        m, t = plain[wl]["metrics"], traced[wl]
        base = statistics.median(plain[wl]["round_s"])
        slow = statistics.median(t["round_s"])
        print(f"| {wl} | {m['setup_s']['value']:.3f} | {m['ops_per_s']['value']:.3f} "
              f"| {m['op_p50_s']['value']:.4f} | {m['peak_rss_mb']['value']:.0f} "
              f"| {plain[wl]['rounds']} | {base:.3f} | {slow:.3f} "
              f"| {100.0 * (slow / base - 1.0):+.0f}% |")
    print("\nPer-layer metrics (set-up plus the first timed round; zero rows omitted)\n")
    print("| metric | " + " | ".join(WORKLOADS) + " |")
    print("|---|" + "---|" * len(WORKLOADS))
    for name, unit in tracer.metric_specs():
        values = [traced[wl]["metrics"][name]["value"] for wl in WORKLOADS]
        if not any(values):
            continue
        cells = [f"{v:.3f}" if unit != "count" else str(v) for v in values]
        print(f"| {name} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
