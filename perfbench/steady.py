#!/usr/bin/env python3
"""Check that the benchmark is steady: run it on several seeds and
report each metric's quartile spread as a share of its median.

    python3 perfbench/steady.py --workload paper-cells --runs 10

A metric passes when its spread, ``(Q3 - Q1) / median`` from
``statistics.quantiles(values, n=4)``, is below a third of its bound in
``BENCHMARK.json`` (``setup_s`` is reported but not held to it).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, *bench["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    ok = failed == 0
    for name, vals in values.items():
        s = spread(vals) if len(vals) >= 2 else float("nan")
        bound = bounds.get(name)
        steady = bound is None or name == "setup_s" or s < bound / 3
        ok &= steady
        print(f"{name:<34} median {statistics.median(vals):<14.6g} spread {s:8.4f}"
              + ("" if bound is None else f"  bound/3 {bound / 3:.4f}"
                 + ("" if steady else "  NOT STEADY")))
    print(f"failed ops: {failed}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
