#!/usr/bin/env python3
"""Tell host speed changes apart from in-process causes.

    python3 perfbench/hostnoise.py --windows 16 --window-seconds 15

Repeats one fixed ``repro`` op (compiled gauss, p = 4, n = 32, the same
inputs every time) and one fixed pure-Python loop, in windows of a few
seconds, in one process.  Every other window runs with the garbage
collector frozen and disabled.  Each window prints the median time of
both and the host's CPU shares from ``/proc/stat``.  If the loop, which
allocates nothing and calls no ``repro`` code, slows by the same factor
as the op whatever the collector does, the variation comes from the
host, not from the program or the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.run import prepare_environment  # noqa: E402

OP = "skil.gauss.p4.n32"


def python_loop() -> float:
    t = time.perf_counter()
    s = 0
    for i in range(300_000):
        s += i * i
    return time.perf_counter() - t


def cpu_ticks() -> list[int]:
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--windows", type=int, default=16)
    ap.add_argument("--window-seconds", type=float, default=15.0)
    args = ap.parse_args(argv)
    prepare_environment()
    from perfbench import workloads

    cell = next(c for c in workloads.skil_programs() if c.key == OP)
    inputs = cell.make(workloads.input_rng(0, OP))
    ratios = []
    for w in range(args.windows):
        frozen = w % 2 == 1
        if frozen:
            gc.collect()
            gc.freeze()
            gc.disable()
        else:
            gc.unfreeze()
            gc.enable()
        before, ops, loops = cpu_ticks(), [], []
        end = time.perf_counter() + args.window_seconds
        while time.perf_counter() < end:
            t = time.perf_counter()
            cell.run(inputs)
            ops.append(time.perf_counter() - t)
            loops.append(python_loop())
        delta = [b - a for a, b in zip(before, cpu_ticks())]
        shares = ""
        if len(delta) > 7 and sum(delta):
            user, _, system, idle, _, _, _, steal = (100 * d / sum(delta) for d in delta[:8])
            shares = f"  host user {user:.0f}% sys {system:.0f}% idle {idle:.0f}% steal {steal:.0f}%"
        op_ms, loop_ms = 1e3 * statistics.median(ops), 1e3 * statistics.median(loops)
        ratios.append(op_ms / loop_ms)
        print(f"{time.strftime('%H:%M:%S')} gc {'frozen' if frozen else 'on    '} "
              f"op {op_ms:7.1f} ms  loop {loop_ms:6.2f} ms  op/loop {op_ms / loop_ms:6.2f}"
              + shares, flush=True)
    print(f"op/loop ratio: median {statistics.median(ratios):.2f}, "
          f"min {min(ratios):.2f}, max {max(ratios):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
