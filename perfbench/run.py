#!/usr/bin/env python3
"""Benchmark of the Skil reproduction: three closed-loop workloads.

    python3 perfbench/run.py --workload paper-cells --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

One process, one client, no extra threads, the default ``sim`` backend.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same ops with layer spans and prints the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

#: variables that would change what is measured; always removed
CLEARED_ENV = ("REPRO_BACKEND", "REPRO_FUSION", "REPRO_FUSED", "REPRO_WORKERS")
#: numpy's BLAS would otherwise start worker threads
ONE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
WORKLOADS = ("paper-cells", "skil-programs", "traced-analysis")
#: fresh-process imports per run; the median is ``setup_s``
SETUP_REPEATS = 7
#: measured successful ops a run needs before it may stop (p90 floor)
MIN_OPS = 100
#: glibc ``mallopt`` parameters and the values they are pinned to: the
#: thresholds glibc's own dynamic rule ends at (32 MiB, and twice that)
MALLOPT = {"M_MMAP_THRESHOLD": (-3, 32 << 20), "M_TRIM_THRESHOLD": (-1, 64 << 20)}


def prepare_environment() -> list[str]:
    """Remove :data:`CLEARED_ENV`, pin BLAS to one thread and put
    ``src`` on the import path; returns the variables that were set."""
    was_set = [v for v in CLEARED_ENV if v in os.environ]
    for v in CLEARED_ENV:
        os.environ.pop(v, None)
    os.environ.update(ONE_THREAD_ENV)
    sys.path[:0] = [str(SRC), str(ROOT)]
    # gauss's pivot fold is not annotated associative; the warning is
    # about real machines and says nothing about this run
    warnings.filterwarnings("ignore", message="array_fold: the folding function")
    return was_set


def pin_malloc() -> bool:
    """Pin glibc's mmap and trim thresholds (:data:`MALLOPT`).

    Left dynamic, glibc raises them when a large block is freed, so
    whether the gauss cells' arrays come from fresh pages or reused
    heap, and their time with it, depends on which ops ran before.
    Pinned at the values the rule ends at, every run starts in that
    steady state.  Returns False where there is no glibc."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return all(mallopt(param, value) == 1 for param, value in MALLOPT.values())


def measure_setup(modules) -> float:
    """Median time to import *modules* in a fresh interpreter, at the
    reference host speed: each child probes the host after its import.

    One untimed import first, so byte-compiling a fresh checkout is not
    counted."""
    from perfbench.core import PROBE_REF_S

    code = ("import time; t = time.perf_counter(); import "
            + ", ".join(modules) + "; d = time.perf_counter() - t; "
            f"import sys, statistics; sys.path.append({str(ROOT)!r}); "
            "from perfbench.core import host_probe; "
            "print(d, statistics.median(host_probe() for _ in range(3)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        if i:
            took, probe_s = map(float, done.stdout.split())
            times.append(took * PROBE_REF_S / probe_s)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(args, env_was_set: list[str], malloc_pinned: bool) -> dict:
    import numpy as np

    from perfbench import core, workloads

    tmp = tempfile.TemporaryDirectory(dir=OUT)
    try:
        if not args.trace:
            setup_s = measure_setup(workloads.IMPORTS[args.workload])
        cycle = workloads.build_cycle(args.workload, args.seed, Path(tmp.name))
        reference = workloads.load_reference()
        cache: dict[str, object] = {}

        def make_inputs(cell):
            return cell.make(workloads.input_rng(args.seed, cell.key))

        def expect(cell, inputs):
            if cell.key not in cache:
                cache[cell.key] = cell.want(inputs)
            return cache[cell.key]

        loop = dict(make_inputs=make_inputs, expect=expect, reference=reference,
                    check_sim=workloads.check_sim)
        started = time.perf_counter()
        if not args.trace:
            records = core.run_cycles(cycle, args.seconds, warmup=True,
                                      min_ops=MIN_OPS, probe=core.host_probe,
                                      **loop)
            try:
                measured = core.e2e_metrics(records)
                as_measured = core.e2e_metrics(records, scaled=False)
            except ValueError as exc:  # too few successful ops for p90
                failed = [r for r in records if not r.ok][:5]
                raise SystemExit(f"perfbench: {exc}; failures: "
                                 + "; ".join(f"{r.key}: {r.problems}" for r in failed))
            metrics = {"ops_per_s": measured["ops_per_s"],
                       "op_p50_ms": measured["op_p50_ms"],
                       "op_p90_ms": measured["op_p90_ms"],
                       "setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
            units = core.E2E_METRICS
            extra_lines = [f"error_rate {measured['error_rate']:.6f} ratio"] + [
                f"wall.{k} {as_measured[k]!r} {units[k]}"
                for k in ("ops_per_s", "op_p50_ms", "op_p90_ms")]
            traced = None
        else:
            records, metrics, traced = trace_run(args, cycle, loop, started)
            units = core.LAYER_METRICS
            extra_lines = []
    finally:
        tmp.cleanup()

    failed = [r for r in records if not r.ok]
    walls: dict[str, list[float]] = {}
    for r in records:
        walls.setdefault(r.key, []).append(r.wall_s)
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "run_seconds": args.seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "platform": platform.platform(), "cleared_env": list(CLEARED_ENV),
        "cleared_env_was_set": env_was_set, "one_thread_env": ONE_THREAD_ENV,
        "malloc_pinned": malloc_pinned,
        "cycle_len": len(cycle), "cycles": 1 + records[-1].cycle,
        "ops": len(records), "op_mix": {k: len(v) for k, v in walls.items()},
        "op_median_ms": {k: 1e3 * statistics.median(v) for k, v in walls.items()},
        "error_rate": len(failed) / len(records),
        "wall_s": time.perf_counter() - started,
        "failures": [f"{r.key}: {'; '.join(r.problems)}" for r in failed[:20]],
    }
    if traced is not None:
        meta.update(traced)
    else:
        meta.update(probe_ref_ms=1e3 * core.PROBE_REF_S, probe_median_ms=1e3
                    * statistics.median(r.probe_s for r in records))
    return {"metrics": metrics, "units": units, "meta": meta,
            "attempted": len(records), "failed": len(failed),
            "extra_lines": extra_lines}


def trace_run(args, cycle, loop, started):
    """Untraced warm-up and baseline cycle, then traced cycles."""
    from perfbench import core, layers
    from perfbench.spans import LayerTracer
    from repro.obs import global_metrics

    base = core.run_cycles(cycle, 0.0, warmup=True, **loop)
    base_wall = sum(r.wall_s for r in base if not r.warmup)
    tracer = LayerTracer()
    installed = layers.install(tracer)
    counters = ("lang.specialize_cache_hits", "lang.instantiations")
    before = [global_metrics().counter(c).value for c in counters]
    try:
        remaining = args.seconds - (time.perf_counter() - started)
        traced = core.run_cycles(cycle, remaining, tracer=tracer,
                                 first_op=len(base), **loop)
    finally:
        installed.remove()
    after = [global_metrics().counter(c).value for c in counters]
    cycles = 1 + traced[-1].cycle
    overhead = (sum(r.wall_s for r in traced) / cycles) / base_wall - 1.0
    metrics = core.layer_metrics(
        tracer.totals, traced, overhead_ratio=overhead,
        vectorize=(installed.vectorize_calls, installed.vectorize_hits),
        specialize=(after[0] - before[0], after[1] - before[1]))
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(spans_path)
    info = {"traced_ops": len(traced), "spans_dropped": tracer.dropped,
            "spans_file": str(spans_path.relative_to(ROOT))}
    return base + traced, metrics, info


def print_result(result: dict) -> None:
    for name, value in result["metrics"].items():
        print(f"{name} {value!r} {result['units'][name]}")
    for line in result["extra_lines"]:
        print(line)
    print("meta " + json.dumps(result["meta"], sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": result["units"][k]}
                    for k, v in result["metrics"].items()},
    }))


def run_all(args) -> int:
    """Each workload in its own process, then one summary table."""
    results = {}
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        meta = json.loads(next(l for l in lines if l.startswith("meta "))[5:])
        results[w] = (json.loads(lines[-1]), meta)
    print(f"{'workload':<16} {'metric':<34} {'value':>14}  unit")
    for w, (res, meta) in results.items():
        for name, m in res["metrics"].items():
            print(f"{w:<16} {name:<34} {m['value']:>14.6g}  {m['unit']}")
        print(f"{w:<16} {'error_rate':<34} {meta['error_rate']:>14.6g}  ratio")
    print(json.dumps({
        "correct": all(r["correct"] for r, _ in results.values()),
        "attempted": sum(r["attempted"] for r, _ in results.values()),
        "failed": sum(r["failed"] for r, _ in results.values()),
        "metrics": {f"{w}.{k}": v for w, (r, _) in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    env_was_set = prepare_environment()
    malloc_pinned = pin_malloc()
    OUT.mkdir(parents=True, exist_ok=True)
    result = run_workload(args, env_was_set, malloc_pinned)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True, default=str))
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
