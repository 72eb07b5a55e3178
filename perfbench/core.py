"""The closed loop, the percentile rule and the metric definitions.

Kept free of ``repro`` imports so the benchmark's own logic can be
tested on fake ops.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

from perfbench.spans import OP_SPAN, SpanTotals

__all__ = ["E2E_METRICS", "LAYER_METRICS", "SKELETONS", "PROBE_REF_S",
           "OpRecord", "host_probe", "nearest_rank", "tail_percentile",
           "run_cycles", "e2e_metrics", "layer_metrics"]

#: end-to-end metrics: name -> unit (``error_rate`` is 0 on a healthy
#: run, so it is printed but carried in the result as attempted/failed)
E2E_METRICS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: skeleton methods with their own self-time metric
SKELETONS = ("map", "zip", "fold", "create", "copy", "gen_mult",
             "gen_mult_square", "broadcast_part", "permute_rows")

#: per-layer metrics (traced run): name -> unit; times and counts are
#: means per op
LAYER_METRICS = {
    "apps.self_s": "s/op", "apps.calls": "calls/op",
    "arrays.self_s": "s/op", "arrays.calls": "calls/op",
    "skeletons.self_s": "s/op", "skeletons.calls": "calls/op",
    **{f"skeletons.{s}.self_s": "s/op" for s in SKELETONS},
    "baselines.self_s": "s/op", "baselines.calls": "calls/op",
    "machine.network.self_s": "s/op", "machine.network.calls": "calls/op",
    "lang.self_s": "s/op",
    "lang.parse_s": "s/op", "lang.typecheck_s": "s/op",
    "lang.instantiate_s": "s/op", "lang.fusion_s": "s/op",
    "lang.codegen_s": "s/op",
    "lang.fusion_rewrites": "count/op",
    "lang.specialize_cache_hit_ratio": "ratio",
    "lang.runtime.self_s": "s/op",
    "lang.vectorize_hit_ratio": "ratio",
    "obs.self_s": "s/op", "obs.analysis_s": "s/op", "obs.export_s": "s/op",
    "obs.export_bytes": "B/op",
    "machine.sim_s": "sim_s/op", "machine.messages": "count/op",
    "machine.bytes_sent": "B/op", "machine.skeleton_calls": "count/op",
    "other.self_s": "s/op",
    "trace.overhead_ratio": "ratio",
}


# ------------------------------------------------------------ host speed
#: iterations of the host-speed probe's loop
PROBE_LOOPS = 40_000
#: the probe's time at the reference host speed; a time measured while
#: the probe takes t seconds is scaled by ``PROBE_REF_S / t``
PROBE_REF_S = 0.003
#: probes run before an op and again after it
PROBES_PER_SIDE = 2


def host_probe(clock=time.perf_counter) -> float:
    """Seconds a fixed pure-Python loop takes now: the host's speed.

    The loop calls no ``repro`` code and allocates nothing the garbage
    collector tracks, so only the host changes its time."""
    t = clock()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i
    return clock() - t


# ------------------------------------------------------------ percentiles
def nearest_rank(samples, pct: int) -> float:
    """The *pct*-th percentile by the nearest-rank rule: the smallest
    sample with at least pct% of the samples at or below it."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = -(-len(ordered) * pct // 100)  # ceil(n * pct / 100), exact
    return ordered[max(rank, 1) - 1]


#: samples a reported percentile needs beyond it
MIN_BEYOND = 10


def tail_percentile(samples, pct: int) -> float:
    """:func:`nearest_rank`, refused unless at least :data:`MIN_BEYOND`
    samples lie beyond the percentile's rank."""
    n = len(samples)
    beyond = n - -(-n * pct // 100)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{pct} of {n} samples leaves {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return nearest_rank(samples, pct)


# -------------------------------------------------------------- the loop
@dataclass
class OpRecord:
    key: str
    cycle: int
    wall_s: float
    problems: list[str]
    sim: dict | None = None
    extra: dict = field(default_factory=dict)
    #: median host-probe time around the op
    probe_s: float = PROBE_REF_S

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def warmup(self) -> bool:
        return self.cycle < 0

    @property
    def ref_s(self) -> float:
        """The op's wall time at the reference host speed."""
        return self.wall_s * PROBE_REF_S / self.probe_s


def run_op(cell, inputs, want, reference, check_sim, tracer=None,
           op_id: int = 0, clock=time.perf_counter, probe=None):
    """Run one op: only ``cell.run`` is timed; ``cell.check`` and
    *check_sim* come after.  With *probe*, the host is probed
    :data:`PROBES_PER_SIDE` times before and after the op, untimed."""
    probes = [probe() for _ in range(PROBES_PER_SIDE)] if probe else []
    root = tracer.begin_op(op_id) if tracer is not None else None
    t0 = clock()
    try:
        outcome = cell.run(inputs)
        error = None
    except Exception as exc:  # an op that raises is a failed op
        outcome, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        wall = clock() - t0
        if tracer is not None:
            tracer.end_op(root)
    probes += [probe() for _ in range(PROBES_PER_SIDE)] if probe else []
    probe_s = statistics.median(probes) if probes else PROBE_REF_S
    if outcome is None:
        return wall, probe_s, [error], None, {}
    problems = cell.check(outcome, want) + check_sim(
        cell.key, outcome.sim, reference)
    return wall, probe_s, problems, outcome.sim, outcome.extra


def run_cycles(cycle, seconds: float, *, make_inputs, expect, reference,
               check_sim, warmup: bool = False, min_ops: int = 0,
               tracer=None, first_op: int = 0, clock=time.perf_counter,
               probe=None):
    """Repeat whole cycles until one more would pass *seconds* and at
    least *min_ops* measured ops succeeded; at least one cycle runs.
    Past four times *seconds* the run stops however few ops succeeded.
    *probe* (say :func:`host_probe`) gives each record its ``probe_s``.

    With *warmup*, each distinct cell first runs once (cycle -1): run
    and checked, but not timed into the metrics.
    """
    records: list[OpRecord] = []

    def run_all(cells, c):
        for cell in cells:
            inputs = make_inputs(cell)
            wall, probe_s, problems, sim, extra = run_op(
                cell, inputs, expect(cell, inputs), reference, check_sim,
                tracer, first_op + len(records), clock, probe)
            records.append(OpRecord(cell.key, c, wall, problems, sim, extra,
                                    probe_s))

    if warmup:
        run_all(list({cell.key: cell for cell in cycle}.values()), -1)
    started = clock()
    c = 0
    while True:
        run_all(cycle, c)
        c += 1
        elapsed = clock() - started
        measured_ok = sum(1 for r in records if r.ok and not r.warmup)
        if elapsed * (c + 1) / c > seconds and (
                measured_ok >= min_ops or elapsed > 4 * seconds):
            return records


# --------------------------------------------------------------- metrics
def e2e_metrics(records: list[OpRecord], *, scaled: bool = True) -> dict[str, float]:
    """ops_per_s, p50, p90 (with its 10-sample floor) and error_rate,
    from op times at the reference host speed, or as measured when not
    *scaled*."""
    measured = [r for r in records if not r.warmup]
    times = [(r.ref_s if scaled else r.wall_s, r.ok) for r in measured]
    ok_walls = [t for t, ok in times if ok]
    busy = sum(t for t, _ in times)
    failed = sum(1 for r in records if not r.ok)
    p90 = tail_percentile(ok_walls, 90)  # refuses too few samples first
    return {
        "ops_per_s": len(ok_walls) / busy,
        "op_p50_ms": 1e3 * nearest_rank(ok_walls, 50),
        "op_p90_ms": 1e3 * p90,
        "error_rate": failed / len(records),
    }


def layer_metrics(totals: SpanTotals, records: list[OpRecord], *,
                  overhead_ratio: float, vectorize: tuple[int, int],
                  specialize: tuple[float, float]) -> dict[str, float]:
    """Per-layer metrics of a traced run, as means per op.

    ``<layer>.self_s`` sums the self time of every span under that
    layer; ``lang.<phase>_s``, ``obs.analysis_s`` and ``obs.export_s``
    are the inclusive time of those calls.  The ``machine.*`` counts
    come from the first traced cycle only, so they repeat exactly
    whatever the number of cycles.
    """
    n = len(records)
    own, calls, incl = totals.self_s, totals.calls, totals.inclusive
    pre = SpanTotals.prefixed
    m: dict[str, float] = {}
    for layer in ("apps", "arrays", "skeletons", "baselines", "machine.network"):
        m[f"{layer}.self_s"] = pre(own, layer) / n
        m[f"{layer}.calls"] = pre(calls, layer) / n
    for s in SKELETONS:
        m[f"skeletons.{s}.self_s"] = own.get(f"skeletons.array_{s}", 0.0) / n
    m["lang.self_s"] = pre(own, "lang") / n
    for phase in ("parse", "typecheck", "instantiate", "fusion", "codegen"):
        m[f"lang.{phase}_s"] = incl.get(f"lang.{phase}", 0.0) / n
    m["lang.fusion_rewrites"] = sum(r.extra.get("fusion_rewrites", 0) for r in records) / n
    hits, misses = specialize
    m["lang.specialize_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["lang.runtime.self_s"] = pre(own, "lang.runtime") / n
    tried, vectorized = vectorize
    m["lang.vectorize_hit_ratio"] = vectorized / tried if tried else 0.0
    m["obs.self_s"] = pre(own, "obs") / n
    m["obs.analysis_s"] = pre(incl, "obs.analysis") / n
    m["obs.export_s"] = pre(incl, "obs.export") / n
    m["obs.export_bytes"] = sum(r.extra.get("export_bytes", 0) for r in records) / n
    first = [r for r in records if r.cycle == records[0].cycle and r.sim]
    for key, name in (("sim_s", "machine.sim_s"), ("messages", "machine.messages"),
                      ("bytes_sent", "machine.bytes_sent"),
                      ("skeleton_calls", "machine.skeleton_calls")):
        m[name] = math.fsum(r.sim[key] for r in first) / len(first) if first else 0.0
    m["other.self_s"] = own.get(OP_SPAN, 0.0) / n
    m["trace.overhead_ratio"] = overhead_ratio
    if set(m) != set(LAYER_METRICS):
        raise RuntimeError(f"layer metrics out of sync: {set(m) ^ set(LAYER_METRICS)}")
    return m
