"""The three workloads: their ops, their inputs and their references.

One *op* is one unit of work.  Each workload is a *cycle*: a fixed
multiset of cells, each repeated ``weight`` times, in an order shuffled
once per seed.  A run repeats whole cycles, so every run sees the same
op mix.

Each cell has these parts:

* ``make(rng)`` builds the op's inputs (untimed);
* ``run(inputs)`` is the timed call into ``repro``; it returns the
  values as numpy arrays plus the machine's simulated statistics;
* ``expect(inputs)`` computes the reference values with numpy or scipy,
  independently of ``repro`` (untimed, cached per cell);
* ``check(outcome, want)`` lists what is wrong with the op's values
  (untimed).  Traced cells have no ``expect``: their inputs are made
  inside ``run_traced``, so ``check`` computes the reference from them.

Inputs come from ``numpy.random.default_rng([seed, crc32(key)])``: the
same seed gives the same inputs.  Simulated statistics do not depend on
the input values at these sizes (the gauss systems are diagonally
dominant, so no pivot row is ever exchanged); they are checked against
``perfbench/reference.json``.
"""

from __future__ import annotations

import importlib
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = ["Cell", "Outcome", "build_cycle", "IMPORTS", "TRACED_RUNS",
           "check_sim", "load_reference"]

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = Path(__file__).resolve().with_name("reference.json")
UINT_INF = 2**32 - 1

#: the repro modules each workload uses (what ``setup_s`` imports)
IMPORTS = {
    "paper-cells": ("repro.apps.gauss", "repro.apps.shortest_paths",
                    "repro.apps.matmul", "repro.baselines.parix_c",
                    "repro.skeletons", "repro.machine.machine",
                    "repro.eval.harness"),
    "skil-programs": ("repro.lang", "repro.apps.skil_sources",
                      "repro.skeletons", "repro.machine.machine"),
    "traced-analysis": ("repro.eval.tracecmd", "repro.obs"),
}


@dataclass
class Outcome:
    """What one op returned: values, simulated statistics, extras."""

    value: Any
    sim: dict
    extra: dict = field(default_factory=dict)


@dataclass
class Cell:
    key: str
    make: Callable[[np.random.Generator], Any]
    run: Callable[[Any], Outcome]
    #: ``check(outcome, want)``: the problems with the op's values
    check: Callable[[Outcome, Any], list[str]]
    #: the reference from the inputs; None when ``check`` computes it
    expect: Callable[[Any], Any] | None = None
    #: times the cell runs per cycle
    weight: int = 1

    def want(self, inputs):
        """The reference values, or None if ``check`` computes them."""
        return None if self.expect is None else self.expect(inputs)


def sim_of(machine) -> dict:
    return {
        "sim_s": machine.time,
        "messages": int(machine.stats.messages),
        "bytes_sent": int(machine.stats.bytes_sent),
        "skeleton_calls": int(machine.stats.skeleton_calls),
    }


# ---------------------------------------------------------------- inputs
def distance_matrix(rng, n: int, density: float = 0.25) -> np.ndarray:
    """Directed graph: weights 1..100 on ~density of the edges, inf
    elsewhere, 0 on the diagonal (the paper's §4.1 input)."""
    a = np.full((n, n), np.inf)
    edges = rng.random((n, n)) < density
    a[edges] = rng.integers(1, 101, size=(n, n))[edges]
    np.fill_diagonal(a, 0.0)
    return a


def dominant_system(rng, n: int):
    """A diagonally dominant system, so elimination never pivots."""
    a = rng.uniform(-1.0, 1.0, size=(n, n)) + np.eye(n) * (n + 1.0)
    return a, rng.uniform(-1.0, 1.0, size=n)


# ------------------------------------------------------------ references
def all_pairs(dist: np.ndarray) -> np.ndarray:
    from scipy.sparse.csgraph import floyd_warshall

    return floyd_warshall(dist, directed=True)


def solve(system) -> np.ndarray:
    a, b = system
    return np.linalg.solve(a, b)


def same_paths(got, want) -> bool:
    return got.shape == want.shape and bool(np.array_equal(got, want))


def close(rtol: float, atol: float):
    def compare(got, want) -> bool:
        return (got is not None and np.shape(got) == np.shape(want)
                and bool(np.allclose(got, want, rtol=rtol, atol=atol)))
    return compare


def values(compare):
    """A ``check`` that compares the op's values with the reference."""
    def check(outcome: Outcome, want) -> list[str]:
        return [] if compare(outcome.value, want) else ["values differ from the reference"]
    return check


# ------------------------------------------------------------ paper-cells
#: the share of the paper's problem sizes the paper-cells workload runs
PAPER_SCALE = 0.5

DRIVERS = {"shpaths": ("repro.apps.shortest_paths", "shpaths"),
           "gauss": ("repro.apps.gauss", "gauss_simple"),
           "gauss-full": ("repro.apps.gauss", "gauss_full"),
           "matmul": ("repro.apps.matmul", "matmul")}


def _skil_cell(key, app, lang, p, n):
    def run(inputs):
        from repro.eval import harness

        # looked up at call time, so a layer wrapper installed later is used
        mod_name, attr = DRIVERS[app]
        driver = getattr(importlib.import_module(mod_name), attr)
        ctx = harness._context(lang, p)
        value, _ = driver(ctx, *inputs)
        return Outcome(value, sim_of(ctx.machine))

    return _app_cell(key, app, n, run)


def _c_cell(key, app, old, p, n):
    def run(inputs):
        from repro.baselines import parix_c

        machine = parix_c.make_c_machine(p, old=old)
        if app == "shpaths":
            value, _ = parix_c.shpaths_c(machine, *inputs, old=old)
        else:
            driver = {"gauss": parix_c.gauss_c, "matmul": parix_c.matmul_c}[app]
            value, _ = driver(machine, *inputs)
        return Outcome(value, sim_of(machine))

    return _app_cell(key, app, n, run)


def _app_cell(key, app, n, run) -> Cell:
    if app == "shpaths":
        return Cell(key, lambda rng: (distance_matrix(rng, n),), run,
                    values(same_paths), lambda inputs: all_pairs(inputs[0]))
    if app == "matmul":
        return Cell(key,
                    lambda rng: (rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, (n, n))),
                    run, values(close(1e-9, 1e-12)),
                    lambda inputs: inputs[0] @ inputs[1])
    return Cell(key, lambda rng: dominant_system(rng, n), run,
                values(close(1e-6, 1e-8)), solve)


def _paper_cell(table, app, lang, p, n) -> Cell:
    key = f"{table}.{app}.{lang}.p{p}.n{n}"
    if lang.startswith("parix-c"):
        return _c_cell(key, app, lang == "parix-c-old", p, n)
    return _skil_cell(key, app, lang, p, n)


def paper_cells() -> list[Cell]:
    """The ``eval all`` mix at :data:`PAPER_SCALE`: Table 1, Table 2 and
    the A1-A3 ablation cells, each once per cycle.

    The grid, the scaling and the Table 1 rounding come from
    ``repro.eval``; the one-line p | n rules of ``table2`` and the
    ablations in ``repro.eval.experiments`` are written inline there,
    so they are restated here.
    """
    from repro.apps.shortest_paths import round_up_to_grid
    from repro.eval import TABLE1_PS, TABLE2_NS, TABLE2_PS
    from repro.eval.experiments import _scaled
    from repro.eval.harness import fits_paper_memory
    from repro.machine.machine import Machine

    cells = []
    n1 = _scaled(200, PAPER_SCALE)
    for p in TABLE1_PS:
        n = round_up_to_grid(n1, Machine(p).mesh.rows)
        for lang in ("skil", "dpfl", "parix-c-old"):
            cells.append(_paper_cell("t1", "shpaths", lang, p, n))
    for p in TABLE2_PS:
        for nominal in TABLE2_NS:
            n = _scaled(nominal, PAPER_SCALE)
            n = max(p, n - n % p)
            langs = ["skil", "parix-c"]
            if fits_paper_memory(nominal, p, "dpfl"):
                langs.append("dpfl")
            for lang in langs:
                cells.append(_paper_cell("t2", "gauss", lang, p, n))
    n = _scaled(256, PAPER_SCALE)
    cells += [_paper_cell("a1", "matmul", lang, 16, n - n % 4)
              for lang in ("skil", "parix-c")]
    cells += [_paper_cell("a2", app, "skil", 4, n - n % 4)
              for app in ("gauss", "gauss-full")]
    cells += [_paper_cell("a3", "gauss", lang, 16, n - n % 16)
              for lang in ("skil", "skil-closures")]
    return cells


# ---------------------------------------------------------- skil-programs
def _program(name: str):
    from repro.apps import skil_sources

    if name in ("connectivity", "stats"):
        return (ROOT / "examples" / "skil" / f"{name}.skil").read_text()
    return getattr(skil_sources, name)


def _compiled_cell(key, program, entry, p, make_args, expect, compare,
                   as_values=lambda out, args: out.global_view().copy()) -> Cell:
    def run(inputs):
        from repro.lang import compiler
        from repro.machine.costmodel import SKIL
        from repro.machine.machine import Machine
        from repro.skeletons import SkilContext

        args, externals = inputs[:2]
        mod = compiler.compile_skil(_program(program), fusion=True)
        ctx = SkilContext(Machine(p), SKIL)
        out = mod.run(entry, *args, ctx=ctx, externals=externals)
        return Outcome(as_values(out, args), sim_of(ctx.machine),
                       {"fusion_rewrites": len(mod.fusion_report.rewrites)})

    return Cell(key, make_args, run, values(compare), expect)


def _elem(data):
    return lambda ix: data[ix]


def _elem1(data):
    return lambda ix: data[ix[0]]


#: (p, n) per program at three sizes: small, where compiling is about
#: half the op; medium; and large, at p = 16 with twice the medium n for
#: the 2-D programs and n = 65536 for the 1-D ones.  Gauss runs at
#: n = 16, 32 and 64, where the scalar fallback of its pivot fold costs
#: about 2 s.
SKIL_SIZES = {
    "shpaths": ((4, 16), (16, 64), (16, 128)),
    "gauss": ((4, 16), (4, 32), (16, 64)),
    "matmul": ((4, 16), (16, 64), (16, 128)),
    "saxpy_scan": ((4, 64), (8, 4096), (16, 65536)),
    "threshold": ((4, 16), (4, 128), (16, 256)),
    "connectivity": ((4, 16), (16, 64), (16, 128)),
    "stats": ((4, 32), (8, 4096), (16, 65536)),
}


def skil_programs() -> list[Cell]:
    """The five sources of ``repro.apps.skil_sources`` and the two in
    ``examples/skil``, at the sizes of :data:`SKIL_SIZES`."""
    cells = []
    for p, n in SKIL_SIZES["shpaths"]:
        def make(rng, n=n):
            d = distance_matrix(rng, n)
            data = np.where(np.isinf(d), UINT_INF, d).astype(np.uint64)
            return (n,), {"init_f": _elem(data)}, d

        def paths(out, args):
            v = out.global_view().astype(float)
            v[v >= UINT_INF] = np.inf
            return v

        cells.append(_compiled_cell(
            f"skil.shpaths.p{p}.n{n}", "SHPATHS_SKIL", "shpaths", p, make,
            lambda inputs: all_pairs(inputs[2]), same_paths, paths))
    for p, n in SKIL_SIZES["gauss"]:
        def make(rng, n=n, p=p):
            a, b = dominant_system(rng, n)
            ext = np.concatenate([a, b[:, None]], axis=1)
            return (n, p), {"init_ext": _elem(ext)}, (a, b)

        cells.append(_compiled_cell(
            f"skil.gauss.p{p}.n{n}", "GAUSS_SKIL", "gauss", p, make,
            lambda inputs: solve(inputs[2]), close(1e-6, 1e-8),
            lambda out, args: out.global_view()[:, args[0]].copy()))
    for p, n in SKIL_SIZES["matmul"]:
        def make(rng, n=n):
            a = rng.uniform(-1, 1, (n, n))
            b = rng.uniform(-1, 1, (n, n))
            return (n,), {"init_a": _elem(a), "init_b": _elem(b)}, (a, b)

        cells.append(_compiled_cell(
            f"skil.matmul.p{p}.n{n}", "MATMUL_SKIL", "matmul", p, make,
            lambda inputs: inputs[2][0] @ inputs[2][1], close(1e-9, 1e-12)))
    for p, n in SKIL_SIZES["saxpy_scan"]:
        def make(rng, n=n):
            x = rng.uniform(size=n).astype(np.float32)
            y = rng.uniform(size=n).astype(np.float32)
            return (n, 2.5), {"init_x": _elem1(x), "init_y": _elem1(y)}, (x, y)

        cells.append(_compiled_cell(
            f"skil.saxpy_scan.p{p}.n{n}", "SAXPY_SCAN_SKIL", "saxpy_prefix", p,
            make,
            lambda inputs: np.cumsum(2.5 * inputs[2][0].astype(float)
                                     + inputs[2][1].astype(float)),
            close(1e-4, 1e-6)))
    for p, n in SKIL_SIZES["threshold"]:
        def make(rng, n=n):
            data = rng.uniform(0, 10, (n, n)).astype(np.float32)
            return (n, 5.0), {"init_f": _elem(data)}, None

        # ``threshold`` returns nothing: only its statistics are checked
        cells.append(_compiled_cell(
            f"skil.threshold.p{p}.n{n}", "THRESHOLD_SKIL", "threshold", p, make,
            lambda inputs: None, lambda got, want: got is None,
            lambda out, args: out))
    for p, n in SKIL_SIZES["connectivity"]:
        def make(rng, n=n):
            adj = (rng.random((n, n)) < 0.1).astype(np.int64)
            np.fill_diagonal(adj, 1)
            return (n,), {"adj": _elem(adj)}, adj

        cells.append(_compiled_cell(
            f"skil.connectivity.p{p}.n{n}", "connectivity", "closure", p, make,
            lambda inputs: np.isfinite(all_pairs(inputs[2].astype(float))),
            lambda got, want: got.shape == want.shape
            and bool(np.array_equal(got != 0, want))))
    for p, n in SKIL_SIZES["stats"]:
        def make(rng, n=n):
            data = rng.normal(3.0, 1.5, size=n).astype(np.float32)
            return (n,), {"sample": _elem1(data)}, data

        def zscores(inputs):
            d = inputs[2].astype(float)
            return (d - d.mean()) / d.std()

        cells.append(_compiled_cell(
            f"skil.stats.p{p}.n{n}", "stats", "zscores", p, make, zscores,
            close(1e-4, 1e-4)))
    return cells


# -------------------------------------------------------- traced-analysis
class TracedApp:
    """Captures the arguments and the result of the app driver that
    ``repro.eval.tracecmd.run_traced`` calls, so the values can be
    checked.  The capture looks the driver up in its defining module at
    call time, so a layer wrapper installed later is still called."""

    def __init__(self):
        from repro.eval import tracecmd

        self.last: tuple | None = None
        for app in ("shpaths", "gauss", "gauss-full"):
            mod_name, attr = DRIVERS[app]
            setattr(tracecmd, attr, self._capture(importlib.import_module(mod_name), attr))

    def _capture(self, module, attr):
        def captured(ctx, *args):
            value, report = getattr(module, attr)(ctx, *args)
            self.last = (args, value)
            return value, report
        return captured


#: the traced runs the repository documents, one cell each, as
#: ``(app, p, n, mode, weight)``; perfbench/README.md names where each
#: is documented.  Each weight is the stream run's op time over the
#: cell's, rounded, so each cell takes about a quarter of a cycle's host
#: time and no one run outweighs the others in ``ops_per_s``.
TRACED_RUNS = (
    ("gauss-full", 9, 48, "record", 5),  # eval trace defaults
    ("gauss", 16, 48, "record", 8),  # eval analyze defaults
    ("gauss", 16, 32, "record", 10),  # eval analyze in CI
    ("shpaths", 4096, 64, "stream", 1),  # eval trace --stream
)


def _traced_cell(app, p, n, mode, weight, tmpdir: Path, capture: TracedApp) -> Cell:
    key = f"trace.{app}.{mode}.p{p}.n{n}"

    def run(seed):
        from repro.eval import tracecmd
        from repro.obs import analysis, export

        capture.last = None
        traced = tracecmd.run_traced(app, p=p, n=n, trace_level=2, seed=seed,
                                     trace_mode=mode)
        machine = traced.machine
        extra = {}
        if mode == "record":
            result = analysis.analyze_machine(machine)
            path = tmpdir / "trace.json"
            export.write_chrome_trace(path, machine)
            extra["trace_path"] = path
        else:
            result = analysis.analyze_stream(machine)
        args, value = capture.last
        extra["analysis_makespan"] = result.makespan
        return Outcome(value, sim_of(machine), extra | {"args": args})

    def check(outcome: Outcome, want) -> list[str]:
        # run_traced makes the inputs, so the reference comes from them
        args = outcome.extra.pop("args")
        if app == "shpaths":
            problems = values(same_paths)(outcome, all_pairs(args[0]))
        else:
            problems = values(close(1e-6, 1e-8))(outcome, solve(args))
        if outcome.extra["analysis_makespan"] != outcome.sim["sim_s"]:
            problems.append("analysis makespan differs from machine time")
        path = outcome.extra.pop("trace_path", None)
        if path is not None:
            outcome.extra["export_bytes"] = path.stat().st_size
            obj = json.loads(path.read_text())
            if obj["otherData"]["makespan_s"] != outcome.sim["sim_s"] or not obj["traceEvents"]:
                problems.append("chrome trace misses the run")
        return problems

    return Cell(key, lambda rng: int(rng.integers(0, 2**31)), run, check,
                weight=weight)


def traced_analysis(tmpdir: Path) -> list[Cell]:
    """:data:`TRACED_RUNS`: record-mode runs analysed with the
    critical-path tools and exported as Chrome traces, stream-mode runs
    analysed from the streamed aggregates."""
    capture = TracedApp()
    return [_traced_cell(app, p, n, mode, weight, tmpdir, capture)
            for app, p, n, mode, weight in TRACED_RUNS]


def build_cycle(workload: str, seed: int, tmpdir: Path) -> list[Cell]:
    """One cycle of *workload*: every cell ``weight`` times, shuffled by
    *seed*."""
    cells = {"paper-cells": paper_cells,
             "skil-programs": skil_programs,
             "traced-analysis": lambda: traced_analysis(tmpdir)}[workload]()
    cycle = [c for c in cells for _ in range(c.weight)]
    order = np.random.default_rng([seed, 0x5EED]).permutation(len(cycle))
    return [cycle[i] for i in order]


def input_rng(seed: int, key: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(key.encode())])


# ---------------------------------------------------------------- checks
def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def check_sim(key: str, sim: dict, reference: dict) -> list[str]:
    want = reference.get(key)
    if want is None:
        return [f"no reference statistics for {key}"]
    return [f"{k}: {sim[k]!r} != reference {want[k]!r}"
            for k in ("sim_s", "messages", "bytes_sent", "skeleton_calls")
            if sim[k] != want[k]]
