"""Backend-equivalence conformance (the ``backend`` pillar).

``Machine(p, backend=...)`` promises that the execution backend changes
only *wall-clock*: the analytic network is the single cost oracle, so
simulated seconds, pool contents, :class:`~repro.machine.trace.TraceStats`
and metrics must be **bitwise identical** under ``sim``, ``threads`` and
``mp``.  Every trial runs one workload once per backend on otherwise
identical machines and compares:

* every result array's ``global_view()`` with ``np.array_equal`` (no
  tolerance — the parallel per-rank dispatch performs the same numpy
  calls on the same blocks, so even float results must match bitwise),
* scalar results with ``==`` after ``repr`` round-trip guarding NaN,
* every per-rank clock bitwise,
* the stats counters exactly and the stats floats bitwise,
* the metrics registries via their rendered exposition text.

Three trial families interleave:

1. **compiled programs** — the fuzz pillar's generated Skil programs
   (``generate_spec``/``render`` → ``compile_skil``), so every kernel
   class the instantiation pipeline can emit crosses the mp
   closure-shipping path;
2. **skeleton workloads** — randomly composed create/map/zip/fold/scan/
   copy sequences over hand-built closure kernels at p ∈ {4, 16},
   including env-*reading* kernels (which must fall back to the
   sequential loop identically on every backend) and scalar-only
   kernels;
3. **applications** — Gaussian elimination and shortest paths at
   p ∈ {4, 16}.

Every trial runs each backend twice — wall profiler off and on
(``Machine(profile=...)``) — and compares all six runs against the
unprofiled ``sim`` reference: profiling reads wall clocks only and must
never perturb the cost model on any backend.

Worker processes are reused across a trial's skeleton calls but never
across backends (each machine is closed before the next one starts), so
a trial also exercises pool/shm teardown.
"""

from __future__ import annotations

import random
import time
import traceback

import numpy as np

from repro.check.report import CheckResult, Failure
from repro.machine.machine import (
    DISTR_DEFAULT,
    DISTR_RING,
    DISTR_TORUS2D,
    Machine,
)
from repro.obs.metrics import isolated_metrics
from repro.skeletons import MAX, MIN, PLUS, SkilContext
from repro.skeletons.functional import skil_fn

__all__ = ["run_backend", "run_backend_raw", "BACKENDS_CHECKED"]

#: the backends every trial compares; ``sim`` is the reference
BACKENDS_CHECKED = ("sim", "threads", "mp")


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------
def _stats_tuple(stats):
    return (
        stats.messages,
        stats.bytes_sent,
        stats.hops_crossed,
        stats.comm_seconds,
        stats.idle_seconds,
        stats.compute_seconds,
        stats.skeleton_calls,
    )


class _Run:
    """What one backend's execution of a trial produced."""

    def __init__(self, machine: Machine, arrays: list[np.ndarray], scalars: list):
        self.clocks = machine.network.clocks.copy()
        self.stats = _stats_tuple(machine.stats)
        self.metrics = (
            machine.metrics.render_text() if machine.metrics is not None else ""
        )
        self.arrays = arrays
        self.scalars = scalars


def _compare_runs(ref: _Run, got: _Run, backend: str, label: str) -> str | None:
    """``sim`` reference vs another backend, bitwise."""
    if not np.array_equal(ref.clocks, got.clocks):
        i = int(np.argmax(ref.clocks != got.clocks))
        return (
            f"clock mismatch ({label}): rank {i} sim={float(ref.clocks[i])!r} "
            f"{backend}={float(got.clocks[i])!r}"
        )
    if ref.stats != got.stats:
        return (
            f"stats mismatch ({label}): sim={ref.stats} {backend}={got.stats}"
        )
    if len(ref.arrays) != len(got.arrays):
        return (
            f"result arity mismatch ({label}): sim produced "
            f"{len(ref.arrays)} arrays, {backend} {len(got.arrays)}"
        )
    for k, (ea, ga) in enumerate(zip(ref.arrays, got.arrays)):
        if not np.array_equal(ea, ga):
            bad = np.argwhere(ea != ga)[:3]
            return (
                f"array {k} contents differ ({label}) at {bad.tolist()}: "
                f"sim={ea[tuple(bad[0])]!r} {backend}={ga[tuple(bad[0])]!r}"
            )
    for k, (es, gs) in enumerate(zip(ref.scalars, got.scalars)):
        if not (es == gs or repr(es) == repr(gs)):  # NaN-safe
            return (
                f"scalar {k} differs ({label}): sim={es!r} {backend}={gs!r}"
            )
    if ref.metrics != got.metrics:
        return f"metrics exposition mismatch ({label})"
    return None


def _run_everywhere(workload, p: int, label: str) -> str | None:
    """Run *workload(ctx)* per backend x {profiler off, on}; compare all
    six runs bitwise to the unprofiled ``sim`` reference.

    *workload* returns ``(arrays, scalars)`` — DistArrays still alive
    (their ``global_view`` is compared) and scalar results.  The
    profiled variants (tagged ``<backend>+prof``) assert the wall
    profiler's own promise: attaching it must not perturb clocks, stats,
    metrics or results on any backend.
    """
    runs: dict[str, _Run] = {}
    for backend in BACKENDS_CHECKED:
        for profiled in (False, True):
            machine = Machine(
                p, trace_level=1, backend=backend, workers=2,
                profile=profiled,
            )
            try:
                with isolated_metrics():
                    arrays, scalars = workload(SkilContext(machine))
                    views = [a.global_view() for a in arrays]
                tag = f"{backend}+prof" if profiled else backend
                runs[tag] = _Run(machine, views, scalars)
            finally:
                machine.close()
    for tag, run in runs.items():
        if tag == "sim":
            continue
        msg = _compare_runs(runs["sim"], run, tag, label)
        if msg is not None:
            return msg
    return None


# ---------------------------------------------------------------------------
# trial family 1: compiled Skil programs
# ---------------------------------------------------------------------------
def trial_backend_program(rng: random.Random) -> tuple[str | None, dict[str, int]]:
    """A fuzzer-generated Skil program, compiled and run per backend."""
    from repro.check.fuzz import associative_record_folds, generate_spec, render
    from repro.lang.compiler import compile_skil

    spec_seed = rng.randrange(2**31)
    # fuzz specs deliberately use small shapes (the interpreter oracle is
    # per-element); they fit p<=4 only — the other families cover p=16
    p = rng.choice([2, 4, 4])
    spec = generate_spec(spec_seed)
    src = render(spec)
    cov = {"backend.program": 1, f"backend.p{p}": 1}

    def workload(ctx: SkilContext):
        mod = compile_skil(src)
        with associative_record_folds():
            out = mod.run("entry", ctx=ctx)
        if hasattr(out, "global_view"):
            return [out], []
        return [], [out]

    label = f"program spec_seed={spec_seed} p={p} elem={spec.elem}"
    return _run_everywhere(workload, p, label), cov


# ---------------------------------------------------------------------------
# trial family 2: random skeleton workloads
# ---------------------------------------------------------------------------
def _random_kernels(rng: random.Random):
    """Init/map/zip kernel triple with random closure constants.

    The constants live in lambda *defaults*, so every kernel is a closure
    the mp backend must ship — the shape
    :func:`~repro.lang.runtime.make_kernel` produces.  One of four map
    kernels *reads the env* (rank-dependent): those must fall back to the
    per-rank loop identically on every backend.
    """
    c1 = float(rng.randint(1, 9))
    c2 = float(rng.randint(1, 9))

    init = skil_fn(
        ops=2, vectorized=lambda g, e, _a=c1: (g[0] * _a + g[-1]).astype(float)
    )(lambda i, _a=c1: float(i[0] * _a + i[-1]))

    style = rng.randrange(4)
    if style == 0:  # plain elementwise
        map_f = skil_fn(ops=2, vectorized=lambda b, g, e, _k=c2: b * _k + g[0])(
            lambda x, i, _k=c2: x * _k + i[0]
        )
    elif style == 1:  # nonlinear, still env-free
        map_f = skil_fn(
            ops=3,
            vectorized=lambda b, g, e, _k=c2: np.where(b > _k, b - _k, b + g[-1]),
        )(lambda x, i, _k=c2: x - _k if x > _k else x + i[-1])
    elif style == 2:  # scalar-only: no vectorized kernel at all
        map_f = skil_fn(ops=2)(lambda x, i, _k=c2: x * _k + 1.0)
    else:  # env-reading: every backend must take the sequential loop
        def _env_vec(b, g, e, _k=c2):
            return b * _k + e.rank

        map_f = skil_fn(ops=2, vectorized=_env_vec)(lambda x, i, _k=c2: x * _k)

    zip_f = skil_fn(ops=1, vectorized=lambda x, y, g, e, _k=c1: x * _k + y)(
        lambda x, y, i, _k=c1: x * _k + y
    )
    conv = skil_fn(ops=1, vectorized=lambda b, g, e, _k=c2: b + _k)(
        lambda x, i, _k=c2: x + _k
    )
    return init, map_f, zip_f, conv, style


def trial_backend_skeletons(rng: random.Random) -> tuple[str | None, dict[str, int]]:
    """A random create/map/zip/fold/scan/copy sequence per backend."""
    p = rng.choice([4, 4, 16])
    dim = rng.choice([1, 1, 2])
    if dim == 1:
        shape = (p * rng.randint(2, 5),)
        distr = rng.choice([DISTR_DEFAULT, DISTR_RING])
    else:
        # second dim a multiple of 4 so the p=16 torus grid (4x4) fits
        shape = (p * rng.randint(1, 3), 4 * rng.randint(1, 2))
        distr = rng.choice([DISTR_DEFAULT, DISTR_TORUS2D])
    init, map_f, zip_f, conv, style = _random_kernels(rng)
    ops = [rng.choice(["map", "map", "zip", "fold", "copy", "scan"])
           for _ in range(rng.randint(2, 6))]
    section = rng.choice([PLUS, MIN, MAX])
    cov = {
        "backend.skeletons": 1,
        f"backend.p{p}": 1,
        f"backend.kernel_style{style}": 1,
    }
    for op in ops:
        cov[f"backend.op_{op}"] = 1

    def workload(ctx: SkilContext):
        zeros = (0,) * dim
        negs = (-1,) * dim
        a = ctx.array_create(dim, shape, zeros, negs, init, distr)
        b = ctx.array_create(dim, shape, zeros, negs, init, distr)
        scalars = []
        for op in ops:
            if op == "map":
                ctx.array_map(map_f, a, b)
            elif op == "zip":
                ctx.array_zip(zip_f, a, b, b)
            elif op == "fold":
                scalars.append(ctx.array_fold(conv, section, a))
            elif op == "copy":
                ctx.array_copy(b, a)
            elif op == "scan" and dim == 1:
                ctx.array_scan(section, a, b)
        return [a, b], scalars

    label = f"skeletons p={p} shape={shape} distr={distr} ops={ops}"
    return _run_everywhere(workload, p, label), cov


# ---------------------------------------------------------------------------
# trial family 3: applications
# ---------------------------------------------------------------------------
def trial_backend_app(rng: random.Random) -> tuple[str | None, dict[str, int]]:
    """Gaussian elimination / shortest paths, compared across backends."""
    app = rng.choice(["shpaths", "gauss"])
    p = rng.choice([4, 4, 16])
    seed = rng.randrange(2**31)
    cov = {f"backend.app_{app}": 1, f"backend.p{p}": 1}

    if app == "shpaths":
        n = int(round(p**0.5)) * rng.randint(1, 3)

        def workload(ctx: SkilContext):
            from repro.apps.shortest_paths import (
                random_distance_matrix,
                shpaths,
            )

            out, _report = shpaths(
                ctx, random_distance_matrix(n, density=0.3, seed=seed)
            )
            return [], [np.asarray(out).tobytes()]

    else:
        n = p * rng.randint(2, 3)

        def workload(ctx: SkilContext):
            from repro.apps.gauss import gauss_simple, random_system

            a_mat, rhs = random_system(n, seed=seed)
            out, _report = gauss_simple(ctx, a_mat, rhs)
            return [], [np.asarray(out).tobytes()]

    label = f"{app} p={p} n={n} seed={seed}"
    return _run_everywhere(workload, p, label), cov


_TRIALS = [trial_backend_skeletons, trial_backend_program, trial_backend_app]


def _run_trial(trial_seed: int, res: CheckResult, verbose: bool = False) -> None:
    rng = random.Random(trial_seed)
    fn = _TRIALS[trial_seed % len(_TRIALS)]
    res.trials += 1
    try:
        with isolated_metrics():
            msg, cov = fn(rng)
    except Exception:
        msg, cov = traceback.format_exc(limit=8), {}
    for k, v in cov.items():
        res.coverage[k] = res.coverage.get(k, 0) + v
    if msg is not None:
        res.failures.append(
            Failure(
                pillar="backend",
                seed=trial_seed,
                title=fn.__name__,
                detail=msg,
                replay=(
                    f"PYTHONPATH=src python -m repro.check backend "
                    f"--seed {trial_seed} --budget 1 --raw-seed"
                ),
            )
        )
        if verbose:
            print(f"backend seed {trial_seed}: FAIL")


def run_backend(
    seed: int = 0,
    budget: int = 30,
    time_budget: float | None = None,
    verbose: bool = False,
) -> CheckResult:
    """Run *budget* backend-equivalence trials (3 interleaved families).

    The default budget is lower than the other pillars' because every
    trial runs its workload three times and boots one worker-process
    pool; the per-trial cost is dominated by process start-up, not by
    the workload.
    """
    res = CheckResult("backend")
    t0 = time.monotonic()
    for i in range(budget):
        if time_budget is not None and time.monotonic() - t0 > time_budget:
            break
        _run_trial(seed * 1_000_003 + i, res, verbose=verbose)
    return res


def run_backend_raw(seed: int, budget: int = 1) -> CheckResult:
    """Replay exact per-trial seeds printed by a failure report."""
    res = CheckResult("backend")
    for k in range(budget):
        _run_trial(seed + k, res)
    return res
