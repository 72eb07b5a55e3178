"""Experiment drivers: one simulated run per (application, language, p, n).

Every public function builds a fresh machine, runs the workload, checks
the numeric result against an oracle, and returns the simulated seconds.
The oracle check makes the benchmark harness double as an integration
test: a run whose *result* is wrong never reports a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.apps.gauss import gauss_full, gauss_simple, random_system
from repro.apps.matmul import matmul
from repro.apps.shortest_paths import (
    random_distance_matrix,
    round_up_to_grid,
    shortest_paths_oracle,
    shpaths,
)
from repro.baselines.parix_c import gauss_c, make_c_machine, matmul_c, shpaths_c
from repro.errors import SkilError
from repro.machine.costmodel import DPFL, SKIL, SKIL_CLOSURES, T800_PARSYTEC
from repro.machine.machine import Machine
from repro.skeletons import SkilContext

__all__ = [
    "ExperimentResult",
    "run_shpaths",
    "run_gauss",
    "run_matmul",
    "fits_paper_memory",
    "LANGUAGES",
]

LANGUAGES = ("skil", "dpfl", "parix-c", "parix-c-old", "skil-closures")


@dataclass(frozen=True)
class ExperimentResult:
    app: str
    language: str
    p: int
    n: int
    seconds: float
    messages: int
    bytes_sent: int


def _context(language: str, p: int) -> SkilContext:
    if language == "skil":
        return SkilContext(Machine(p), SKIL)
    if language == "dpfl":
        return SkilContext(Machine(p), DPFL)
    if language == "skil-closures":
        return SkilContext(Machine(p), SKIL_CLOSURES)
    raise SkilError(f"unknown skeleton language {language!r}")


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


# every language of a table cell runs on the same input and is checked
# against the same oracle: build both once per (n, seed).  The cached
# arrays are read-only, so a driver that writes its input fails loudly
# instead of corrupting the next language's run.
@lru_cache(maxsize=8)
def _shpaths_case(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(distance matrix, shortest-paths oracle) of one Table 1 input."""
    dist = random_distance_matrix(n, density=0.25, seed=seed)
    return _read_only(dist, shortest_paths_oracle(dist))


@lru_cache(maxsize=8)
def _gauss_case(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(matrix, right-hand side, reference solution) of one Table 2 input."""
    a_mat, rhs = random_system(n, seed=seed)
    return _read_only(a_mat, rhs, np.linalg.solve(a_mat, rhs))


def run_shpaths(language: str, p: int, n: int = 200, seed: int = 0) -> ExperimentResult:
    """One Table 1 cell: shortest paths for an n-node graph on p procs.

    *n* is rounded up to a multiple of sqrt(p), exactly as the paper does
    ("e.g. n = 201 for sqrt(p) = 3").
    """
    g = Machine(p).mesh.rows  # square grid side
    n_eff = round_up_to_grid(n, g)
    dist, oracle = _shpaths_case(n_eff, seed)

    if language in ("parix-c", "parix-c-old"):
        old = language == "parix-c-old"
        machine = make_c_machine(p, old=old)
        result, report = shpaths_c(machine, dist, old=old)
    else:
        ctx = _context(language, p)
        result, report = shpaths(ctx, dist)
        machine = ctx.machine
    if not np.allclose(result, oracle):
        raise SkilError(f"shpaths({language}, p={p}, n={n_eff}) produced wrong paths")
    return ExperimentResult(
        "shpaths", language, p, n_eff, report.seconds,
        machine.stats.messages, machine.stats.bytes_sent,
    )


def run_gauss(
    language: str, p: int, n: int, full: bool = False, seed: int = 0
) -> ExperimentResult:
    """One Table 2 cell: n x n Gaussian elimination on p processors.

    ``full=False`` is the paper's measured configuration ("implemented
    without the search and the exchange of the pivot row ... because
    this version had been implemented in DPFL and we wanted to make a
    fair comparison").
    """
    a_mat, rhs, x_ref = _gauss_case(n, seed)

    if language in ("parix-c", "parix-c-old"):
        if full:
            raise SkilError("the hand-written C comparator implements only the "
                            "simple variant measured in Table 2")
        machine = make_c_machine(p, old=language == "parix-c-old")
        x, report = gauss_c(machine, a_mat, rhs)
    else:
        ctx = _context(language, p)
        driver = gauss_full if full else gauss_simple
        x, report = driver(ctx, a_mat, rhs)
        machine = ctx.machine
    if not np.allclose(x, x_ref, rtol=1e-6, atol=1e-8):
        raise SkilError(f"gauss({language}, p={p}, n={n}) produced a wrong solution")
    return ExperimentResult(
        "gauss-full" if full else "gauss", language, p, n, report.seconds,
        machine.stats.messages, machine.stats.bytes_sent,
    )


def run_matmul(language: str, p: int, n: int, seed: int = 0) -> ExperimentResult:
    """One ablation-A1 cell: classical n x n matrix multiplication."""
    rng = np.random.default_rng(seed)
    a_mat = rng.uniform(-1.0, 1.0, size=(n, n))
    b_mat = rng.uniform(-1.0, 1.0, size=(n, n))
    ref = a_mat @ b_mat

    if language in ("parix-c", "parix-c-old"):
        machine = make_c_machine(p, old=language == "parix-c-old")
        c_mat, report = matmul_c(machine, a_mat, b_mat)
    else:
        ctx = _context(language, p)
        c_mat, report = matmul(ctx, a_mat, b_mat)
        machine = ctx.machine
    if not np.allclose(c_mat, ref):
        raise SkilError(f"matmul({language}, p={p}, n={n}) produced a wrong product")
    return ExperimentResult(
        "matmul", language, p, n, report.seconds,
        machine.stats.messages, machine.stats.bytes_sent,
    )


def fits_paper_memory(n: int, p: int, language: str = "skil") -> bool:
    """Would the gauss working set fit the Parsytec's 1 MB/node?

    The paper: "Since only 1 MB of memory was available per node, larger
    problem sizes could only be fitted into larger networks."  Gauss
    keeps two n x (n+1) float (4-byte) arrays plus the p x (n+1) pivot
    array; DPFL additionally materialises a map temporary.
    """
    bytes_per_elem = 4  # C float on the T800
    rows = -(-n // p)
    per_node = 2 * rows * (n + 1) * bytes_per_elem + (n + 1) * bytes_per_elem
    if language == "dpfl":
        per_node += rows * (n + 1) * bytes_per_elem  # copy-on-update temp
    return per_node <= T800_PARSYTEC.memory_bytes
