"""Gaussian elimination — paper §4.2.

Solves ``A x = b`` by Gauss-Jordan transformation of the extended
``n x (n+1)`` matrix, written purely with skeletons:

* the matrix is divided into ``p`` row blocks ("each containing n/p
  rows; we assume for simplicity that p divides n");
* the pivot row is found by ``array_fold`` over ``elemrec`` records with
  ``max_abs_in_col(k)`` (complete version only);
* pivot-row exchange is ``array_permute_rows`` with ``switch_rows``;
* the pivot row travels to everyone through an auxiliary ``piv`` array of
  shape ``p x (n+1)`` — one row per processor — so that row broadcast is
  partition broadcast: ``array_map(copy_pivot(b, k), piv, piv)`` followed
  by ``array_broadcast_part(piv, {k/(n/p), 0})``;
* the elimination itself is ``array_map(eliminate(k, b, piv), b, a)``,
  alternating between the two arrays because the order in which map
  applies its function "cannot be imposed";
* finally ``array_map(normalize(a), a, b)`` divides the last column by
  the diagonal.

Two variants, matching the paper's measurements:

* :func:`gauss_simple` — "implemented without the search and the
  exchange of the pivot row", the version compared against DPFL and
  Parix-C in Table 2;
* :func:`gauss_full` — the complete program of §4.2, measured to cost
  "about twice as long" (ablation A2).
"""

from __future__ import annotations

import numpy as np

from repro.apps.shortest_paths import RunReport
from repro.errors import SkilError, SkilRuntimeError
from repro.machine.machine import DISTR_DEFAULT
from repro.skeletons import SkilContext, papply, skil_fn
from repro.skeletons.base import current_context
from repro.skeletons.fuse import FusionFallback

__all__ = ["gauss_simple", "gauss_full", "ELEMREC", "random_system"]

#: the paper's ``struct _elemrec {float val; int row; int col;}``
ELEMREC = np.dtype([("val", "f8"), ("row", "i8"), ("col", "i8")])


def random_system(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """A well-conditioned random system (diagonally dominant)."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    a += np.eye(n) * (n + 1.0)
    b = rng.uniform(-1.0, 1.0, size=n)
    return a, b


# ---------------------------------------------------------------------------
# the paper's argument functions
# ---------------------------------------------------------------------------
def _make_elemrec_vec(block, grids, env):
    out = np.empty(block.shape, dtype=ELEMREC)
    out["val"] = block
    out["row"] = np.broadcast_to(grids[0], block.shape)
    out["col"] = np.broadcast_to(grids[1], block.shape)
    return out


@skil_fn(ops=1, vectorized=_make_elemrec_vec)
def make_elemrec(v, ix):
    """conv_f: wrap each element with its row and column."""
    rec = np.zeros((), dtype=ELEMREC)
    rec["val"], rec["row"], rec["col"] = float(v), ix[0], ix[1]
    return rec


class MaxAbsInCol:
    """fold_f: maximum |val| among the records of column *k*, rows >= *k*.

    Partial pivoting only considers rows that have not yet served as
    pivot; the paper states the column restriction explicitly and leaves
    the row restriction implicit (rows < k would re-select finished
    pivot rows and destroy the already-eliminated columns).  Ties break
    toward the smaller row so the distributed fold is deterministic
    (the paper merely requires associativity and commutativity; this
    function has both).
    """

    ops = 1.0
    commutative_associative = True

    def __init__(self, k: int):
        self.k = k

    def _eligible(self, rec) -> bool:
        return rec["col"] == self.k and rec["row"] >= self.k

    def __call__(self, x, y):
        if not self._eligible(x):
            return y
        if not self._eligible(y):
            return x
        ax, ay = abs(x["val"]), abs(y["val"])
        if ax != ay:
            return x if ax > ay else y
        return x if x["row"] <= y["row"] else y

    def reduce_all(self, rows: list) -> list:
        """The local folds of all partitions (``array_fold``'s hook)."""
        return [self._reduce_partition(flat) for flat in rows]

    def _reduce_partition(self, flat: np.ndarray):
        mask = (flat["col"] == self.k) & (flat["row"] >= self.k)
        if not mask.any():
            rec = np.zeros((), dtype=ELEMREC)
            rec["col"] = -1  # neutral: loses against any real record
            return rec
        cand = flat[mask]
        absval = np.abs(cand["val"])
        best = absval.max()
        rows = cand["row"][absval == best]
        return cand[np.nonzero((absval == best) & (cand["row"] == rows.min()))[0][0]]


def switch_rows(r1: int, r2: int, i: int) -> int:
    """perm_f: exchange rows *r1* and *r2*, identity elsewhere."""
    if i == r1:
        return r2
    if i == r2:
        return r1
    return i


def _require_row_block(fenv, *arrays):
    """Fused gauss kernels assume pooled arrays distributed as contiguous
    row blocks over all p processors (grid ``(p, 1)``), which is how the
    paper lays the extended matrix and ``piv`` out.  Anything else falls
    back to the per-rank path."""
    for arr in arrays:
        if arr.pool is None or arr.dist.grid != (fenv.p,) + (1,) * (arr.dim - 1):
            raise FusionFallback("needs pooled row-block arrays")


def _copy_pivot_vec(a, k, block, grids, env):
    """Vectorized copy_pivot: partially applied to (a, k) like the paper."""
    bounds = a.part_bounds(env.rank)
    if bounds.lower[0] <= k < bounds.upper[0]:
        row = a.local(env.rank)[k - bounds.lower[0], :]
        return (row / row[k])[None, :]
    return block


def _copy_pivot_fused(a, k, pool, grids, fenv):
    """Whole-array copy_pivot: one row of ``piv`` changes — the one owned
    by the processor whose partition of *a* contains row *k*.  Same
    ``row / row[k]`` division as the per-rank kernel, so values are
    bit-identical."""
    _require_row_block(fenv, a)
    owner = a.owner((k,) + (0,) * (a.dim - 1))
    row = a.pool[k, :]
    out = pool.copy()
    out[owner, :] = row / row[k]
    return out


@skil_fn(ops=1, vectorized=_copy_pivot_vec, fused=_copy_pivot_fused)
def copy_pivot(a, k, v, ix):
    """Overwrite the piv element if this processor holds the pivot row.

    Mirrors the paper's function: returns ``a[k, j] / a[k, k]`` when row
    *k* lies within the local partition of *a*, the old value otherwise.
    """
    rank = current_context().proc_id()
    bounds = a.part_bounds(rank)
    if bounds.lower[0] <= k < bounds.upper[0]:
        return a.get_elem((k, ix[1]), rank) / a.get_elem((k, k), rank)
    return v


def _eliminate_vec(k, a, piv, block, grids, env):
    """Vectorized eliminate: out = v - a[i,k] * piv[procId, j] except for
    the pivot row and the columns left of the pivot."""
    bounds = a.part_bounds(env.rank)
    ablock = a.local(env.rank)
    col_k = ablock[:, k]
    piv_row = piv.local(env.rank)[0, :]
    out = block - col_k[:, None] * piv_row[None, :]
    out[:, :k] = block[:, :k]
    if bounds.lower[0] <= k < bounds.upper[0]:
        out[k - bounds.lower[0], :] = block[k - bounds.lower[0], :]
    return out


def _eliminate_fused(k, a, piv, pool, grids, fenv):
    """Whole-array eliminate: each row *i* subtracts ``a[i, k]`` times the
    pivot row its owner holds in ``piv``; the pivot row itself and the
    columns left of *k* are restored from the source, exactly like the
    per-rank kernel (elementwise numpy ops are per-element deterministic,
    so the values match bitwise)."""
    _require_row_block(fenv, a, piv)
    ranks = a.dist.owner_vectors()[0]  # owning rank per global row
    col_k = a.pool[:, k]
    piv_rows = piv.pool[ranks, :]
    out = pool - col_k[:, None] * piv_rows
    out[:, :k] = pool[:, :k]
    out[k, :] = pool[k, :]
    return out


@skil_fn(ops=2, vectorized=_eliminate_vec, fused=_eliminate_fused)
def eliminate(k, a, piv, v, ix):
    """The paper's eliminate, scalar path (tiny problems/tests only)."""
    if ix[0] == k or ix[1] < k:
        return v
    rank = current_context().proc_id()
    return v - a.get_elem((ix[0], k), rank) * piv.get_elem((rank, ix[1]), rank)


def _normalize_vec(a, block, grids, env):
    n_col = a.shape[1] - 1
    bounds = a.part_bounds(env.rank)
    rows = np.arange(bounds.lower[0], bounds.upper[0])
    ablock = a.local(env.rank)
    diag = ablock[np.arange(len(rows)), rows]
    out = block.copy()
    out[:, n_col] = block[:, n_col] / diag
    return out


def _normalize_fused(a, pool, grids, fenv):
    """Whole-array normalize: divide the last column by the diagonal."""
    _require_row_block(fenv, a)
    n_col = a.shape[1] - 1
    nrows = a.shape[0]
    diag = a.pool[np.arange(nrows), np.arange(nrows)]
    out = pool.copy()
    out[:, n_col] = pool[:, n_col] / diag
    return out


@skil_fn(ops=1, vectorized=_normalize_vec, fused=_normalize_fused)
def normalize(a, v, ix):
    """Divide the last column by the diagonal element of its row."""
    n_col = a.shape[1] - 1
    if ix[1] != n_col:
        return v
    rank = current_context().proc_id()
    return v / a.get_elem((ix[0], ix[0]), rank)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------
def _setup(ctx: SkilContext, a_mat: np.ndarray, rhs: np.ndarray):
    n = a_mat.shape[0]
    if a_mat.shape != (n, n) or rhs.shape != (n,):
        raise SkilError(f"need A (n x n) and b (n), got {a_mat.shape}, {rhs.shape}")
    if n % ctx.p != 0:
        raise SkilError(
            f"n={n} must be divisible by p={ctx.p} (the paper assumes p | n)"
        )
    ext = np.concatenate([a_mat, rhs[:, None]], axis=1)

    init_ext = skil_fn(
        ops=1, vectorized=lambda grids, env: ext[grids[0], grids[1]]
    )(lambda ix: ext[ix])
    zero = skil_fn(ops=1, vectorized=lambda grids, env: np.zeros(1))(lambda ix: 0.0)

    a = ctx.array_create(2, (n, n + 1), (0, 0), (-1, -1), init_ext, DISTR_DEFAULT)
    if ctx.fusion:
        # b's zero-init is provably dead: every iteration fully
        # overwrites b (array_copy or array_permute_rows from a) before
        # any read — the fusion pass's dead-init elision, mirrored here
        b = ctx.array_create_uninit(2, (n, n + 1), (0, 0), (-1, -1), DISTR_DEFAULT)
    else:
        b = ctx.array_create(2, (n, n + 1), (0, 0), (-1, -1), zero, DISTR_DEFAULT)
    piv = ctx.array_create(2, (ctx.p, n + 1), (0, 0), (-1, -1), zero, DISTR_DEFAULT)
    return n, a, b, piv


def _elimination_step(ctx, k: int, n: int, a, b, piv) -> None:
    """Shared tail of one iteration: pivot copy, broadcast, eliminate.

    On entry *b* holds the current matrix; on exit *a* does.
    """
    ctx.array_map(papply(copy_pivot, b, k), piv, piv)
    ctx.array_broadcast_part(piv, (k // (n // ctx.p), 0))
    ctx.array_map(papply(eliminate, k, b, piv), b, a)


def _finish(ctx, n: int, a, b, piv, start: float) -> tuple[np.ndarray, RunReport]:
    ctx.array_map(papply(normalize, a), a, b)
    x = b.global_view()[:, n].copy()
    report = RunReport(
        seconds=ctx.machine.time - start,
        stats=ctx.machine.stats,
        p=ctx.p,
        n=n,
        profile=ctx.profile.name,
    )
    ctx.array_destroy(a)
    ctx.array_destroy(b)
    ctx.array_destroy(piv)
    return x, report


def gauss_simple(
    ctx: SkilContext, a_mat: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, RunReport]:
    """Gaussian elimination *without* pivot search/exchange (Table 2).

    Requires a matrix whose leading pivots never vanish (e.g. diagonally
    dominant); a zero pivot raises :class:`SkilRuntimeError`.
    """
    start = ctx.machine.time
    n, a, b, piv = _setup(ctx, a_mat, rhs)
    for k in range(n):
        pivot_owner = a.owner((k, k))
        if float(a.get_elem((k, k), pivot_owner)) == 0.0:
            raise SkilRuntimeError(
                f"zero pivot at k={k}: gauss_simple needs gauss_full's pivoting"
            )
        ctx.array_copy(a, b)
        _elimination_step(ctx, k, n, a, b, piv)
    return _finish(ctx, n, a, b, piv, start)


def gauss_full(
    ctx: SkilContext, a_mat: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, RunReport]:
    """The complete program of §4.2, with partial pivoting."""
    start = ctx.machine.time
    n, a, b, piv = _setup(ctx, a_mat, rhs)
    for k in range(n):
        e = ctx.array_fold(make_elemrec, MaxAbsInCol(k), a)
        if float(e["val"]) == 0.0:
            raise SkilRuntimeError("Matrix is singular")
        if int(e["row"]) != k:
            ctx.array_permute_rows(
                a, papply(_switch_rows_fn, int(e["row"]), k), b
            )
        else:
            ctx.array_copy(a, b)
        _elimination_step(ctx, k, n, a, b, piv)
    return _finish(ctx, n, a, b, piv, start)


@skil_fn(ops=1)
def _switch_rows_fn(r1, r2, i):
    return switch_rows(r1, r2, i)


def main(argv: list[str] | None = None) -> int:
    """Run Gaussian elimination standalone, optionally writing a trace."""
    import argparse

    from repro.machine.costmodel import SKIL
    from repro.machine.machine import Machine
    from repro.skeletons import SkilContext

    parser = argparse.ArgumentParser(
        prog="python -m repro.apps.gauss",
        description="Gaussian elimination on the simulated machine.",
    )
    parser.add_argument("--p", type=int, default=8, help="number of processors")
    parser.add_argument("--n", type=int, default=48, help="system size")
    parser.add_argument("--seed", type=int, default=0, help="system seed")
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the complete variant with partial pivoting (§4.2)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a Chrome trace-event JSON (open in Perfetto)",
    )
    args = parser.parse_args(argv)
    if args.n % args.p != 0:
        args.n += args.p - args.n % args.p  # the paper assumes p | n

    machine = Machine(args.p, trace_level=2 if args.trace else 0)
    ctx = SkilContext(machine, SKIL)
    a_mat, rhs = random_system(args.n, seed=args.seed)
    driver = gauss_full if args.full else gauss_simple
    _, report = driver(ctx, a_mat, rhs)
    variant = "gauss-full" if args.full else "gauss"
    print(
        f"{variant} p={args.p} n={args.n}: {report.seconds:.3f} simulated s, "
        f"{machine.stats.messages} messages, "
        f"{machine.stats.bytes_sent / 1e6:.2f} MB sent"
    )
    if args.trace:
        from repro.obs import write_chrome_trace

        write_chrome_trace(args.trace, machine)
        print(f"trace written to {args.trace}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
