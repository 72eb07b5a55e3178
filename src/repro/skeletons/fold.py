"""``array_fold`` (and the ``array_scan`` extension).

.. code-block:: c

   $t2 array_fold ($t2 conv_f ($t1, Index), $t2 fold_f ($t2, $t2),
                   array<$t1> a);

Three phases, exactly as in the paper:

1. every processor converts the elements of its partition with *conv_f*
   ("in a map-like way ... but our solution is more efficient" than a
   preliminary ``array_map`` — no temporary array is materialised);
2. each processor folds its converted partition locally with *fold_f*;
3. the per-partition results are folded together "along the edges of a
   virtual tree topology, with the result finally collected at the root"
   and then "broadcasted from the root along the tree edges to all other
   processors" — so every processor returns the same value.

*fold_f* must be associative and commutative, "otherwise the result is
non-deterministic"; the library emits a :class:`UserWarning` when a
folding function does not carry that promise (see
:func:`repro.skeletons.functional.skil_fn`).
"""

from __future__ import annotations

import warnings
from functools import reduce
from typing import Callable

import numpy as np

from repro.arrays.darray import DistArray
from repro.errors import SkeletonError
from repro.skeletons import fuse
from repro.skeletons.base import MapEnv, ops_of, skeleton_span
from repro.skeletons.map import apply_fused, scalar_apply

__all__ = ["array_fold", "array_scan"]


def _converted_partition(ctx, conv_f, a: DistArray, rank: int) -> np.ndarray:
    b = a.part_bounds(rank)
    vec = getattr(conv_f, "vectorized", None)
    if vec is not None:
        env = MapEnv(ctx, rank, b)
        out = np.asarray(vec(a.local(rank), a.index_grids(rank), env))
        return np.broadcast_to(out, a.local(rank).shape)
    return scalar_apply(conv_f, (a.local(rank),), a.element_indices(rank))


def _local_fold(fold_f, values: np.ndarray):
    """The sequential left fold of one converted partition."""
    flat = values.ravel()
    if flat.dtype.names is not None:
        # fold the records as the 0-d structs the scalar conversion
        # makes (tolist() would hand the folding function plain tuples)
        return reduce(fold_f, [np.array(rec) for rec in flat])
    np_reduce = getattr(fold_f, "np_reduce", None)
    if np_reduce is not None and flat.dtype != object:
        return np_reduce(flat)
    return reduce(fold_f, flat.tolist())


def _local_folds(ctx, fold_f, parts: list) -> list:
    """Fold every processor's converted partition; one partial each.

    Structured partitions go to the folding function's ``reduce_all``
    hook when it has one: a single call folds all partitions at once
    (see :func:`repro.lang.runtime.select_reduce`).  Otherwise each
    partition is folded sequentially, on its own processor.
    """
    reducer = getattr(fold_f, "reduce_all", None)
    if reducer is not None and parts[0].dtype.names is not None:
        return reducer([vals.ravel() for vals in parts])
    partials = []
    for r, vals in enumerate(parts):
        ctx.current_rank = r
        partials.append(_local_fold(fold_f, vals))
    ctx.current_rank = None
    return partials


@skeleton_span("array_fold")
def array_fold(ctx, conv_f: Callable, fold_f: Callable, a: DistArray):
    """Fold all elements of *a* into one value, known on all processors."""
    if not getattr(fold_f, "commutative_associative", False):
        warnings.warn(
            "array_fold: the folding function does not declare itself "
            "associative and commutative; the result is non-deterministic "
            "on a real machine (annotate it with skil_fn(...))",
            UserWarning,
            stacklevel=2,
        )

    t_conv = ctx.elem_time(ops_of(conv_f))
    t_fold = ctx.elem_time(ops_of(fold_f))
    with ctx.phase("fold:local"):
        # real backends convert the partitions in parallel; the fused
        # fast path runs the conversion kernel once over the pool and
        # takes each partition's slice of the converted whole (ravel
        # order inside a block matches the per-rank path, so the local
        # fold sees the elements in the identical sequence)
        fenv = fuse.FusedEnv(ctx.p)
        converted = fuse.dispatch_blocks(
            ctx,
            getattr(conv_f, "vectorized", None),
            lambda: [(a.local(r), a.index_grids(r), fenv) for r in range(ctx.p)],
        )
        conv_global = (
            None
            if converted is not None
            else apply_fused(ctx, conv_f, (a.pool,), a.shape, a.dist)
        )
        if converted is not None:
            parts = [
                np.broadcast_to(np.asarray(converted[r]), a.local(r).shape)
                for r in range(ctx.p)
            ]
        elif conv_global is not None:
            parts = [conv_global[a.dist.part_slices(r)] for r in range(ctx.p)]
        else:
            parts = []
            for r in range(ctx.p):
                ctx.current_rank = r
                parts.append(_converted_partition(ctx, conv_f, a, r))
            ctx.current_rank = None
        partials = _local_folds(ctx, fold_f, parts)
        sizes = np.array([vals.size for vals in parts])
        ctx.net.compute(sizes * t_conv + np.maximum(0, sizes - 1) * t_fold)

    # combine along the binomial tree and broadcast the result back
    with ctx.phase("fold:tree"):
        result = reduce(fold_f, partials)
        probe = np.asarray(partials[0])
        nbytes = probe.nbytes if probe.dtype != object else 64
        topo = ctx.machine.topology(a.distr)
        ctx.net.allreduce(
            ctx.wire_bytes(nbytes), topo, combine_seconds=t_fold, sync=ctx.sync()
        )
    return result


@skeleton_span("array_scan")
def array_scan(ctx, scan_f: Callable, a: DistArray, to_arr: DistArray) -> None:
    """Extension skeleton: inclusive prefix combination along dimension 0.

    For 1-D arrays distributed block-wise: ``to[i] = scan_f(a[0], ...,
    a[i])``.  Local scan, exclusive tree-propagated offsets, local
    correction — the textbook distributed scan.  *scan_f* must be
    associative (commutativity is not required).
    """
    if a.dim != 1:
        raise SkeletonError("array_scan currently supports 1-D arrays")
    ctx.check_same_shape("array_scan", a, to_arr)
    ctx.check_block_distribution("array_scan", a, to_arr)

    t_fold = ctx.elem_time(ops_of(scan_f))
    np_op = getattr(scan_f, "np_op", None)
    # fused fast path (see docs/PERFORMANCE.md): with equal pooled
    # partitions the p local scans are one batched accumulate over the
    # (p, block) pool view — each row is scanned in the identical
    # left-to-right element order, so contents are bit-identical
    fused = (
        ctx.fused
        and np_op is not None
        and a.pool is not None
        and to_arr.pool is not None
        and a.pool.dtype != object
        and a.shape[0] % ctx.p == 0
    )
    if fused:
        rows = a.pool.reshape(ctx.p, -1)
        scanned_all = np_op.accumulate(rows, axis=1)
        sizes = a.dist.part_sizes()
        # the per-rank formula below, vectorized — elementwise IEEE ops
        per_rank = np.maximum(0, sizes - 1) * t_fold
        locals_ = list(scanned_all)
    else:
        per_rank = np.zeros(ctx.p)
        locals_ = []
        for r in range(ctx.p):
            src = a.local(r)
            if np_op is not None and src.dtype != object:
                scanned = np_op.accumulate(src)
            else:
                out = list(src)
                for i in range(1, len(out)):
                    out[i] = scan_f(out[i - 1], out[i])
                scanned = np.asarray(out, dtype=to_arr.dtype)
            locals_.append(scanned)
            per_rank[r] = max(0, src.size - 1) * t_fold
    ctx.net.compute(per_rank)

    # exclusive offsets: fold of the last local elements of lower ranks
    offsets = [None] * ctx.p
    running = None
    for r in range(ctx.p):
        offsets[r] = running
        last = locals_[r][-1]
        running = last if running is None else scan_f(running, last)
    # communication: a (log p)-round tree carrying one element up+down,
    # modelled with the same allreduce pattern as fold
    probe = np.asarray(locals_[0][:1])
    topo = ctx.machine.topology(a.distr)
    ctx.net.allreduce(
        ctx.wire_bytes(probe.nbytes), topo, combine_seconds=t_fold, sync=ctx.sync()
    )

    off_col = None
    if fused and ctx.p > 1:
        off_col = np.asarray(offsets[1:])
        if off_col.dtype != scanned_all.dtype or off_col.shape != (ctx.p - 1,):
            # mixed promotion could differ from the per-rank scalar case
            off_col = None
    if fused and (ctx.p == 1 or off_col is not None):
        to_rows = to_arr.pool.reshape(ctx.p, -1)
        to_rows[0] = scanned_all[0]
        if ctx.p > 1:
            to_rows[1:] = np_op(off_col[:, None], scanned_all[1:])
        ctx.net.compute(sizes * t_fold)
        return
    for r in range(ctx.p):
        if offsets[r] is None:
            to_arr.local(r)[...] = locals_[r]
        elif np_op is not None and locals_[r].dtype != object:
            to_arr.local(r)[...] = np_op(offsets[r], locals_[r])
        else:
            to_arr.local(r)[...] = [scan_f(offsets[r], v) for v in locals_[r]]
    # correction pass costs one op per element
    ctx.net.compute(
        np.array([a.local(r).size * t_fold for r in range(ctx.p)])
    )
