"""``array_map`` (and the ``array_zip`` extension).

.. code-block:: c

   void array_map ($t2 map_f ($t1, Index), array<$t1> from, array<$t2> to);

The result is *placed* into an existing array instead of returned, "since
in the second case a temporary data structure would have to be created"
— an efficiency trick the paper points out is impossible in functional
hosts.  We reproduce that asymmetry in the cost model: under a profile
with ``copy_on_update`` (DPFL) every map additionally pays for the
temporary allocation and copy-back.

``from`` and ``to`` may be the same array (in-situ replacement) but must
share shape and distribution.  The map function sees the element and its
global ``Index``; the order of application is unspecified, so functions
must not rely on other elements being already updated (the paper's
Gaussian elimination uses two arrays for exactly this reason).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.arrays.darray import DistArray
from repro.errors import SkeletonError
from repro.skeletons import fuse
from repro.skeletons.base import MapEnv, ops_of, skeleton_span

__all__ = ["array_map", "array_zip"]


def _apply_block(ctx, f, src_arr: DistArray, rank: int, blocks=None):
    """Compute the mapped values of one partition (no clock charging)."""
    b = src_arr.part_bounds(rank)
    vec = getattr(f, "vectorized", None)
    src = src_arr.local(rank) if blocks is None else blocks[rank]
    if vec is not None:
        env = MapEnv(ctx, rank, b)
        out = vec(src, src_arr.index_grids(rank), env)
        return np.broadcast_to(np.asarray(out), src.shape)
    return scalar_apply(f, (src,), src_arr.element_indices(rank))


def scalar_apply(f, srcs: tuple, indices) -> np.ndarray:
    """``f(*elements, index)`` over every element of the equally shaped
    blocks *srcs*, in C order, as an object array of their shape.

    Elements are read by ``.flat`` iteration, which yields the same
    numpy scalars (or record views) as ``src[ix]`` — a float32 kernel
    keeps computing in float32.
    """
    shape = srcs[0].shape
    vals = map(f, *(s.flat for s in srcs), indices)
    return np.fromiter(vals, dtype=object, count=srcs[0].size).reshape(shape)


def apply_fused(ctx, f, pools: tuple, shape, dist) -> np.ndarray | None:
    """Evaluate *f* once over the whole pooled buffer(s), or ``None``.

    *pools* are the input pool(s) the kernel consumes (one for map/fold
    conversion, two for zip; empty for create).  Raises nothing: every
    reason not to fuse — no kernel, unpooled array, env-reading kernel —
    yields ``None``, and the caller runs the per-rank loop.
    """
    if not ctx.fused or any(p is None for p in pools):
        return None
    fused_k = getattr(f, "fused", None)
    vec = getattr(f, "vectorized", None)
    grids = dist.global_index_grids()
    fenv = fuse.FusedEnv(ctx.p)
    if fused_k is not None:
        # explicit whole-array kernel; its own guards (e.g. a partner
        # array that is not pooled) raise FusionFallback
        try:
            out = fused_k(*pools, grids, fenv)
        except fuse.FusionFallback:
            return None
        return np.broadcast_to(np.asarray(out), shape)
    if vec is None:
        return None
    ok = fuse.kernel_fusability(vec)
    if ok is False:
        return None
    try:
        out = vec(*pools, grids, fenv)
    except fuse.FusionFallback:
        if ok is None:
            fuse.remember_fusability(vec, False)
        return None
    if ok is None:
        fuse.remember_fusability(vec, True)
    return np.broadcast_to(np.asarray(out), shape)


def write_pool(to_arr: DistArray, out: np.ndarray) -> None:
    """Write a fused result into the target pool (with dtype conversion,
    matching the per-rank write-back)."""
    pool = to_arr.pool
    if out is not pool and np.may_share_memory(out, pool):
        # e.g. an identity kernel returning a view of the target pool;
        # materialise before the overlapping assignment
        out = np.array(out, dtype=to_arr.dtype)
    pool[...] = out


def _map_cost_vector(ctx, from_arr: DistArray, to_arr: DistArray, t_elem: float):
    """The per-rank cost vector of a map-shaped skeleton — shared by the
    fused and per-rank paths so simulated seconds are bit-identical.

    ``nbytes`` of the converted partition is ``b.size * itemsize`` exactly
    (the per-rank path reads it off the materialised block).  Vectorized
    over ranks with the same elementwise IEEE ops as the scalar formula,
    so the charged vector is bit-identical.
    """
    sizes = from_arr.dist.part_sizes()
    per_rank = sizes * t_elem
    if ctx.profile.copy_on_update:
        # functional host: build a fresh array, then (conceptually)
        # replace the old one — charge allocation+copy traffic
        per_rank = per_rank + (
            sizes * to_arr.dtype.itemsize
        ) * ctx.machine.cost.t_mem
    return per_rank


def dispatch_blocks(ctx, f, srcs: tuple, to_arr: DistArray) -> bool:
    """Per-rank parallel execution on a real backend (threads/mp).

    ``srcs`` are the input array(s); each rank's task is the same
    ``vec(block(s), grids, env)`` call the sequential loop makes, with a
    :class:`~repro.skeletons.fuse.FusedEnv` standing in for the per-rank
    env (only known env-free kernels are dispatched, so the env is never
    read).  Writes the target and returns ``True``, or returns ``False``
    when the work stayed sequential.  No clocks are touched here — the
    caller charges the same cost vector as the sequential paths.
    """
    lead = srcs[0]
    fenv = fuse.FusedEnv(ctx.p)
    outs = fuse.dispatch_blocks(
        ctx,
        getattr(f, "vectorized", None),
        lambda: [
            tuple(s.local(r) for s in srcs) + (lead.index_grids(r), fenv)
            for r in range(ctx.p)
        ],
    )
    if outs is None:
        return False
    results = [
        np.asarray(
            np.broadcast_to(np.asarray(out), lead.local(r).shape),
            dtype=to_arr.dtype,
        )
        for r, out in enumerate(outs)
    ]
    # deferred write-back, exactly like the sequential per-rank loop
    for r in range(ctx.p):
        to_arr.local(r)[...] = results[r]
    return True


@skeleton_span("array_map")
def array_map(ctx, map_f: Callable, from_arr: DistArray, to_arr: DistArray) -> None:
    """Apply *map_f* to every element of *from_arr*, writing *to_arr*."""
    ctx.check_same_shape("array_map", from_arr, to_arr)

    t_elem = ctx.elem_time(ops_of(map_f))
    if dispatch_blocks(ctx, map_f, (from_arr,), to_arr):
        ctx.net.compute(_map_cost_vector(ctx, from_arr, to_arr, t_elem))
        return
    out = apply_fused(ctx, map_f, (from_arr.pool,), from_arr.shape, from_arr.dist)
    if out is not None:
        per_rank = _map_cost_vector(ctx, from_arr, to_arr, t_elem)
        write_pool(to_arr, out)
        ctx.net.compute(per_rank)
        return

    per_rank = np.zeros(ctx.p)
    t_mem = ctx.machine.cost.t_mem
    results = []
    for r in range(ctx.p):
        ctx.current_rank = r
        vals = _apply_block(ctx, map_f, from_arr, r)
        results.append(np.asarray(vals, dtype=to_arr.dtype))
        b = from_arr.part_bounds(r)
        cost = b.size * t_elem
        if ctx.profile.copy_on_update:
            # functional host: build a fresh array, then (conceptually)
            # replace the old one — charge allocation+copy traffic
            cost += results[-1].nbytes * t_mem
        per_rank[r] = cost
    ctx.current_rank = None
    # write-back after all partitions are computed so that in-situ maps
    # cannot observe partially updated data even across partitions
    for r in range(ctx.p):
        to_arr.local(r)[...] = results[r]
    ctx.net.compute(per_rank)


@skeleton_span("array_zip")
def array_zip(
    ctx,
    zip_f: Callable,
    a: DistArray,
    b: DistArray,
    to_arr: DistArray,
) -> None:
    """Extension skeleton: elementwise combination of two arrays.

    ``to[i] = zip_f(a[i], b[i], i)``; *to_arr* may alias either input.
    A vectorized kernel has signature ``kernel(block_a, block_b,
    index_grids, env)``.
    """
    ctx.check_same_shape("array_zip", a, b)
    ctx.check_same_shape("array_zip", a, to_arr)

    t_elem = ctx.elem_time(ops_of(zip_f))
    if dispatch_blocks(ctx, zip_f, (a, b), to_arr):
        ctx.net.compute(_map_cost_vector(ctx, a, to_arr, t_elem))
        return
    out = apply_fused(ctx, zip_f, (a.pool, b.pool), a.shape, a.dist)
    if out is not None:
        per_rank = _map_cost_vector(ctx, a, to_arr, t_elem)
        write_pool(to_arr, out)
        ctx.net.compute(per_rank)
        return

    t_mem = ctx.machine.cost.t_mem
    per_rank = np.zeros(ctx.p)
    results = []
    vec = getattr(zip_f, "vectorized", None)
    for r in range(ctx.p):
        ctx.current_rank = r
        bounds = a.part_bounds(r)
        if vec is not None:
            env = MapEnv(ctx, r, bounds)
            vals = vec(a.local(r), b.local(r), a.index_grids(r), env)
            vals = np.broadcast_to(np.asarray(vals), a.local(r).shape)
        else:
            vals = scalar_apply(
                zip_f, (a.local(r), b.local(r)), a.element_indices(r)
            )
        results.append(np.asarray(vals, dtype=to_arr.dtype))
        cost = bounds.size * t_elem
        if ctx.profile.copy_on_update:
            cost += results[-1].nbytes * t_mem
        per_rank[r] = cost
    ctx.current_rank = None
    for r in range(ctx.p):
        to_arr.local(r)[...] = results[r]
    ctx.net.compute(per_rank)
