"""``array_create``, ``array_destroy`` and ``array_copy``.

Signatures follow Section 3 of the paper:

.. code-block:: c

   array<$t> array_create (int dim, Size size, Size blocksize,
                           Index lowerbd, $t init_elem (Index), int distr);
   void array_destroy (array<$t> a);
   void array_copy (array<$t> from, array<$t> to);

``array_create`` returns the new array ("the return-solution is however
used in array_create, since this skeleton allocates the new array
anyway"); a zero *blocksize* component asks the skeleton to "fill in an
appropriate value depending on the network topology" and a negative
*lowerbd* component derives the local lower bound.  ``array_copy``
exists because "array partitions are internally represented as
contiguous memory areas, [so] copying can be done very efficiently" —
it is charged at memcpy speed with no per-element function calls.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.arrays.darray import DistArray, default_grid
from repro.arrays.distribution import BlockDistribution
from repro.errors import SkeletonError
from repro.skeletons import fuse
from repro.skeletons.base import MapEnv, ops_of, skeleton_span
from repro.skeletons.map import apply_fused

__all__ = ["array_create", "array_create_uninit", "array_destroy", "array_copy"]


@skeleton_span("array_create")
def array_create(
    ctx,
    dim: int,
    size,
    blocksize,
    lowerbd,
    init_elem: Callable,
    distr: str | None = None,
    dtype=np.float64,
) -> DistArray:
    """Create a block-distributed array and initialize it elementwise.

    *init_elem(Index)* computes each element from its global index; a
    vectorized kernel (``init_elem.vectorized(index_grids, env)``) is
    used when provided.  *dtype* has no counterpart in the paper (the C
    element type is carried by the ``$t`` instantiation); here it
    selects the numpy element type.
    """
    distr = distr if distr is not None else ctx.default_distr
    grid = default_grid(ctx.machine, dim, distr)
    dist = BlockDistribution.from_pardata_args(dim, size, blocksize, lowerbd, grid)
    arr = DistArray(ctx.machine, dist, dtype, distr)

    t_elem = ctx.elem_time(ops_of(init_elem))
    fenv = fuse.FusedEnv(ctx.p)
    blocks = fuse.dispatch_blocks(
        ctx,
        getattr(init_elem, "vectorized", None),
        lambda: [(arr.index_grids(r), fenv) for r in range(ctx.p)],
    )
    if blocks is not None:
        for r in range(ctx.p):
            arr.local(r)[...] = np.broadcast_to(
                np.asarray(blocks[r], dtype=arr.dtype), arr.local(r).shape
            )
        ctx.net.compute(dist.part_sizes() * t_elem)
        return arr
    out = apply_fused(ctx, init_elem, (), arr.shape, dist)
    if out is not None:
        arr.pool[...] = np.asarray(out, dtype=arr.dtype)
        ctx.net.compute(dist.part_sizes() * t_elem)
        return arr

    per_rank = np.zeros(ctx.p)
    vec = getattr(init_elem, "vectorized", None)
    for r in range(ctx.p):
        ctx.current_rank = r
        b = arr.part_bounds(r)
        if vec is not None:
            env = MapEnv(ctx, r, b)
            block = vec(arr.index_grids(r), env)
            arr.local(r)[...] = np.broadcast_to(
                np.asarray(block, dtype=arr.dtype), arr.local(r).shape
            )
        else:
            block = arr.local(r)
            block[...] = _scalar_init(init_elem, arr, r).reshape(block.shape)
        per_rank[r] = b.size * t_elem
    ctx.current_rank = None
    ctx.net.compute(per_rank)
    return arr


def _scalar_init(init_elem: Callable, arr: DistArray, rank: int) -> np.ndarray:
    """*init_elem* applied to every global index of one partition, in C
    order, as a flat array of the element type.

    ``np.fromiter`` stores each value through the dtype's own item
    conversion, the same one ``block[ix] = value`` uses; structured
    element types are stored one record at a time.
    """
    count = arr.local(rank).size
    indices = arr.element_indices(rank)
    if arr.dtype.names is None:
        return np.fromiter(map(init_elem, indices), arr.dtype, count)
    out = np.empty(count, dtype=arr.dtype)
    for k, gix in enumerate(indices):
        out[k] = init_elem(gix)
    return out


def array_create_uninit(
    ctx,
    dim: int,
    size,
    blocksize,
    lowerbd,
    distr: str | None = None,
    dtype=np.float64,
) -> DistArray:
    """Allocate like :func:`array_create` but skip the initialization.

    The fusion pass (:mod:`repro.lang.fusion`) rewrites creates whose
    initial values are provably overwritten before any read — the
    allocation stays, but the per-element init work *and* the skeleton
    round disappear from the simulated schedule.  Accordingly this is
    not a collective: no ``skeleton_span``, no time charged.  Element
    values are unspecified until the first full overwrite.
    """
    distr = distr if distr is not None else ctx.default_distr
    grid = default_grid(ctx.machine, dim, distr)
    dist = BlockDistribution.from_pardata_args(dim, size, blocksize, lowerbd, grid)
    return DistArray(ctx.machine, dist, dtype, distr)


@skeleton_span("array_destroy")
def array_destroy(ctx, a: DistArray) -> None:
    """Deallocate *a*; using it afterwards raises."""
    a.destroy()


@skeleton_span("array_copy")
def array_copy(ctx, from_arr: DistArray, to_arr: DistArray) -> None:
    """Copy *from_arr* into the previously created *to_arr*.

    Pure local memcpy per partition — no communication, no per-element
    calls (this is why the paper implemented it "instead of using a
    correspondingly parameterized array_map").
    """
    ctx.check_same_shape("array_copy", from_arr, to_arr)
    if from_arr is to_arr:
        raise SkeletonError("array_copy: source and target are the same array")
    per_rank = np.zeros(ctx.p)
    t_mem = ctx.machine.cost.t_mem
    src_itemsize = from_arr.dtype.itemsize
    if ctx.fused and from_arr.pool is not None and to_arr.pool is not None:
        # one memcpy over the pool; src.nbytes == b.size * itemsize exactly
        to_arr.pool[...] = from_arr.pool.astype(to_arr.dtype, copy=False)
        ctx.net.compute(
            (from_arr.dist.part_sizes() * src_itemsize) * t_mem
        )
        return
    for r in range(ctx.p):
        src = from_arr.local(r)
        to_arr.local(r)[...] = src.astype(to_arr.dtype, copy=False)
        per_rank[r] = src.nbytes * t_mem
    ctx.net.compute(per_rank)
