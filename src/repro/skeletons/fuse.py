"""Fused whole-array skeleton execution.

The per-rank execution loop (``for r in range(ctx.p): vec(block_r, ...)``)
charges the right *simulated* seconds but costs ``p`` Python-level kernel
dispatches of wall-clock per skeleton call.  For block-distributed arrays
all partitions are views into one contiguous pool
(:attr:`repro.arrays.darray.DistArray.pool`), so an elementwise kernel
can run **once** over the whole buffer with global index grids — the
fused fast path.  Simulated seconds stay bit-identical because the
per-rank cost vector is computed from the same partition geometry with
the same arithmetic as the per-rank loop.

Which kernels may fuse
----------------------

A vectorized kernel ``vec(block, grids, env)`` is *fusable* when its
result per element does not depend on which rank evaluates it, i.e. it
never reads the per-rank :class:`~repro.skeletons.base.MapEnv`.  Three
sources of that knowledge:

* generated kernels (``lang/codegen.py``) carry ``env_free`` — the
  vectorizer knows statically whether the Skil source used ``procId``,
  ``array_part_bounds`` or ``array_get_elem``;
* hand-written kernels are probed: the fused path calls them with a
  :class:`FusedEnv` whose rank-specific attributes raise
  :class:`FusionFallback`, and the outcome is memoized on the kernel;
* rank-*dependent* kernels can still fuse by providing an explicit
  whole-array kernel via ``skil_fn(fused=...)`` (signature
  ``fused(pool, global_grids, fenv)``) — see the Gaussian-elimination
  kernels in :mod:`repro.apps.gauss`.

Everything else — strided distributions, scalar-only kernels, kernels
that read the env — falls back to the per-rank loop, whose results the
fused path reproduces bit-for-bit (enforced by ``tests/check`` and the
``repro.check`` pillars).
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

__all__ = [
    "FusionFallback",
    "FusedEnv",
    "fusion_default",
    "set_fusion_default",
    "program_fusion_default",
    "set_program_fusion_default",
    "kernel_fusability",
    "remember_fusability",
    "dispatch_blocks",
    "interleaved_view",
    "stacked_blocks",
]


class FusionFallback(Exception):
    """Raised when a kernel cannot run fused; callers fall back to the
    per-rank loop.  Also raised *by* FusedEnv when a probed kernel turns
    out to read rank-specific state."""


#: process-wide default for ``SkilContext(fused=...)``; the environment
#: variable lets ``REPRO_FUSED=0 python -m repro.eval ...`` A/B the paths
_FUSION_DEFAULT = os.environ.get("REPRO_FUSED", "1").lower() not in (
    "0", "false", "no", "off",
)


def fusion_default() -> bool:
    return _FUSION_DEFAULT


def set_fusion_default(enabled: bool) -> None:
    """Set the process-wide default consulted by new contexts (the bench
    harness toggles this between timed runs)."""
    global _FUSION_DEFAULT
    _FUSION_DEFAULT = bool(enabled)


#: process-wide default for *compiler-level* skeleton fusion
#: (``SkilContext(fusion=...)`` / ``compile_skil(fusion=...)``, see
#: :mod:`repro.lang.fusion`).  Unlike the wall-clock-only fused execution
#: path above, program fusion changes the *simulated* schedule (fewer
#: skeleton rounds, no intermediate arrays) while keeping values
#: bit-equal — it therefore defaults OFF so that baseline artefacts stay
#: reproducible; ``REPRO_FUSION=1`` (or ``--fusion``) opts in.
_PROGRAM_FUSION_DEFAULT = os.environ.get("REPRO_FUSION", "0").lower() in (
    "1", "true", "yes", "on",
)


def program_fusion_default() -> bool:
    return _PROGRAM_FUSION_DEFAULT


def set_program_fusion_default(enabled: bool) -> None:
    """Set the process-wide default for compiler-level skeleton fusion
    consulted by ``compile_skil`` and new contexts (``--fusion``)."""
    global _PROGRAM_FUSION_DEFAULT
    _PROGRAM_FUSION_DEFAULT = bool(enabled)


class FusedEnv:
    """The environment handed to kernels on the fused path.

    Unlike :class:`~repro.skeletons.base.MapEnv` there is no single rank:
    the kernel sees the whole array.  Accessing any rank-specific
    attribute raises :class:`FusionFallback`, which is what makes probing
    hand-written kernels safe — an env-reading kernel aborts before its
    result is used, and the caller re-runs it per rank.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        self.p = p

    @property
    def rank(self):
        raise FusionFallback("kernel reads env.rank")

    @property
    def bounds(self):
        raise FusionFallback("kernel reads env.bounds")

    @property
    def ctx(self):
        raise FusionFallback("kernel reads env.ctx")


def kernel_fusability(vec: Callable) -> bool | None:
    """``True``/``False`` when known, ``None`` when the kernel must be
    probed.  Generated kernels carry ``env_free`` from the vectorizer;
    probe outcomes are memoized as ``_fused_ok``."""
    env_free = getattr(vec, "env_free", None)
    if env_free is not None:
        return bool(env_free)
    return getattr(vec, "_fused_ok", None)


def remember_fusability(vec: Callable, ok: bool) -> None:
    """Memoize a probe outcome on the kernel object (best effort — some
    callables reject attributes, then every call probes again).

    ``False`` only suppresses future *attempts*; ``True`` never forces
    fusion, because the fused caller still catches FusionFallback at run
    time — so a kernel whose env use is conditional stays correct either
    way.
    """
    try:
        vec._fused_ok = bool(ok)
    except (AttributeError, TypeError):
        pass


def dispatch_blocks(
    ctx, vec: Callable | None, make_tasks: Callable[[], list[tuple]]
) -> list | None:
    """Run *vec* over per-rank task tuples on the machine's real backend.

    ``make_tasks()`` returns one argument tuple per rank — exactly what
    the sequential per-rank loop would pass, except the env slot holds a
    :class:`FusedEnv` (parallel workers must not see a per-rank
    ``MapEnv``; this is the env_free audit).  It is called only once the
    work is known to dispatch, so the default ``sim`` backend never pays
    for building p task tuples.  Returns the raw kernel outputs in rank
    order, or ``None`` when the work stays sequential:

    * the backend is ``sim`` (``backend.parallel`` is false),
    * the kernel is not *known* env-free (``kernel_fusability`` is not
      ``True`` — unknown kernels get probed by the fused path first and
      dispatch from their next call on),
    * the kernel's env use turns out to be conditional and it raises
      :class:`FusionFallback` (locally or inside a worker).

    A :class:`~repro.errors.BackendError` from the mp closure-shipping
    path **propagates** — an unshippable kernel is an error the caller
    must hear about, never a silent fallback.

    Bit-identity: the backend returns results in task (= rank) order and
    every kernel call receives the same block, grids and element
    arithmetic as the sequential loop, so the values written back are
    the sequential values; simulated seconds are charged by the caller
    from partition geometry alone and never touch the backend.
    """
    backend = getattr(ctx.machine, "backend", None)
    if backend is None or not backend.parallel or vec is None:
        return None
    if kernel_fusability(vec) is not True:
        return None
    try:
        return backend.run_blocks(vec, make_tasks())
    except FusionFallback:
        return None


def interleaved_view(pool: np.ndarray, grid: tuple[int, ...]) -> np.ndarray | None:
    """Grid-interleaved reshape of a pooled global buffer.

    For a pool of global shape ``(n0, n1, ...)`` block-distributed over
    ``grid = (g0, g1, ...)``, returns the **view** of shape
    ``(g0, b0, g1, b1, ...)`` with ``b_d = n_d // g_d``, so that
    ``view[c0, :, c1, :]`` is exactly the partition of grid coordinate
    ``(c0, c1)``.  Returns ``None`` when any dimension does not divide
    evenly (unequal partitions — callers fall back to per-rank loops).
    """
    if pool.ndim != len(grid):
        return None
    inter: list[int] = []
    for n_d, g_d in zip(pool.shape, grid):
        if g_d <= 0 or n_d % g_d != 0:
            return None
        inter.extend((g_d, n_d // g_d))
    return pool.reshape(inter)


def stacked_blocks(pool: np.ndarray, grid: tuple[int, ...]) -> np.ndarray | None:
    """Contiguous ``(P, b0, b1, ...)`` **copy** of all partitions.

    Partition ``r`` (row-major rank over *grid*) lands at ``out[r]``,
    matching ``DistArray.local(r)`` element for element.  ``None`` when
    the partitions are unequal.
    """
    view = interleaved_view(pool, grid)
    if view is None:
        return None
    nd = len(grid)
    # (g0, b0, g1, b1, ...) -> (g0, g1, ..., b0, b1, ...)
    axes = tuple(range(0, 2 * nd, 2)) + tuple(range(1, 2 * nd, 2))
    blocks = view.transpose(axes)
    block_shape = tuple(n_d // g_d for n_d, g_d in zip(pool.shape, grid))
    p = int(np.prod(grid)) if grid else 1
    return np.ascontiguousarray(blocks).reshape((p, *block_shape))
