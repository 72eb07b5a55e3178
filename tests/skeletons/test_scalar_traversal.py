"""The scalar element traversal of create/map/zip/fold.

Kernels without a vectorized form run once per element.  The traversal
(:meth:`DistArray.element_indices` plus ``.flat`` element reads) must
give every kernel the same index tuples and element objects, in the same
order, as the per-element ``np.ndindex`` loop it replaced, and store the
results with the same conversions — checked here against that loop,
written out as the reference.
"""

from functools import reduce

import numpy as np
import pytest

from repro.arrays.darray import DistArray
from repro.arrays.distribution import (
    BlockCyclicDistribution,
    BlockDistribution,
    CyclicDistribution,
)
from repro.machine.machine import DISTR_DEFAULT, DISTR_TORUS2D

from .conftest import make_ctx

REC = np.dtype([("v", "f4"), ("r", "i8")])


def reference_indices(arr, rank):
    """The replaced traversal: ``(local_index, global_index)`` pairs."""
    vecs = arr.local_index_vectors(rank)
    for local_ix in np.ndindex(*(len(v) for v in vecs)):
        yield local_ix, tuple(int(v[i]) for v, i in zip(vecs, local_ix))


def same_block(got: np.ndarray, want: np.ndarray) -> bool:
    if got.dtype != want.dtype or got.shape != want.shape:
        return False
    if got.dtype == object:
        return all(
            type(g) is type(w) and g == w for g, w in zip(got.flat, want.flat)
        )
    return got.tobytes() == want.tobytes()


def _f32(ix):
    return (ix[0] * 7 + ix[-1]) / 3.0 + 0.1


def _u32(ix):
    return 2**32 - 1 if (ix[0] + ix[-1]) % 3 == 0 else ix[0] * 65536 + ix[-1]


INITS = {
    "float32": (np.float32, _f32),
    "float64": (np.float64, lambda ix: (ix[0] - 2.5 * ix[-1]) / 7.0),
    # a Python float stored into an int64 element truncates
    "int64": (np.int64, lambda ix: ix[0] * 1000 - ix[-1] if ix[0] % 2 else 3.75),
    "uint64": (np.uint64, _u32),
    "object": (object, lambda ix: (ix[0], "x" * (ix[-1] % 3))),
    "struct": (REC, lambda ix: (_f32(ix), ix[0] * 100 + ix[-1])),
}

CREATE_LAYOUTS = [
    (1, (7,), DISTR_DEFAULT),
    (2, (6, 5), DISTR_DEFAULT),
    (2, (6, 5), DISTR_TORUS2D),  # 2x2 grid: strided, ragged blocks
]


def _dist(kind, shape, p):
    grid = (p,) + (1,) * (len(shape) - 1)
    if kind == "block":
        return BlockDistribution(shape, grid)
    if kind == "cyclic":
        return CyclicDistribution(shape, grid)
    return BlockCyclicDistribution(shape, grid, (2,) + (1,) * (len(shape) - 1))


def _array(ctx, kind, data):
    arr = DistArray(ctx.machine, _dist(kind, data.shape, ctx.p), data.dtype)
    arr.fill_from_global(data)
    return arr


def _data(shape, name):
    dtype, init = INITS[name]
    out = np.empty(shape, dtype=dtype)
    for ix in np.ndindex(*shape):
        out[ix] = init(ix)
    return out


LAYOUTS = [(kind, shape) for kind in ("block", "cyclic") for shape in ((9,), (7, 3))]


class TestElementIndices:
    @pytest.mark.parametrize("kind", ["block", "cyclic", "block-cyclic"])
    @pytest.mark.parametrize("shape", [(9,), (7, 3), (5, 4)])
    def test_same_sequence_as_ndindex(self, kind, shape):
        ctx = make_ctx(4)
        arr = DistArray(ctx.machine, _dist(kind, shape, 4), np.float64)
        for r in range(4):
            got = list(arr.element_indices(r))
            want = [gix for _, gix in reference_indices(arr, r)]
            assert got == want
            assert all(type(i) is int for gix in got for i in gix)


class TestScalarCreate:
    @pytest.mark.parametrize("dim, size, distr", CREATE_LAYOUTS)
    @pytest.mark.parametrize("name", sorted(INITS))
    def test_bit_identical_to_per_element_stores(self, dim, size, distr, name):
        dtype, init = INITS[name]
        ctx = make_ctx(4)
        arr = ctx.array_create(
            dim, size, (0,) * dim, (-1,) * dim, init, distr, dtype=dtype
        )
        for r in range(4):
            want = np.zeros_like(arr.local(r))
            for local_ix, gix in reference_indices(arr, r):
                want[local_ix] = init(gix)
            assert same_block(arr.local(r), want), (name, r)

    def test_init_called_once_per_element_in_row_major_order(self):
        ctx = make_ctx(4)
        seen = []
        ctx.array_create(
            2, (6, 5), (0, 0), (-1, -1),
            lambda ix: seen.append((ctx.current_rank, ix)) or 0.0,
            DISTR_TORUS2D,
        )
        arr = ctx.array_create_uninit(2, (6, 5), (0, 0), (-1, -1), DISTR_TORUS2D)
        want = [
            (r, gix) for r in range(4) for _, gix in reference_indices(arr, r)
        ]
        assert seen == want

    def test_env_reading_init_sees_its_rank(self):
        """``array_get_elem`` inside the init resolves locally on the
        rank being initialized: no front-end messages, no LocalityError."""
        from repro.lang import runtime

        ctx = make_ctx(4)
        src = ctx.array_create(
            2, (6, 5), (0, 0), (-1, -1), INITS["float64"][1], DISTR_TORUS2D
        )
        messages = ctx.machine.stats.messages
        owners = {}

        def init(ix):
            owners[ix] = runtime.proc_id()
            return runtime.array_get_elem(src, ix) * 2.0

        dst = ctx.array_create(2, (6, 5), (0, 0), (-1, -1), init, DISTR_TORUS2D)
        assert ctx.machine.stats.messages == messages
        np.testing.assert_array_equal(dst.global_view(), src.global_view() * 2.0)
        assert owners == {ix: src.owner(ix) for ix in owners}
        assert len(owners) == 30

    def test_external_exception_propagates_unchanged(self):
        err = KeyError("no such element")

        def init(ix):
            if ix == (3, 2):
                raise err
            return 1.0

        ctx = make_ctx(4)
        with pytest.raises(KeyError) as info:
            ctx.array_create(2, (6, 5), (0, 0), (-1, -1), init, DISTR_DEFAULT)
        assert info.value is err


class TestScalarMapZipFold:
    @pytest.mark.parametrize("kind, shape", LAYOUTS)
    @pytest.mark.parametrize("name", sorted(INITS))
    def test_map_bit_identical(self, kind, shape, name):
        ctx = make_ctx(4)
        data = _data(shape, name)
        src = _array(ctx, kind, data)
        dst = _array(ctx, kind, data.copy())
        seen = []

        def kern(v, ix):
            seen.append(type(v))
            if name == "object":
                return (v, ix)
            if name == "struct":
                return (v["v"] * 1.1 + ix[0], v["r"] - ix[-1])
            return v * 3 + ix[0] if "int" in name else v * 1.1 + 0.7

        ctx.array_map(kern, src, dst)
        assert set(seen) == {type(data.flat[0])}
        for r in range(4):
            block = src.local(r)
            want = np.empty(block.shape, dtype=object)
            for local_ix, gix in reference_indices(src, r):
                want[local_ix] = kern(block[local_ix], gix)
            assert same_block(dst.local(r), np.asarray(want, dtype=dst.dtype))

    def test_map_float32_stays_float32(self):
        """The kernel computes in float32 because it gets numpy float32
        scalars; Python floats would round differently here."""
        ctx = make_ctx(4)
        data = np.arange(1, 17, dtype=np.float32) / np.float32(7)
        src = _array(ctx, "block", data)
        ctx.array_map(lambda v, ix: v * 1.1 + 0.7, src, src)
        want = data * np.float32(1.1) + np.float32(0.7)
        assert want.tobytes() != (data.astype(float) * 1.1 + 0.7).astype(
            np.float32
        ).tobytes()
        assert src.global_view().tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind, shape", LAYOUTS)
    @pytest.mark.parametrize("name", ["float32", "int64", "uint64", "struct"])
    def test_zip_bit_identical(self, kind, shape, name):
        ctx = make_ctx(4)
        a = _array(ctx, kind, _data(shape, name))
        b = _array(ctx, kind, _data(shape, "float32"))
        dst = _array(ctx, kind, np.zeros(shape, dtype=np.float64))

        def kern(x, y, ix):
            x = x["v"] if name == "struct" else x
            return x * y + ix[-1]

        ctx.array_zip(kern, a, b, dst)
        for r in range(4):
            ba, bb = a.local(r), b.local(r)
            want = np.empty(ba.shape, dtype=object)
            for local_ix, gix in reference_indices(a, r):
                want[local_ix] = kern(ba[local_ix], bb[local_ix], gix)
            assert same_block(dst.local(r), np.asarray(want, dtype=np.float64))

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("kind, shape", LAYOUTS)
    @pytest.mark.parametrize("name", ["float32", "float64", "uint64", "struct"])
    def test_fold_bit_identical(self, kind, shape, name):
        """An order-sensitive fold pins the conversion order too."""
        ctx = make_ctx(4)
        a = _array(ctx, kind, _data(shape, name))

        def conv(v, ix):
            v = v["v"] if name == "struct" else v
            return v * 0.5 + ix[0]

        def fold(x, y):
            return x * 0.75 + y

        got = ctx.array_fold(conv, fold, a)
        partials = []
        for r in range(4):
            block = a.local(r)
            vals = [conv(block[lix], gix) for lix, gix in reference_indices(a, r)]
            partials.append(reduce(fold, vals))
        want = reduce(fold, partials)
        assert type(got) is type(want) and got == want

    def test_map_exception_propagates_unchanged(self):
        err = ZeroDivisionError("external failed")

        def kern(v, ix):
            if ix == (4,):
                raise err
            return v

        ctx = make_ctx(4)
        src = _array(ctx, "cyclic", np.arange(9.0))
        with pytest.raises(ZeroDivisionError) as info:
            ctx.array_map(kern, src, src)
        assert info.value is err
