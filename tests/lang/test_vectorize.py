"""Tests for the compiler's kernel vectorizer pass."""

import numpy as np
import pytest

from repro.lang import compile_skil
from repro.machine.costmodel import SKIL
from repro.machine.machine import Machine
from repro.skeletons import SkilContext


def ctx(p=4):
    return SkilContext(Machine(p), SKIL)


def _compile_map_kernel(body: str, extra: str = "") -> tuple:
    """Compile a 1-arg map over a 16x16 float array and run both paths."""
    src = f"""
    float init_f (Index ix);
    float zero (Index ix) {{ return 0.0; }}
    {extra}
    float kern (float v, Index ix) {{ {body} }}
    void go (int n) {{
      array<float> A, B;
      A = array_create (2, {{n,n}}, {{0,0}}, {{-1,-1}}, init_f, DISTR_DEFAULT);
      B = array_create (2, {{n,n}}, {{0,0}}, {{-1,-1}}, zero, DISTR_DEFAULT);
      array_map (kern, A, B);
      array_put_result (B);
    }}
    """
    return src


class TestVectorizedKernelsEmitted:
    def test_simple_expression(self):
        mod = compile_skil(
            "float zero (Index ix) { return 0.0; }\n"
            "float dbl (float v, Index ix) { return v * 2.0; }\n"
            "void go (int n, array<float> a, array<float> b)\n"
            "{ array_map (dbl, a, b); }"
        )
        assert "_vec_dbl_1" in mod.python_source
        assert "dbl_1.vectorized = _vec_dbl_1" in mod.python_source

    def test_index_dependent(self):
        mod = compile_skil(
            "float f (float v, Index ix) { return v + ix[0] * ix[1]; }\n"
            "void go (array<float> a, array<float> b) { array_map (f, a, b); }"
        )
        assert "__grids[0]" in mod.python_source

    def test_varying_conditional_becomes_where(self):
        mod = compile_skil(
            "float f (int k, float v, Index ix) {\n"
            "  if (ix[1] < k) return v; else return v * 2.0; }\n"
            "void go (int k, array<float> a, array<float> b)\n"
            "{ array_map (f (k), a, b); }"
        )
        assert "_np.where" in mod.python_source

    def test_uniform_conditional_stays_python(self):
        mod = compile_skil(
            "$t f (array<$t> src, int k, $t v, Index ix) {\n"
            "  Bounds bds = array_part_bounds (src);\n"
            "  if (bds->lowerBd[0] <= k && k <= bds->upperBd[0])\n"
            "    return v + v;\n"
            "  else return v; }\n"
            "void go (int k, array<float> a, array<float> b)\n"
            "{ array_map (f (a, k), a, b); }"
        )
        body = mod.python_source.split("def _vec_f_1")[1]
        assert "if (" in body

    def test_unsupported_body_stays_scalar(self):
        """A while loop is outside the subset — no kernel emitted."""
        mod = compile_skil(
            "float f (float v, Index ix) {\n"
            "  s = 0.0; while (s < v) s = s + 1.0; return s; }\n"
            "void go (array<float> a, array<float> b) { array_map (f, a, b); }"
        )
        assert "_vec_f_1" not in mod.python_source

    def test_struct_kernels_vectorize(self):
        from repro.apps.skil_sources import GAUSS_SKIL

        mod = compile_skil(GAUSS_SKIL)
        assert "make_elemrec_1.vectorized = _vec_make_elemrec_1" in mod.python_source
        assert "_rt.struct_zeros(" in mod.python_source
        assert (
            "max_abs_in_col_1.selective = _sel_max_abs_in_col_1"
            in mod.python_source
        )
        assert "eliminate_1.vectorized" in mod.python_source


class TestVectorizedSemantics:
    def _run_both(self, src, entry, *args, externals=None):
        """Run with vectorization and with kernels forced scalar."""
        mod = compile_skil(src)
        c1 = ctx()
        r1 = mod.run(entry, *args, ctx=c1, externals=externals or {})

        # strip the vectorized attributes and run again
        mod2 = compile_skil(src)
        for name, obj in list(mod2.namespace.items()):
            if hasattr(obj, "vectorized"):
                del obj.vectorized
        c2 = ctx()
        r2 = mod2.run(entry, *args, ctx=c2, externals=externals or {})
        return r1, r2, c1, c2

    SRC = """
    float init_f (Index ix);
    float zero (Index ix) { return 0.0; }
    float f (float t, float v, Index ix) {
      if (v >= t) return v - t;
      else return ix[0] + ix[1] * 0.5;
    }
    array<float> go (int n, float t) {
      array<float> A, B;
      A = array_create (2, {n,n}, {0,0}, {-1,-1}, init_f, DISTR_DEFAULT);
      B = array_create (2, {n,n}, {0,0}, {-1,-1}, zero, DISTR_DEFAULT);
      array_map (f (t), A, B);
      array_destroy (A);
      return B;
    }
    """

    def test_scalar_and_vector_agree(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(0, 10, (16, 16))
        ext = {"init_f": lambda ix: data[ix]}
        r1, r2, c1, c2 = self._run_both(self.SRC, "go", 16, 5.0, externals=ext)
        np.testing.assert_allclose(r1.global_view(), r2.global_view())

    def test_simulated_time_identical(self):
        """Vectorization is a wall-clock optimisation only — the charged
        machine time must not change."""
        rng = np.random.default_rng(1)
        data = rng.uniform(0, 10, (16, 16))
        ext = {"init_f": lambda ix: data[ix]}
        r1, r2, c1, c2 = self._run_both(self.SRC, "go", 16, 5.0, externals=ext)
        assert c1.machine.time == pytest.approx(c2.machine.time)

    def test_gather_kernel(self):
        src = """
        float init_f (Index ix);
        float zero (Index ix) { return 0.0; }
        $t stretch (array<$t> src, int k, $t v, Index ix) {
          return v + array_get_elem (src, {ix[0], k});
        }
        array<float> go (int n, int k) {
          array<float> A, B;
          A = array_create (2, {n,n}, {0,0}, {-1,-1}, init_f, DISTR_DEFAULT);
          B = array_create (2, {n,n}, {0,0}, {-1,-1}, zero, DISTR_DEFAULT);
          array_map (stretch (A, k), A, B);
          return B;
        }
        """
        rng = np.random.default_rng(2)
        data = rng.uniform(0, 1, (8, 8))
        mod = compile_skil(src)
        assert "vec_gather" in mod.python_source
        out = mod.run("go", 8, 3, ctx=ctx(),
                      externals={"init_f": lambda ix: data[ix]})
        expect = data + data[:, 3:4].astype(np.float32)
        np.testing.assert_allclose(out.global_view(), expect, rtol=1e-6)


class TestRuntimeVecGather:
    def test_gather_shapes(self):
        from repro.arrays.darray import DistArray
        from repro.lang.runtime import vec_gather
        from repro.skeletons.base import MapEnv

        m = Machine(4)
        data = np.arange(32.0).reshape(8, 4)
        arr = DistArray.from_global(m, data)  # row-block: 2 rows per rank
        env = MapEnv(None, 1, arr.part_bounds(1))
        col = vec_gather(arr, np.array([[2], [3]]), 1, env)
        np.testing.assert_array_equal(col.ravel(), [data[2, 1], data[3, 1]])


# ---------------------------------------------------------------------------
# struct-valued conversions and selective folds
# ---------------------------------------------------------------------------
def _strip_vectorized(mod):
    """Force the scalar path: drop every attribute the vectorizer attached."""
    for obj in list(mod.namespace.values()):
        for attr in ("vectorized", "selective"):
            if hasattr(obj, attr):
                delattr(obj, attr)


def _run_gauss(data, p, scalar=False, wrap_fold=None):
    from repro.apps.skil_sources import GAUSS_SKIL

    n = data.shape[0]
    mod = compile_skil(GAUSS_SKIL)
    if scalar:
        _strip_vectorized(mod)
    if wrap_fold is not None:
        mod.namespace["max_abs_in_col_1"] = wrap_fold(
            mod.namespace["max_abs_in_col_1"]
        )
    c = ctx(p)
    out = mod.run("gauss", n, p, ctx=c, externals={"init_ext": lambda ix: data[ix]})
    st = c.machine.stats
    return out.global_view().copy(), (c.machine.time, st.messages, st.bytes_sent)


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestGaussStructFold:
    """Compiled GAUSS_SKIL: the vectorized pivot fold against the scalar one."""

    # partitions of (n/p) x (n+1) elements: 39 and 17 (odd) at (4, 12)
    # and (16, 16), 18 and 66 (even) at (4, 8) and (16, 32); at p = 1 the
    # single block n (n+1) is always even
    @pytest.mark.parametrize(
        "p, n",
        [(1, 6), (1, 9), (4, 8), (4, 12), (16, 16), (16, 32)],
    )
    def test_bit_identical_to_scalar(self, p, n):
        data = np.random.default_rng(p * 100 + n).uniform(-1, 1, (n, n + 1))
        v_vec, sim_vec = _run_gauss(data, p)
        v_sca, sim_sca = _run_gauss(data, p, scalar=True)
        assert np.array_equal(v_vec, v_sca)
        assert sim_vec == sim_sca  # machine.time, messages, bytes: exact

    @pytest.mark.parametrize("p", [4, 16])
    def test_abs_ties_break_by_row(self, p):
        """Every column holds +-1 and +-2 in several rows: the pivot fold
        must pick the smallest eligible row among equal |val|."""
        n = 16
        rng = np.random.default_rng(p)
        data = rng.choice([-2.0, -1.0, 1.0, 2.0], size=(n, n + 1))
        v_vec, sim_vec = _run_gauss(data, p)
        v_sca, sim_sca = _run_gauss(data, p, scalar=True)
        assert np.array_equal(v_vec, v_sca)
        assert sim_vec == sim_sca

    def test_fold_function_called_only_to_combine_ranks(self):
        """p=16, n=64: the per-element fold calls (about 266k per run on
        the scalar path) are gone; only the p-1 cross-rank combines of each
        of the n folds remain."""
        p, n = 16, 64
        calls = []

        def wrap(fold):
            def counted(*args):
                calls.append(1)
                return fold(*args)

            counted.selective = fold.selective
            return counted

        data = np.random.default_rng(5).uniform(-1, 1, (n, n + 1))
        _run_gauss(data, p, wrap_fold=wrap)
        assert len(calls) == n * (p - 1)

    def test_selection_calls_do_not_scale_with_p(self):
        """p=16, n=64: each of the n pivot folds runs one tournament for
        all ranks, ceil(log2 260) = 9 selection rounds over the 4 x 65
        partitions (a per-rank tournament would make 16 times as many)."""
        p, n = 16, 64
        calls = []

        def wrap(fold):
            def plain(*args):
                return fold(*args)

            def counted(*args):
                calls.append(1)
                return fold.selective(*args)

            plain.selective = counted
            return plain

        data = np.random.default_rng(5).uniform(-1, 1, (n, n + 1))
        _run_gauss(data, p, wrap_fold=wrap)
        max_part = -(-n // p) * (n + 1)
        assert 0 < len(calls) <= n * int(np.ceil(np.log2(max_part)))


REC_SRC = """
struct _rec {float a; int b; int c;};
typedef struct _rec rec;
float init_f (Index ix);

rec mk (float v, Index ix) {
  rec r;
  r.a = v;
  r.c = ix[0] * 100 + ix[1];
  return r;
}

/* argmax of a among records with c >= k; ties go to the smaller c */
rec best (int k, rec x, rec y) {
  if (x.c < k) return y;
  if (y.c < k) return x;
  if (x.a > y.a) return x;
  if (y.a > x.a) return y;
  if (x.c <= y.c) return x;
  return y;
}

/* leftmost maximum of a: associative, not commutative */
rec first_max (rec x, rec y) {
  if (x.a >= y.a) return x;
  return y;
}

rec sum_a (rec x, rec y) {
  rec r;
  r.a = x.a + y.a;
  r.c = max (x.c, y.c);
  return r;
}

rec shifted (rec x, rec y) {
  if (x.a + 1.0 > y.a) return x;
  return y;
}

float go_best (int n, int k) {
  array<float> A;
  rec r;
  A = array_create (2, {n,n}, {0,0}, {-1,-1}, init_f, DISTR_DEFAULT);
  r = array_fold (mk, best (k), A);
  return r.a * 1000000.0 + r.b * 1000.0 + r.c;
}

float go_first (int n) {
  array<float> A;
  rec r;
  A = array_create (2, {n,n}, {0,0}, {-1,-1}, init_f, DISTR_DEFAULT);
  r = array_fold (mk, first_max, A);
  return r.c;
}

float go_shifted (int n) {
  array<float> A;
  rec r;
  A = array_create (2, {n,n}, {0,0}, {-1,-1}, init_f, DISTR_DEFAULT);
  r = array_fold (mk, shifted, A);
  return r.a;
}

float go_sum (int n) {
  array<float> A;
  rec r;
  A = array_create (2, {n,n}, {0,0}, {-1,-1}, init_f, DISTR_DEFAULT);
  r = array_fold (mk, sum_a, A);
  return r.a * 1000.0 + r.b * 100.0 + r.c;
}
"""


def _rec_module(scalar=False):
    mod = compile_skil(REC_SRC)
    if scalar:
        _strip_vectorized(mod)
    return mod


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestStructKernels:
    def test_unassigned_field_is_zero(self):
        from repro.arrays.darray import DistArray

        mod = _rec_module()
        m = Machine(4)
        arr = DistArray.from_global(m, np.arange(24.0).reshape(6, 4))
        kern = mod.namespace["mk_1"].vectorized
        out = kern(arr.local(1), arr.index_grids(1), None)
        assert out.shape == arr.local(1).shape
        assert np.all(out["b"] == 0)
        np.testing.assert_array_equal(out["a"], arr.local(1))
        assert out.dtype == mod.namespace["_rt"].struct_dtype("_rec")

    @pytest.mark.parametrize("p", [1, 4, 16])
    @pytest.mark.parametrize("k", [0, 37, 815, 10**6])
    def test_selective_fold_matches_scalar(self, p, k):
        """k = 10**6 leaves every record ineligible: the result is then
        the last record in fold order, on both paths."""
        n = 32
        data = np.random.default_rng(k).integers(0, 5, (n, n)).astype(float)
        ext = {"init_f": lambda ix: data[ix]}
        c1, c2 = ctx(p), ctx(p)
        r1 = _rec_module().run("go_best", n, k, ctx=c1, externals=ext)
        r2 = _rec_module(scalar=True).run("go_best", n, k, ctx=c2, externals=ext)
        assert r1 == r2
        assert c1.machine.time == c2.machine.time

    @pytest.mark.parametrize("p", [1, 4, 16])
    def test_left_biased_fold_matches_scalar(self, p):
        n = 32
        data = np.random.default_rng(p).integers(0, 3, (n, n)).astype(float)
        ext = {"init_f": lambda ix: data[ix]}
        r1 = _rec_module().run("go_first", n, ctx=ctx(p), externals=ext)
        r2 = _rec_module(scalar=True).run("go_first", n, ctx=ctx(p), externals=ext)
        first = np.flatnonzero(data.ravel() == data.max())[0]
        assert r1 == r2 == (first // n) * 100 + first % n

    def test_non_selective_folds_get_no_reduce_all(self):
        mod = _rec_module()
        rt = mod.namespace["_rt"]
        assert hasattr(mod.namespace["best_1"], "selective")
        for name in ("sum_a_1", "shifted_1"):
            assert not hasattr(mod.namespace[name], "selective")
            kern = rt.make_kernel(mod.namespace[name], ())
            assert not hasattr(kern, "reduce_all")
        src = mod.python_source
        assert "_sel_sum_a" not in src and "_sel_shifted" not in src

    @pytest.mark.parametrize("p", [1, 4])
    def test_non_selective_fold_over_vectorized_records(self, p):
        """A vectorized conversion hands the plain fold structured records."""
        n = 8
        data = np.random.default_rng(p).integers(0, 9, (n, n)).astype(float)
        ext = {"init_f": lambda ix: data[ix]}
        r1 = _rec_module().run("go_sum", n, ctx=ctx(p), externals=ext)
        r2 = _rec_module(scalar=True).run("go_sum", n, ctx=ctx(p), externals=ext)
        assert r1 == r2 == data.sum() * 1000.0 + (n - 1) * 101


class TestSelectReduce:
    """The tournament against the sequential left fold, record for record."""

    def _fold(self, k):
        mod = _rec_module()
        rt = mod.namespace["_rt"]
        if k is None:
            return rt.make_kernel(mod.namespace["first_max_1"], ())
        return rt.make_kernel(mod.namespace["best_1"], (k,))

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 8, 33, 64])
    @pytest.mark.parametrize("k", [0, 50, 10**6, None])
    def test_tournament_equals_left_fold(self, size, k):
        """k=None folds with first_max, whose ties go to the left
        operand: only an order-preserving tournament gets those right."""
        from functools import reduce

        fold = self._fold(k)
        rng = np.random.default_rng([size, k or 0])
        dt = compile_skil(REC_SRC).namespace["_rt"].struct_dtype("_rec")
        flat = np.zeros(size, dtype=dt)
        flat["a"] = rng.integers(0, 3, size)  # many ties
        flat["b"] = np.arange(size)
        flat["c"] = rng.permutation(100)[:size]
        got, = fold.reduce_all([flat])
        want = reduce(fold, [np.array(r) for r in flat])
        assert got.shape == () and got.dtype == dt
        assert got.tobytes() == np.asarray(want).tobytes()

    # ragged batches: n=5 on p=4 (2,1,1,1); odd and even widths;
    # one-element rows; p=1
    @pytest.mark.parametrize(
        "widths",
        [(2, 1, 1, 1), (3, 4, 5, 6), (7, 7, 6, 6), (1, 1, 1), (8, 1, 33, 2), (9,)],
    )
    @pytest.mark.parametrize("k", [0, 50, None])
    def test_batch_equals_per_row_and_left_fold(self, widths, k):
        """One batched tournament over all rows picks, row for row, the
        record the single-row tournament and the sequential left fold
        pick (k=None: first_max, the left-biased tie case)."""
        from functools import reduce

        fold = self._fold(k)
        rng = np.random.default_rng([len(widths), sum(widths), k or 0])
        dt = compile_skil(REC_SRC).namespace["_rt"].struct_dtype("_rec")
        rows = []
        for w in widths:
            row = np.zeros(w, dtype=dt)
            row["a"] = rng.integers(0, 3, w)  # many ties
            row["b"] = rng.integers(0, 9, w)
            row["c"] = rng.permutation(100)[:w]
            rows.append(row)
        got = fold.reduce_all(rows)
        assert len(got) == len(rows)
        for row, g in zip(rows, got):
            (one,) = fold.reduce_all([row])
            want = reduce(fold, [np.array(r) for r in row])
            assert g.shape == () and g.dtype == dt
            assert g.tobytes() == one.tobytes() == np.asarray(want).tobytes()

    @staticmethod
    def _cross_pick(x, y):
        """Not associative: x wins when x.a > y.c."""
        return x if x["a"] > y["c"] else y

    def _one_row(self, recs):
        """The single-row tournament, written out: pairs (0, 1), (2, 3),
        ... with the odd tail carried."""
        while len(recs) > 1:
            won = [self._cross_pick(recs[i], recs[i + 1])
                   for i in range(0, len(recs) - 1, 2)]
            recs = won + recs[len(recs) & ~1:]
        return recs[0]

    def _check_rows(self, rows):
        from repro.lang.runtime import select_reduce

        got = select_reduce(lambda x, y: x["a"] > y["c"], (), rows)
        for row, g in zip(rows, got):
            want = self._one_row([np.array(r) for r in row])
            assert g.tobytes() == want.tobytes()

    @pytest.mark.parametrize("widths", [(2, 1, 1, 1), (3, 4, 5, 6), (4, 8)])
    def test_batch_pairs_exactly_like_one_row(self, widths):
        """A non-associative selection exposes every pairing: the batch
        must play, row for row, the single-row tournament's pairs."""
        dt = compile_skil(REC_SRC).namespace["_rt"].struct_dtype("_rec")
        rng = np.random.default_rng(list(widths))
        for _ in range(200):
            rows = []
            for w in widths:
                row = np.zeros(w, dtype=dt)
                row["a"] = rng.integers(0, 9, w)
                row["b"] = np.arange(w)
                row["c"] = rng.integers(0, 9, w)
                rows.append(row)
            self._check_rows(rows)

    def test_survivor_never_meets_a_position_past_its_row(self):
        """Width 4 beside width 8: after two rounds the short row's
        survivor r0 sits alone and must be kept, not compared with the
        padding past its row (a copy of r3, which it would lose to)."""
        dt = compile_skil(REC_SRC).namespace["_rt"].struct_dtype("_rec")
        short = np.zeros(4, dtype=dt)
        short["a"] = [2, 0, 5, 0]
        short["c"] = [0, 0, 0, 3]
        self._check_rows([short, np.zeros(8, dtype=dt)])

    @pytest.mark.parametrize("widths", [(2, 1, 1, 1), (260,) * 16, (5, 17, 3)])
    def test_batch_runs_one_select_per_round(self, widths):
        """The rows share their rounds: ceil(log2(widest row)) selection
        calls in all, however many rows."""
        from repro.lang.runtime import select_reduce

        mod = _rec_module()
        sel = mod.namespace["best_1"].selective
        calls = []

        def counted(*args):
            calls.append(1)
            return sel(*args)

        dt = mod.namespace["_rt"].struct_dtype("_rec")
        rows = [np.zeros(w, dtype=dt) for w in widths]
        select_reduce(counted, (0,), rows)
        assert len(calls) == int(np.ceil(np.log2(max(widths))))

    def test_object_block_folds_sequentially(self):
        """A conversion that ran scalar yields an object block: the local
        fold then calls the fold function, not the tournament."""
        from functools import reduce

        from repro.skeletons.fold import _local_fold

        fold = self._fold(0)
        dt = compile_skil(REC_SRC).namespace["_rt"].struct_dtype("_rec")
        recs = [np.zeros((), dtype=dt) for _ in range(5)]
        for i, r in enumerate(recs):
            r["a"], r["c"] = i % 2, i
        flat = np.empty(5, dtype=object)
        flat[:] = recs
        assert _local_fold(fold, flat) is reduce(fold, recs)


FLAG_SRC = """
struct _frec {float a; int ok; int c;};
typedef struct _frec frec;
float init_f (Index ix);

frec mkf (float v, Index ix) {
  frec r;
  r.a = v;
  r.ok = (ix[0] + 2 * ix[1]) % 3;
  r.c = ix[0] * 100 + ix[1];
  return r;
}

/* the first record whose int flag is set (1 or 2) */
frec first_ok (frec x, frec y) {
  if (!x.ok) return y;
  return x;
}

/* leftmost maximum of a among flagged records */
frec best_ok (frec x, frec y) {
  if (!x.ok || (y.ok && y.a > x.a)) return y;
  return x;
}

float go_flag (int n, int which) {
  array<float> A;
  frec r;
  A = array_create (2, {n,n}, {0,0}, {-1,-1}, init_f, DISTR_DEFAULT);
  if (which == 0) r = array_fold (mkf, first_ok, A);
  else r = array_fold (mkf, best_ok, A);
  return r.c * 10 + r.ok;
}
"""


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestIntFlagConditions:
    """``!``, ``&&`` and ``||`` on an int field keep C truth values: a flag
    of 1 or 2 is true (bitwise ``~1`` or ``1 & 2`` would get it wrong)."""

    def _module(self, scalar=False):
        mod = compile_skil(FLAG_SRC)
        if scalar:
            _strip_vectorized(mod)
        return mod

    def test_flag_folds_are_selective(self):
        ns = self._module().namespace
        assert hasattr(ns["first_ok_1"], "selective")
        assert hasattr(ns["best_ok_1"], "selective")

    @pytest.mark.parametrize("p", [1, 4, 16])
    @pytest.mark.parametrize("which", [0, 1])
    def test_flag_fold_matches_scalar(self, p, which):
        n = 16
        data = np.random.default_rng([p, which]).integers(0, 4, (n, n)).astype(float)
        ext = {"init_f": lambda ix: data[ix]}
        c1, c2 = ctx(p), ctx(p)
        r1 = self._module().run("go_flag", n, which, ctx=c1, externals=ext)
        r2 = self._module(scalar=True).run("go_flag", n, which, ctx=c2, externals=ext)
        assert r1 == r2
        assert r1 % 10 in (1, 2)  # a flagged record won
        assert c1.machine.time == c2.machine.time

    @pytest.mark.parametrize("name", ["first_ok_1", "best_ok_1"])
    @pytest.mark.parametrize("size", [1, 2, 5, 8, 31])
    def test_tournament_equals_left_fold(self, name, size):
        from functools import reduce

        ns = self._module().namespace
        fold = ns["_rt"].make_kernel(ns[name], ())
        rng = np.random.default_rng(size)
        flat = np.zeros(size, dtype=ns["_rt"].struct_dtype("_frec"))
        flat["a"] = rng.integers(0, 3, size)
        flat["ok"] = rng.integers(0, 3, size)
        flat["c"] = np.arange(size)
        got, = fold.reduce_all([flat])
        want = reduce(fold, [np.array(r) for r in flat])
        assert got.tobytes() == np.asarray(want).tobytes()
