"""Tests for translation by instantiation and Python code generation."""

import numpy as np
import pytest

from repro.errors import InstantiationError, SkilError, SkilRuntimeError
from repro.lang import compile_skil
from repro.lang.instantiate import MAX_INSTANCES_PER_FUNCTION
from repro.machine.costmodel import SKIL
from repro.machine.machine import Machine
from repro.skeletons import SkilContext


def ctx4():
    return SkilContext(Machine(4), SKIL)


class TestInstantiationReport:
    def test_paper_above_thresh_example(self):
        """§2.4: the call array_map(above_thresh(t), A, B) must produce a
        monomorphic instance with the lifted threshold parameter."""
        from repro.apps.skil_sources import THRESHOLD_SKIL

        mod = compile_skil(THRESHOLD_SKIL)
        assert "above_thresh" in mod.instantiation_report
        insts = mod.instantiation_report["above_thresh"]
        assert insts == ["above_thresh_1"]
        # the generated python lifts `t` through make_kernel binding
        assert "make_kernel(above_thresh_1, (t,)" in mod.python_source

    def test_polymorphic_function_two_instances(self):
        src = """
        $t id ($t x) { return x; }
        $b apply ($b f ($a), $a x) { return f (x); }
        int g (int v) { return apply (id, v); }
        float h (float v) { return apply (id, v); }
        """
        mod = compile_skil(src)
        # one `apply` instance per element type, each inlining `id`
        assert len(mod.instantiation_report.get("apply", [])) == 2

    def test_same_shape_calls_share_instance(self):
        src = """
        $b apply ($b f ($a), $a x) { return f (x); }
        int inc (int x) { return x + 1; }
        int g (int v) { return apply (inc, v) + apply (inc, v); }
        """
        mod = compile_skil(src)
        assert len(mod.instantiation_report["apply"]) == 1

    def test_inlining_of_functional_argument(self):
        src = """
        $b apply ($b f ($a), $a x) { return f (x); }
        int inc (int x) { return x + 1; }
        int g (int v) { return apply (inc, v); }
        """
        mod = compile_skil(src)
        inst = mod.instantiation_report["apply"][0]
        body = mod.python_source.split(f"def {inst}")[1].split("def ")[0]
        assert "inc" in body  # direct call, no indirection through f
        assert "f(" not in body

    def test_operator_section_inlined_as_operator(self):
        src = """
        $a combine ($a f ($a, $a), $a x, $a y) { return f (x, y); }
        int g (int v) { return combine ((+), v, 2); }
        """
        mod = compile_skil(src)
        inst = mod.instantiation_report["combine"][0]
        body = mod.python_source.split(f"def {inst}")[1].split("def ")[0]
        assert "+" in body and "section" not in body

    def test_lifted_arguments_become_parameters(self):
        src = """
        $b apply ($b f ($a), $a x) { return f (x); }
        int addk (int k, int x) { return k + x; }
        int g (int v) { return apply (addk (10), v); }
        """
        mod = compile_skil(src)
        inst = mod.instantiation_report["apply"][0]
        header = mod.python_source.split(f"def {inst}(")[1].split(")")[0]
        assert "_lift_f_0" in header

    def test_recursive_same_args_single_instance(self):
        """d&c style: recursion passing the same functional arguments
        must reuse one instance (the paper's common case)."""
        src = """
        $b dandc (int triv ($a), $b solve ($a), $a x) {
          if (triv (x)) return solve (x);
          return dandc (triv, solve, x);
        }
        int is1 (int x) { return x <= 1; }
        int sol (int x) { return x; }
        int g (int v) { return dandc (is1, sol, 1); }
        """
        mod = compile_skil(src)
        assert len(mod.instantiation_report["dandc"]) == 1

    def test_escaping_functional_parameter_rejected(self):
        src = """
        int ident_fn (int use ($a), int x) { h = use; return x; }
        int f (int x) { return x; }
        int g (int v) { return ident_fn (f, v); }
        """
        with pytest.raises((InstantiationError, SkilError)):
            compile_skil(src)


class TestExecution:
    def test_threshold_end_to_end(self):
        from repro.apps.skil_sources import THRESHOLD_SKIL

        mod = compile_skil(THRESHOLD_SKIL)
        rng = np.random.default_rng(0)
        data = rng.uniform(0, 10, size=(8, 8)).astype(np.float32)
        ctx = ctx4()
        mod.run("threshold", 8, 5.0, ctx=ctx,
                externals={"init_f": lambda ix: data[ix]})
        assert ctx.machine.time > 0

    def test_missing_external_rejected(self):
        from repro.apps.skil_sources import THRESHOLD_SKIL

        mod = compile_skil(THRESHOLD_SKIL)
        with pytest.raises(SkilError, match="init_f"):
            mod.run("threshold", 8, 5.0, ctx=ctx4())

    def test_unknown_external_rejected(self):
        from repro.apps.skil_sources import THRESHOLD_SKIL

        mod = compile_skil(THRESHOLD_SKIL)
        with pytest.raises(SkilError, match="bogus"):
            mod.run(
                "threshold", 8, 5.0, ctx=ctx4(),
                externals={"init_f": lambda ix: 0.0, "bogus": lambda: 0},
            )

    def test_unknown_entry_rejected(self):
        mod = compile_skil("int f (int x) { return x + 1; }")
        with pytest.raises(SkilError, match="entry"):
            mod.run("nope", 1, ctx=ctx4())

    def test_plain_function_runs(self):
        mod = compile_skil("int f (int x) { return x * 2 + 1; }")
        assert mod.run("f", 20, ctx=ctx4()) == 41

    def test_c_division_truncates(self):
        mod = compile_skil("int f (int a, int b) { return a / b; }")
        ctx = ctx4()
        assert mod.run("f", 7, 2, ctx=ctx) == 3
        assert mod.run("f", -7, 2, ctx=ctx) == -3  # C truncates toward zero

    def test_error_builtin(self):
        mod = compile_skil(
            'void f (int x) { if (x == 0) error ("Matrix is singular"); }'
        )
        with pytest.raises(SkilRuntimeError, match="singular"):
            mod.run("f", 0, ctx=ctx4())
        mod.run("f", 1, ctx=ctx4())  # no error

    def test_for_loop_semantics(self):
        mod = compile_skil(
            "int f (int n) { s = 0; for (i = 0; i < n; i++) s = s + i; return s; }"
        )
        assert mod.run("f", 10, ctx=ctx4()) == 45

    def test_while_and_ternary(self):
        mod = compile_skil(
            "int f (int n) { m = 0; while (n > 0) { m = n > m ? n : m; n = n - 1; } return m; }"
        )
        assert mod.run("f", 5, ctx=ctx4()) == 5

    def test_struct_roundtrip(self):
        mod = compile_skil(
            "struct _p {float x; int tag;};\n"
            "typedef struct _p point;\n"
            "float f (float v) { point p; p.x = v; p.tag = 3; return p.x; }"
        )
        assert mod.run("f", 2.5, ctx=ctx4()) == 2.5


class TestPaperPrograms:
    """The §4 programs, compiled from source and verified against the
    hand-written skeleton drivers and numeric oracles."""

    def test_shpaths_from_source(self):
        from repro.apps import random_distance_matrix, shortest_paths_oracle
        from repro.apps.skil_sources import SHPATHS_SKIL

        n = 8
        dist = random_distance_matrix(n, seed=5)
        uint_inf = 2**32 - 1
        data = np.where(np.isinf(dist), uint_inf, dist).astype(np.uint64)

        mod = compile_skil(SHPATHS_SKIL)
        ctx = ctx4()
        arr = mod.run("shpaths", n, ctx=ctx,
                      externals={"init_f": lambda ix: data[ix]})
        got = arr.global_view().astype(float)
        got[got >= uint_inf] = np.inf
        np.testing.assert_allclose(got, shortest_paths_oracle(dist))
        assert ctx.machine.time > 0

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_gauss_from_source(self):
        from repro.apps import random_system
        from repro.apps.skil_sources import GAUSS_SKIL

        n, p = 16, 4
        a_mat, rhs = random_system(n, seed=9)
        ext = np.concatenate([a_mat, rhs[:, None]], axis=1)

        mod = compile_skil(GAUSS_SKIL)
        ctx = ctx4()
        out = mod.run("gauss", n, p, ctx=ctx,
                      externals={"init_ext": lambda ix: ext[ix]})
        x = out.global_view()[:, n]
        np.testing.assert_allclose(x, np.linalg.solve(a_mat, rhs),
                                   rtol=1e-4, atol=1e-6)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_gauss_source_needs_pivoting(self):
        """A zero leading pivot exercises fold + permute_rows."""
        from repro.apps.skil_sources import GAUSS_SKIL

        rng = np.random.default_rng(3)
        n, p = 8, 4
        a_mat = rng.uniform(-1, 1, (n, n))
        a_mat[0, 0] = 0.0
        rhs = rng.uniform(-1, 1, n)
        ext = np.concatenate([a_mat, rhs[:, None]], axis=1)

        mod = compile_skil(GAUSS_SKIL)
        out = mod.run("gauss", n, p, ctx=ctx4(),
                      externals={"init_ext": lambda ix: ext[ix]})
        x = out.global_view()[:, n]
        np.testing.assert_allclose(x, np.linalg.solve(a_mat, rhs),
                                   rtol=1e-4, atol=1e-6)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_gauss_singular_matrix_errors(self):
        from repro.apps.skil_sources import GAUSS_SKIL

        n, p = 8, 4
        a_mat = np.zeros((n, n))
        rhs = np.ones(n)
        ext = np.concatenate([a_mat, rhs[:, None]], axis=1)
        mod = compile_skil(GAUSS_SKIL)
        with pytest.raises(SkilRuntimeError, match="singular"):
            mod.run("gauss", n, p, ctx=ctx4(),
                    externals={"init_ext": lambda ix: ext[ix]})

    def test_skil_source_matches_native_driver_time_scale(self):
        """Compiled Skil and the hand-written driver run the same
        skeletons with the same costs: equal messages and bytes, and
        simulated time equal up to one skeleton call.

        The compiled program returns its result matrix alive, while
        ``shpaths`` also destroys it: one more ``array_destroy``, whose
        per-call skeleton overhead is the whole time gap (0.1-0.6% at
        these sizes).  Compiled unfused, since the fusion pass would drop
        the scratch matrix's create and copies.
        """
        from repro.apps import random_distance_matrix, shpaths
        from repro.apps.skil_sources import SHPATHS_SKIL

        mod = compile_skil(SHPATHS_SKIL, fusion=False)
        for n, p in ((8, 4), (16, 4), (16, 16)):
            dist = random_distance_matrix(n, seed=5)
            uint_inf = 2**32 - 1
            data = np.where(np.isinf(dist), uint_inf, dist).astype(np.uint64)
            c1 = SkilContext(Machine(p), SKIL, fusion=False)
            mod.run("shpaths", n, ctx=c1,
                    externals={"init_f": lambda ix: data[ix]})
            c2 = SkilContext(Machine(p), SKIL, fusion=False)
            shpaths(c2, dist)
            s1, s2 = c1.machine.stats, c2.machine.stats
            assert s1.messages == s2.messages, (n, p)
            assert s1.bytes_sent == s2.bytes_sent, (n, p)
            assert s2.skeleton_calls - s1.skeleton_calls == 1, (n, p)

            probe = SkilContext(Machine(p), SKIL)
            arr = probe.array_create(2, (n, n), (0, 0), (-1, -1),
                                     lambda ix: 0.0, "DISTR_TORUS2D")
            before = probe.machine.time
            probe.array_destroy(arr)
            destroy_s = probe.machine.time - before
            assert c1.machine.time + destroy_s == pytest.approx(
                c2.machine.time, rel=1e-12
            ), (n, p)
            assert 0.99 < c1.machine.time / c2.machine.time < 1.0, (n, p)
