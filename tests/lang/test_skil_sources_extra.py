"""End-to-end tests for the additional Skil sources (matmul, zip/scan)."""

import numpy as np
import pytest

from repro.apps.skil_sources import MATMUL_SKIL, SAXPY_SCAN_SKIL
from repro.lang import compile_skil
from repro.machine.costmodel import SKIL
from repro.machine.machine import Machine
from repro.skeletons import SkilContext


def ctx(p=4):
    return SkilContext(Machine(p), SKIL)


class TestMatmulSource:
    @pytest.mark.parametrize("p", [1, 4, 16])
    def test_matches_numpy(self, p):
        n = 16
        rng = np.random.default_rng(1)
        a = rng.uniform(-1, 1, (n, n))
        b = rng.uniform(-1, 1, (n, n))
        mod = compile_skil(MATMUL_SKIL)
        out = mod.run(
            "matmul", n, ctx=ctx(p),
            externals={"init_a": lambda ix: a[ix], "init_b": lambda ix: b[ix]},
        )
        np.testing.assert_allclose(out.global_view(), a @ b, rtol=1e-12)

    def test_operator_sections_become_runtime_sections(self):
        mod = compile_skil(MATMUL_SKIL)
        assert "_rt.section('+')" in mod.python_source
        assert "_rt.section('*')" in mod.python_source

    def test_time_matches_native_matmul(self):
        """Same skeletons, same costs: equal messages and bytes, and
        simulated time equal up to one skeleton call — ``matmul`` also
        destroys the product it returns, and that extra
        ``array_destroy``'s per-call overhead is the whole gap (0.1-0.3%
        at these sizes).  Compiled unfused, pinned against the
        process-wide compile default."""
        from repro.apps.matmul import matmul

        mod = compile_skil(MATMUL_SKIL, fusion=False)
        for n, p in ((16, 4), (32, 4), (32, 16)):
            rng = np.random.default_rng(2)
            a = rng.uniform(size=(n, n))
            b = rng.uniform(size=(n, n))
            c1 = SkilContext(Machine(p), SKIL, fusion=False)
            mod.run("matmul", n, ctx=c1, externals={
                "init_a": lambda ix: a[ix], "init_b": lambda ix: b[ix]})
            c2 = SkilContext(Machine(p), SKIL, fusion=False)
            matmul(c2, a, b)
            s1, s2 = c1.machine.stats, c2.machine.stats
            assert s1.messages == s2.messages, (n, p)
            assert s1.bytes_sent == s2.bytes_sent, (n, p)
            assert s2.skeleton_calls - s1.skeleton_calls == 1, (n, p)
            assert 0.99 < c1.machine.time / c2.machine.time < 1.0, (n, p)


class TestSaxpyScanSource:
    def test_correct(self):
        n = 32
        rng = np.random.default_rng(3)
        x = rng.uniform(size=n).astype(np.float32)
        y = rng.uniform(size=n).astype(np.float32)
        mod = compile_skil(SAXPY_SCAN_SKIL)
        out = mod.run(
            "saxpy_prefix", n, 2.5, ctx=ctx(),
            externals={"init_x": lambda ix: x[ix[0]],
                       "init_y": lambda ix: y[ix[0]]},
        )
        expect = np.cumsum(2.5 * x + y)
        np.testing.assert_allclose(out.global_view(), expect, rtol=1e-5)

    def test_two_element_kernel_vectorized(self):
        mod = compile_skil(SAXPY_SCAN_SKIL)
        assert "_vec_saxpy_1(alpha, __block0, __block1" in mod.python_source

    def test_alpha_lifted(self):
        mod = compile_skil(SAXPY_SCAN_SKIL)
        assert "make_kernel(saxpy_1, (alpha,)" in mod.python_source

    @pytest.mark.parametrize("p", [1, 2, 8])
    def test_partition_independent(self, p):
        n = 24
        rng = np.random.default_rng(4)
        x = rng.uniform(size=n).astype(np.float32)
        y = rng.uniform(size=n).astype(np.float32)
        mod = compile_skil(SAXPY_SCAN_SKIL)
        out = mod.run(
            "saxpy_prefix", n, 1.0, ctx=ctx(p),
            externals={"init_x": lambda ix: x[ix[0]],
                       "init_y": lambda ix: y[ix[0]]},
        )
        np.testing.assert_allclose(out.global_view(), np.cumsum(x + y), rtol=1e-5)
