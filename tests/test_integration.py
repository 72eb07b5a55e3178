"""Cross-subsystem integration tests.

These tie the layers together: Skil source -> compiler -> skeletons ->
machine, checked against the hand-written drivers and oracles, plus
consistency between the two timing engines.
"""

import warnings

import numpy as np
import pytest

from repro import Machine, SKIL
from repro.apps import (
    gauss_full,
    random_distance_matrix,
    random_system,
    shortest_paths_oracle,
    shpaths,
)
from repro.apps.skil_sources import GAUSS_SKIL, SHPATHS_SKIL
from repro.lang import compile_skil
from repro.skeletons import SkilContext

UINT_INF = 2**32 - 1


def ctx(p=4):
    return SkilContext(Machine(p), SKIL)


class TestCompiledVsNative:
    """The compiled Skil programs and the hand-written drivers must
    produce identical results and closely matching simulated times —
    they invoke the same skeletons on the same machine."""

    def test_shpaths_identical_results(self):
        n = 16
        dist = random_distance_matrix(n, seed=21)
        data = np.where(np.isinf(dist), UINT_INF, dist).astype(np.uint64)

        mod = compile_skil(SHPATHS_SKIL)
        c1 = ctx()
        arr = mod.run("shpaths", n, ctx=c1,
                      externals={"init_f": lambda ix: data[ix]})
        compiled = arr.global_view().astype(float)
        compiled[compiled >= UINT_INF] = np.inf

        c2 = ctx()
        native, _ = shpaths(c2, dist)
        np.testing.assert_allclose(compiled, native)
        np.testing.assert_allclose(compiled, shortest_paths_oracle(dist))

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_gauss_identical_results(self):
        n, p = 16, 4
        a_mat, rhs = random_system(n, seed=22)
        ext = np.concatenate([a_mat, rhs[:, None]], axis=1)

        mod = compile_skil(GAUSS_SKIL)
        c1 = ctx(p)
        out = mod.run("gauss", n, p, ctx=c1,
                      externals={"init_ext": lambda ix: ext[ix]})
        x_compiled = out.global_view()[:, n]

        c2 = ctx(p)
        x_native, _ = gauss_full(c2, a_mat, rhs)
        np.testing.assert_allclose(x_compiled, x_native, rtol=1e-4, atol=1e-6)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_gauss_times_same_scale(self):
        """Same schedule, same messages; the simulated-time gap is the
        compiler's operation counts.

        The compiler estimates 2.25 / 1.75 / 2.75 / 1.25 ops per element
        for the pivot fold / copy_pivot / eliminate / normalize kernels
        (it counts every operator of the Skil body), against 1 / 1 / 2 / 1
        for the hand-written kernels, which puts the compiled program
        13-36% above ``gauss_full`` at these sizes.  With the hand-written
        counts substituted the compiled program is 4-15% *faster*: its
        ``array<float>`` elements and 20-byte ``elemrec`` put fewer bytes
        on the wire than ``gauss_full``'s float64 matrix and 24-byte
        record — the only difference in traffic.
        """
        from repro.apps.gauss import ELEMREC
        from repro.lang.runtime import struct_dtype

        for n, p in ((16, 4), (32, 4), (64, 16)):
            a_mat, rhs = random_system(n, seed=23)
            ext = np.concatenate([a_mat, rhs[:, None]], axis=1)

            mod = compile_skil(GAUSS_SKIL)
            c1 = ctx(p)
            mod.run("gauss", n, p, ctx=c1,
                    externals={"init_ext": lambda ix: ext[ix]})
            c2 = ctx(p)
            gauss_full(c2, a_mat, rhs)
            s1, s2 = c1.machine.stats, c2.machine.stats
            assert s1.messages == s2.messages
            # the compiled program returns its result array to the host
            # alive; gauss_full destroys all three arrays
            assert s2.skeleton_calls - s1.skeleton_calls == 1
            # per pivot step: one broadcast of an (n+1)-element pivot row
            # part to p-1 ranks, and an allreduce of one record (2(p-1)
            # messages); elements are 4 vs 8 bytes, records 20 vs 24
            elem_gap = 8 - 4
            rec_gap = ELEMREC.itemsize - struct_dtype("_elemrec").itemsize
            per_step = (p - 1) * ((n + 1) * elem_gap + 2 * rec_gap)
            assert s2.bytes_sent - s1.bytes_sent == n * per_step
            ratio = c1.machine.time / c2.machine.time
            assert 1.0 < ratio < 1.4, (n, p, ratio)

    def test_skeleton_call_counts_match_shpaths(self):
        """Same program shape => same number of skeleton invocations."""
        n = 16
        dist = random_distance_matrix(n, seed=24)
        data = np.where(np.isinf(dist), UINT_INF, dist).astype(np.uint64)

        mod = compile_skil(SHPATHS_SKIL, fusion=False)
        c1 = SkilContext(Machine(4), SKIL, fusion=False)
        mod.run("shpaths", n, ctx=c1, externals={"init_f": lambda ix: data[ix]})
        c2 = SkilContext(Machine(4), SKIL, fusion=False)
        shpaths(c2, dist)
        # the compiled program keeps its result array alive: exactly one
        # array_destroy fewer
        assert (
            c2.machine.stats.skeleton_calls - c1.machine.stats.skeleton_calls
            == 1
        )


class TestMachineScalingLaws:
    """Sanity laws the simulated machine must satisfy."""

    def test_shpaths_scales_superlinearly_in_n(self):
        times = []
        for n in (8, 16, 32):
            c = ctx(4)
            shpaths(c, random_distance_matrix(n, seed=1))
            times.append(c.machine.time)
        # ~n^3 per squaring: quadrupling work per doubling at least
        assert times[1] > times[0] * 4
        assert times[2] > times[1] * 4

    def test_gauss_strong_scaling_efficiency(self):
        from repro.apps import gauss_simple

        n = 64
        a, b = random_system(n, seed=2)
        t = {}
        for p in (1, 4, 16):
            c = ctx(p)
            gauss_simple(c, a, b)
            t[p] = c.machine.time
        assert t[4] < t[1]
        assert t[16] < t[4]
        # efficiency decays but stays reasonable at this size
        speedup16 = t[1] / t[16]
        assert 4 < speedup16 <= 16

    def test_memory_accounting_during_run(self):
        c = ctx(4)
        n = 16
        a, b = random_system(n, seed=3)
        from repro.apps import gauss_simple

        gauss_simple(c, a, b)
        assert c.machine.max_memory_used() == 0  # all arrays destroyed

    def test_strict_memory_enforced_end_to_end(self):
        from repro.errors import MemoryLimitError
        from repro.skeletons import skil_fn

        machine = Machine(4, strict_memory=True)
        c = SkilContext(machine, SKIL)
        big = 1024  # 1024x1024 float64 = 2 MB per node on 4 procs
        with pytest.raises(MemoryLimitError):
            c.array_create(
                2, (big, big), (0, 0), (-1, -1),
                skil_fn(ops=0, vectorized=lambda g, e: np.zeros(1))(lambda ix: 0.0),
                "DISTR_DEFAULT",
            )


class TestProfilesEndToEnd:
    def test_language_ordering_holds_everywhere(self):
        """C <= Skil <= Skil-closures <= DPFL on the same workload."""
        from repro.eval.harness import run_gauss

        results = {
            lang: run_gauss(lang, 4, 32).seconds
            for lang in ("parix-c", "skil", "skil-closures", "dpfl")
        }
        assert (
            results["parix-c"]
            < results["skil"]
            < results["skil-closures"]
            < results["dpfl"]
        )
