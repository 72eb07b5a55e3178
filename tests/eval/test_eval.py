"""Tests for the evaluation harness (fast, small-scale runs)."""

import numpy as np
import pytest

from repro.errors import SkilError
from repro.eval.experiments import (
    Table1Row,
    Table2Cell,
    ablation_equal_c,
    ablation_full_gauss,
    figure1,
    table1,
    table2,
)
from repro.eval.figures import ascii_plot, format_figure1, series_csv
from repro.eval.harness import fits_paper_memory, run_gauss, run_matmul, run_shpaths
from repro.eval.tables import format_ablation, format_table1, format_table2


class TestHarness:
    def test_run_shpaths_all_languages(self):
        times = {}
        for lang in ("skil", "dpfl", "parix-c", "parix-c-old"):
            res = run_shpaths(lang, 4, 16)
            assert res.seconds > 0
            times[lang] = res.seconds
        assert times["dpfl"] > times["skil"] > times["parix-c"]

    def test_run_shpaths_rounds_n(self):
        res = run_shpaths("skil", 9, 16)  # 3x3 grid, 16 -> 18
        assert res.n == 18

    def test_run_gauss_unknown_language(self):
        with pytest.raises(SkilError):
            run_gauss("fortran", 4, 16)

    def test_run_gauss_full_flag(self):
        simple = run_gauss("skil", 4, 16, full=False)
        full = run_gauss("skil", 4, 16, full=True)
        assert full.seconds > simple.seconds
        assert full.app == "gauss-full"

    def test_run_gauss_c_has_no_full_variant(self):
        with pytest.raises(SkilError):
            run_gauss("parix-c", 4, 16, full=True)

    def test_run_matmul(self):
        res = run_matmul("skil", 4, 16)
        assert res.app == "matmul" and res.seconds > 0

    def test_skil_closures_slower(self):
        inst = run_gauss("skil", 4, 32)
        clos = run_gauss("skil-closures", 4, 32)
        assert clos.seconds > inst.seconds

    @pytest.mark.parametrize(
        "case, run, args",
        [
            ("_shpaths_case", run_shpaths, (4, 12, 7)),
            ("_gauss_case", run_gauss, (4, 12, False, 7)),
        ],
    )
    def test_input_and_oracle_built_once_per_cell(self, case, run, args):
        """Every language of a cell reuses one input and one oracle; the
        shared arrays are read-only, so a driver cannot corrupt them."""
        from repro.eval import harness

        cached = getattr(harness, case)
        cached.cache_clear()
        first = run("skil", *args)
        again = run("parix-c", *args)
        info = cached.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert first.n == again.n
        for arr in cached(first.n, 7):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0


class TestMemoryRule:
    def test_paper_statement(self):
        """'larger problem sizes could only be fitted into larger
        networks' — the DPFL working set for 640x641 floats does not fit
        4 nodes of 1 MB (Skil's barely does, at ~820 KB)."""
        assert fits_paper_memory(640, 4, "skil")
        assert not fits_paper_memory(768, 4, "skil")
        assert not fits_paper_memory(640, 4, "dpfl")
        assert fits_paper_memory(640, 64, "dpfl")

    def test_dpfl_needs_more(self):
        # DPFL's copy-on-update temporary pushes borderline sizes over
        sizes_c = [n for n in range(64, 1024, 64) if fits_paper_memory(n, 4, "skil")]
        sizes_d = [n for n in range(64, 1024, 64) if fits_paper_memory(n, 4, "dpfl")]
        assert set(sizes_d) <= set(sizes_c)
        assert len(sizes_d) < len(sizes_c)


class TestTables:
    def test_table1_small(self):
        rows = table1(scale=0.12, ps=(4, 16))
        assert len(rows) == 2
        for r in rows:
            assert r.speedup_vs_dpfl > 2.0
        text = format_table1(rows)
        assert "2x2" in text and "DPFL/Skil" in text

    def test_table2_small(self):
        cells = table2(scale=0.25, ps=(4, 16), ns=(64, 128))
        assert len(cells) == 4
        text = format_table2(cells)
        assert "Skil/C" in text

    def test_table2_marks_memory_gaps(self):
        cells = [
            Table2Cell(4, 640, 100.0, None, 50.0, False, n_nominal=640),
            Table2Cell(64, 640, 10.0, 60.0, 8.0, True, n_nominal=640),
        ]
        text = format_table2(cells)
        assert "-" in text
        assert cells[0].dpfl_over_skil is None
        assert cells[1].dpfl_over_skil == pytest.approx(6.0)

    def test_table1_row_properties(self):
        r = Table1Row(4, 200, 1500.0, 230.0, 260.0)
        assert r.speedup_vs_dpfl == pytest.approx(1500 / 230)
        assert r.ratio_vs_c_old == pytest.approx(230 / 260)


class TestFigure:
    def _cells(self):
        return [
            Table2Cell(4, 128, 10.0, 62.0, 4.2, True, n_nominal=128),
            Table2Cell(16, 128, 3.0, 17.0, 1.5, True, n_nominal=128),
            Table2Cell(4, 256, 80.0, 500.0, 33.0, True, n_nominal=256),
            Table2Cell(16, 256, 21.0, 130.0, 10.0, True, n_nominal=256),
        ]

    def test_figure1_series(self):
        ups, downs = figure1(self._cells())
        assert set(ups) == {128, 256}
        assert ups[128] == [(4, pytest.approx(6.2)), (16, pytest.approx(17 / 3))]
        assert downs[256][0] == (4, pytest.approx(80 / 33))

    def test_ascii_plot_renders(self):
        ups, downs = figure1(self._cells())
        art = ascii_plot(ups, "test plot")
        assert "test plot" in art
        assert "processors" in art
        assert "n=128" in art

    def test_ascii_plot_empty(self):
        assert "(no data)" in ascii_plot({}, "empty")

    def test_series_csv(self):
        ups, _ = figure1(self._cells())
        csv = series_csv(ups, "speedup")
        lines = csv.splitlines()
        assert lines[0] == "n,p,speedup"
        assert len(lines) == 5

    def test_format_figure1(self):
        ups, downs = figure1(self._cells())
        text = format_figure1(ups, downs)
        assert "DPFL" in text and "Parix-C" in text


class TestAblations:
    def test_equal_c(self):
        res = ablation_equal_c(scale=0.25)
        assert 1.0 < res.measured_ratio < 1.5
        assert "c_seconds" in res.details
        assert "1.2" in format_ablation(res) or "paper" in format_ablation(res)

    def test_full_gauss(self):
        res = ablation_full_gauss(scale=0.2)
        assert res.measured_ratio > 1.3


class TestCLI:
    def test_main_table1(self, capsys):
        from repro.eval.__main__ import main

        rc = main(["table1", "--scale", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_main_rejects_bad_scale(self):
        from repro.eval.__main__ import main

        with pytest.raises(SystemExit):
            main(["table1", "--scale", "2.0"])

    def test_main_ablations(self, capsys):
        from repro.eval.__main__ import main

        rc = main(["ablations", "--scale", "0.12"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "equal-c-matmul" in out
        assert "instantiation-vs-closures" in out
