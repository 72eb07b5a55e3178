"""The shared observability flags (``--trace`` / ``--metrics-out`` /
``--quiet``) must be accepted uniformly by every ``repro.eval``
subcommand — the flag-drift fix — plus the ``trace --stream`` and
``all --progress`` entry points."""

import json

import pytest

from repro.eval.__main__ import _build_parser, main

COMMON = ["--trace", "t.json", "--metrics-out", "m.prom", "--quiet",
          "--profile", "--profile-out", "p.json"]


class TestFlagUniformity:
    @pytest.mark.parametrize(
        "sub",
        ["table1", "table2", "figure1", "ablations", "all", "trace",
         "analyze"],
    )
    def test_common_flags_parse_on_every_subcommand(self, sub):
        args = _build_parser().parse_args([sub, *COMMON])
        assert args.trace == "t.json"
        assert args.metrics_out == "m.prom"
        assert args.quiet is True
        assert args.profile is True
        assert args.profile_out == "p.json"

    def test_trace_keeps_json_alias(self):
        args = _build_parser().parse_args(["trace", "--json", "x.json"])
        assert args.trace == "x.json"

    def test_bench_shares_the_parent(self):
        from repro.eval.bench import main as bench_main

        with pytest.raises(SystemExit) as exc:
            bench_main(["--help"])
        assert exc.value.code == 0

    def test_bench_parses_common_flags(self, capsys):
        # parse-only probe: an invalid value for a *defined* flag errors
        # with argparse's exit code 2; an *undefined* flag would too, so
        # assert on the error text instead
        from repro.eval.bench import main as bench_main

        with pytest.raises(SystemExit):
            bench_main(["--trace"])  # defined, but missing its value
        err = capsys.readouterr().err
        assert "unrecognized arguments" not in err
        assert "--trace" in err


class TestRunTargetParent:
    """trace/analyze share --app/--p/--n/--seed through one parent."""

    @pytest.mark.parametrize("sub", ["trace", "analyze"])
    def test_run_target_flags_parse(self, sub):
        args = _build_parser().parse_args(
            [sub, "--app", "shpaths", "--p", "4", "--n", "8", "--seed", "7"]
        )
        assert (args.app, args.p, args.n, args.seed) == ("shpaths", 4, 8, 7)

    @pytest.mark.parametrize("sub", ["trace", "analyze"])
    def test_run_target_defaults_match(self, sub):
        args = _build_parser().parse_args([sub])
        assert (args.app, args.p, args.n, args.seed) == ("gauss-full", 9, 48, 0)


class TestUsageValidation:
    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_nonpositive_p_is_a_clean_usage_error(self, bad, capsys):
        rc = main(["trace", "--app", "shpaths", "--p", bad, "--n", "8"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--p must be a positive integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("sub", ["trace", "analyze", "profile"])
    def test_shpaths_on_nonsquare_p_is_a_clean_usage_error(self, sub, capsys):
        rc = main([sub, "--app", "shpaths", "--p", "8", "--n", "16"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "shpaths needs a square --p" in err
        assert "Traceback" not in err

    def test_nonpositive_workers_is_a_clean_usage_error(self, capsys):
        rc = main(["trace", "--app", "shpaths", "--p", "4", "--n", "8",
                   "--workers", "0"])
        assert rc == 2
        assert "--workers must be a positive integer" in capsys.readouterr().err

    def test_workers_flag_sets_the_env_default(self, monkeypatch):
        import os

        from repro.eval.cliopts import apply_backend

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        apply_backend(None, 3)
        assert os.environ["REPRO_WORKERS"] == "3"
        monkeypatch.delenv("REPRO_WORKERS", raising=False)

    def test_require_positive_accepts_none_and_positive(self):
        from repro.eval.cliopts import require_positive

        require_positive("--p", None)
        require_positive("--p", 1)

    def test_bench_rejects_nonpositive_workers(self, capsys):
        from repro.eval.bench import main as bench_main

        rc = bench_main(["--quick", "--workers", "-1"])
        assert rc == 2
        assert "--workers must be a positive integer" in capsys.readouterr().err


class TestStreamTraceCli:
    def test_trace_stream_runs_and_spills(self, tmp_path, capsys):
        spill = tmp_path / "spill.jsonl"
        rc = main([
            "trace", "--app", "shpaths", "--p", "4", "--n", "8",
            "--stream", "--trace", str(spill),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "streamed, inclusive" in out
        assert "JSONL event spill" in out
        lines = spill.read_text().splitlines()
        assert lines
        assert all("ph" in json.loads(ln) for ln in lines[:10])

    def test_trace_stream_without_spill(self, capsys):
        rc = main(["trace", "--app", "shpaths", "--p", "4", "--n", "8",
                   "--stream"])
        assert rc == 0
        assert "streamed aggregates" in capsys.readouterr().out

    def test_record_mode_unchanged(self, tmp_path, capsys):
        out_file = tmp_path / "t.json"
        rc = main(["trace", "--app", "gauss", "--p", "4", "--n", "8",
                   "--trace", str(out_file)])
        assert rc == 0
        assert "Chrome trace written" in capsys.readouterr().out
        assert json.loads(out_file.read_text())["traceEvents"]


class TestProgress:
    def test_all_progress_emits_step_lines(self, capsys):
        rc = main(["table1", "--scale", "0.1", "--progress"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "table1: shpaths" in err

    def test_quiet_suppresses_progress(self, capsys):
        rc = main(["table1", "--scale", "0.1", "--progress", "--quiet"])
        assert rc == 0
        assert capsys.readouterr().err == ""
