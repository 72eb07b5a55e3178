"""The three ``repro.check`` pillars and their CLI run green on a small
budget, and every failure path yields a replayable one-line command."""

import pytest

from repro.check import run_batch, run_diff, run_fuzz, run_oracle
from repro.check.__main__ import main
from repro.check.report import CheckResult, Failure, format_failure, format_result


class TestFuzzPillar:
    def test_small_budget_green(self):
        res = run_fuzz(seed=0, budget=8)
        assert res.trials == 8
        assert res.ok, format_result(res)

    def test_coverage_counters_populated(self):
        res = run_fuzz(seed=1, budget=8)
        assert any(k.startswith("op.") for k in res.coverage)

    def test_coverage_shows_ragged_record_folds_and_scalar_inits(self):
        """The pillar's default run reaches record folds over partitions
        of unequal size and scalar-init creates of every element type."""
        from repro.check.fuzz import _coverage_keys, generate_spec

        keys = set()
        for i in range(60):
            keys.update(_coverage_keys(generate_spec(i)))
        assert {
            "argfold.ragged",
            "create.scalar.float",
            "create.scalar.int",
            "create.scalar.unsigned",
        } <= keys

    @pytest.mark.parametrize("elem", ["float", "int", "unsigned"])
    def test_sinit_kernel_stays_scalar_and_passes(self, elem):
        """The family's init kernel is outside the vectorizer's subset,
        so its create runs the per-element traversal, and the trial
        agrees with the interpreter."""
        from repro.check.fuzz import generate_spec, render, run_trial
        from repro.lang import compile_skil

        seed = next(
            i for i in range(200)
            if any(op.kind == "sinit" and op.args[0] == elem
                   for op in generate_spec(i).ops)
        )
        ns = compile_skil(render(generate_spec(seed))).namespace
        kernels = [v for k, v in ns.items() if k.startswith("sinit")]
        assert kernels
        assert not any(hasattr(k, "vectorized") for k in kernels)
        assert run_trial(seed) is None

    def test_raw_seed_replays_exact_trial(self):
        from repro.check.fuzz import run_fuzz_raw

        base = run_fuzz(seed=3, budget=3)
        assert base.ok, format_result(base)
        # the i-th trial of base seed 3 has per-trial seed 3*1_000_003+i
        res = run_fuzz_raw(3 * 1_000_003 + 1, budget=1)
        assert res.trials == 1
        assert res.ok, format_result(res)


class TestOraclePillar:
    def test_one_round_robin_covers_every_skeleton(self):
        from repro.check.oracle import ORACLE_TRIALS

        res = run_oracle(seed=0, budget=len(ORACLE_TRIALS))
        assert res.ok, format_result(res)
        assert set(res.coverage) == set(ORACLE_TRIALS)

    def test_raw_seed_replay(self):
        from repro.check.oracle import run_oracle_raw

        res = run_oracle_raw(5 * 1_000_003 + 2, budget=1)
        assert res.trials == 1
        assert res.ok, format_result(res)


class TestDiffPillar:
    def test_small_budget_green(self):
        res = run_diff(seed=0, budget=12)
        assert res.ok, format_result(res)
        assert res.trials == 12
        # every 4th trial is an obs-consistency probe
        assert res.coverage.get("diff.obs", 0) == 3

    def test_raw_seed_replay(self):
        from repro.check.diffcheck import run_diff_raw

        res = run_diff_raw(2 * 1_000_003, budget=2)
        assert res.trials == 2
        assert res.ok, format_result(res)


class TestBatchPillar:
    def test_small_budget_green(self):
        res = run_batch(seed=0, budget=16)
        assert res.ok, format_result(res)
        assert res.trials == 16
        # the four trial families interleave round-robin
        assert res.coverage.get("batch.p2p", 0) == 4
        assert res.coverage.get("batch.shift", 0) == 4

    def test_raw_seed_replay(self):
        from repro.check.netbatch import run_batch_raw

        res = run_batch_raw(4 * 1_000_003 + 2, budget=2)
        assert res.trials == 2
        assert res.ok, format_result(res)

    def test_cli_fusion_toggle_runs_both_modes(self, capsys):
        from repro.skeletons.fuse import fusion_default, set_fusion_default

        before = fusion_default()
        try:
            assert main(["batch", "--seed", "1", "--budget", "8",
                         "--no-fused"]) == 0
            assert main(["batch", "--seed", "1", "--budget", "8",
                         "--fused"]) == 0
        finally:
            set_fusion_default(before)
        out = capsys.readouterr().out
        assert out.count("[batch]") == 2


class TestStreamPillar:
    def test_small_budget_green(self):
        from repro.check import run_stream

        res = run_stream(seed=0, budget=9)
        assert res.ok, format_result(res)
        assert res.trials == 9
        # the three trial families interleave round-robin
        assert sum(v for k, v in res.coverage.items()
                   if k.startswith("stream.app_")) == 3
        assert sum(v for k, v in res.coverage.items()
                   if k.startswith("stream.engine_")) == 3

    def test_raw_seed_replay(self):
        from repro.check.streamcheck import run_stream_raw

        res = run_stream_raw(6 * 1_000_003 + 1, budget=2)
        assert res.trials == 2
        assert res.ok, format_result(res)

    def test_cli_pillar_registered(self, capsys):
        assert main(["stream", "--seed", "2", "--budget", "3"]) == 0
        out = capsys.readouterr().out
        assert "[stream]" in out


class TestCli:
    def test_all_green_exit_zero(self, capsys):
        assert main(["all", "--seed", "0", "--budget", "6"]) == 0
        out = capsys.readouterr().out
        for pillar in ("fuzz", "oracle", "diff", "stream"):
            assert f"[{pillar}]" in out
        assert "0 failure(s)" in out

    def test_single_pillar(self, capsys):
        assert main(["oracle", "--seed", "2", "--budget", "4"]) == 0
        out = capsys.readouterr().out
        assert "[oracle]" in out
        assert "[fuzz]" not in out

    def test_time_budget_stops_early(self, capsys):
        assert main(["fuzz", "--budget", "100000", "--time-budget", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "failure(s)" in out

    def test_raw_seed_flag(self, capsys):
        assert main(["diff", "--seed", "0", "--budget", "1", "--raw-seed"]) == 0


class TestReport:
    def test_failure_replay_command_default(self):
        f = Failure(pillar="fuzz", seed=42, title="boom")
        assert f.replay_command() == (
            "PYTHONPATH=src python -m repro.check fuzz --seed 42 --budget 1"
        )

    def test_format_failure_includes_reproducer(self):
        f = Failure(
            pillar="fuzz",
            seed=7,
            title="mismatch",
            detail="expected 1, got 2",
            reproducer="int entry () { return 1; }",
        )
        text = format_failure(f)
        assert "seed=7" in text
        assert "replay:" in text
        assert "minimized reproducer" in text
        assert "int entry" in text

    def test_merge_accumulates(self):
        a = CheckResult("fuzz", trials=2, coverage={"op.map": 1})
        b = CheckResult("fuzz", trials=3, coverage={"op.map": 2, "op.fold": 1})
        b.failures.append(Failure(pillar="fuzz", seed=1, title="x"))
        a.merge(b)
        assert a.trials == 5
        assert a.coverage == {"op.map": 3, "op.fold": 1}
        assert not a.ok


class TestShrinking:
    def test_shrinker_reduces_failing_spec(self):
        """Plant an artificial bug (fuzz against a corrupted comparator)
        and check the shrinker returns a smaller spec with the same
        failure stage."""
        from repro.check import fuzz as fz

        spec = fz.generate_spec(0)
        # a spec with several ops; drop-ops candidates must shrink it
        candidates = list(fz._shrink_candidates(spec))
        assert candidates, "generator produced an unshrinkable spec"
        for cand in candidates:
            assert len(cand.ops) <= len(spec.ops)
