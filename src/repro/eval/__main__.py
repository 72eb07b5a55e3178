"""Command-line entry point: regenerate the paper's tables and figure.

Usage::

   python -m repro.eval table1 [--scale 0.25]
   python -m repro.eval table2 [--scale 0.25]
   python -m repro.eval figure1 [--scale 0.25] [--csv]
   python -m repro.eval ablations [--scale 0.25]
   python -m repro.eval all [--scale 0.25] [--progress]
   python -m repro.eval trace [--app gauss-full] [--p 9] [--n 48]
                              [--stream] [--trace t.json]
                              [--metrics-out m.prom]
   python -m repro.eval analyze [--app gauss] [--p 16] [--n 48]
                              [--json-out analyze.json] [--no-whatif]
   python -m repro.eval profile [--app gauss] [--p 16] [--n 48]
                              [--backend threads|mp] [--workers 2]
                              [--json-out profile.json]
   python -m repro.eval bench [--quick] [--out BENCH_perf.json]
                              [--check-against BENCH_perf.json]
                              [--backend threads|mp]

``--scale 1.0`` (the default) runs the paper's exact problem sizes —
the Table 2 grid takes a few minutes of wall-clock time because the
simulation really performs the numeric work; smaller scales shrink the
matrices proportionally.

Every subcommand accepts the shared observability flags ``--trace``,
``--metrics-out``, ``--quiet``, ``--backend``, ``--workers``,
``--fusion``/``--no-fusion``, ``--fused``/``--no-fused``,
``--profile`` and ``--profile-out`` (see :mod:`repro.eval.cliopts`);
``--fusion --no-fused`` is rejected as contradictory (exit 2).
``trace`` keeps ``--json`` as a back-compatible alias of ``--trace``.
``--backend threads|mp`` runs the skeleton kernels on real cores —
every artefact stays bit-identical because simulated time is charged
analytically either way.  ``profile`` correlates the two clocks:
simulated speedup vs measured wall, attribution, worker utilization.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import UsageError
from repro.eval.cliopts import (
    apply_backend,
    apply_fusion,
    obs_parent,
    representative_obs_run,
    require_positive,
    require_square_p,
    run_target_parent,
    validate_fusion_flags,
    validate_profile_flags,
    write_obs_artifacts,
)

_ARTEFACTS = ("table1", "table2", "figure1", "ablations", "all")


def _build_parser() -> argparse.ArgumentParser:
    parent = obs_parent()
    target = run_target_parent()
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate the evaluation of the Skil paper (HPDC '96).",
    )
    sub = parser.add_subparsers(dest="what", required=True, metavar="what")

    for name in _ARTEFACTS:
        sp = sub.add_parser(
            name,
            parents=[parent],
            help=f"regenerate {name}"
            if name != "all"
            else "regenerate every artefact",
        )
        sp.add_argument(
            "--scale",
            type=float,
            default=1.0,
            help="problem-size scale in (0, 1]; 1.0 = the paper's sizes",
        )
        sp.add_argument(
            "--csv",
            action="store_true",
            help="emit figure series as CSV too",
        )
        sp.add_argument(
            "--out",
            metavar="DIR",
            default=None,
            help="also write each artefact into DIR (table1.txt, table2.txt, "
            "figure1.txt, figure1_*.csv, ablations.txt)",
        )
        sp.add_argument(
            "--progress",
            action="store_true",
            help="print a wall-clock progress line per evaluation step "
            "(stderr)",
        )

    tr = sub.add_parser(
        "trace",
        parents=[parent, target],
        help="profile one run (spans, timeline, metrics)",
    )
    tr.add_argument(
        "--json",
        dest="trace",
        metavar="FILE",
        help="alias of --trace (back-compatible)",
    )
    tr.add_argument(
        "--level",
        type=int,
        choices=[1, 2],
        default=2,
        help="1 = spans + metrics, 2 = also per-rank timeline",
    )
    tr.add_argument(
        "--stream",
        action="store_true",
        help="run under trace_mode='stream': O(p + samples) memory, "
        "inclusive aggregates; --trace becomes the JSONL event spill",
    )
    tr.add_argument(
        "--sample-size",
        type=int,
        default=1024,
        help="stream: reservoir capacity for sampled message records",
    )
    tr.add_argument(
        "--heartbeat-every",
        type=float,
        default=None,
        metavar="SEC",
        help="stream: emit a progress heartbeat every SEC wall-seconds",
    )

    an = sub.add_parser(
        "analyze",
        parents=[parent, target],
        help="critical-path/straggler analysis of one run",
    )
    an.add_argument(
        "--json-out",
        metavar="FILE",
        default=None,
        help="write the analysis snapshot (repro-analyze/1 JSON)",
    )
    an.add_argument(
        "--no-whatif",
        action="store_true",
        help="skip the perturbed-cost what-if replays",
    )
    an.add_argument(
        "--top",
        type=int,
        default=8,
        help="rows in the blocking-edge/imbalance tables",
    )

    pr = sub.add_parser(
        "profile",
        parents=[parent, target],
        help="sim-vs-wall wall-clock profile of one run "
        "(dispatch/kernel/ship/idle attribution)",
    )
    pr.add_argument(
        "--json-out",
        metavar="FILE",
        default=None,
        help="write the repro-profile/1 snapshot (alias: --profile-out)",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return _main(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _main(argv: list[str]) -> int:
    if argv[:1] == ["bench"]:
        # the wall-clock harness owns its full option set (see bench.py)
        # but shares the observability parent, so the common flags work
        from repro.eval.bench import main as bench_main

        return bench_main(argv[1:])

    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.what in ("trace", "analyze", "profile"):
        require_positive("--p", args.p)
        require_positive("--n", args.n)
        require_square_p(args.app, args.p)
    if args.what == "profile":
        # the profile subcommand always profiles; --profile-out alone is
        # legal here and doubles as --json-out
        args.profile = True
    validate_profile_flags(args)
    validate_fusion_flags(args)
    apply_backend(args.backend, args.workers)
    apply_fusion(args.fusion, args.fused)

    if args.what == "trace":
        from repro.eval.tracecmd import run_trace_command

        text = run_trace_command(
            args.app,
            p=args.p,
            n=args.n,
            out=args.trace,
            trace_level=args.level,
            seed=args.seed,
            metrics_out=args.metrics_out,
            stream=args.stream,
            sample_size=args.sample_size,
            heartbeat_every=args.heartbeat_every
            if not args.quiet
            else None,
            profile=args.profile,
            profile_out=args.profile_out,
        )
        print(text)
        return 0

    if args.what == "analyze":
        from repro.eval.tracecmd import run_analyze_command

        print(
            run_analyze_command(
                args.app,
                p=args.p,
                n=args.n,
                seed=args.seed,
                top=args.top,
                whatif=not args.no_whatif,
                json_out=args.json_out,
                trace_out=args.trace,
                metrics_out=args.metrics_out,
                profile=args.profile,
                profile_out=args.profile_out,
            )
        )
        return 0

    if args.what == "profile":
        from repro.eval.profilecmd import run_profile_command

        text, rc = run_profile_command(
            app=args.app,
            p=args.p,
            n=args.n,
            seed=args.seed,
            backend=args.backend,
            workers=args.workers,
            json_out=args.json_out or args.profile_out,
            quiet=args.quiet,
        )
        print(text)
        return rc

    # ---------------------------------------------------------- artefacts
    if not (0 < args.scale <= 1.0):
        parser.error("--scale must be in (0, 1]")

    from repro.eval.experiments import (
        ablation_equal_c,
        ablation_full_gauss,
        ablation_instantiation,
        ablation_sync_comm,
        ablation_topology,
        figure1,
        table1,
        table2,
    )
    from repro.eval.figures import format_figure1, series_csv
    from repro.eval.tables import format_ablation, format_table1, format_table2

    progress = None
    if args.progress and not args.quiet:
        from repro.obs.stream import ProgressReporter

        reporter = ProgressReporter()
        progress = reporter.note

    outdir = None
    if args.out is not None:
        from pathlib import Path

        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)

    def emit(name: str, text: str) -> None:
        print(text)
        print()
        if outdir is not None:
            (outdir / name).write_text(text + "\n")

    if args.what in ("table1", "all"):
        emit("table1.txt", format_table1(table1(scale=args.scale,
                                                progress=progress)))
    if args.what in ("table2", "figure1", "all"):
        cells = table2(scale=args.scale, progress=progress)
        if args.what in ("table2", "all"):
            emit("table2.txt", format_table2(cells))
        if args.what in ("figure1", "all"):
            ups, downs = figure1(cells)
            emit("figure1.txt", format_figure1(ups, downs))
            if args.csv or outdir is not None:
                up_csv = series_csv(ups, "speedup_vs_dpfl")
                down_csv = series_csv(downs, "slowdown_vs_c")
                if args.csv:
                    print(up_csv)
                    print(down_csv)
                if outdir is not None:
                    (outdir / "figure1_speedups.csv").write_text(up_csv + "\n")
                    (outdir / "figure1_slowdowns.csv").write_text(down_csv + "\n")
    if args.what in ("ablations", "all"):
        texts = []
        for fn in (
            ablation_equal_c,
            ablation_full_gauss,
            ablation_instantiation,
            ablation_topology,
            ablation_sync_comm,
        ):
            if progress is not None:
                progress(f"ablation: {fn.__name__}")
            texts.append(format_ablation(fn(scale=args.scale)))
        emit("ablations.txt", "\n\n".join(texts))

    footer = representative_obs_run(
        args.trace, args.metrics_out,
        profile=args.profile, profile_path=args.profile_out,
    )
    if footer and not args.quiet:
        print("\n".join(footer))
    return 0


if __name__ == "__main__":
    sys.exit(main())
