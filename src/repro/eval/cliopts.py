"""Shared command-line options for the ``python -m repro.eval`` family.

Historically each subcommand grew its own flag set, and the
observability flags drifted: ``trace`` took ``--json`` and
``--metrics-out``, ``analyze`` took neither, ``bench`` had its own
``--out`` and no way to dump metrics.  This module defines the three
flags every subcommand now accepts — as one argparse *parent* so the
definitions cannot drift again:

``--trace FILE``
    Write a Chrome trace-event JSON of the command's traced run (open
    in Perfetto).  ``trace``/``analyze`` trace the run they already
    perform; the artefact commands (``table1`` … ``all``) and ``bench``
    run their machines untraced, so for them the flag appends one
    standard traced run of the default trace app and writes *that*.
    In stream mode (``trace --stream``) the file becomes the JSONL
    event spill instead — the stream keeps no recording to export.

``--metrics-out FILE``
    Write the run's metrics registry in Prometheus text format (same
    representative-run rule as ``--trace``).

``--quiet``
    Suppress progress notes, heartbeats and "written to ..." chatter;
    the command's primary report still prints.

``--backend {sim,threads,mp}``
    Execute skeleton kernels on a real backend (thread pool or worker
    processes) instead of the in-process simulator.  Simulated seconds
    are charged by the analytic :class:`~repro.machine.network.Network`
    either way, so every artefact is bit-identical across backends —
    the flag changes wall-clock behaviour only.  For ``bench`` it
    additionally records a wall-clock-vs-cores ``backend`` section.

``--workers N``
    Worker count for the real backends (the ``REPRO_WORKERS`` default
    for this process).  Rejected with a clear usage error when
    nonpositive, as is ``--p`` on the run-target subcommands.

``--fusion`` / ``--no-fusion``
    Turn *compiler-level* skeleton fusion on or off for the command's
    runs (the ``REPRO_FUSION`` default for this process; see
    :mod:`repro.lang.fusion`).  Unlike ``--fused`` this changes the
    simulated schedule: fused runs charge fewer skeleton rounds.

``--fused`` / ``--no-fused``
    Turn the runtime whole-array fast path on or off (the
    ``REPRO_FUSED`` default).  Wall-clock only; simulated seconds are
    identical either way.  ``--fusion --no-fused`` is rejected as
    contradictory: compiler fusion composes kernels whose benefit is
    realised through the fused execution path it would be disabling.

``--profile``
    Attach the wall-clock worker-plane profiler
    (:class:`~repro.obs.prof.WallProfiler`) to the command's traced run
    (same representative-run rule as ``--trace``).  Wall-clock only;
    simulated seconds and every artefact stay bit-identical.  With
    ``--trace`` the Chrome JSON gains the dual-clock wall tracks.

``--profile-out FILE``
    Write the profiler's ``repro-profile/1`` JSON snapshot.  Requires
    ``--profile`` (a clean usage error otherwise); the ``profile``
    subcommand, which always profiles, accepts it alone.

The run-target flags (``--app`` / ``--p`` / ``--n`` / ``--seed``) that
``trace`` and ``analyze`` share live in :func:`run_target_parent` for
the same no-drift reason.
"""

from __future__ import annotations

import argparse
import math
import os

from repro.errors import UsageError

__all__ = [
    "apply_backend",
    "apply_fusion",
    "obs_parent",
    "representative_obs_run",
    "require_positive",
    "require_square_p",
    "run_target_parent",
    "validate_fusion_flags",
    "validate_profile_flags",
    "write_obs_artifacts",
]


def obs_parent() -> argparse.ArgumentParser:
    """The shared ``--trace`` / ``--metrics-out`` / ``--quiet`` parent."""
    parent = argparse.ArgumentParser(add_help=False)
    g = parent.add_argument_group("observability (common to all subcommands)")
    g.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a Chrome trace-event JSON of the traced run "
        "(JSONL event spill in stream mode)",
    )
    g.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the metrics registry in Prometheus text format",
    )
    g.add_argument(
        "--quiet",
        action="store_true",
        help="suppress progress notes and 'written to ...' chatter",
    )
    g.add_argument(
        "--backend",
        choices=["sim", "threads", "mp"],
        default=None,
        help="execute skeleton kernels on this backend (default: the "
        "REPRO_BACKEND env var, else sim); simulated seconds are "
        "identical either way",
    )
    g.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker count for the real backends (default: the "
        "REPRO_WORKERS env var, else min(p, cores))",
    )
    g.add_argument(
        "--fusion",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="compiler-level skeleton fusion on (--fusion) or off "
        "(--no-fusion) for this command's runs; changes the simulated "
        "schedule (fewer skeleton rounds), values stay bit-equal",
    )
    g.add_argument(
        "--fused",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="runtime whole-array fast path on (--fused) or off "
        "(--no-fused); wall-clock only, simulated seconds unchanged",
    )
    g.add_argument(
        "--profile",
        action="store_true",
        help="attach the wall-clock worker-plane profiler to the traced "
        "run (wall-clock only; simulated seconds are unchanged)",
    )
    g.add_argument(
        "--profile-out",
        metavar="FILE",
        default=None,
        help="write the profiler's repro-profile/1 JSON snapshot "
        "(requires --profile)",
    )
    return parent


def run_target_parent() -> argparse.ArgumentParser:
    """The shared run-target parent: which app to run, and how big.

    ``trace`` and ``analyze`` used to re-declare these four flags each;
    one parent keeps defaults and help text from drifting apart.
    """
    parent = argparse.ArgumentParser(add_help=False)
    g = parent.add_argument_group("run target (shared by trace/analyze)")
    g.add_argument(
        "--app",
        choices=["shpaths", "gauss", "gauss-full"],
        default="gauss-full",
        help="which application to run",
    )
    g.add_argument("--p", type=int, default=9, help="processor count")
    g.add_argument("--n", type=int, default=48, help="problem size")
    g.add_argument("--seed", type=int, default=0, help="input seed")
    return parent


def require_positive(flag: str, value: int | None) -> None:
    """Reject nonpositive count-like flag values with a clear message."""
    if value is not None and value <= 0:
        raise UsageError(f"{flag} must be a positive integer, got {value}")


def require_square_p(app: str, p: int) -> None:
    """shpaths runs on a square processor grid: ``p`` must be ``g*g``."""
    if app == "shpaths" and math.isqrt(p) ** 2 != p:
        raise UsageError(
            f"--app shpaths needs a square --p (p = g*g: 1, 4, 9, 16, ...), "
            f"got {p}"
        )


def validate_profile_flags(args) -> None:
    """``--profile-out`` without ``--profile`` is a usage error.

    The ``profile`` subcommand always profiles (its args carry
    ``profile=True`` by construction), so this single rule holds
    uniformly across the whole subcommand family.
    """
    if getattr(args, "profile_out", None) is not None and not getattr(
        args, "profile", False
    ):
        raise UsageError("--profile-out requires --profile")


def validate_fusion_flags(args) -> None:
    """``--fusion`` together with ``--no-fused`` is a usage error.

    Compiler-level fusion composes kernels precisely so the fused
    whole-array execution path can run them in one sweep; asking for
    the former while switching off the latter is contradictory, so it
    is rejected up front instead of silently running a pessimised mix.
    """
    if getattr(args, "fusion", None) is True and getattr(
        args, "fused", None
    ) is False:
        raise UsageError(
            "--fusion contradicts --no-fused: compiler-level fusion "
            "relies on the fused execution path; drop one of the flags"
        )


def apply_fusion(fusion: bool | None, fused: bool | None = None) -> None:
    """Make ``--fusion``/``--fused`` the process-wide defaults.

    No-op for unset values (the REPRO_FUSION / REPRO_FUSED env
    defaults stay in charge).  Call :func:`validate_fusion_flags`
    first — this function assumes a consistent pair.
    """
    if fusion is not None:
        from repro.skeletons.fuse import set_program_fusion_default

        set_program_fusion_default(fusion)
    if fused is not None:
        from repro.skeletons.fuse import set_fusion_default

        set_fusion_default(fused)


def apply_backend(name: str | None, workers: int | None = None) -> None:
    """Make ``--backend``/``--workers`` the process-wide defaults.

    No-op for unset values.  Nonpositive *workers* is a usage error
    here (before any pool spins up) rather than a ``MachineError`` deep
    inside backend construction.
    """
    require_positive("--workers", workers)
    if workers is not None:
        os.environ["REPRO_WORKERS"] = str(workers)
    if name is not None:
        from repro.machine.backend import set_backend_default

        set_backend_default(name)


def write_obs_artifacts(
    machine,
    trace_path: str | None,
    metrics_path: str | None,
    profile_path: str | None = None,
) -> list[str]:
    """Write the requested artefacts from *machine*; returns footer lines.

    In stream mode there is no recording to export — the Chrome JSON
    request is satisfied by the JSONL spill the stream wrote (the
    caller passes ``--trace`` as the spill path), so only the metrics
    dump happens here.
    """
    from repro.errors import SkilError

    lines: list[str] = []
    if trace_path is not None:
        if getattr(machine, "stream_obs", None) is not None:
            lines.append(
                f"streaming JSONL event spill written to {trace_path} "
                "(rotated segments keep the tail of long runs)"
            )
        else:
            from repro.obs import write_chrome_trace

            write_chrome_trace(trace_path, machine)
            lines.append(
                f"Chrome trace written to {trace_path} (open in Perfetto)"
            )
    if metrics_path is not None:
        if machine.metrics is None:
            raise SkilError(
                "--metrics-out needs trace_level >= 1 (no metrics registry)"
            )
        with open(metrics_path, "w", encoding="utf-8") as fh:
            fh.write(machine.metrics.render_text())
        lines.append(f"Prometheus metrics written to {metrics_path}")
    if profile_path is not None:
        import json

        profiler = getattr(machine, "profiler", None)
        if profiler is None:
            raise SkilError(
                "--profile-out needs a profiled run (pass --profile)"
            )
        with open(profile_path, "w", encoding="utf-8") as fh:
            json.dump(profiler.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        lines.append(
            f"wall-clock profile snapshot written to {profile_path}"
        )
    return lines


def representative_obs_run(
    trace_path: str | None,
    metrics_path: str | None,
    profile: bool = False,
    profile_path: str | None = None,
) -> list[str]:
    """Satisfy ``--trace``/``--metrics-out``/``--profile`` for commands
    without a single traced run (``all``, the table commands,
    ``bench``): run the default trace app once, traced, and export from
    that."""
    if trace_path is None and metrics_path is None and not profile:
        return []
    from repro.eval.tracecmd import run_traced

    run = run_traced("gauss-full", p=9, n=48, profile=profile)
    lines = write_obs_artifacts(
        run.machine, trace_path, metrics_path, profile_path
    )
    run.machine.close()
    return [
        "representative traced run: gauss-full p=9 n=48",
        *lines,
    ]
