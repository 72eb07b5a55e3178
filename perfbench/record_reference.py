#!/usr/bin/env python3
"""Re-record ``perfbench/reference.json``: the simulated statistics of
every cell of every workload.

    python3 perfbench/record_reference.py

Each cell runs on three input seeds; its values must match the
independent reference and its statistics must agree across the seeds
(they do not depend on input values), else nothing is written.  Only a
change that means to move simulated results re-records this file, in a
benchmark change of its own.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.run import OUT, WORKLOADS, prepare_environment  # noqa: E402

SEEDS = (0, 1, 2)


def main() -> int:
    prepare_environment()
    OUT.mkdir(parents=True, exist_ok=True)
    from perfbench import core, workloads

    reference: dict[str, dict] = {}
    problems: list[str] = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for w in WORKLOADS:
            cells = {c.key: c for c in workloads.build_cycle(w, 0, Path(tmp))}
            for key, cell in cells.items():
                seen = []
                for seed in SEEDS:
                    inputs = cell.make(workloads.input_rng(seed, key))
                    _, bad, sim, _ = core.run_op(
                        cell, inputs, cell.want(inputs), {}, lambda *a: [])
                    problems += [f"{key} seed {seed}: {p}" for p in bad]
                    seen.append(sim)
                if any(s != seen[0] for s in seen):
                    problems.append(f"{key}: statistics depend on the input seed")
                reference[key] = seen[0]
                print(key, seen[0], flush=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} cells to {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
