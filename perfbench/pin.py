"""Recompute the golden digests in golden.json.

Run from the repository root, only when outputs are meant to change:

    python3 perfbench/pin.py

For every workload and every seed in ``0..SEEDS-1`` it runs the workload's
fixed prefix (``--seconds 0``), requires every check to pass, and records
the SHA-256 over the prefix's assignments, codes and oracle verdicts.
"""
from __future__ import annotations

import json
import sys

import run

SEEDS = 32


def main() -> int:
    run.import_library()
    import workloads

    golden = {}
    for name in workloads.NAMES:
        golden[name] = {}
        for seed in range(SEEDS):
            result, _, notes, digest = run.run(name, seed, 0.0, False, setup_seconds=0.0)
            if not result["correct"]:
                print(f"{name} seed {seed}: checks failed, not pinning: {notes}", file=sys.stderr)
                return 1
            golden[name][str(seed)] = digest
            print(f"{name} {seed} {digest}", flush=True)
    (run.HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
