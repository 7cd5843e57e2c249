"""Mint ``expected.json``: the committed outputs every run is checked against.

Run from the repository root, on a tree whose simulated statistics are
the reference::

    python3 perfbench/mint.py

It runs ``study`` and ``wide-window`` once each through the benchmark's
own repetition script (same pinned environment), refuses to write if any
op failed on its own terms or if ``study-pool`` rows differ from
``study`` rows (the serial == parallel contract), and records each op's
digest and the simulated cycle total.
"""

from __future__ import annotations

import json
import sys
import time

import ops
import run

SECTIONS = {"study": "study", "wide-window": "wide-window"}


def main() -> int:
    work = run.ROOT / ".perfbench" / "mint"
    work.mkdir(parents=True, exist_ok=True)
    stub = work / "stub.json"
    stub.write_text(json.dumps({s: {"ops": {}, "cycles": -1} for s in SECTIONS.values()}))
    results = {}
    for workload in ("study", "study-pool", "wide-window"):
        results[workload] = run.spawn(
            ["--workload", workload, "--seed", "0", "--expected", str(stub)],
            run.ROOT,
            work / workload,
            time.monotonic() + 600,
        )
        errors = results[workload]["op_errors"]
        if errors:
            print(f"{workload}: refusing to mint, ops failed:\n  " + "\n  ".join(errors), file=sys.stderr)
            return 1
    if results["study-pool"]["ops"] != results["study"]["ops"]:
        print("study-pool rows differ from study rows; refusing to mint", file=sys.stderr)
        return 1
    expected = {
        "config": {
            "study_scale": ops.STUDY_SCALE,
            "wide_scale": ops.WIDE_SCALE,
            "wide_kernels": ops.WIDE_KERNELS,
            "wide_machines": ops.WIDE_MACHINES,
            "wide_windows": ops.WIDE_WINDOWS,
        },
        **{
            section: {"cycles": results[w]["cycles"], "ops": results[w]["ops"]}
            for w, section in SECTIONS.items()
        },
    }
    path = run.BENCH / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    for w in SECTIONS:
        print(f"{w}: {len(results[w]['ops'])} ops, {results[w]['cycles']} cycles, {results[w]['wall_s']:.2f} s")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
