"""One measured repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so every repetition
pays interpreter start, imports and cold artifact-cache fills, as a
user regenerating the study does.  Usage::

    python3 perfbench/rep.py --workload study --seed 1 --t0 <monotonic> \
        --out DIR [--trace] [--setup-only] [--expected FILE]

``--t0`` is the caller's ``time.monotonic()`` just before the spawn, so
``setup_s`` covers interpreter start, imports and loading the expected
outputs.  The last stdout line is one JSON object with the timings,
untimed counters, op outcomes and check failures.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import ops
import spans


def numpy_version() -> str:
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return "absent"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--expected", type=Path, default=Path(__file__).with_name("expected.json"))
    args = parser.parse_args(argv)

    # set-up: the imports every workload needs, then the expected outputs
    import repro.fuzz.campaign  # noqa: F401
    import repro.harness.experiments  # noqa: F401
    import repro.harness.parallel  # noqa: F401

    expected = json.loads(args.expected.read_text())
    rec = spans.Recorder(args.out / "procs", tracing=args.trace)
    spans.install(rec)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with tempfile.TemporaryDirectory(prefix="perfbench-") as tmp:
        start = time.perf_counter()
        outcome = ops.run(args.workload, args.seed, Path(tmp), lambda: rec.cycles)
        wall_s = time.perf_counter() - start
    rec.flush()
    outcome = ops.digests(outcome)

    counters = spans.read_counters(args.out / "procs")
    failures = ops.check(args.workload, outcome, counters["cycles"], expected)

    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "cycles": counters["cycles"],
                "runs_digest": counters["runs_digest"],
                "rss_kb": counters["rss_kb"],
                "ops": {op["id"]: op["digest"] for op in outcome},
                "attempted": len(outcome),
                "op_errors": [op["id"] for op in outcome if op["error"]],
                "failures": failures,
                "env": {
                    "python": platform.python_version(),
                    "numpy": numpy_version(),
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
