#!/usr/bin/env python3
"""Run a study grid on a process pool and print its results.

Fans the experiments × workloads grid across worker processes and
prints the assembled results as JSON; rows are byte-identical to a
serial ``run_study`` (``tests/test_parallel.py`` checks it).

Usage:
    python parallel_study.py --jobs 4
    python parallel_study.py --jobs auto --experiments figure3 figure5 --scale 0.12
    python parallel_study.py --jobs 4 --checkpoint study.json
    python parallel_study.py --list
    python parallel_study.py --only figure5:vortex --only figure10

``--jobs`` defaults to the REPRO_JOBS environment variable (else 1);
``--cache-dir`` persists the content-addressed golden-trace cache
across runs (otherwise a per-study temporary directory is used).
``--list`` enumerates every registered spec with its cells and exits;
``--only EXPERIMENT[:WORKLOAD]`` (repeatable) restricts the grid to a
subset of study cells, so partial reruns don't need code edits.
"""

import argparse
import json
from pathlib import Path

from repro.harness.experiments import EXPERIMENTS, parse_only, validate_experiments
from repro.harness.parallel import resolve_jobs, run_study_parallel
from repro.harness.spec import get_spec, spec_names
from repro.workloads import WORKLOAD_NAMES


def list_specs() -> None:
    """Print every registered artifact with its cells and workloads."""
    for name in spec_names():
        spec = get_spec(name)
        print(f"{name:10s} {spec.artifact:9s} scale={spec.default_scale:<5g} "
              f"{spec.title}")
        if spec.derives is not None:
            print(f"{'':10s} derived from {spec.derives!r} "
                  f"via transform {spec.transform!r}")
        else:
            labels = ", ".join(spec.cell_labels())
            print(f"{'':10s} cells: {labels}")
        print(f"{'':10s} workloads: {', '.join(spec.workloads)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Parallel study execution with golden-trace caching"
    )
    parser.add_argument(
        "--jobs", default=None,
        help="worker processes: a positive int or 'auto' (default: $REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--experiments", nargs="+", default=["figure3", "figure5"],
        metavar="EXP", help=f"experiments to run (from {sorted(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--names", nargs="+", default=list(WORKLOAD_NAMES), metavar="WORKLOAD",
        help="workloads to run (default: all five)",
    )
    parser.add_argument("--scale", type=float, default=0.12,
                        help="workload scale (default 0.12)")
    parser.add_argument("--checkpoint", type=Path, default=None,
                        help="checkpoint file for resumable runs")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="persistent artifact-cache directory")
    parser.add_argument(
        "--list", action="store_true",
        help="enumerate registered specs/cells and exit",
    )
    parser.add_argument(
        "--only", action="append", default=None, metavar="EXPERIMENT[:WORKLOAD]",
        help="restrict the grid to matching study cells (repeatable)",
    )
    args = parser.parse_args(argv)

    if args.list:
        list_specs()
        return 0

    if args.only:
        # Selectors define the experiment set; --experiments is ignored
        # so `--only figure10:go` alone reruns exactly one cell.
        chosen = validate_experiments(
            list(dict.fromkeys(exp for exp, _ in parse_only(args.only)))
        )
    else:
        chosen = validate_experiments(args.experiments)
    jobs = resolve_jobs(args.jobs)
    names = tuple(args.names)
    grid = len(chosen) * len(names)
    shown = f"= {grid} cells" if not args.only else f"-> only {args.only}"
    print(f"grid: {len(chosen)} experiments x {len(names)} workloads "
          f"{shown}, scale {args.scale}, jobs {jobs}")

    out = run_study_parallel(
        experiments=chosen, scale=args.scale, names=names, jobs=jobs,
        checkpoint_path=args.checkpoint, cache_dir=args.cache_dir,
        only=args.only,
    )
    print(f"{out['resumed']} resumed, {len(out['failures'])} failed cells")
    print(json.dumps(out["results"], indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
