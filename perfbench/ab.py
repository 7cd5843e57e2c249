"""Interleaved same-host A/B of two source trees with this benchmark.

Run from the repository root, e.g. against a checkout of the parent
commit made with ``git worktree add ../parent HEAD~1``::

    python3 perfbench/ab.py --a ../parent --b . --pairs 10 \
        --workloads study wide-window

Both sides run the same benchmark code (this directory) with ``--tree``
pointing at each side's ``src/``, for the ``run_seconds`` that
``BENCHMARK.json`` sets.  Pair ``i`` uses seed ``seed0 + i``
on both sides and alternates which side runs first, so host drift hits
both sides alike.  For every workload x end-to-end metric it reports
each side's median and quartiles, the B/A ratio of medians and B's win
fraction over the pairs (ties count for neither).  A gain is claimed
only when B wins at least 90% of pairs and the medians differ by more
than A's own quartile spread.  The full record goes to
``.perfbench/ab-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ops
import run


def bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(run.BENCH / "run.py"),
            "--tree", str(tree), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{tree} {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(a: list[float], b: list[float], lower_is_better: bool) -> dict:
    def quartiles(values):
        q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        return {"median": statistics.median(values), "q1": q1, "q3": q3}

    wins = sum((y < x) if lower_is_better else (y > x) for x, y in zip(a, b))
    losses = sum((y > x) if lower_is_better else (y < x) for x, y in zip(a, b))
    qa, qb = quartiles(a), quartiles(b)
    gain = (qb["median"] < qa["median"]) if lower_is_better else (qb["median"] > qa["median"])
    return {
        "a": qa,
        "b": qb,
        "ratio_b_over_a": qb["median"] / qa["median"] if qa["median"] else float("nan"),
        "win_fraction": wins / len(a),
        "loss_fraction": losses / len(a),
        "claim_gain": gain
        and wins >= 0.9 * len(a)
        and abs(qb["median"] - qa["median"]) > qa["q3"] - qa["q1"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", type=Path, required=True, help="reference tree")
    parser.add_argument("--b", type=Path, required=True, help="changed tree")
    parser.add_argument("--workloads", nargs="+", choices=ops.WORKLOADS, default=list(ops.LISTED))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1000)
    args = parser.parse_args(argv)
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    lower = {m["name"]: m["better"] == "lower" for m in manifest["end_to_end"]}
    sides = {"a": args.a.resolve(), "b": args.b.resolve()}

    samples = {w: {"a": [], "b": []} for w in args.workloads}
    for pair in range(args.pairs):
        order = ("a", "b") if pair % 2 == 0 else ("b", "a")
        for workload in args.workloads:
            for side in order:
                result = bench(sides[side], workload, args.seed0 + pair, manifest["run_seconds"])
                if not result["correct"]:
                    print(f"warning: side {side} {workload} pair {pair} reported failed ops")
                samples[workload][side].append(result)
        print(f"pair {pair + 1}/{args.pairs} done ({'/'.join(order)})", flush=True)

    report = {"sides": {k: str(v) for k, v in sides.items()}, "pairs": args.pairs, "rows": []}
    print(f"{'workload':<12} {'metric':<18} {'A median [q1,q3]':>30} {'B median [q1,q3]':>30} {'B/A':>7} {'B wins':>7} gain")
    for workload, by_side in samples.items():
        for metric in run.END_TO_END:
            values = {s: [r["metrics"][metric]["value"] for r in by_side[s]] for s in sides}
            row = summarize(values["a"], values["b"], lower.get(metric, True))
            report["rows"].append({"workload": workload, "metric": metric, **row, "values": values})

            def fmt(q):
                return f"{q['median']:.4g} [{q['q1']:.4g},{q['q3']:.4g}]"

            print(
                f"{workload:<12} {metric:<18} {fmt(row['a']):>30} {fmt(row['b']):>30} "
                f"{row['ratio_b_over_a']:>7.3f} {row['win_fraction']:>7.2f} {'yes' if row['claim_gain'] else 'no'}"
            )
    out = run.ROOT / ".perfbench" / f"ab-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
