"""Benchmark of the whole control-independence study, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload study --seed 1 --seconds 20 --trace 0

Workloads: ``study`` (all registered experiments x 5 kernels, serial),
``study-pool`` (the same grid on a 2-process pool), ``wide-window``
(BASE/CI at windows 1024-4096) and ``fuzz`` (a seeded differential
campaign over the 17 non-twin machines).  See perfbench/README.md.

Each repetition runs in a fresh interpreter (``rep.py``) with every
``REPRO_*`` knob cleared, so the artifact cache starts cold.  Set-up is
sampled several times and reported as a median; repetitions of the
timed region continue while another one fits in ``--seconds``.  With
``--trace 1`` one more, traced, repetition follows and the per-layer
metrics are reported instead of the end-to-end ones.

Human-readable lines go to stdout first; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Every
result is also appended to ``.perfbench/results.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ops
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: set-up samples per run (fresh interpreters that stop before the timed
#: region), half before the repetitions and half after, so their median
#: spans the run rather than the host's speed in its first seconds
SETUP_SAMPLES = 8

#: a run ends (and reports) within this many seconds
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_kcycles_per_s": "kcycles/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.sequencer.self_s": "s",
    "core.issue.self_s": "s",
    "core.complete.self_s": "s",
    "core.retire.self_s": "s",
    "core.run.self_s": "s",
    "core.us_per_cycle": "us",
    "core.cycles": "count",
    "core.construct.self_s": "s",
    "core.runs": "count",
    "core.distinct_share": "ratio",
    "core.dup_cycle_share": "ratio",
    "ideal.schedule.self_s": "s",
    "ideal.annotate.self_s": "s",
    "cache.derive_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "spec.row.self_s": "s",
    "runner.checkpoint.self_s": "s",
    "runner.checkpoint.calls": "count",
    "pool.prewarm_s": "s",
    "pool.worker_busy_s": "s",
    "pool.idle_share": "ratio",
    "pool.disk_hits": "count",
    "fuzz.generate.self_s": "s",
    "functional.reference.self_s": "s",
    "analysis.invariants.self_s": "s",
    "host.gc_s": "s",
    "trace.overhead_share": "ratio",
}


class RepFailed(Exception):
    """A repetition exited abnormally or ran past the deadline."""


def pinned_env(tree: Path, tmpdir: Path) -> dict:
    """The repetition's environment: no ``REPRO_*`` knob (REPRO_BATCH,
    REPRO_ORDER, REPRO_SOA, REPRO_JOBS, REPRO_CACHE_DIR, REPRO_CACHE_SIZE,
    REPRO_SANITIZE...), ``tree``'s sources, a fixed hash seed and a
    temporary directory inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(tree / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmpdir)
    return env


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a repetition's process group and wait
    until it is gone (pool workers are grandchildren, reaped by init)."""
    for _ in range(200):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise RepFailed(f"process group {pgid} survived SIGKILL")


def spawn(args: list[str], tree: Path, out: Path, deadline: float) -> dict:
    """Run one ``rep.py`` in a fresh interpreter; return its JSON line."""
    out.mkdir(parents=True, exist_ok=True)
    tmp = out / "tmpdir"
    tmp.mkdir(exist_ok=True)
    cmd = [sys.executable, str(BENCH / "rep.py"), "--out", str(out), "--t0", repr(time.monotonic()), *args]
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=pinned_env(tree, tmp),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _reap_group(proc.pid)
        proc.communicate()
        raise RepFailed(f"repetition {args} ran past the deadline") from None
    _reap_group(proc.pid)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"repetition {args} exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(lines[-1])


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(reps: list[dict], setups: list[float]) -> dict:
    return {
        "setup_s": median(setups),
        "wall_s": median([r["wall_s"] for r in reps]),
        "sim_kcycles_per_s": median([r["cycles"] / r["wall_s"] / 1e3 for r in reps]),
        "peak_rss_mb": median([r["rss_kb"] / 1024 for r in reps]),
    }


def per_layer(workload: str, folded: dict, traced: dict, untraced_wall: float) -> dict:
    totals = folded["totals"]

    def self_s(name: str) -> float:
        return totals[name]["self_s"]

    seen: set = set()
    dup_cycles = total_cycles = 0
    for key, cycles in folded["run_keys"]:
        total_cycles += cycles
        if key in seen:
            dup_cycles += cycles
        seen.add(key)
    runs = len(folded["run_keys"])
    cycles = folded["cycles"]
    jobs = ops.JOBS[workload]
    return {
        "core.sequencer.self_s": self_s("core.sequencer"),
        "core.issue.self_s": self_s("core.issue"),
        "core.complete.self_s": self_s("core.complete"),
        "core.retire.self_s": self_s("core.retire"),
        "core.run.self_s": self_s("core.run"),
        "core.us_per_cycle": totals["core.run"]["dur_s"] / cycles * 1e6 if cycles else 0.0,
        "core.cycles": cycles,
        "core.construct.self_s": self_s("core.construct"),
        "core.runs": runs,
        "core.distinct_share": len(seen) / runs if runs else 0.0,
        "core.dup_cycle_share": dup_cycles / total_cycles if total_cycles else 0.0,
        "ideal.schedule.self_s": self_s("ideal.schedule"),
        "ideal.annotate.self_s": self_s("ideal.annotate"),
        "cache.derive_s": sum(self_s(n) for n in ("derive.build", "derive.golden", "derive.reconv")),
        "cache.hits": folded["cache_hits"],
        "cache.misses": folded["cache_misses"],
        "spec.row.self_s": self_s("spec.row"),
        "runner.checkpoint.self_s": self_s("runner.checkpoint"),
        "runner.checkpoint.calls": totals["runner.checkpoint"]["calls"],
        "pool.prewarm_s": totals["pool.prewarm"]["dur_s"],
        "pool.worker_busy_s": folded["worker_busy_s"],
        "pool.idle_share": (
            1.0 - folded["worker_busy_s"] / (jobs * traced["wall_s"]) if jobs > 1 else 0.0
        ),
        "pool.disk_hits": folded["pool_disk_hits"],
        "fuzz.generate.self_s": self_s("fuzz.generate"),
        "functional.reference.self_s": self_s("functional.reference"),
        "analysis.invariants.self_s": self_s("analysis.invariants"),
        "host.gc_s": folded["gc_s"],
        "trace.overhead_share": (traced["wall_s"] - untraced_wall) / untraced_wall,
    }


def trace_checks(traced: dict, untraced: dict, folded: dict) -> list[str]:
    """Tracing must be golden-neutral and the phases must account for
    every ``core.run`` span."""
    problems = [
        f"{op_id}: traced digest {traced['ops'].get(op_id)} != untraced {value}"
        for op_id, value in untraced["ops"].items()
        if traced["ops"].get(op_id) != value
    ]
    for field in ("cycles", "runs_digest"):
        if traced[field] != untraced[field]:
            problems.append(f"traced {field} {traced[field]} != untraced {untraced[field]}")
    if folded["stray_run_children"]:
        problems.append(f"{folded['stray_run_children']} non-phase spans inside core.run")
    if folded["min_self_s"] < -1e-6:
        problems.append(f"a span's children outlast it by {-folded['min_self_s']:.2e} s")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tree", type=Path, default=ROOT,
        help="repository whose src/ is measured (default: this checkout)",
    )
    parser.add_argument("--expected", type=Path, default=BENCH / "expected.json")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    tree = args.tree.resolve()
    if not (tree / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {tree / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if not args.expected.is_file():
        print(f"perfbench: expected outputs {args.expected} missing", file=sys.stderr)
        return 2

    state = ROOT / ".perfbench"
    work = state / "runs" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--expected", str(args.expected.resolve())]

    def sample_setups(first: int, count: int) -> list[float]:
        return [
            spawn([*common, "--setup-only"], tree, work / f"setup{i}", deadline)["setup_s"]
            for i in range(first, first + count)
        ]

    try:
        setups = sample_setups(0, SETUP_SAMPLES // 2)
        reps: list[dict] = []
        measured = 0.0
        while True:
            t0 = time.monotonic()
            reps.append(spawn(common, tree, work / f"rep{len(reps)}", deadline))
            last = time.monotonic() - t0
            measured += last
            budget_left = deadline - time.monotonic() - (last * 1.5 if args.trace else 0.0)
            if measured + last > args.seconds or last > budget_left:
                break
        setups += sample_setups(SETUP_SAMPLES // 2, SETUP_SAMPLES - SETUP_SAMPLES // 2)
        setups += [r["setup_s"] for r in reps]
        traced = None
        if args.trace:
            traced = spawn([*common, "--trace"], tree, work / "traced", deadline)
    except RepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        return 1

    failures = [f for r in reps for f in r["failures"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(min(r["attempted"], len(r["failures"])) for r in reps)
    baseline = reps[0]
    for r in reps[1:]:
        if (r["ops"], r["cycles"], r["runs_digest"]) != (baseline["ops"], baseline["cycles"], baseline["runs_digest"]):
            failures.append("repetitions of the same inputs disagree")
            failed += 1

    if traced is not None:
        folded = spans.fold(work / "traced" / "procs")
        problems = traced["failures"] + trace_checks(traced, baseline, folded)
        failures += problems
        attempted += traced["attempted"]
        failed += min(traced["attempted"], len(problems))
        metrics = per_layer(args.workload, folded, traced, median([r["wall_s"] for r in reps]))
        units = PER_LAYER
        kept = state / "trace" / args.workload
        shutil.rmtree(kept, ignore_errors=True)
        kept.parent.mkdir(parents=True, exist_ok=True)
        shutil.move(str(work / "traced" / "procs"), str(kept))
    else:
        metrics = end_to_end(reps, setups)
        units = END_TO_END
    shutil.rmtree(work, ignore_errors=True)

    env = {
        **baseline["env"],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "repetitions": len(reps),
        "setup_samples": len(setups),
        "tree": str(tree),
    }
    print(f"perfbench {args.workload}: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    print(f"  {'fail_share':<28} {failed / attempted:>14.6g} ratio ({failed}/{attempted} ops)")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    state.mkdir(exist_ok=True)
    with open(state / "results.jsonl", "a") as fh:
        fh.write(json.dumps({**result, "env": env, "failures": failures,
                             "reps": [{k: r[k] for k in ("setup_s", "wall_s", "cycles", "rss_kb")} for r in reps]}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
