"""Show that the benchmark's checks can fail.

Run from the repository root (about 20 s)::

    python3 perfbench/selftest.py

1. ``BENCHMARK.json`` names exactly the workloads and metrics the code
   produces, with the same units.
2. A tampered expected digest makes a run report ``correct: false`` and
   a ``fail_share`` above 0 (one ``wide-window`` cell is tampered).
3. A tree without simulator sources makes the benchmark exit non-zero
   without printing a result.
"""

from __future__ import annotations

import json
import subprocess
import sys

import ops
import run


def check_manifest() -> list[str]:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in manifest["workloads"]] != list(ops.LISTED):
        problems.append("BENCHMARK.json workloads differ from ops.LISTED")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in manifest[key]}
        if listed != table:
            problems.append(f"BENCHMARK.json {key} differs from the metrics run.py prints")
    return problems


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--seed", "0", "--seconds", "1", "--trace", "0", *args],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )


def check_tampered_digest() -> list[str]:
    expected = json.loads((run.BENCH / "expected.json").read_text())
    op_id = sorted(expected["wide-window"]["ops"])[0]
    expected["wide-window"]["ops"][op_id] = "0" * 20
    work = run.ROOT / ".perfbench" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    tampered = work / "tampered-expected.json"
    tampered.write_text(json.dumps(expected))
    proc = bench("--workload", "wide-window", "--expected", str(tampered))
    if proc.returncode != 0:
        return [f"tampered run exited {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["correct"] or result["failed"] < 1:
        return [f"a tampered digest for {op_id} went unnoticed: {result}"]
    return []


def check_no_sources() -> list[str]:
    empty = run.ROOT / ".perfbench" / "selftest" / "empty-tree"
    empty.mkdir(parents=True, exist_ok=True)
    proc = bench("--workload", "study", "--tree", str(empty))
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"a tree without sources gave exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    problems = []
    for check in (check_manifest, check_tampered_digest, check_no_sources):
        found = check()
        print(f"{check.__name__}: {'FAIL' if found else 'ok'}")
        problems += found
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
