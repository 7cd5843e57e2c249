"""The four benchmark workloads: their timed bodies and their checks.

Every workload returns a list of *ops*, one per unit a user would call
a result: a study cell, a wide-window cell or a fuzz case.  Each op
carries an id, what it produced (``None`` for fuzz cases, whose inputs
come from the seed) and an error text when it failed on its own terms
(error row, exception, non-clean fuzz case).  Digesting the values
(:func:`digests`) and checking them against the committed expected
outputs (:func:`check`) happen outside the timed region.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable

from spans import digest

#: scale of both study workloads (every registered experiment, 5 kernels)
STUDY_SCALE = 0.05

#: the wide-window grid: detailed machines past the paper's windows
WIDE_SCALE = 0.3
WIDE_KERNELS = ("gcc", "go", "compress")
WIDE_MACHINES = ("BASE", "CI")
WIDE_WINDOWS = (1024, 2048, 4096)

#: detailed-core cycles a fuzz run simulates: cases are added one at a
#: time (resuming the campaign's checkpoint) until the seeded cases have
#: simulated this many, so every seed does about the same core work
FUZZ_CYCLES = 90_000

#: every registry machine that is not an execution-strategy twin
#: (``@batch``/``@v1``), pinned so removing a twin keeps this workload
FUZZ_MACHINES = (
    "BASE",
    "CI",
    "CI-I",
    "CI/return",
    "CI/loop",
    "CI/ltb",
    "CI/return/loop",
    "CI/return/ltb",
    "CI/loop/ltb",
    "CI/return/loop/ltb",
    "ideal/oracle",
    "ideal/nWR-nFD",
    "ideal/nWR-FD",
    "ideal/WR-nFD",
    "ideal/WR-FD",
    "ideal/base",
    "functional",
)

WORKLOADS = ("study", "study-pool", "wide-window", "fuzz")

#: the workloads BENCHMARK.json lists; ``fuzz`` is left out because some
#: seeds generate a case on which CI or CI-I fails cosimulation (a
#: simulator bug, see README.md), and a listed workload must be correct
#: on every seed
LISTED = ("study", "study-pool", "wide-window")

#: pool size of each workload (1 = in-process)
JOBS = {"study": 1, "study-pool": 2, "wide-window": 1, "fuzz": 1}

#: workloads whose per-op digests are committed in expected.json, and
#: the expected-output section each one is checked against
EXPECTED_SECTION = {"study": "study", "study-pool": "study", "wide-window": "wide-window"}


def _op(op_id: str, value=None, error: str | None = None) -> dict:
    return {"id": op_id, "value": value, "error": error}


def digests(ops: list[dict]) -> list[dict]:
    """Replace each op's value with its digest."""
    return [
        {"id": op["id"], "digest": None if op["value"] is None else digest(op["value"]), "error": op["error"]}
        for op in ops
    ]


def run_study_ops(tmp: Path, jobs: int) -> list[dict]:
    from repro.harness.experiments import run_study

    out = run_study(scale=STUDY_SCALE, jobs=jobs, checkpoint_path=tmp / "study-checkpoint.json")
    # A cell key starts with "<experiment>/<workload>/", as the op id does.
    failed = {
        "/".join(result.key.split("/")[:2]): f"{result.error_type}: {result.error}"
        for result in out["failures"]
    }
    return [
        _op(f"{experiment}/{workload}", row, failed.get(f"{experiment}/{workload}"))
        for experiment, rows in out["results"].items()
        for workload, row in rows.items()
    ]


def run_wide_ops() -> list[dict]:
    from repro.harness.spec import load_bundle
    from repro.machines import get_machine

    ops = []
    for window in WIDE_WINDOWS:
        for kernel in WIDE_KERNELS:
            bundle = load_bundle(kernel, WIDE_SCALE)
            for name in WIDE_MACHINES:
                op_id = f"{window}/{kernel}/{name}"
                try:
                    stats = get_machine(name).simulate(bundle, overrides={"window_size": window})
                except Exception as exc:  # noqa: BLE001 — a failed op, reported
                    ops.append(_op(op_id, error=f"{type(exc).__name__}: {exc}"))
                    continue
                ops.append(_op(op_id, dataclasses.asdict(stats)))
    return ops


def run_fuzz_ops(seed: int, tmp: Path, cycles: Callable[[], int]) -> list[dict]:
    from repro.fuzz.campaign import CampaignConfig, run_campaign

    checkpoint = str(tmp / "fuzz-checkpoint.json")
    start = cycles()
    cases = 0
    while cycles() - start < FUZZ_CYCLES:
        cases += 1
        # A divergent case still fails its op; shrinking it to a minimal
        # reproducer is triage that can take minutes, so it is left out.
        report = run_campaign(
            CampaignConfig(
                seed=seed,
                cases=cases,
                machines=FUZZ_MACHINES,
                jobs=1,
                checkpoint_path=checkpoint,
                shrink=False,
            )
        )
    return [
        _op(key, error=None if status == "clean" else status)
        for key, status in report["statuses"].items()
    ]


def run(workload: str, seed: int, tmp: Path, cycles: Callable[[], int]) -> list[dict]:
    """The timed region of one workload; ``cycles`` reads the simulated
    cycle counter of this process."""
    if workload in ("study", "study-pool"):
        return run_study_ops(tmp, jobs=JOBS[workload])
    if workload == "wide-window":
        return run_wide_ops()
    if workload == "fuzz":
        return run_fuzz_ops(seed, tmp, cycles)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def check(workload: str, ops: list[dict], cycles: int, expected: dict) -> list[str]:
    """Failures among ``ops``: error ops, and digests or a cycle total
    that differ from the committed expected outputs."""
    failures = [f"{op['id']}: {op['error']}" for op in ops if op["error"]]
    section = EXPECTED_SECTION.get(workload)
    if section is None:
        return failures
    want = expected[section]
    got = {op["id"]: op["digest"] for op in ops if not op["error"]}
    for op_id, value in want["ops"].items():
        if op_id in got and got[op_id] != value:
            failures.append(f"{op_id}: digest {got[op_id]} != expected {value}")
    missing = set(want["ops"]) - {op["id"] for op in ops}
    failures += [f"{op_id}: missing" for op_id in sorted(missing)]
    extra = {op["id"] for op in ops} - set(want["ops"])
    failures += [f"{op_id}: not in expected outputs" for op_id in sorted(extra)]
    if cycles != want["cycles"]:
        failures.append(f"simulated cycles {cycles} != expected {want['cycles']}")
    return failures
