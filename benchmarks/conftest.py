"""Shared configuration for the paper-claims suite.

``test_paper_claims.py`` regenerates every table and figure from the
paper through :func:`repro.harness.run_study` at a reduced workload
scale (override with REPRO_BENCH_SCALE / the window list with
REPRO_BENCH_WINDOWS), prints each artifact paper-style and checks the
paper's claims over it.  EXPERIMENTS.md records a full-scale run next
to the paper's numbers.

Environment knobs (validated at collection time, with errors naming the
variable and the accepted format):

* ``REPRO_BENCH_SCALE`` — positive float, detailed-core workload scale
  (default 0.12).
* ``REPRO_BENCH_IDEAL_SCALE`` — positive float, idealized-study scale
  (default 0.4).
* ``REPRO_BENCH_WINDOWS`` — comma-separated positive ints, window-sweep
  sizes (default ``128,256``).
* ``REPRO_BENCH_TIMEOUT`` — positive float seconds; wall-clock budget
  of each study cell (one artifact on one workload), enforced by the
  study's cell runner, which retries a timed-out cell like any other
  transient failure (default 1800; ``0`` disables).
* ``REPRO_JOBS`` — study worker processes (int or ``auto``; default 1).
* ``REPRO_CACHE_DIR`` — optional directory for the shared artifact
  cache's disk layer: golden traces and reconvergence tables derived by
  one artifact (or an earlier run) are reloaded instead of re-traced,
  at every job count.  Entries are content-addressed, so editing a
  kernel invalidates them automatically.
* ``REPRO_CACHE_SIZE`` — positive int; in-memory artifact LRU bound
  (default 32).

Within one session the in-memory layer alone already de-duplicates: all
artifacts at the same scale share a single golden trace per workload
via ``repro.harness.load_bundle``.
"""

import functools
import math
import os

import pytest

from repro.errors import CacheError
from repro.harness import run_study
from repro.harness.cache import get_default_cache
from repro.harness.spec import CellRow, assemble_rows, get_spec


def _env_float(name: str, default: str, description: str) -> float:
    raw = os.environ.get(name, default)
    try:
        value = float(raw)
    except ValueError:
        raise pytest.UsageError(
            f"{name}={raw!r} is not a valid number; expected a positive "
            f"float such as {name}={default} ({description})"
        ) from None
    if not math.isfinite(value) or value < 0:
        raise pytest.UsageError(
            f"{name}={raw!r} must be a finite non-negative number "
            f"({description})"
        )
    return value


def _env_scale(name: str, default: str, description: str) -> float:
    value = _env_float(name, default, description)
    if value == 0:
        raise pytest.UsageError(
            f"{name}=0 is not a usable scale; expected a positive float "
            f"such as {name}={default} ({description})"
        )
    return value


def _env_windows(name: str, default: str) -> tuple:
    raw = os.environ.get(name, default)
    windows = []
    for token in raw.split(","):
        token = token.strip()
        try:
            window = int(token)
        except ValueError:
            raise pytest.UsageError(
                f"{name}={raw!r} is malformed: {token!r} is not an integer; "
                f"expected comma-separated positive window sizes such as "
                f"{name}={default}"
            ) from None
        if window < 1:
            raise pytest.UsageError(
                f"{name}={raw!r} is malformed: window sizes must be >= 1; "
                f"expected e.g. {name}={default}"
            )
        windows.append(window)
    if not windows:
        raise pytest.UsageError(
            f"{name}={raw!r} names no window sizes; expected e.g. "
            f"{name}={default}"
        )
    return tuple(windows)


#: scale for detailed-core experiments (the slow ones)
CORE_SCALE = _env_scale(
    "REPRO_BENCH_SCALE", "0.12", "detailed-core workload scale"
)
#: scale for idealized-study and trace-driven experiments
IDEAL_SCALE = _env_scale(
    "REPRO_BENCH_IDEAL_SCALE", "0.4", "idealized-study workload scale"
)
#: window sizes for the window sweeps
WINDOWS = _env_windows("REPRO_BENCH_WINDOWS", "128,256")
#: wall-clock budget per study cell, seconds (0 disables)
BENCH_TIMEOUT = _env_float(
    "REPRO_BENCH_TIMEOUT", "1800", "per-cell wall-clock budget in seconds"
)

# Build the artifact cache now so REPRO_CACHE_DIR / REPRO_CACHE_SIZE
# problems surface as collection errors naming the variable, not as a
# mid-suite crash inside the first benchmark.
try:
    ARTIFACT_CACHE = get_default_cache()
except CacheError as exc:
    raise pytest.UsageError(str(exc)) from None


@pytest.fixture(scope="session")
def windows():
    return WINDOWS


#: each artifact's study scale and builder knobs (others: CORE_SCALE)
STUDY_PARAMS = {
    "table1": (IDEAL_SCALE, {}),
    "figure3": (IDEAL_SCALE, {"windows": WINDOWS}),
    "figure5": (CORE_SCALE, {"windows": WINDOWS}),
}


@functools.cache
def study_artifact(name: str):
    """One artifact over every workload through ``run_study``, in the
    shape ``run_spec`` returns; any failed cell fails the test."""
    scale, params = STUDY_PARAMS.get(name, (CORE_SCALE, {}))
    out = run_study(
        [name], scale=scale, timeout_seconds=BENCH_TIMEOUT or None, **params
    )
    if out["failures"]:
        pytest.fail(
            f"{name}: {len(out['failures'])} study cell(s) failed:\n"
            + "\n".join(
                f"  {r.key}: {r.error_type}: {r.error}" for r in out["failures"]
            )
        )
    rows = [
        CellRow(name, workload, data)
        for workload, data in out["results"][name].items()
    ]
    return assemble_rows(get_spec(name), rows)
