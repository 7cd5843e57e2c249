"""Resumable cell scheduler: run a keyed grid in-process or on a pool.

The paper's study is a grid of cells (experiments × workloads) and a
fuzz campaign is a list of cases; both are keyed
:class:`~repro.harness.runner.Cell` s that share nothing but read-only
workload artifacts.  :func:`schedule_cells` is the one driver both
:func:`repro.harness.experiments.run_study` and
:func:`repro.fuzz.campaign.run_campaign` call:

* **checkpoint resume** — cells already in the
  :class:`~repro.harness.runner.CheckpointStore` are served from it
  before anything runs, so a resumed grid only pays for unfinished
  cells and a fully resumed one builds no pool.  This process is the
  only checkpoint writer (workers return results; the parent records
  each success as it lands), so no cross-process file locking is
  needed.
* **job count** — ``jobs == 1`` runs the cells in-process, recording
  each one as soon as it finishes; more fans them across a
  :class:`concurrent.futures.ProcessPoolExecutor` through
  :func:`map_resilient`, which survives worker death and honours a
  wall-clock :class:`~repro.harness.runner.Deadline`.
  :func:`resolve_jobs` turns a ``jobs`` argument or ``REPRO_JOBS`` into
  a count.
* **process-safe timeouts** — every cell runs through a
  :class:`~repro.harness.runner.CellRunner` in the process that
  executes it, which enforces the per-cell budget via
  :func:`~repro.harness.runner.call_with_timeout` (SIGALRM on that
  process's main thread, a thread-join deadline elsewhere), so no timer
  ever crosses a process boundary.
* **once-per-study tracing** — given a ``cache_dir``, the parent
  derives every pending workload's golden trace and reconvergence table
  into that disk-backed :class:`~repro.harness.cache.ArtifactCache`
  before pool dispatch and the workers load them from it, so the
  expensive artifacts are derived once per (program, history_bits) per
  study instead of once per cell per worker.

Results are keyed by cell and callers assemble them in their own
deterministic order, so rows are byte-identical at every job count.
"""

from __future__ import annotations

import functools
import logging
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..errors import ConfigError
from .cache import ArtifactCache, configure_default_cache, default_cache_at
from .runner import Cell, CellResult, CellRunner, CheckpointStore, Deadline, RunnerConfig

_log = logging.getLogger(__name__)


def resolve_jobs(jobs: int | str | None = None, env=os.environ) -> int:
    """Resolve a worker count from an argument or ``REPRO_JOBS``.

    Accepts a positive integer or ``"auto"`` (CPU count, clamped to 1 —
    i.e. serial — on a single-CPU host, where pool workers only add
    fork/pickle overhead).  Invalid values raise
    :class:`~repro.errors.ConfigError` naming the source.
    """
    source = "jobs"
    raw: Any = jobs
    if raw is None:
        source = "REPRO_JOBS"
        raw = env.get("REPRO_JOBS", "1")
    if isinstance(raw, str) and raw.strip().lower() == "auto":
        cpus = os.cpu_count() or 1
        if cpus <= 1:
            _log.info(
                "%s='auto' on a single-CPU host: clamping to serial "
                "(a process pool would add overhead without parallelism)",
                source,
            )
            return 1
        _log.info("%s='auto' resolved to %d workers", source, cpus)
        return cpus
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise ConfigError(
            f"{source}={raw!r} is not a job count; expected a positive "
            f"integer or 'auto'"
        )
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{source}={raw!r} is not a job count; expected a positive "
            f"integer or 'auto'"
        ) from None
    if value < 1:
        raise ConfigError(f"{source}={raw!r} must be >= 1 (or 'auto')")
    return value


# ----------------------------------------------------------------------
# Crash-resilient windowed dispatch


#: outcome tags yielded by :func:`map_resilient`
OUTCOME_OK = "ok"
OUTCOME_ERROR = "error"  # the task raised (picklable) inside the worker
OUTCOME_CRASHED = "crashed"  # its worker process died while it was in flight
OUTCOME_SKIPPED = "skipped"  # never dispatched: the deadline expired first

_BUDGET_EXPIRED = "wall-clock budget expired before dispatch"


def map_resilient(
    fn: Callable,
    tasks: Sequence[tuple],
    jobs: int,
    *,
    initializer: Callable | None = None,
    initargs: tuple = (),
    deadline: Deadline | None = None,
    on_result: Callable[[int, tuple], None] | None = None,
) -> list[tuple]:
    """Run ``fn(*tasks[i])`` across a process pool, surviving worker death.

    An abrupt worker kill (OOM killer, segfaulting C extension, operator
    ``kill -9``) breaks a :class:`ProcessPoolExecutor` *permanently*:
    every queued future fails with :class:`BrokenProcessPool` and a naive
    ``as_completed`` loop loses the whole remaining study.  This helper
    instead:

    * **windows submissions** — at most ``2 * jobs`` tasks are in flight,
      so a pool breakage can only take down the tasks actually being
      executed, never the long tail still queued in the parent;
    * **classifies the blast radius** — in-flight tasks at the moment of
      breakage become ``("crashed", message)`` outcomes (the dead worker
      cannot tell us which of them killed it, so all are reported);
    * **resumes the rest** — a fresh pool is built and the remaining
      tasks continue as if nothing happened;
    * **honours a wall-clock budget** — with ``deadline``, tasks that
      were never dispatched when it expires become ``("skipped", ...)``
      outcomes, so a budgeted campaign ends cleanly and resumably.

    Returns one ``(tag, payload)`` outcome per task, in task order:
    ``("ok", value)``, ``("error", exception)``, ``("crashed", message)``
    or ``("skipped", message)``.  ``on_result`` is invoked as each
    outcome lands (in completion order) for incremental checkpointing.
    """
    outcomes: list[tuple | None] = [None] * len(tasks)
    pending: list[int] = list(range(len(tasks)))[::-1]  # pop() from the front

    def settle(index: int, outcome: tuple) -> None:
        outcomes[index] = outcome
        if on_result is not None:
            on_result(index, outcome)

    while pending:
        if deadline is not None and deadline.expired():
            while pending:
                settle(pending.pop(), (OUTCOME_SKIPPED, _BUDGET_EXPIRED))
            break
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(pending)),
            initializer=initializer,
            initargs=initargs,
        )
        inflight: dict = {}
        broke = False
        try:
            while pending or inflight:
                while (
                    pending
                    and len(inflight) < 2 * jobs
                    and not (deadline is not None and deadline.expired())
                ):
                    index = pending.pop()
                    inflight[pool.submit(fn, *tasks[index])] = index
                if not inflight:
                    break  # deadline expired with nothing running
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for future in done:
                    index = inflight.pop(future)
                    try:
                        settle(index, (OUTCOME_OK, future.result()))
                    except BrokenProcessPool as exc:
                        broke = True
                        settle(
                            index,
                            (
                                OUTCOME_CRASHED,
                                "worker process died abruptly while this task "
                                f"was in flight ({exc or 'BrokenProcessPool'})",
                            ),
                        )
                    except Exception as exc:
                        settle(index, (OUTCOME_ERROR, exc))
                if broke:
                    # Everything still in flight shared the broken pool.
                    for future, index in inflight.items():
                        settle(
                            index,
                            (
                                OUTCOME_CRASHED,
                                "worker process died abruptly while this task "
                                "was in flight (pool broken by a sibling crash)",
                            ),
                        )
                    inflight.clear()
                    _log.warning(
                        "process pool broke (worker killed?); restarting it "
                        "for the %d remaining task(s)",
                        len(pending),
                    )
                    break  # rebuild the pool for the remaining tasks
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
    return [outcome if outcome is not None else (OUTCOME_SKIPPED, "never ran")
            for outcome in outcomes]


def _prewarm_cache(cache, names, scale: float) -> None:
    """Derive every workload's shared artifacts once, up front.

    A bogus workload name must degrade as a per-cell error row (exactly
    as it does serially), not kill the study here — so derivation
    failures are swallowed and left for the owning cells to report.
    """
    for name in names:
        try:
            cache.artifacts(name, scale)
        except Exception:
            pass


# ----------------------------------------------------------------------
# The scheduler


def _init_worker(cache_dir: str | Path | None) -> None:
    """Point the worker's default artifact cache at the shared disk
    layer, so traces the parent pre-derived are loaded, not re-run."""
    if cache_dir:
        configure_default_cache(disk_dir=cache_dir)


def _iter_cells(
    cells: list[Cell],
    body: Callable[[Cell, Any], Any],
    policy: RunnerConfig,
    prepare: Callable[[list[Cell]], Any] | None = None,
    deadline: Deadline | None = None,
) -> Iterator[CellResult]:
    """Run ``cells`` in this process, yielding each result as it finishes.

    ``prepare(cells)`` runs once, before the first cell; what it returns
    is passed to every ``body(cell, prepared)``.  A cell reached after
    ``deadline`` has expired is skipped, not run.
    """
    runner = CellRunner(policy)
    prepared = prepare(cells) if prepare is not None else None
    for cell in cells:
        if deadline is not None and deadline.expired():
            yield from _task_results([cell], OUTCOME_SKIPPED, _BUDGET_EXPIRED)
        else:
            yield runner.run_cell(cell, functools.partial(body, cell, prepared))


def _run_cell(
    cells: list[Cell],
    body: Callable[[Cell, Any], Any],
    policy: RunnerConfig,
    prepare: Callable[[list[Cell]], Any] | None = None,
) -> list[CellResult]:
    """Pool worker entry: run one task's cells and return their results.

    A task is one cell, or one round-robin shard of the grid when the
    caller batches (``prepare``).  Cell failures come back as error
    results (the worker-side :class:`CellRunner` degrades them), never
    as exceptions.
    """
    return list(_iter_cells(cells, body, policy, prepare))


def _task_results(cells: list[Cell], tag: str, payload) -> list[CellResult]:
    """The results of one task's cells, from its :func:`map_resilient`
    outcome; a task that returned none fails every cell it held."""
    if tag == OUTCOME_OK:
        return payload
    if tag == OUTCOME_CRASHED:
        error, error_type, attempts = payload, "WorkerCrash", 1
    elif tag == OUTCOME_SKIPPED:
        error, error_type, attempts = payload, "BudgetExpired", 0
    else:  # OUTCOME_ERROR: the task raised, or its result did not unpickle
        error, error_type, attempts = str(payload), type(payload).__name__, 1
    return [
        CellResult(
            key=cell.key,
            status="error",
            error=error,
            error_type=error_type,
            attempts=attempts,
        )
        for cell in cells
    ]


def schedule_cells(
    cells: Sequence[Cell],
    body: Callable[[Cell, Any], Any],
    jobs: int = 1,
    *,
    policy: RunnerConfig,
    store: CheckpointStore | None = None,
    prepare: Callable[[list[Cell]], Any] | None = None,
    deadline: Deadline | None = None,
    cache_dir: str | Path | None = None,
) -> dict[str, CellResult]:
    """Run keyed cells resumably and return ``{cell.key: CellResult}``.

    Cells already in ``store`` are served from it (``resumed=True``).
    The rest run as ``body(cell, prepared)`` through a
    :class:`CellRunner` with ``policy``: in this process when ``jobs``
    is 1, else across ``jobs`` pool workers, one task per cell.
    ``prepared`` is what ``prepare`` returned for the cell's group, or
    None: in-process the group is every pending cell; on the pool,
    ``prepare`` turns dispatch into one task per round-robin shard,
    prepared inside its worker.  ``body`` and ``prepare`` must pickle
    for the pool (module-level functions, or partials of them).

    This process records each success in ``store`` as it lands and
    flushes the store at the end.  A cell whose task returned no result
    fails with ``WorkerCrash`` (its worker died), ``BudgetExpired``
    (``deadline`` expired before dispatch) or the type name of the
    exception the task raised.

    ``cache_dir`` holds the cells' workload artifacts: in-process the
    default cache points there for the run and is restored afterwards;
    before pool dispatch this process derives every pending workload's
    artifacts into it, and the workers load them from there.
    """
    outcomes: dict[str, CellResult] = {}
    pending: list[Cell] = []
    for cell in cells:
        if store is not None and store.completed(cell.key):
            outcomes[cell.key] = CellResult(
                key=cell.key, status="ok", value=store.value(cell.key), resumed=True
            )
        else:
            pending.append(cell)

    def settle(results: Iterable[CellResult]) -> None:
        for result in results:
            if result.ok and store is not None:
                store.record(result.key, result.value)
            outcomes[result.key] = result

    try:
        if pending and jobs > 1:
            groups = (
                [pending[i::jobs] for i in range(jobs)]
                if prepare is not None
                else [[cell] for cell in pending]
            )
            tasks = [(group, body, policy, prepare) for group in groups if group]
            if cache_dir is not None:
                _prewarm_cache(
                    ArtifactCache(disk_dir=cache_dir),
                    dict.fromkeys(cell.workload for cell in pending),
                    pending[0].scale,
                )
            map_resilient(
                _run_cell,
                tasks,
                jobs,
                initializer=_init_worker,
                initargs=(cache_dir,),
                deadline=deadline,
                on_result=lambda index, outcome: settle(
                    _task_results(tasks[index][0], *outcome)
                ),
            )
        elif pending:
            with default_cache_at(cache_dir):
                settle(_iter_cells(pending, body, policy, prepare, deadline))
    finally:
        if store is not None:
            store.flush()
    return outcomes


__all__ = ["map_resilient", "resolve_jobs", "schedule_cells"]
