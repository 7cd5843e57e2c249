"""The fault-isolated study: every paper artifact through one driver.

Each paper table and figure is a declarative entry in
:mod:`repro.harness.specs`, executed by the generic engine in
:mod:`repro.harness.spec`.  :func:`run_study` runs a cross-product of
registered experiments × workloads, one
:class:`~repro.harness.spec.CellRow` per cell, through the cell
scheduler :func:`~repro.harness.parallel.schedule_cells` — per-cell
timeout and retry, checkpoint resume, and in-process or process-pool
execution chosen by ``jobs`` alone.  It is the one way the paper is
regenerated: ``benchmarks/test_paper_claims.py`` checks each artifact's
claims over its output, and ``perfbench`` times it.
"""

from __future__ import annotations

import contextlib
import functools
import tempfile

from ..core import CoreConfig, CoreStats, Processor
from ..errors import ConfigError
from ..machines import HEURISTIC_POLICIES
from ..workloads import WORKLOAD_NAMES
from .batch import batch_enabled
from .cache import get_default_cache
from .parallel import resolve_jobs, schedule_cells
from .runner import Cell, CheckpointStore, RunnerConfig, config_hash
from .spec import (
    CellRow,
    WorkloadBundle,
    load_bundle,
    prepare_study_batch,
    run_spec_row,
    runnable_experiments,
)
from .specs import COMPLETION_CONFIGS, DETAILED_WINDOWS, IDEAL_WINDOWS

__all__ = [
    "COMPLETION_CONFIGS",
    "DETAILED_WINDOWS",
    "HEURISTIC_POLICIES",
    "IDEAL_WINDOWS",
    "NON_SEMANTIC_KNOBS",
    "WorkloadBundle",
    "assemble_study",
    "load_bundle",
    "parse_only",
    "run_core",
    "run_study",
    "select_study_cells",
    "study_cells",
    "validate_experiments",
]


def run_core(bundle: WorkloadBundle, config: CoreConfig) -> CoreStats:
    """One detailed-machine simulation over a prepared bundle."""
    return Processor(bundle.program, config, bundle.golden, bundle.reconv).run()


def validate_experiments(experiments=None) -> list:
    """Resolve an experiment selection against the spec registry."""
    runnable = runnable_experiments()
    chosen = list(experiments) if experiments is not None else list(runnable)
    unknown = [e for e in chosen if e not in runnable]
    if unknown:
        raise ConfigError(
            f"unknown experiments {unknown!r}; choose from {sorted(runnable)}"
        )
    return chosen


def parse_only(only) -> list[tuple[str, str | None]]:
    """Normalize ``EXPERIMENT:WORKLOAD`` selectors into pairs.

    Accepts strings (``"figure5:vortex"``, or bare ``"figure5"`` for
    every workload of one experiment) and ``(experiment, workload)``
    tuples (``workload=None`` meaning all).  Experiment names are
    validated against the registry here; workload names are validated
    against the enumerated grid by :func:`select_study_cells`.
    """
    runnable = runnable_experiments()
    pairs: list[tuple[str, str | None]] = []
    for item in only:
        if isinstance(item, str):
            exp, _, workload = item.partition(":")
            pairs.append((exp, workload or None))
        else:
            exp, workload = item
            pairs.append((exp, workload))
        if pairs[-1][0] not in runnable:
            raise ConfigError(
                f"selector {item!r}: unknown experiment {pairs[-1][0]!r}; "
                f"choose from {sorted(runnable)}"
            )
    return pairs


def select_study_cells(cells, only):
    """Filter an enumerated study grid by ``EXPERIMENT:WORKLOAD`` pairs.

    Every selector must match at least one enumerated cell — a selector
    naming a workload outside the study's ``names`` is a configuration
    error, not a silent no-op.
    """
    if only is None:
        return list(cells)
    pairs = parse_only(only)
    selected = []
    matched = [False] * len(pairs)
    for cell in cells:
        hit = False
        for i, (exp, workload) in enumerate(pairs):
            if cell.experiment == exp and workload in (None, cell.workload):
                matched[i] = True
                hit = True
        if hit:
            selected.append(cell)
    missed = [pairs[i] for i, ok in enumerate(matched) if not ok]
    if missed:
        raise ConfigError(
            f"selectors matched no study cells: "
            f"{[f'{e}:{w}' if w else e for e, w in missed]!r} "
            "(is the workload in this study's names?)"
        )
    return selected


#: experiment kwargs that choose an execution strategy without touching
#: row content; excluded from the checkpoint config hash so toggling
#: ``REPRO_BATCH``/``batch=`` or attaching a profile composes with
#: checkpoint resume (and with ``REPRO_JOBS`` — every job count runs the
#: same enumeration) instead of silently re-running every cell
NON_SEMANTIC_KNOBS = ("batch", "profile")


def study_cells(chosen, names, scale: float, experiment_kwargs: dict):
    """Enumerate the study grid as Cells, in deterministic order.

    Every job count runs this enumeration, so a checkpoint written
    in-process is resumable on the pool and vice versa; the config hash
    covers only row-semantic knobs (see :data:`NON_SEMANTIC_KNOBS`), so
    batched, profiled and scalar runs of the same study share one
    checkpoint identity.
    """
    semantic = {
        k: v for k, v in experiment_kwargs.items() if k not in NON_SEMANTIC_KNOBS
    }
    cells = []
    for exp in chosen:
        knob_hash = config_hash({"experiment": exp, **semantic})
        for name in names:
            cells.append(
                Cell(experiment=exp, workload=name, config_hash=knob_hash, scale=scale)
            )
    return cells


def assemble_study(chosen, cells, outcomes) -> dict:
    """Fold per-cell outcomes into the study result payload.

    Rows come out in grid order whatever order the cells finished in,
    so every job count produces byte-identical rows: successful cells carry a
    :class:`~repro.harness.spec.CellRow` payload whose ``data`` becomes
    the row, failed cells degrade to their error annotation.
    """
    results: dict = {exp: {} for exp in chosen}
    failures: list = []
    resumed = 0
    for cell in cells:
        result = outcomes[cell.key]
        resumed += result.resumed
        if result.ok:
            row = CellRow.from_payload(result.value).data
        else:
            failures.append(result)
            row = result.as_row()
        results[cell.experiment][cell.workload] = row
    return {"results": results, "failures": failures, "resumed": resumed}


def _study_row(row_kwargs: dict, cell, prepared) -> dict:
    """One study cell: its spec row, as a checkpointable payload."""
    return run_spec_row(
        cell.experiment,
        cell.workload,
        scale=cell.scale,
        prepared=prepared,
        **row_kwargs,
    ).to_payload()


def _prepare_rows(row_kwargs: dict, cells) -> dict:
    """Pre-simulate the detailed cells of a group of study cells in one
    fused driver loop (see :func:`~repro.harness.spec.prepare_study_batch`)."""
    return prepare_study_batch(
        [(cell.experiment, cell.workload) for cell in cells],
        scale=cells[0].scale,
        experiment_kwargs=row_kwargs,
    )


def run_study(
    experiments=None,
    scale: float = 0.12,
    names=WORKLOAD_NAMES,
    checkpoint_path=None,
    jobs: "int | str | None" = None,
    cache_dir=None,
    timeout_seconds: float | None = None,
    only=None,
    **experiment_kwargs,
) -> dict:
    """Run a cross-product of experiments × workloads fault-isolated.

    Each (experiment, workload) pair runs as one
    :func:`~repro.harness.spec.run_spec_row` cell through
    :func:`~repro.harness.parallel.schedule_cells`: a crash or hang in
    one cell becomes an error-annotated row instead of killing the
    study, and — when ``checkpoint_path`` is given — each finished cell
    is recorded as it completes and skipped on resume after an
    interruption.

    ``jobs`` (default: the ``REPRO_JOBS`` env var, else 1; ``"auto"`` =
    CPU count) fans the grid across worker processes; results are
    byte-identical at every job count.  ``cache_dir`` keeps the
    content-addressed workload artifacts on disk across runs, whether
    the study runs in-process or on the pool (which otherwise shares
    the ``REPRO_CACHE_DIR`` disk layer, or a temporary directory).
    ``only`` restricts the grid to ``EXPERIMENT:WORKLOAD`` selectors
    (see :func:`select_study_cells`) for partial reruns.

    ``batch=`` (or ``REPRO_BATCH``) composes with ``jobs``: in-process
    every pending detailed cell of the study is pre-simulated through
    one fused :func:`~repro.harness.spec.prepare_study_batch` loop;
    under the pool each worker fuses its own round-robin shard.  The
    per-cell ``timeout_seconds`` then bounds only each cell's residual
    work — inside the fused loop a runaway cell is bounded by its own
    ``watchdog_cycles``/``max_cycles`` guards.  Rows stay
    byte-identical; ``batch`` and ``profile`` are excluded from the
    checkpoint identity (:data:`NON_SEMANTIC_KNOBS`), so either toggle
    resumes the same checkpoint.

    Returns ``{"results": {experiment: {workload: row-or-error}},
    "failures": [CellResult...], "resumed": int, "jobs": int}``.
    """
    chosen = validate_experiments(experiments)
    n_jobs = resolve_jobs(jobs)
    store = CheckpointStore(checkpoint_path) if checkpoint_path is not None else None
    cells = select_study_cells(
        study_cells(chosen, names, scale, experiment_kwargs), only
    )
    if only is not None:
        chosen = [e for e in chosen if any(c.experiment == e for c in cells)]

    row_kwargs = experiment_kwargs
    if n_jobs > 1:
        # A SpecProfile cannot aggregate across process boundaries (each
        # worker would record into its own pickled copy, silently thrown
        # away on return), so the pool runs without it: under the pool
        # the parent's profile intentionally stays empty.
        row_kwargs = {k: v for k, v in experiment_kwargs.items() if k != "profile"}
    try:
        batched = batch_enabled(experiment_kwargs.get("batch"))
    except ValueError:
        batched = False  # per-cell runs report the bad knob
    # The pool always shares one disk cache that the parent prewarms:
    # the caller's, else REPRO_CACHE_DIR's, else a temporary one.
    if n_jobs > 1 and cache_dir is None:
        cache_dir = get_default_cache().disk_dir
    scratch = (
        tempfile.TemporaryDirectory(prefix="repro-study-cache-")
        if n_jobs > 1 and cache_dir is None
        else contextlib.nullcontext(cache_dir)
    )
    with scratch as study_cache_dir:
        outcomes = schedule_cells(
            cells,
            functools.partial(_study_row, row_kwargs),
            n_jobs,
            store=store,
            policy=RunnerConfig(timeout_seconds=timeout_seconds),
            prepare=functools.partial(_prepare_rows, row_kwargs) if batched else None,
            cache_dir=study_cache_dir,
        )
    out = assemble_study(chosen, cells, outcomes)
    out["jobs"] = n_jobs
    return out
