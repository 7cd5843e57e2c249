"""Declarative experiment-spec engine: paper figure -> simulator cell.

The paper's results are a matrix of machine models × workloads × knobs.
This module makes every entry in that matrix *data* instead of a
hand-rolled runner function:

* :class:`MachineSpec` — a reference to a :mod:`repro.machines` registry
  entry plus the per-cell configuration overrides (window size, branch
  completion model, reconvergence policy, ...).
* :class:`CellSpec` — one simulated cell: a machine reference, the named
  metric to extract from its stats, and where the value lands in the
  artifact's row shape (``group``/``key``).
* :class:`ExperimentSpec` — one paper figure or table: its cells, the
  row shape that folds cell values into the artifact's result structure,
  an optional derived transform (e.g. Figure 6 is a percent-improvement
  view over Figure 5), and the default scale.

Specs register via :func:`register_spec` (the entries live in
:mod:`repro.harness.specs`); one generic :func:`run_spec` engine
executes any entry.  Workload artifacts come through the
content-addressed cache (:func:`load_bundle`), per-workload rows are the
uniform :class:`CellRow` schema consumed by the study runners,
checkpoints and table formatters, and an optional :class:`SpecProfile`
collects per-cell wall clock plus the detailed core's stage-cycle
counters.  The fault-isolated study
(:func:`repro.harness.experiments.run_study`) executes ``run_spec_row``
per (experiment, workload) cell, in-process or on a process pool, so
checkpoint resume and process fan-out compose with every registered
spec automatically.

Specs and :class:`CellRow` payloads serialize to plain JSON
(:func:`spec_to_dict` / :func:`spec_from_dict`, :meth:`CellRow.to_payload`
/ :meth:`CellRow.from_payload`): enums are tagged by class and name,
tuples and dicts with non-``str`` keys are tagged, so round-trips
preserve hashability, key types and equality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from ..bpred import TFRCollector
from ..bpred.evaluate import measure_prediction
from ..cfg import ReconvergenceTable
from ..core import (
    CompletionModel,
    CoreStats,
    GoldenTrace,
    Preemption,
    ReconvPolicy,
    RepredictMode,
)
from ..errors import ConfigError
from ..ideal.models import IdealModel
from ..ideal.tracegen import AnnotatedTrace, annotate
from ..machines import get_machine
from ..workloads import WORKLOAD_NAMES, build_workload
from .batch import batch_enabled, run_batch, run_batch_isolated

#: row shapes an :class:`ExperimentSpec` may fold its cells into
SHAPES = ("grid", "map", "rows")

#: what a spec needs per workload: the full bundle (program + golden
#: trace + reconvergence table) or just the assembled program
NEEDS = ("bundle", "program")


# ======================================================================
# Workload artifacts (shared data-acquisition layer)


@dataclass
class WorkloadBundle:
    """Shared per-workload artifacts reused across configurations."""

    name: str
    scale: float
    program: object
    golden: GoldenTrace | None
    reconv: ReconvergenceTable | None
    _annotated: AnnotatedTrace | None = field(default=None, repr=False)

    def annotated(self) -> AnnotatedTrace:
        if self._annotated is None:
            self._annotated = annotate(self.program, reconv=self.reconv)
        return self._annotated


def load_bundle(name: str, scale: float, cache=None) -> WorkloadBundle:
    """Assemble + trace one workload, served from the artifact cache.

    The program, golden trace and reconvergence table depend only on
    (name, scale), so every experiment in a study shares one derivation
    per process — see :mod:`repro.harness.cache`.  Pass ``cache=False``
    to force a fresh, private derivation (needed when the caller will
    mutate the artifacts, e.g. fault injection).
    """
    if cache is False:
        workload = build_workload(name, scale)
        return WorkloadBundle(
            name=name,
            scale=scale,
            program=workload.program,
            golden=GoldenTrace(workload.program),
            reconv=ReconvergenceTable(workload.program),
        )
    from .cache import get_default_cache

    artifacts = (cache or get_default_cache()).artifacts(name, scale)
    return WorkloadBundle(
        name=name,
        scale=scale,
        program=artifacts.program,
        golden=artifacts.golden,
        reconv=artifacts.reconv,
    )


def load_program_bundle(name: str, scale: float, cache=None) -> WorkloadBundle:
    """A program-only bundle for specs that never simulate cycles.

    Table 1 measures the architectural trace; deriving the golden trace
    and post-dominator table for it would double its cost at full scale.
    The program still comes from the artifact cache's program layer.
    """
    from .cache import get_default_cache

    program, _ = (cache or get_default_cache()).program(name, scale)
    return WorkloadBundle(
        name=name, scale=scale, program=program, golden=None, reconv=None
    )


# ======================================================================
# Spec dataclasses


@dataclass(frozen=True)
class MachineSpec:
    """A registry machine plus the per-cell configuration overrides."""

    machine: str
    overrides: tuple[tuple[str, Any], ...] = ()

    def resolve(self):
        """The :class:`repro.machines.Machine` this spec references."""
        return get_machine(self.machine)

    def materialize(self):
        """The concrete simulator config this cell runs (drift checks)."""
        machine = self.resolve()
        overrides = dict(self.overrides)
        if machine.family == "detailed":
            return machine.core_config(**overrides)
        if machine.family == "ideal":
            return machine.ideal_config(**overrides)
        return None


@dataclass(frozen=True)
class CellSpec:
    """One simulated cell of a paper artifact."""

    label: str
    machine: MachineSpec
    metric: str = "ipc"
    #: first-level key under the workload in the folded result
    group: str | None = None
    #: second-level key (e.g. the window size) for "grid" shapes
    key: Any = None
    #: TFR collector schemes to attach (detailed machines only)
    tfr: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExperimentSpec:
    """One paper figure or table as a declarative registry entry."""

    name: str
    artifact: str  # e.g. "Figure 5" / "Table 2"
    title: str
    shape: str  # "grid" | "map" | "rows"
    default_scale: float
    cells: tuple[CellSpec, ...] = ()
    needs: str = "bundle"  # "bundle" | "program"
    #: name of the spec this artifact derives from (no cells of its own)
    derives: str | None = None
    #: named per-workload transform applied after folding (TRANSFORMS)
    transform: str | None = None
    #: the builder parameters that produced this entry (provenance)
    params: tuple[tuple[str, Any], ...] = ()
    workloads: tuple[str, ...] = WORKLOAD_NAMES

    def validate(self) -> "ExperimentSpec":
        if self.shape not in SHAPES:
            raise ConfigError(
                f"spec {self.name!r}: shape must be one of {SHAPES}, "
                f"got {self.shape!r}"
            )
        if self.needs not in NEEDS:
            raise ConfigError(
                f"spec {self.name!r}: needs must be one of {NEEDS}, "
                f"got {self.needs!r}"
            )
        if (self.derives is None) == (not self.cells):
            raise ConfigError(
                f"spec {self.name!r} must either declare cells or derive "
                "from another spec (exactly one of the two)"
            )
        if self.transform is not None and self.transform not in TRANSFORMS:
            raise ConfigError(
                f"spec {self.name!r}: unknown transform {self.transform!r}; "
                f"choose from {sorted(TRANSFORMS)}"
            )
        for cell in self.cells:
            if cell.metric not in METRICS:
                raise ConfigError(
                    f"spec {self.name!r} cell {cell.label!r}: unknown metric "
                    f"{cell.metric!r}; choose from {sorted(METRICS)}"
                )
            cell.machine.resolve()  # raises on unknown machine names
        return self

    def cell_labels(self) -> tuple[str, ...]:
        return tuple(cell.label for cell in self.cells)


@dataclass(frozen=True)
class CellRow:
    """The uniform per-(experiment, workload) row the engine produces.

    This one schema flows everywhere a row used to be an ad-hoc dict:
    the study runners assemble results from it, the checkpoint store
    persists its payload, the parallel workers return it, and
    :func:`repro.harness.tables.format_rows` formats from it.
    """

    experiment: str
    workload: str
    data: Any

    def to_payload(self) -> dict:
        """The JSON-serialisable form stored in checkpoints; ``data`` is
        tagged (see :func:`_encode`) so int keys and tuples survive JSON."""
        return {
            "experiment": self.experiment,
            "workload": self.workload,
            "data": _encode(self.data),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CellRow":
        try:
            return cls(
                experiment=payload["experiment"],
                workload=payload["workload"],
                data=_decode(payload["data"]),
            )
        except (TypeError, KeyError):
            raise ConfigError(
                "malformed CellRow payload: expected keys "
                f"experiment/workload/data, got {payload!r}"
            ) from None


# ======================================================================
# Metric and transform registries


@dataclass
class CellContext:
    """What a metric extractor sees after one cell simulation."""

    spec: ExperimentSpec
    cell: CellSpec
    bundle: WorkloadBundle
    result: Any  # CoreStats | IdealResult | functional trace
    collectors: tuple = ()


METRICS: dict[str, Callable[[CellContext], Any]] = {}
TRANSFORMS: dict[str, Callable[[Any], Any]] = {}


def metric(name: str):
    """Register a named metric extractor (``fn(ctx) -> value``)."""

    def wrap(fn):
        METRICS[name] = fn
        return fn

    return wrap


def transform(name: str):
    """Register a named per-workload transform (``fn(data) -> data``)."""

    def wrap(fn):
        TRANSFORMS[name] = fn
        return fn

    return wrap


def percent_improvement(value: float, base: float) -> float:
    """Percent gain over a baseline; 0.0 when the baseline retired
    nothing (a degraded BASE cell must not take down derived figures)."""
    if base == 0:
        return 0.0
    return 100.0 * (value / base - 1.0)


@metric("ipc")
def _metric_ipc(ctx: CellContext) -> float:
    return ctx.result.ipc


@metric("table1_row")
def _metric_table1(ctx: CellContext) -> dict:
    trace = ctx.result  # the functional machine returns the trace
    report = measure_prediction(trace)
    return {
        "instructions": len(trace),
        "misprediction_rate": report.misprediction_rate,
    }


@metric("table2_row")
def _metric_table2(ctx: CellContext) -> dict:
    s = ctx.result
    return {
        "pct_reconverge": 100.0 * s.reconverge_fraction,
        "avg_removed": s.avg_removed,
        "avg_inserted": s.avg_inserted,
        "avg_ci": s.avg_ci_preserved,
        "avg_ci_renamed": s.avg_ci_rename_repairs,
    }


@metric("table3_row")
def _metric_table3(ctx: CellContext) -> dict:
    return ctx.result.table3_fractions()


@metric("table4_noci")
def _metric_table4_noci(ctx: CellContext) -> dict:
    s = ctx.result
    return {
        "noci_total": s.issues_per_retired,
        "noci_memory": s.reissues_memory / max(1, s.retired),
    }


@metric("table4_ci")
def _metric_table4_ci(ctx: CellContext) -> dict:
    s = ctx.result
    return {
        "ci_total": s.issues_per_retired,
        "ci_memory": s.reissues_memory / max(1, s.retired),
        "ci_register": s.reissues_register / max(1, s.retired),
    }


@metric("tfr_curves")
def _metric_tfr_curves(ctx: CellContext) -> dict:
    out: dict = {c.scheme: c.curve() for c in ctx.collectors}
    out["counts"] = {
        c.scheme: (c.stats.total_true, c.stats.total_false)
        for c in ctx.collectors
    }
    return out


@transform("ci_over_base")
def _transform_ci_over_base(machines: dict) -> dict:
    """Figure 6: percent IPC improvement of CI over BASE per window."""
    return {
        window: percent_improvement(
            machines["CI"][window], machines["BASE"][window]
        )
        for window in machines["BASE"]
    }


@transform("pct_vs_base")
def _transform_pct_vs_base(data: dict) -> dict:
    """Figure 17: every non-base group as percent improvement over
    the ``base`` cell, which is consumed by the transform."""
    base = data["base"]
    return {
        group: percent_improvement(value, base)
        for group, value in data.items()
        if group != "base"
    }


# ======================================================================
# Spec registry


SPECS: dict[str, ExperimentSpec] = {}
SPEC_BUILDERS: dict[str, Callable[..., ExperimentSpec]] = {}


def register_spec(builder: Callable[..., ExperimentSpec]):
    """Register a spec builder and its default entry.

    The builder's keyword parameters are the artifact's sweep knobs
    (windows, segments, ...); the registry holds the entry built with
    the defaults, and :func:`run_spec` rebuilds through the builder when
    a caller overrides a knob.
    """
    spec = builder().validate()
    if spec.name in SPECS:
        raise ConfigError(f"spec {spec.name!r} registered twice")
    SPECS[spec.name] = spec
    SPEC_BUILDERS[spec.name] = builder
    return builder


def spec_names() -> tuple[str, ...]:
    """Every registered artifact, in paper order."""
    _ensure_registry()
    return tuple(SPECS)


def runnable_experiments() -> tuple[str, ...]:
    """Spec names that run their own cells (derived views excluded)."""
    _ensure_registry()
    return tuple(name for name, spec in SPECS.items() if spec.cells)


def get_spec(name: str) -> ExperimentSpec:
    _ensure_registry()
    try:
        return SPECS[name]
    except KeyError:
        raise ConfigError(
            f"unknown experiment spec {name!r}; choose from {sorted(SPECS)}"
        ) from None


def _ensure_registry() -> None:
    # The entries live in repro.harness.specs; importing it populates
    # SPECS via register_spec.  Deferred so spec.py stays importable
    # from specs.py without a cycle.
    if not SPECS:
        from . import specs  # noqa: F401


def resolve_spec(name_or_spec, params: dict | None = None) -> ExperimentSpec:
    """A spec object, a registered name, or a name + builder knobs."""
    if isinstance(name_or_spec, ExperimentSpec):
        if params:
            raise ConfigError(
                "builder parameters apply to registered spec names, not "
                "to an already-materialized ExperimentSpec"
            )
        return name_or_spec
    spec = get_spec(name_or_spec)
    if not params:
        return spec
    builder = SPEC_BUILDERS[name_or_spec]
    try:
        return builder(**params).validate()
    except TypeError as exc:
        raise ConfigError(
            f"spec {name_or_spec!r} does not accept parameters "
            f"{sorted(params)!r}: {exc}"
        ) from None


def select_cells(spec: ExperimentSpec, labels) -> ExperimentSpec:
    """Subset a spec to the cells named by ``labels`` (spec order kept).

    Unknown labels are rejected loudly.  Transforms still apply to the
    folded subset, so selecting away a cell a transform consumes (e.g.
    the ``base`` cell of Figure 17) fails inside the transform — partial
    reruns of derived views should select at the study level instead.
    """
    if labels is None:
        return spec
    if spec.derives is not None:
        raise ConfigError(
            f"spec {spec.name!r} derives from {spec.derives!r} and has no "
            "cells of its own; select cells on the base spec"
        )
    wanted = list(dict.fromkeys(labels))
    known = set(spec.cell_labels())
    unknown = [label for label in wanted if label not in known]
    if unknown:
        raise ConfigError(
            f"spec {spec.name!r} has no cells {unknown!r}; choose from "
            f"{list(spec.cell_labels())}"
        )
    chosen = set(wanted)
    return replace(
        spec, cells=tuple(c for c in spec.cells if c.label in chosen)
    )


# ======================================================================
# Profiling integration


@dataclass
class SpecProfile:
    """Per-cell wall clock (and detailed-core stage counters) for one or
    more :func:`run_spec` calls; pass as ``profile=``."""

    cells: dict[str, dict[str, Any]] = field(default_factory=dict)

    def record(self, key: str, seconds: float, result: Any) -> None:
        entry: dict[str, Any] = {"seconds": round(seconds, 4)}
        if isinstance(result, CoreStats):
            from ..profiling import stage_profile

            entry["stage_cycles"] = stage_profile(result).counters()
        self.cells[key] = entry

    @property
    def total_seconds(self) -> float:
        return round(sum(c["seconds"] for c in self.cells.values()), 4)


# ======================================================================
# The engine


def _load_for(spec: ExperimentSpec, workload: str, scale: float) -> WorkloadBundle:
    if spec.needs == "program":
        return load_program_bundle(workload, scale)
    return load_bundle(workload, scale)


def _fold(spec: ExperimentSpec, workload: str, outcomes: list) -> Any:
    """Fold (cell, value) pairs into the artifact's per-workload data."""
    if spec.shape == "rows":
        row: dict = {"benchmark": workload}
        for _, value in outcomes:
            row.update(value)
        data: Any = row
    else:
        data = {}
        for cell, value in outcomes:
            if spec.shape == "grid":
                data.setdefault(cell.group, {})[cell.key] = value
            elif cell.group is None:
                data.update(value)  # metric returned a whole sub-map
            else:
                data[cell.group] = value
    if spec.transform is not None:
        data = TRANSFORMS[spec.transform](data)
    return data


def _simulate_cells(
    spec: ExperimentSpec,
    workload: str,
    bundle,
    plan: list,
    batch: bool | None,
    profile: SpecProfile | None,
    prepared: dict | None = None,
) -> list:
    """Produce each planned cell's stats, serially or array-batched.

    ``plan`` is ``[(cell, machine, collectors), ...]`` in spec order.
    When batching is enabled (``batch=`` argument, else ``REPRO_BATCH``)
    every detailed-family cell of the row advances through one
    :func:`~repro.harness.batch.run_batch` driver loop; other families
    run serially as before.  Results are byte-identical either way —
    only wall clock changes — so profile entries for batched cells
    record the batch's amortized per-cell share (the interleaved loop
    has no meaningful per-cell split).

    ``prepared`` maps ``(spec.name, workload, cell.label)`` to an
    outcome pre-simulated by :func:`prepare_study_batch`'s study-wide
    fused loop.  A prepared ``("ok", stats, share)`` entry is consumed
    directly (recording the amortized share); a prepared error re-raises
    the captured exception, so the cell degrades through the runner
    exactly as a scalar failure would.  Cells absent from ``prepared``
    (TFR cells, non-detailed families) fall through to the usual paths.
    """
    results: list = [None] * len(plan)
    done: set[int] = set()
    if prepared:
        for i, (cell, machine, collectors) in enumerate(plan):
            if collectors:
                continue
            entry = prepared.get((spec.name, workload, cell.label))
            if entry is None:
                continue
            status, payload, share = entry
            if status == "error":
                raise payload
            results[i] = payload
            done.add(i)
            if profile is not None:
                profile.record(
                    f"{spec.name}/{workload}/{cell.label}", share, payload
                )
    batched: list[int] = []
    if batch_enabled(batch):
        batched = [
            i
            for i, (_, machine, _) in enumerate(plan)
            if i not in done and machine.family == "detailed"
        ]
    if batched:
        procs = [
            plan[i][1].processor(
                bundle, dict(plan[i][0].machine.overrides), plan[i][2]
            )
            for i in batched
        ]
        t0 = time.perf_counter() if profile is not None else 0.0
        stats = run_batch(procs)
        for i, stat in zip(batched, stats):
            results[i] = stat
        if profile is not None:
            share = (time.perf_counter() - t0) / len(procs)
            for i in batched:
                profile.record(
                    f"{spec.name}/{workload}/{plan[i][0].label}",
                    share,
                    results[i],
                )
    skip = done | set(batched)
    for i, (cell, machine, collectors) in enumerate(plan):
        if i in skip:
            continue
        t0 = time.perf_counter() if profile is not None else 0.0
        result = machine.simulate(
            bundle,
            overrides=dict(cell.machine.overrides),
            tfr_collectors=collectors,
        )
        if profile is not None:
            profile.record(
                f"{spec.name}/{workload}/{cell.label}",
                time.perf_counter() - t0,
                result,
            )
        results[i] = result
    return results


def prepare_study_batch(
    pairs,
    scale: float | None = None,
    experiment_kwargs: dict | None = None,
) -> dict:
    """Pre-simulate every detailed cell of a study shard in one batch.

    ``pairs`` is the shard's pending ``(experiment, workload)`` rows;
    ``experiment_kwargs`` is exactly what the study threads into
    :func:`run_spec_row` (``cells=``/builder params are honoured,
    ``batch=``/``profile=`` are execution strategy and ignored here).
    Spec resolution mirrors ``run_spec_row`` — derived views resolve to
    their base spec with default knobs, so a study running e.g. both
    figure5 and figure6 simulates the shared base cells *once* (the
    prepared map deduplicates by ``(spec, workload, label)``).

    All collected processors advance through one fused
    :func:`~repro.harness.batch.run_batch_isolated` loop — the whole
    shard shares a single GC pause and driver frame, and each workload
    bundle is derived once per shard via the artifact cache.  Returns
    ``{(spec_name, workload, label): (status, payload, share_seconds)}``
    for :func:`run_spec_row`'s ``prepared=`` parameter, where ``share``
    is the batch's amortized per-cell wall clock.  TFR cells are left
    out (their collectors must be the ones the row's metric extractor
    reads), as is any row whose planning fails — those cells simply run
    scalar, degrading through the per-cell runner as before.
    """
    kwargs = dict(experiment_kwargs or {})
    kwargs.pop("batch", None)
    kwargs.pop("profile", None)
    labels = kwargs.pop("cells", None)
    prepared: dict = {}
    procs: list = []
    keys: list = []
    claimed: set = set()
    for experiment, workload in dict.fromkeys(pairs):
        try:
            spec = select_cells(resolve_spec(experiment, kwargs), labels)
            while spec.derives is not None:
                spec = resolve_spec(spec.derives)
            if spec.needs != "bundle":
                continue
            plan = [
                cell
                for cell in spec.cells
                if not cell.tfr
                and cell.machine.resolve().family == "detailed"
                and (spec.name, workload, cell.label) not in claimed
            ]
            if not plan:
                continue
            row_scale = spec.default_scale if scale is None else scale
            bundle = _load_for(spec, workload, row_scale)
            for cell in plan:
                procs.append(
                    cell.machine.resolve().processor(
                        bundle, dict(cell.machine.overrides), ()
                    )
                )
                keys.append((spec.name, workload, cell.label))
                claimed.add(keys[-1])
        except Exception:
            # Planning failure (bogus workload, bad knobs...): leave the
            # row to the scalar path, which degrades it per cell.
            continue
    if not procs:
        return prepared
    t0 = time.perf_counter()
    outcomes = run_batch_isolated(procs)
    share = (time.perf_counter() - t0) / len(procs)
    for key, (status, payload) in zip(keys, outcomes):
        prepared[key] = (status, payload, share)
    return prepared


def run_spec_row(
    name_or_spec,
    workload: str,
    scale: float | None = None,
    profile: SpecProfile | None = None,
    cells=None,
    batch: bool | None = None,
    prepared: dict | None = None,
    **params,
) -> CellRow:
    """Execute every cell of one spec for one workload.

    This is the unit the fault-isolated study runners (serial and
    parallel) schedule, checkpoint and resume; the returned
    :class:`CellRow` is the uniform row schema.  ``cells`` selects a
    subset of the spec's cells by label (see :func:`select_cells`);
    ``batch`` routes the row's detailed-family cells through the
    array-batched driver (default: the ``REPRO_BATCH`` environment
    variable), with byte-identical rows either way.  ``prepared``
    consumes study-level pre-simulated outcomes from
    :func:`prepare_study_batch` (the study runners thread it; direct
    callers normally leave it unset).
    """
    spec = select_cells(resolve_spec(name_or_spec, params), cells)
    if spec.derives is not None:
        base = run_spec_row(
            spec.derives,
            workload,
            scale=scale,
            profile=profile,
            batch=batch,
            prepared=prepared,
        )
        data = TRANSFORMS[spec.transform](base.data)
        return CellRow(experiment=spec.name, workload=workload, data=data)
    if scale is None:
        scale = spec.default_scale
    bundle = _load_for(spec, workload, scale)
    plan = [
        (
            cell,
            cell.machine.resolve(),
            tuple(TFRCollector(scheme) for scheme in cell.tfr),
        )
        for cell in spec.cells
    ]
    results = _simulate_cells(
        spec, workload, bundle, plan, batch, profile, prepared
    )
    outcomes = []
    for (cell, machine, collectors), result in zip(plan, results):
        ctx = CellContext(
            spec=spec,
            cell=cell,
            bundle=bundle,
            result=result,
            collectors=collectors,
        )
        outcomes.append((cell, METRICS[cell.metric](ctx)))
    return CellRow(
        experiment=spec.name,
        workload=workload,
        data=_fold(spec, workload, outcomes),
    )


def assemble_rows(spec: ExperimentSpec, rows: list[CellRow]) -> Any:
    """Fold per-workload rows into the artifact's result shape."""
    if spec.shape == "rows":
        return [row.data for row in rows]
    return {row.workload: row.data for row in rows}


def run_spec(
    name_or_spec,
    scale: float | None = None,
    names=None,
    profile: SpecProfile | None = None,
    cells=None,
    batch: bool | None = None,
    **params,
) -> Any:
    """Run one registered artifact end to end.

    Returns the artifact's result shape (:func:`assemble_rows`), the
    structure the formatters in :mod:`repro.harness.tables` print.
    ``names`` selects workloads; ``cells`` selects cells by label
    (:func:`select_cells`); builder knobs (``windows=...``,
    ``segments=...``) re-materialize the spec through its builder;
    ``batch`` (default: ``REPRO_BATCH``) array-batches each row's
    detailed cells with byte-identical results.
    """
    spec = select_cells(resolve_spec(name_or_spec, params), cells)
    if spec.derives is not None:
        base_spec = resolve_spec(spec.derives)
        base = run_spec(
            base_spec, scale=scale, names=names, profile=profile, batch=batch
        )
        return derive(spec, base)
    if names is None:
        names = spec.workloads
    rows = [
        run_spec_row(spec, workload, scale=scale, profile=profile, batch=batch)
        for workload in names
    ]
    return assemble_rows(spec, rows)


def derive(name_or_spec, base_result: dict) -> dict:
    """Apply a derived spec's transform to its base artifact's result
    (e.g. Figure 6 from already-computed Figure 5 data)."""
    spec = resolve_spec(name_or_spec)
    if spec.transform is None:
        raise ConfigError(f"spec {spec.name!r} declares no transform")
    return {
        workload: TRANSFORMS[spec.transform](data)
        for workload, data in base_result.items()
    }


# ======================================================================
# Serialization (round-trips through plain JSON)

_ENUM_CLASSES = {
    cls.__name__: cls
    for cls in (
        CompletionModel,
        IdealModel,
        Preemption,
        ReconvPolicy,
        RepredictMode,
    )
}


def _encode(value: Any) -> Any:
    import enum

    if isinstance(value, enum.Enum):
        if type(value).__name__ not in _ENUM_CLASSES:
            raise ConfigError(
                f"cannot serialize enum {type(value).__name__}; add it to "
                "repro.harness.spec._ENUM_CLASSES"
            )
        return {"$enum": [type(value).__name__, value.name]}
    if isinstance(value, tuple):
        return {"$tuple": [_encode(v) for v in value]}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value):
            return {k: _encode(v) for k, v in value.items()}
        return {"$dict": [[_encode(k), _encode(v)] for k, v in value.items()]}
    return value


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        if "$enum" in value:
            cls_name, member = value["$enum"]
            try:
                return _ENUM_CLASSES[cls_name][member]
            except KeyError:
                raise ConfigError(
                    f"cannot deserialize enum {cls_name}.{member}"
                ) from None
        if "$tuple" in value:
            return tuple(_decode(v) for v in value["$tuple"])
        if "$dict" in value:
            return {_decode(k): _decode(v) for k, v in value["$dict"]}
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def spec_to_dict(spec: ExperimentSpec) -> dict:
    """A JSON-serialisable form of one spec (exact round-trip)."""
    return {
        "name": spec.name,
        "artifact": spec.artifact,
        "title": spec.title,
        "shape": spec.shape,
        "default_scale": spec.default_scale,
        "needs": spec.needs,
        "derives": spec.derives,
        "transform": spec.transform,
        "params": _encode(spec.params),
        "workloads": list(spec.workloads),
        "cells": [
            {
                "label": cell.label,
                "metric": cell.metric,
                "group": cell.group,
                "key": _encode(cell.key),
                "tfr": list(cell.tfr),
                "machine": {
                    "machine": cell.machine.machine,
                    "overrides": _encode(cell.machine.overrides),
                },
            }
            for cell in spec.cells
        ],
    }


def spec_from_dict(payload: dict) -> ExperimentSpec:
    """Rebuild an :class:`ExperimentSpec` from :func:`spec_to_dict`."""
    try:
        cells = tuple(
            CellSpec(
                label=cell["label"],
                metric=cell["metric"],
                group=cell["group"],
                key=_decode(cell["key"]),
                tfr=tuple(cell["tfr"]),
                machine=MachineSpec(
                    machine=cell["machine"]["machine"],
                    overrides=_decode(cell["machine"]["overrides"]),
                ),
            )
            for cell in payload["cells"]
        )
        return ExperimentSpec(
            name=payload["name"],
            artifact=payload["artifact"],
            title=payload["title"],
            shape=payload["shape"],
            default_scale=payload["default_scale"],
            needs=payload["needs"],
            derives=payload["derives"],
            transform=payload["transform"],
            params=_decode(payload["params"]),
            workloads=tuple(payload["workloads"]),
            cells=cells,
        ).validate()
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed spec payload: {exc}") from None


__all__ = [
    "METRICS",
    "NEEDS",
    "SHAPES",
    "SPECS",
    "SPEC_BUILDERS",
    "TRANSFORMS",
    "CellContext",
    "CellRow",
    "CellSpec",
    "ExperimentSpec",
    "MachineSpec",
    "SpecProfile",
    "WorkloadBundle",
    "assemble_rows",
    "derive",
    "get_spec",
    "load_bundle",
    "load_program_bundle",
    "metric",
    "percent_improvement",
    "prepare_study_batch",
    "register_spec",
    "resolve_spec",
    "run_spec",
    "run_spec_row",
    "runnable_experiments",
    "select_cells",
    "spec_from_dict",
    "spec_names",
    "spec_to_dict",
    "transform",
]
