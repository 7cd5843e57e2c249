"""Counters and spans wrapped around each layer's public entry points.

Nothing here edits the simulator: every probe replaces a module or
class attribute of the ``repro`` package with a wrapper that calls the
original.  Two levels exist:

* counting (always on, no timer): counts the simulated cycles of every
  detailed-core run from the stats ``Processor.finish`` returns and
  keeps a digest of each run's statistics.  Forked pool workers write
  the same counters to a per-worker file after each cell, so the parent
  can add them up.
* tracing (traced runs only): records a span (name, start, end, parent,
  cell) per call into columnar in-memory arrays and writes them out
  with :meth:`Recorder.flush`.  Pool workers inherit the wrappers
  through ``fork`` and append their own spans per cell.

:func:`install` puts both in place; :func:`fold` turns the written files back into per-name totals: a
span's self time is its duration minus its children's durations.
"""

from __future__ import annotations

import array
import functools
import gc
import hashlib
import json
import os
import resource
import time
from pathlib import Path

#: span names, in id order (ids are shared by every process of a run)
NAMES = (
    "core.construct",
    "core.run",
    "core.sequencer",
    "core.issue",
    "core.complete",
    "core.retire",
    "ideal.schedule",
    "ideal.annotate",
    "cache.artifacts",
    "derive.build",
    "derive.golden",
    "derive.reconv",
    "spec.row",
    "runner.cell",
    "runner.checkpoint",
    "pool.prewarm",
    "pool.cell",
    "fuzz.generate",
    "functional.reference",
    "analysis.invariants",
)
NAME_ID = {name: index for index, name in enumerate(NAMES)}

#: the four phase methods ``Processor.step`` calls, by span name
PHASES = {
    "core.sequencer": "_sequencer_phase",
    "core.issue": "_issue_phase",
    "core.complete": "_complete_phase",
    "core.retire": "_retire_phase",
}

#: column layout of a written span chunk: (typecode, column name)
COLUMNS = (("H", "name"), ("i", "parent"), ("i", "cell"), ("d", "start"), ("d", "end"))


def stats_digest(stats) -> str:
    """Digest of one detailed run's statistics (every counter field)."""
    return digest(vars(stats))


def canonical(value):
    """A JSON-ready form whose text depends only on the value.

    Dict keys become strings and are sorted (checkpointed rows already
    carry string keys where live rows carry ints), floats keep every
    digit through ``repr``.
    """
    if isinstance(value, dict):
        return [[str(k), canonical(v)] for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))]
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, float):
        return repr(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return repr(value)


def digest(value) -> str:
    text = json.dumps(canonical(value), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Recorder:
    """Per-process counters and span columns, reset after a fork."""

    def __init__(self, out_dir: Path, tracing: bool):
        self.out_dir = Path(out_dir)
        self.tracing = tracing
        self.pid = os.getpid()
        self.in_worker = False
        # counters (always on)
        self.cycles = 0
        self.run_digests: list[str] = []
        # traced-only state
        self.cols = {name: array.array(code) for code, name in COLUMNS}
        self.stack: list[int] = []
        self.cell = -1
        self.cells: list[str] = []
        self.cell_ids: dict[str, int] = {}
        self.flushed = 0
        self.run_keys: list[list] = []  # [key, cycles] per finished run
        self.pending_keys: dict[int, str] = {}
        self.cache_hits = 0
        self.cache_disk_hits = 0
        self.cache_misses = 0
        self.gc_s = 0.0
        self._gc_start = 0.0

    def after_fork(self) -> None:
        """Drop the state a forked worker inherited from its parent."""
        self.pid = os.getpid()
        self.in_worker = True
        self.cycles = 0
        del self.run_digests[:]
        for column in self.cols.values():
            del column[:]
        self.stack.clear()
        self.cell = -1
        self.cells.clear()
        self.cell_ids.clear()
        self.flushed = 0
        self.run_keys.clear()
        self.pending_keys.clear()
        self.cache_hits = self.cache_disk_hits = self.cache_misses = 0
        self.gc_s = 0.0

    def cell_index(self, key: str) -> int:
        index = self.cell_ids.get(key)
        if index is None:
            index = self.cell_ids[key] = len(self.cells)
            self.cells.append(key)
        return index

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start

    def flush(self) -> None:
        """Append new spans and rewrite this process's counter file."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        stem = self.out_dir / f"{'worker' if self.in_worker else 'main'}-{self.pid}"
        if self.tracing:
            count = len(self.cols["name"]) - self.flushed
            with open(f"{stem}.spans", "ab") as fh:
                fh.write(json.dumps({"count": count}).encode() + b"\n")
                for _, name in COLUMNS:
                    self.cols[name][self.flushed:].tofile(fh)
            self.flushed += count
        payload = {
            "pid": self.pid,
            "worker": self.in_worker,
            "cycles": self.cycles,
            "run_digests": self.run_digests,
            "max_rss_kb": max_rss_kb(),
        }
        if self.tracing:
            payload.update(
                cells=self.cells,
                run_keys=self.run_keys,
                cache_hits=self.cache_hits,
                cache_disk_hits=self.cache_disk_hits,
                cache_misses=self.cache_misses,
                gc_s=self.gc_s,
            )
        tmp = Path(f"{stem}.json.tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(f"{stem}.json")


def _spanned(rec: Recorder, name: str, fn):
    """Wrap ``fn`` so each call records one span named ``name``."""
    nid = NAME_ID[name]
    cols = rec.cols
    names, parents, cells, starts, ends = (cols[c] for _, c in COLUMNS)
    stack = rec.stack
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = len(names)
        names.append(nid)
        parents.append(stack[-1] if stack else -1)
        cells.append(rec.cell)
        ends.append(0.0)
        stack.append(index)
        starts.append(clock())
        try:
            return fn(*args, **kwargs)
        finally:
            ends[index] = clock()
            stack.pop()

    return wrapper


def install(rec: Recorder) -> None:
    """Count cycles per detailed run and flush worker counters per cell;
    when ``rec.tracing``, also span every layer entry point reported on."""
    from repro import machines
    from repro.core import Processor
    from repro.fuzz import generator, oracle
    from repro.harness import cache, experiments, parallel, runner, spec

    finish = Processor.finish

    @functools.wraps(finish)
    def counted_finish(self):
        stats = finish(self)
        rec.cycles += stats.cycles
        rec.run_digests.append(stats_digest(stats))
        if rec.tracing:
            rec.run_keys.append([rec.pending_keys.pop(id(self), "?"), stats.cycles])
        return stats

    Processor.finish = counted_finish

    # Pool workers are forked mid-run and enter here: drop the inherited
    # parent state first, write this worker's counters (and spans) after.
    run_cell = parallel._run_cell
    body = _spanned(rec, "pool.cell", run_cell) if rec.tracing else run_cell

    @functools.wraps(run_cell)
    def worker_cell(*args, **kwargs):
        if os.getpid() != rec.pid:
            rec.after_fork()
        try:
            return body(*args, **kwargs)
        finally:
            rec.flush()

    parallel._run_cell = worker_cell
    if not rec.tracing:
        return

    def span(owner, attr: str, name: str) -> None:
        setattr(owner, attr, _spanned(rec, name, getattr(owner, attr)))

    # repro.core: construction, the run loop and the four phases
    init = _spanned(rec, "core.construct", Processor.__init__)
    fingerprints: dict[int, tuple] = {}

    @functools.wraps(Processor.__init__)
    def traced_init(self, program, *args, **kwargs):
        init(self, program, *args, **kwargs)
        # keep the program alive so its id is not reused by another one
        entry = fingerprints.get(id(program))
        if entry is None:
            entry = fingerprints[id(program)] = (program, cache.program_fingerprint(program))
        key = hashlib.sha256(f"{entry[1]}|{self.config!r}".encode()).hexdigest()[:16]
        rec.pending_keys[id(self)] = key

    Processor.__init__ = traced_init
    span(Processor, "run", "core.run")
    for name, attr in PHASES.items():
        span(Processor, attr, name)

    # repro.ideal: the scheduler (as the registry calls it) and annotation
    span(machines, "simulate_ideal", "ideal.schedule")
    span(spec.WorkloadBundle, "annotated", "ideal.annotate")

    # repro.harness.cache + the derivations it (and the oracle) runs
    artifacts = _spanned(rec, "cache.artifacts", cache.ArtifactCache.artifacts)

    @functools.wraps(cache.ArtifactCache.artifacts)
    def counted_artifacts(self, *args, **kwargs):
        before = (self.stats.memory_hits, self.stats.disk_hits, self.stats.misses)
        result = artifacts(self, *args, **kwargs)
        memory, disk, misses = (
            now - then
            for now, then in zip(
                (self.stats.memory_hits, self.stats.disk_hits, self.stats.misses), before
            )
        )
        rec.cache_hits += memory + disk
        rec.cache_disk_hits += disk
        rec.cache_misses += misses
        return result

    cache.ArtifactCache.artifacts = counted_artifacts
    span(cache, "build_workload", "derive.build")
    for module in (cache, oracle):
        span(module, "GoldenTrace", "derive.golden")
        span(module, "ReconvergenceTable", "derive.reconv")

    # repro.harness.spec / runner / parallel
    row = _spanned(rec, "spec.row", spec.run_spec_row)
    spec.run_spec_row = row
    experiments.run_spec_row = row

    run_cell = runner.CellRunner.run_cell
    spanned_cell = _spanned(rec, "runner.cell", run_cell)

    @functools.wraps(run_cell)
    def traced_run_cell(self, cell, fn):
        outer = rec.cell
        rec.cell = rec.cell_index(getattr(cell, "key", None) or str(cell))
        try:
            return spanned_cell(self, cell, fn)
        finally:
            rec.cell = outer

    runner.CellRunner.run_cell = traced_run_cell
    span(runner.CheckpointStore, "record", "runner.checkpoint")
    span(parallel, "_prewarm_cache", "pool.prewarm")

    # repro.fuzz / repro.functional / repro.analysis
    span(generator, "generate_program", "fuzz.generate")
    span(oracle, "run_functional", "functional.reference")
    span(oracle, "check_stats", "analysis.invariants")

    gc.callbacks.append(rec.on_gc)


# ----------------------------------------------------------------------
# reading the written files back


def load_spans(path: Path) -> dict:
    """Every span of one process's ``.spans`` file, as columns."""
    cols = {name: array.array(code) for code, name in COLUMNS}
    with open(path, "rb") as fh:
        while True:
            header = fh.readline()
            if not header:
                break
            count = json.loads(header)["count"]
            for _, name in COLUMNS:
                cols[name].fromfile(fh, count)
    return cols


def fold_process(cols: dict) -> dict:
    """Per-name self time, duration and call count for one process.

    Also checks that the phase spans account for ``core.run``: a run
    span's children must be phase spans that fit inside it.
    """
    names, parents = cols["name"], cols["parent"]
    dur = [end - start for start, end in zip(cols["start"], cols["end"])]
    child = [0.0] * len(dur)
    phase_ids = {NAME_ID[name] for name in PHASES}
    run_id = NAME_ID["core.run"]
    stray_children = 0
    for index, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += dur[index]
            if names[parent] == run_id and names[index] not in phase_ids:
                stray_children += 1
    totals = {name: {"self_s": 0.0, "dur_s": 0.0, "calls": 0} for name in NAMES}
    worst_self = 0.0
    for index, nid in enumerate(names):
        entry = totals[NAMES[nid]]
        own = dur[index] - child[index]
        entry["self_s"] += own
        entry["dur_s"] += dur[index]
        entry["calls"] += 1
        worst_self = min(worst_self, own)
    return {"totals": totals, "stray_run_children": stray_children, "min_self_s": worst_self}


def fold(out_dir: Path) -> dict:
    """Fold every process's spans and counters written by a traced run."""
    totals = {name: {"self_s": 0.0, "dur_s": 0.0, "calls": 0} for name in NAMES}
    merged = {
        "cycles": 0,
        "run_keys": [],
        "cache_hits": 0,
        "cache_misses": 0,
        "pool_disk_hits": 0,
        "gc_s": 0.0,
        "stray_run_children": 0,
        "min_self_s": 0.0,
        "worker_busy_s": 0.0,
    }
    for info_path in sorted(Path(out_dir).glob("*.json")):
        info = json.loads(info_path.read_text())
        merged["cycles"] += info["cycles"]
        merged["run_keys"] += info["run_keys"]
        merged["cache_hits"] += info["cache_hits"]
        merged["cache_misses"] += info["cache_misses"]
        if info["worker"]:
            merged["pool_disk_hits"] += info["cache_disk_hits"]
        merged["gc_s"] += info["gc_s"]
        folded = fold_process(load_spans(info_path.with_suffix(".spans")))
        merged["stray_run_children"] += folded["stray_run_children"]
        merged["min_self_s"] = min(merged["min_self_s"], folded["min_self_s"])
        for name, entry in folded["totals"].items():
            for field, value in entry.items():
                totals[name][field] += value
        if info["worker"]:
            merged["worker_busy_s"] += folded["totals"]["pool.cell"]["dur_s"]
    merged["totals"] = totals
    return merged


def read_counters(out_dir: Path) -> dict:
    """Sum the untimed counters every process of a run wrote."""
    cycles, digests, rss_kb = 0, [], 0
    for info_path in sorted(Path(out_dir).glob("*.json")):
        info = json.loads(info_path.read_text())
        cycles += info["cycles"]
        digests += info["run_digests"]
        rss_kb += info["max_rss_kb"]
    return {"cycles": cycles, "runs_digest": digest(sorted(digests)), "rss_kb": rss_kb}
