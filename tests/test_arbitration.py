"""Dynamic verification of the same-cycle arbitration contract.

The declarative spec (:data:`repro.analysis.arbitration.CONTRACT`) is
checked statically by ``repro.analysis.staticcheck.contract``; this
module holds it to account at runtime.  Every ready-heap push and pop
on the golden core cells and the committed fuzz corpus runs through an
instrumented ``heapq`` shim (installed by monkeypatching the module
globals the stages bind — no permanent hot-path hooks), which verifies:

* every pushed entry has the declared key composition, captured from
  the payload node at push time;
* under v2, captured keys still equal the node's live ``order`` at pop
  time and ``_respace`` never fires (the keys-stable clause);
* under v1, a stale pop (captured ``order`` differs from live) only
  ever happens when a ``_renumber`` epoch intervened between push and
  pop (the staleness clause);
* across schemes, the invariant stats are identical and total cycles
  agree within the contract's tolerance, on every golden cell and
  corpus reproducer.
"""

from __future__ import annotations

import dataclasses
import heapq as real_heapq
from pathlib import Path

import pytest

from repro.analysis.arbitration import CONTRACT
from repro.core import CoreConfig, Processor, ReconvPolicy
from repro.core.rob import ReorderBuffer
from repro.core.stages import backend as backend_mod
from repro.core.stages import sequencer as sequencer_mod
from repro.fuzz import load_corpus
from repro.fuzz.oracle import program_bundle
from repro.harness.experiments import load_bundle, run_core

SCALE = 0.12
#: jpeg has no golden cells; it is here so its cross-scheme agreement is
#: checked at all
WORKLOADS = ("compress", "go", "jpeg")
CORE_MACHINES = {
    "BASE": dict(window_size=256, reconv_policy=ReconvPolicy.NONE),
    "CI": dict(window_size=256, reconv_policy=ReconvPolicy.POSTDOM),
    "CI-I": dict(
        window_size=256,
        reconv_policy=ReconvPolicy.POSTDOM,
        instant_redispatch=True,
    ),
}
CORPUS_DIR = Path(__file__).parent / "corpus"


class HeapRecorder:
    """Contract-checking ``heapq`` stand-in plus epoch bookkeeping.

    Entries are pure int tuples whose payload is a pool handle; the
    recorder latches the machine's :class:`~repro.core.soa.InstrPool`
    when the ReorderBuffer is built, and validates captured keys against
    the pool's live columns.  A popped entry whose captured ``uid`` no
    longer matches the slot's live ``uid`` is a *dead* entry (the slot
    was recycled) — the simulator discards it, so key staleness is
    vacuous there."""

    def __init__(self):
        self.pushes = 0
        self.pops = 0
        self.stale_pops = 0
        self.dead_pops = 0
        self.renumbers = 0
        self.respaces = 0
        self.violations: list[str] = []
        #: the live machine's instruction pool (set by the install hook)
        self.pool = None
        #: rewrite-epoch counter; bumped by _renumber/_respace wrappers
        self.epoch = 0
        #: id(entry) -> (epoch at push, entry) — the entry ref keeps the
        #: id unique for as long as the record exists
        self._entry_epoch: dict[int, tuple[int, tuple]] = {}

    # -- the two heapq entry points the stages use ----------------------

    def heappush(self, heap, entry):
        self.pushes += 1
        key = CONTRACT.key
        pool = self.pool
        h = entry[-1]
        if len(entry) != len(key.fields):
            self.violations.append(f"push arity {len(entry)} != {len(key.fields)}")
        elif entry[1] != pool.order[h] or entry[2] != pool.uid[h]:
            self.violations.append(
                f"push key ({entry[1]}, {entry[2]}) != pool columns "
                f"({pool.order[h]}, {pool.uid[h]}) at push time"
            )
        self._entry_epoch[id(entry)] = (self.epoch, entry)
        real_heapq.heappush(heap, entry)

    def heappop(self, heap):
        entry = real_heapq.heappop(heap)
        self.pops += 1
        pushed_epoch, _ = self._entry_epoch[id(entry)]
        pool = self.pool
        h = entry[-1]
        if pool.uid[h] != entry[2]:
            self.dead_pops += 1  # slot recycled: entry is self-invalidated
        elif entry[1] != pool.order[h]:
            self.stale_pops += 1
            if pushed_epoch == self.epoch:
                self.violations.append(
                    f"stale pop (key order {entry[1]}, live {pool.order[h]}) "
                    f"with no renumber/respace between push and pop"
                )
        return entry

    def install(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "heapq", self)
        monkeypatch.setattr(sequencer_mod, "heappush", self.heappush)
        recorder = self
        orig_init = ReorderBuffer.__init__
        orig_renumber = ReorderBuffer._renumber
        orig_respace = ReorderBuffer._respace

        def init(self, *args, **kwargs):
            orig_init(self, *args, **kwargs)
            recorder.pool = self.pool

        def renumber(self):
            recorder.renumbers += 1
            recorder.epoch += 1
            return orig_renumber(self)

        def respace(self):
            recorder.respaces += 1
            recorder.epoch += 1
            return orig_respace(self)

        monkeypatch.setattr(ReorderBuffer, "__init__", init)
        monkeypatch.setattr(ReorderBuffer, "_renumber", renumber)
        monkeypatch.setattr(ReorderBuffer, "_respace", respace)


def _check_scheme_clauses(recorder: HeapRecorder, scheme: str, what: str) -> None:
    assert not recorder.violations, f"{what} ({scheme}): {recorder.violations[:5]}"
    assert recorder.pops > 0, f"{what} ({scheme}): heap never popped"
    if scheme == "v2":
        assert recorder.respaces == 0, (
            f"{what} (v2): _respace fired {recorder.respaces}x — the "
            f"never-expected fallback ran; the keys-stable clause is void"
        )
        assert recorder.renumbers == 0, f"{what} (v2): _renumber must not run"
        assert recorder.stale_pops == 0, (
            f"{what} (v2): {recorder.stale_pops} stale pops without rewrites"
        )
    else:
        assert recorder.respaces == 0, f"{what} (v1): _respace is v2-only"
        # stale pops are legal under v1 — but only across a renumber,
        # which heappop already enforced via recorder.violations.


def _assert_cross_scheme(stats_by_scheme: dict, what: str) -> None:
    v1 = dataclasses.asdict(stats_by_scheme["v1"])
    v2 = dataclasses.asdict(stats_by_scheme["v2"])
    for field in CONTRACT.invariant_fields:
        assert v1[field] == v2[field], (
            f"{what}: scheme-variant architectural stat {field}: "
            f"v1={v1[field]!r} v2={v2[field]!r}"
        )
    drift = abs(v1["cycles"] - v2["cycles"]) / max(v1["cycles"], 1)
    assert drift <= CONTRACT.cycles_tolerance, (
        f"{what}: cycles drift {drift:.2%} exceeds the contract's "
        f"{CONTRACT.cycles_tolerance:.0%} bound (v1={v1['cycles']}, "
        f"v2={v2['cycles']})"
    )


@pytest.fixture(scope="module")
def bundles():
    return {name: load_bundle(name, SCALE) for name in WORKLOADS}


@pytest.mark.parametrize("machine", sorted(CORE_MACHINES))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_golden_cells_obey_contract(bundles, workload, machine, monkeypatch):
    """Instrumented tie-break logging over the 6 core golden cells and
    the 3 jpeg cells."""
    stats_by_scheme = {}
    for scheme in ("v1", "v2"):
        recorder = HeapRecorder()
        with pytest.MonkeyPatch.context() as mp:
            recorder.install(mp)
            stats = run_core(
                bundles[workload],
                CoreConfig(order_scheme=scheme, **CORE_MACHINES[machine]),
            )
        _check_scheme_clauses(recorder, scheme, f"{workload}/{machine}")
        stats_by_scheme[scheme] = stats
    _assert_cross_scheme(stats_by_scheme, f"{workload}/{machine}")


def test_corpus_obeys_contract():
    """The committed fuzz reproducers under both schemes, instrumented.

    Reproducers are minimized divergence cases — precisely the programs
    that historically stressed squash/redispatch, where v1 renumbering
    and heap-key staleness concentrate.
    """
    reproducers = load_corpus(CORPUS_DIR)
    assert reproducers, "committed corpus is empty"
    config_base = dict(window_size=256, reconv_policy=ReconvPolicy.POSTDOM)
    for rep in reproducers:
        bundle = program_bundle(rep.program())
        stats_by_scheme = {}
        for scheme in ("v1", "v2"):
            recorder = HeapRecorder()
            with pytest.MonkeyPatch.context() as mp:
                recorder.install(mp)
                processor = Processor(
                    bundle.program,
                    CoreConfig(order_scheme=scheme, **config_base),
                    bundle.golden,
                    bundle.reconv,
                )
                stats_by_scheme[scheme] = processor.run()
            _check_scheme_clauses(recorder, scheme, rep.name)
        _assert_cross_scheme(stats_by_scheme, rep.name)


def test_contract_static_checks_are_clean():
    """The static half of the gate, runnable straight from pytest."""
    from repro.analysis.staticcheck import check_contract

    report = check_contract()
    assert report.clean, report.format()


def test_static_checker_detects_contract_drift():
    """Tampered specs must fail: wrong site, wrong tolerance."""
    from dataclasses import replace

    from repro.analysis.arbitration import HeapSiteSpec
    from repro.analysis.staticcheck import RepoIndex, source_root
    from repro.analysis.staticcheck.contract import check_contract

    index = RepoIndex(source_root())

    moved_pop = replace(
        CONTRACT,
        pop_sites=(HeapSiteSpec("core.stages.retire", "_retire_phase", "pop"),),
    )
    report = check_contract(index, moved_pop)
    messages = [d.message for d in report.errors()]
    assert any("undeclared ready-heap pop" in m for m in messages)
    assert any("not found" in m for m in messages)

    loosened = replace(CONTRACT, cycles_tolerance=0.5)
    report = check_contract(index, loosened)
    assert any(
        d.symbol == "CONTRACT.cycles_tolerance" for d in report.errors()
    ), report.format()

    weakened = replace(CONTRACT, invariant_fields=("retired",))
    report = check_contract(index, weakened)
    assert any(
        d.symbol == "CONTRACT.invariant_fields" for d in report.errors()
    ), report.format()
