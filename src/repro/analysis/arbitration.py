"""The same-cycle arbitration contract, as a declarative spec.

PR 8's v1/v2 oracle established that the two ROB order schemes are two
different — but equivalent-up-to-tie-breaks — same-cycle arbitration
policies: when several instructions become issue-eligible in the same
cycle, the ready heap breaks the tie by ``(eligible, order, uid)``, and
the two schemes assign ``order`` differently.  Until now that contract
lived only in code and in BENCH cascade cells; this module states it
once, declaratively, and two independent checkers hold the code to it:

* the **static** checker (:mod:`repro.analysis.staticcheck.contract`)
  verifies that the ready heap is pushed and popped *only* at the
  declared sites, that every push key has the declared composition,
  and that the scheme constants here match their authoritative
  definitions in :mod:`repro.core`;
* the **dynamic** test (``tests/test_arbitration.py``) instruments the
  heap and the renumber/respace epochs on the golden cells and the fuzz
  corpus and verifies the staleness and equivalence clauses at runtime.

The spec is data, not behavior — nothing in the simulator imports it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HeapKeySpec:
    """Composition of a ready-heap entry tuple.

    Entries are pure int tuples: the payload is a pool *handle* into the
    columnar :class:`repro.core.soa.InstrPool`, and the captured
    components are reads of the pool's ``order``/``uid`` columns at push
    time.  The captured ``uid`` doubles as the pop-side validity check —
    a recycled slot's live ``uid`` no longer matches the entry's."""

    #: entry component names, in tuple order
    fields: tuple[str, ...]
    #: components captured from the pool columns *at push time* — these
    #: can go stale if the column cell is rewritten while the entry waits
    captured_at_push: tuple[str, ...]
    #: the component carrying the pool handle
    payload: str


@dataclass(frozen=True)
class HeapSiteSpec:
    """One declared push or pop site of the ready heap."""

    module: str  # dotted module under repro (e.g. "core.stages.backend")
    function: str
    op: str  # "push" | "pop"


@dataclass(frozen=True)
class SchemeRules:
    """Per-order-scheme arbitration behavior."""

    name: str
    #: True when a pushed key's ``order`` component can never diverge
    #: from the node's live ``order`` without an epoch event
    keys_stable: bool
    #: the maintenance routine that rewrites live ``order`` values
    #: (and therefore strands captured heap keys) — the "epoch event"
    rewrite_routine: str
    #: placement routine that may invoke the rewrite
    placement_routine: str
    #: routines that must NOT be reachable from this scheme's placement
    forbidden_routines: tuple[str, ...]
    #: one-line statement of the policy, rendered into DESIGN.md
    policy: str


@dataclass(frozen=True)
class ArbitrationContract:
    """Everything the same-cycle tie-break behavior is allowed to do."""

    #: the Processor attribute holding the ready heap
    heap_attr: str
    key: HeapKeySpec
    push_sites: tuple[HeapSiteSpec, ...]
    pop_sites: tuple[HeapSiteSpec, ...]
    schemes: tuple[SchemeRules, ...]
    #: stats that MUST be identical across schemes (architectural
    #: results; mirrors repro.core.stats.ORDER_SCHEME_INVARIANT_FIELDS)
    invariant_fields: tuple[str, ...]
    #: stats a scheme change may legitimately move (tie-break order;
    #: mirrors repro.core.stats.TIEBREAK_SENSITIVE_FIELDS)
    tiebreak_sensitive: tuple[str, ...]
    #: maximum relative cycles drift between schemes on any cell
    #: (mirrors repro.core.stats.CYCLES_CASCADE_TOLERANCE)
    cycles_tolerance: float

    def describe(self) -> str:
        """Render the contract as the DESIGN.md section body."""
        lines = [
            f"Ready heap: `Processor.{self.heap_attr}`, entries "
            f"`({', '.join(self.key.fields)})`.",
            f"Captured at push: {', '.join(self.key.captured_at_push)} "
            f"(pool-column reads; stale once the cell's live value "
            f"moves); payload: `{self.key.payload}`.",
            "",
            "Push sites: "
            + ", ".join(f"`{s.module}.{s.function}`" for s in self.push_sites)
            + ".",
            "Pop sites: "
            + ", ".join(f"`{s.module}.{s.function}`" for s in self.pop_sites)
            + ".",
            "",
        ]
        for scheme in self.schemes:
            lines.append(f"**{scheme.name}** — {scheme.policy}")
            lines.append(
                f"  keys stable: {scheme.keys_stable}; order rewrite: "
                f"`{scheme.rewrite_routine}` (from "
                f"`{scheme.placement_routine}`); forbidden: "
                + ", ".join(f"`{r}`" for r in scheme.forbidden_routines)
                + "."
            )
        lines += [
            "",
            "Across schemes, "
            + ", ".join(f"`{f}`" for f in self.invariant_fields)
            + " must be identical; "
            + ", ".join(f"`{f}`" for f in self.tiebreak_sensitive)
            + f" may drift; cycles may differ by at most "
            f"{self.cycles_tolerance:.0%} on any cell.",
        ]
        return "\n".join(lines)


#: THE contract.  Change simulator arbitration behavior → change this
#: spec in the same commit, or the static checker and dynamic test fail.
CONTRACT = ArbitrationContract(
    heap_attr="_ready",
    key=HeapKeySpec(
        fields=("eligible", "order", "uid", "handle"),
        captured_at_push=("order", "uid"),
        payload="handle",
    ),
    push_sites=(
        HeapSiteSpec("core.stages.sequencer", "_dispatch", "push"),
        HeapSiteSpec("core.stages.backend", "_push_ready", "push"),
        HeapSiteSpec("core.stages.backend", "_broadcast", "push"),
    ),
    pop_sites=(
        HeapSiteSpec("core.stages.backend", "_issue_phase", "pop"),
    ),
    schemes=(
        SchemeRules(
            name="v1",
            keys_stable=False,
            rewrite_routine="_renumber",
            placement_routine="_place_v1",
            forbidden_routines=("_respace",),
            policy=(
                "midpoint insertion; a gap collapse triggers a full "
                "renumber that rewrites every live order, so heap keys "
                "captured before a renumber are stale afterwards — a "
                "stale pop may issue same-cycle peers in pre-renumber "
                "order"
            ),
        ),
        SchemeRules(
            name="v2",
            keys_stable=True,
            rewrite_routine="_respace",
            placement_routine="_place_v2",
            forbidden_routines=("_renumber",),
            policy=(
                "renumber-free monotonic tail sequence (spaced 2^16); "
                "insertions bisect the gap low-biased; orders are never "
                "rewritten in normal operation (`_respace` is a "
                "never-expected fallback), so captured keys equal live "
                "orders at pop time"
            ),
        ),
    ),
    # The three mirror fields below are deliberate *literals*: the
    # static checker compares them against their authoritative
    # definitions (repro.core.stats ORDER_SCHEME_INVARIANT_FIELDS,
    # TIEBREAK_SENSITIVE_FIELDS and CYCLES_CASCADE_TOLERANCE), so
    # loosening either side without the other fails the contract check.
    invariant_fields=("branch_events", "retired"),
    tiebreak_sensitive=(
        "issues_of_retired",
        "issues_total",
        "reissues_memory",
        "reissues_register",
        "stage_complete_cycles",
        "stage_dispatch_cycles",
        "stage_fetch_cycles",
        "stage_issue_cycles",
        "stage_recover_cycles",
        "stage_retire_cycles",
    ),
    cycles_tolerance=0.02,
)


__all__ = [
    "ArbitrationContract",
    "CONTRACT",
    "HeapKeySpec",
    "HeapSiteSpec",
    "SchemeRules",
]
