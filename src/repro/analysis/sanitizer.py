"""Machine-invariant sanitizer for the detailed core (``REPRO_SANITIZE=1``).

The detailed simulator maintains several redundant views of the same
machine state: the ROB's doubly-linked list and its sorted order index,
the fetch-frontier rename map and the commit-side map overlaid with the
window's destination tags, the LSQ's store set and its unresolved
subset.  A bug (or an injected fault) that breaks one view surfaces
cycles later as a statistic drift or an unrelated cosimulation mismatch
— expensive to trace back.  The sanitizer cross-checks the views every
``sanitize_stride`` cycles and raises a structured
:class:`~repro.errors.SanitizerError` *naming the corrupted structure*
at (close to) the moment of corruption.

Checked invariants, by ``SanitizerError.structure``:

* ``rob-links`` — the linked window walks head→tail consistently
  (``prev``/``next`` columns agree), every linked slot is alive in the
  pool's state column, orders strictly increase, and the walk length
  matches ``rob.count``.
* ``order-index`` — ``rob._alive_orders`` is exactly the sorted orders
  of the linked slots (the O(log n) position index the golden-trace
  matching depends on).
* ``rename-map`` — with no recovery contexts active, the frontier map
  must equal the commit-side map overlaid with the window's destination
  tags, register by register.
* ``broadcast-network`` — every alive slot's destination tag is owned
  by that slot (``tag.producer`` equals the slot's packed pool ref) and
  no two alive slots share a tag: a violated single-writer rule
  silently crosses dependences.
* ``commit-order`` — retirement only moves forward: ``retired_count``
  never decreases, never exceeds the golden trace, and agrees with the
  retirement statistics.
* ``lsq`` — the LSQ tracks exactly the window's live memory
  instructions; the unresolved-store set is a subset of the stores and
  contains every incomplete store (the branch-completion gate scans
  only this subset, so a dropped entry breaks memory ordering quietly).
* ``gate-wakeup`` — missed-wakeup audit of the event-driven branch
  completion: while no gate event is outstanding (so the next complete
  phase will skip its retry of the gated branches), no pending branch
  may have an open completion gate.  The gates are recomputed here from
  the window and the LSQ, independently of the core's cached oldest
  incomplete branch.  Configurations that hide false mispredictions
  retry every cycle and are not audited.
* ``pool-free-list`` — the instruction pool's free list and the linked
  window split the real slots between them: no slot is on the free list
  twice (a double free), none is both linked and free, and none is in
  neither (a leak, which eventually starves dispatch).  ``pool.live``
  equals ``rob.count``, and in a segmented window ``segments_allocated``
  equals the number of distinct segments the linked slots occupy.  The
  suffix squash recycles a whole run of slots at once, so this is the
  audit that would see a miscounted splice.

The sanitizer is attached by ``Processor.__init__`` as the *first*
cycle hook when :meth:`repro.core.CoreConfig.sanitize_enabled` is true,
so fault-injection hooks registered afterwards corrupt state at the end
of cycle N and are caught by the check at the end of cycle N+1 (with
``sanitize_stride=1``).
"""

from __future__ import annotations

from ..core.soa import HEAD, REF_MASK, ST_COMPLETED, ST_DEAD, ST_RETIRED, TAIL
from ..errors import SanitizerError

#: structures checked, in check order (stable for tests/docs)
STRUCTURES = (
    "rob-links",
    "order-index",
    "broadcast-network",
    "rename-map",
    "commit-order",
    "lsq",
    "gate-wakeup",
    "pool-free-list",
)


class MachineSanitizer:
    """Per-cycle cross-check of the processor's redundant state views.

    Instances are callables compatible with
    ``Processor.add_cycle_hook``; construction is cheap and the stride
    keeps steady-state overhead proportional to ``window / stride``.
    """

    def __init__(self, stride: int = 1):
        if stride < 1:
            raise ValueError(f"sanitize_stride must be >= 1, got {stride!r}")
        self.stride = stride
        self.checks_run = 0
        self._last_retired = 0

    def __call__(self, proc) -> None:
        if proc.cycle % self.stride:
            return
        self.check(proc)

    # ------------------------------------------------------------------

    def check(self, proc) -> None:
        """Run every invariant check once; raises on the first failure."""
        self.checks_run += 1
        linked = self._check_rob_links(proc)
        self._check_order_index(proc, linked)
        # Broadcast before rename-map: a shared tag corrupts both views,
        # and the single-writer rule is the more precise localization.
        self._check_broadcast(proc, linked)
        self._check_rename_map(proc, linked)
        self._check_commit_order(proc)
        self._check_lsq(proc, linked)
        self._check_gate_wakeup(proc)
        self._check_pool_free_list(proc, linked)

    def _fail(self, proc, structure: str, message: str) -> None:
        raise SanitizerError(
            f"cycle {proc.cycle}: {message}", structure, proc.snapshot()
        )

    # ------------------------------------------------------------------

    def _check_rob_links(self, proc) -> list:
        rob = proc.rob
        pool = proc.pool
        prev_col = pool.prev
        next_col = pool.next
        order_col = pool.order
        state = pool.state
        linked: list = []
        node = next_col[HEAD]
        prev = HEAD
        limit = rob.count + 2  # a cycle in the links must not hang us
        while node != TAIL:
            if len(linked) >= limit:
                self._fail(
                    proc, "rob-links",
                    f"linked window walk exceeds count={rob.count}: "
                    "cycle or stale link in the window",
                )
            if prev_col[node] != prev:
                self._fail(
                    proc, "rob-links",
                    f"slot {pool.describe(node)}.prev does not point at "
                    "its predecessor",
                )
            if state[node] & ST_DEAD:
                dead = "retired" if state[node] & ST_RETIRED else "squashed"
                self._fail(
                    proc, "rob-links",
                    f"{dead} slot {pool.describe(node)} is still linked "
                    "in the window",
                )
            if order_col[node] <= order_col[prev]:
                self._fail(
                    proc, "rob-links",
                    f"order keys not strictly increasing at "
                    f"{pool.describe(node)}: "
                    f"{order_col[prev]} -> {order_col[node]}",
                )
            linked.append(node)
            prev = node
            node = next_col[node]
        if prev_col[TAIL] != prev:
            self._fail(
                proc, "rob-links", "tail boundary's prev does not close the window"
            )
        if len(linked) != rob.count:
            self._fail(
                proc, "rob-links",
                f"linked window holds {len(linked)} slots but count={rob.count}",
            )
        return linked

    def _check_order_index(self, proc, linked: list) -> None:
        order_col = proc.pool.order
        expected = [order_col[h] for h in linked]
        actual = proc.rob._alive_orders
        if list(actual) != expected:
            self._fail(
                proc, "order-index",
                f"_alive_orders diverged from the window: index has "
                f"{len(actual)} entries, walk has {len(expected)}"
                + (
                    ""
                    if len(actual) != len(expected)
                    else "; same length but different keys"
                ),
            )

    def _check_rename_map(self, proc, linked: list) -> None:
        if proc.contexts:
            return  # recovery in flight: the frontier map is transient
        pool = proc.pool
        dest_arch = pool.dest_arch
        dest_tag = pool.dest_tag
        overlay = list(proc.retired_map)
        for h in linked:
            if dest_arch[h] is not None:
                overlay[dest_arch[h]] = dest_tag[h]
        frontier = proc.frontier.rmap
        for arch, expected in enumerate(overlay):
            if frontier[arch] is not expected:
                self._fail(
                    proc, "rename-map",
                    f"frontier map for r{arch} does not match the "
                    "commit-side map overlaid with the window's "
                    "destination tags",
                )

    def _check_broadcast(self, proc, linked: list) -> None:
        pool = proc.pool
        dest_tag = pool.dest_tag
        ref_col = pool.ref
        owners: dict[int, int] = {}
        for h in linked:
            tag = dest_tag[h]
            if tag is None:
                continue
            other = owners.get(id(tag))
            if other is not None:
                self._fail(
                    proc, "broadcast-network",
                    f"alive slots {pool.describe(other)} and "
                    f"{pool.describe(h)} share one destination tag "
                    "(single-writer rule violated)",
                )
            owners[id(tag)] = h
            if tag.producer != ref_col[h]:
                self._fail(
                    proc, "broadcast-network",
                    f"destination tag of {pool.describe(h)} is owned by "
                    f"ref {tag.producer!r}",
                )

    def _check_commit_order(self, proc) -> None:
        retired = proc.retired_count
        if retired < self._last_retired:
            self._fail(
                proc, "commit-order",
                f"retired_count moved backwards: "
                f"{self._last_retired} -> {retired}",
            )
        if retired > len(proc.golden):
            self._fail(
                proc, "commit-order",
                f"retired_count {retired} exceeds the golden trace "
                f"({len(proc.golden)} entries)",
            )
        if proc.stats.retired != retired:
            self._fail(
                proc, "commit-order",
                f"stats.retired ({proc.stats.retired}) disagrees with "
                f"retired_count ({retired})",
            )
        self._last_retired = retired

    def _check_lsq(self, proc, linked: list) -> None:
        lsq = proc.lsq
        pool = proc.pool
        uid_col = pool.uid
        window_uids = {uid_col[h] for h in linked}
        for kind, table in (("store", lsq._stores), ("load", lsq._loads)):
            for uid, h in table.items():
                if uid != uid_col[h]:
                    self._fail(
                        proc, "lsq",
                        f"{kind} table key {uid} does not match slot uid "
                        f"{uid_col[h]}",
                    )
                if uid not in window_uids:
                    self._fail(
                        proc, "lsq",
                        f"{kind} {pool.describe(h)} is tracked by the LSQ "
                        "but no longer linked in the window",
                    )
        for uid, h in lsq._unresolved_stores.items():
            if uid not in lsq._stores:
                self._fail(
                    proc, "lsq",
                    f"unresolved store {pool.describe(h)} is not in the "
                    "store table (unresolved set must be a subset)",
                )
        for uid, h in lsq._stores.items():
            if not pool.state[h] & ST_COMPLETED and uid not in lsq._unresolved_stores:
                self._fail(
                    proc, "lsq",
                    f"incomplete store {pool.describe(h)} is missing from "
                    "the unresolved-store subset (memory ordering gate "
                    "would ignore it)",
                )

    def _check_gate_wakeup(self, proc) -> None:
        if proc._gate_event or proc.config.hide_false_mispredictions:
            return  # the next complete phase retries every gated branch
        pool = proc.pool
        state = pool.state
        orders = pool.order
        oldest = min(
            (
                orders[h]
                for h in proc._incomplete_branches.values()
                if not state[h] & (ST_COMPLETED | ST_DEAD)
            ),
            default=None,
        )
        for ref, token in proc._pending_branches:
            h = ref & REF_MASK
            if pool.ref[h] != ref or state[h] & ST_DEAD or token != pool.issue_count[h]:
                continue  # stale entry: squashed, recycled or reissued
            if proc._gate_in_order and oldest is not None and oldest < orders[h]:
                continue
            if proc._gate_stores and proc.lsq.unresolved_older_stores(h):
                continue
            self._fail(
                proc, "gate-wakeup",
                f"pending branch {pool.describe(h)} has an open completion "
                "gate but no gate event is outstanding (missed wakeup)",
            )

    def _check_pool_free_list(self, proc, linked: list) -> None:
        pool = proc.pool
        rob = proc.rob
        free = pool._free
        on_free = set(free)
        if len(on_free) != len(free):
            twice = next(h for h in free if free.count(h) > 1)
            self._fail(
                proc, "pool-free-list",
                f"slot {twice} is on the free list twice (double free)",
            )
        for h in free:
            if not TAIL < h < pool.capacity:
                self._fail(
                    proc, "pool-free-list",
                    f"free list holds {h!r}, which is not a real pool slot",
                )
        for h in linked:
            if h in on_free:
                self._fail(
                    proc, "pool-free-list",
                    f"linked slot {pool.describe(h)} is also on the free "
                    "list (freed while still in the window)",
                )
        if len(linked) + len(free) != pool.capacity - 2:
            leaked = sorted(
                set(range(TAIL + 1, pool.capacity)) - on_free - set(linked)
            )
            self._fail(
                proc, "pool-free-list",
                f"slots {leaked} are neither linked nor on the free list "
                "(leaked)",
            )
        if pool.live != rob.count:
            self._fail(
                proc, "pool-free-list",
                f"pool.live={pool.live} but rob.count={rob.count}",
            )
        if rob.segment_size > 1:
            segment_col = pool.segment
            occupied = len({id(segment_col[h]) for h in linked})
            if occupied != rob.segments_allocated:
                self._fail(
                    proc, "pool-free-list",
                    f"rob.segments_allocated={rob.segments_allocated} but "
                    f"the linked slots occupy {occupied} segments",
                )
