"""Reorder buffer for the detailed core (paper Section 3.2.2, App. A.4).

The ROB is a doubly-linked window of dynamic instructions supporting
insertion and removal at arbitrary points — the structure restart
sequences need.  Since the columnar object model
(:class:`repro.core.soa.InstrPool`), an instruction is an integer
*handle* into the pool's columns and the links are two int columns
(``prev``/``next``) indexed by handle; the window boundaries are the
pool's permanent :data:`~repro.core.soa.HEAD` /
:data:`~repro.core.soa.TAIL` slots, so there are no sentinel objects
(and no uninitialized-``Instruction`` hack to fabricate them).

Logical order between any two entries is decided by integer keys in the
pool's ``order`` column, maintained under one of two schemes
(``CoreConfig(order_scheme=...)`` / ``REPRO_ORDER``):

* ``v1`` — the seed's midpoint discipline: every insert (including tail
  appends) takes the midpoint of its neighbours' keys, and a full-window
  renumber respaces everything when a gap is exhausted.  Because appends
  halve the gap to the tail boundary, a renumber fires every ~16
  dispatches — per fetch cycle at the paper's width.
* ``v2`` — renumber-free: tail appends (the hot path) take strictly
  monotonic sequence numbers spaced ``_SPACING`` apart, so keys are
  never rewritten and the order-index insert collapses to an append.
  Mid-window restart inserts take a low-biased step into the local gap
  (``lo + max(1, gap/256)``), leaving room for the right-chaining
  dispatch order of a restart sequence; only a pathologically nested
  restart chain can exhaust a gap, falling back to one full respace.

Both schemes yield the same architectural results — keys order the same
instructions the same way — but the ready heap captures key *values* at
push time, and a v1 renumber can rewrite keys between push and pop, so
same-cycle issue arbitration differs between schemes (v1 compares keys
from mixed numbering epochs; v2 keys are stable).  On most cells the
shift is confined to issue accounting; on recovery-heavy cells the
reordered completion of same-cycle branches can reorder recoveries and
cascade into timing statistics, while the retired stream stays pinned by
cosimulation (see ``repro.core.stats``).  Each scheme is pinned by its
own golden generation (``tests/goldens/``).

Segmentation (Appendix A.4) is modeled for capacity: instructions are
allocated into segments of ``segment_size`` entries; a partially used or
partially squashed segment still occupies ``segment_size`` window slots,
and a segment's slots are reclaimed only when every instruction in it
has retired or been squashed.
"""

from __future__ import annotations

from bisect import bisect_left

from .config import resolve_order_scheme
from .soa import HEAD, REF_SHIFT, TAIL, InstrPool, OrderIndex

_SPACING = 1 << 16

#: v2 tail-boundary key: far above any reachable sequence number (a run
#: would need ~2^46 dispatches to approach it), so the youngest real
#: instruction always has a huge gap to the boundary and appends never
#: trigger gap maintenance.
_V2_TAIL = 1 << 62

#: "no link" value of the pool's ``prev``/``next`` columns (outward
#: sides of the boundary slots only — every linked slot has real links)
NO_LINK = -1


class Segment:
    """Capacity-accounting unit of the segmented ROB."""

    __slots__ = ("live",)

    def __init__(self):
        self.live = 0


class ReorderBuffer:
    """Linked window over pool handles, with order keys and segments."""

    def __init__(
        self,
        window_size: int,
        segment_size: int = 1,
        order_scheme: str | None = None,
    ):
        if window_size % segment_size:
            raise ValueError("window_size must be a multiple of segment_size")
        self.window_size = window_size
        self.segment_size = segment_size
        self.order_scheme = resolve_order_scheme(order_scheme)
        #: the columnar instruction store: exactly the window plus the
        #: two boundary slots, since every slot is freed the moment it
        #: is unlinked at retire/squash
        self.pool = InstrPool(window_size + 2)
        pool = self.pool
        pool.next[HEAD] = TAIL
        pool.prev[TAIL] = HEAD
        pool.prev[HEAD] = NO_LINK
        pool.next[TAIL] = NO_LINK
        pool.order[HEAD] = 0
        self._v2 = self.order_scheme == "v2"
        if self._v2:
            pool.order[TAIL] = _V2_TAIL
            self._next_order = _SPACING  # next tail-append sequence number
            self._place = self._place_v2
        else:
            pool.order[TAIL] = 2 * _SPACING
            self._place = self._place_v1
        self.count = 0  # live instructions
        self.segments_allocated = 0
        #: sorted order keys of every linked (alive) instruction — the
        #: incremental position index behind :meth:`index_of`, kept as a
        #: dense int column (:class:`repro.core.soa.OrderIndex`).
        #: Orders are unique under both schemes (a gap is respaced before
        #: it collapses), so one bisect recovers a slot's window position
        #: in O(log n) instead of the O(window) head-to-node scan the
        #: golden-trace matching paid per branch completion.
        self._alive_orders = OrderIndex(window_size)

    # ------------------------------------------------------------------
    # capacity

    @property
    def slots_used(self) -> int:
        if self.segment_size == 1:
            return self.count
        return self.segments_allocated * self.segment_size

    @property
    def full(self) -> bool:
        return self.slots_used >= self.window_size

    def alloc_into(self, segment: Segment | None) -> Segment:
        """Return the segment a new instruction should occupy, allocating a
        fresh one when ``segment`` is missing or full."""
        if segment is None or segment.live >= self.segment_size:
            segment = Segment()
            self.segments_allocated += 1
        return segment

    # ------------------------------------------------------------------
    # list structure

    def _renumber(self) -> None:
        pool = self.pool
        order_col = pool.order
        next_col = pool.next
        order = 0
        h = HEAD
        linked = -2  # exclude both boundary slots from the count
        while h != NO_LINK:
            order_col[h] = order
            order += _SPACING
            h = next_col[h]
            linked += 1
        self._alive_orders.renumber(linked, _SPACING)

    def _place_v1(self, h: int, after: int) -> None:
        pool = self.pool
        prev_col = pool.prev
        next_col = pool.next
        order_col = pool.order
        succ = next_col[after]
        prev_col[h] = after
        next_col[h] = succ
        next_col[after] = h
        prev_col[succ] = h
        # NOTE: the ready heap captures ``order[h]`` in its sort keys
        # at push time — renumber *timing* is observable through
        # stale-key tie-breaks, and the v1 golden gate pins it.  Keys and
        # renumber points must stay exactly the seed's under this scheme.
        lo, hi = order_col[after], order_col[succ]
        if hi - lo < 2:
            # Renumbering rebuilds the position index with ``h``
            # already linked; its midpoint order equals the renumbered
            # one, so the index entry is already correct.
            self._renumber()
            lo, hi = order_col[after], order_col[succ]
            order_col[h] = (lo + hi) // 2
            return
        order = (lo + hi) // 2
        order_col[h] = order
        self._alive_orders.insert(order)

    def _respace(self) -> None:
        """v2 fallback: respace every key after a restart-chain gap
        collapse (the caller's slot is already linked, so it gets its
        key here and the index refill already covers it)."""
        pool = self.pool
        order_col = pool.order
        next_col = pool.next
        order = 0
        h = HEAD
        linked = -1  # exclude the head boundary; the tail keeps _V2_TAIL
        while h != TAIL:
            order_col[h] = order
            order += _SPACING
            h = next_col[h]
            linked += 1
        self._next_order = order
        self._alive_orders.renumber(linked, _SPACING)

    def _place_v2(self, h: int, after: int) -> None:
        pool = self.pool
        prev_col = pool.prev
        next_col = pool.next
        order_col = pool.order
        succ = next_col[after]
        prev_col[h] = after
        next_col[h] = succ
        next_col[after] = h
        prev_col[succ] = h
        if succ == TAIL:
            # Hot path: frontier dispatch appends take the next sequence
            # number — no gap math, no renumber, and the order index
            # extends by one tail write.
            order_col[h] = order = self._next_order
            self._next_order = order + _SPACING
            self._alive_orders.append(order)
            return
        # Restart insert: step a small fraction into the gap so the
        # right-chaining dispatch order of a restart sequence (each
        # instruction inserted after the previous one) fits hundreds of
        # entries before the gap thins.  Only deeply nested restart
        # chains can exhaust one, and then a single respace restores
        # full spacing everywhere.
        lo, hi = order_col[after], order_col[succ]
        gap = hi - lo
        if gap < 2:
            self._respace()
            return
        order = lo + ((gap >> 8) or 1)
        order_col[h] = order
        self._alive_orders.insert(order)

    def insert_after(self, after: int, h: int, segment: Segment | None) -> Segment | None:
        """Link slot ``h`` after ``after``; returns the segment used."""
        self._place(h, after)
        self.count += 1
        if self.segment_size == 1:
            # One slot per instruction: capacity accounting is exactly
            # ``count``, so allocating a Segment per dispatch would be
            # pure bookkeeping overhead (the segment column stays None
            # and ``remove`` skips it).
            return None
        segment = self.alloc_into(segment)
        self.pool.segment[h] = segment
        segment.live += 1
        return segment

    def append(self, h: int, segment: Segment | None) -> Segment | None:
        """Link slot ``h`` at the tail; returns the segment used."""
        return self.insert_after(self.pool.prev[TAIL], h, segment)

    def dispatch_tail(
        self, uid: int, pc: int, instr, cycle: int, segment: Segment | None
    ) -> int:
        """Claim a pool slot for a frontier-dispatched instruction and
        append it at the tail; returns its handle.

        Under v2 this fuses :meth:`InstrPool.alloc`, the tail link and the
        monotonic order key into one frame (the hottest call in the
        simulator: one per fetched instruction).  The slot's columns end
        exactly as ``alloc`` + :meth:`append` leave them — a test pins
        the two paths column by column.  The segment the slot joined is
        left in ``pool.segment[h]`` (None when ``segment_size == 1``)."""
        pool = self.pool
        if not self._v2:
            h = pool.alloc(uid, pc, instr, cycle)
            self.insert_after(pool.prev[TAIL], h, segment)
            return h
        free = pool._free
        if not free:
            pool.alloc(uid, pc, instr, cycle)  # raises PoolExhausted
        h = free.pop()
        pool.allocated_total += 1
        pool.uid[h] = uid
        pool.ref[h] = (uid << REF_SHIFT) | h
        pool.pc[h] = pc
        pool.instr[h] = instr
        pool.dispatch_cycle[h] = cycle
        pool.state[h] = 0
        pool.issue_count[h] = 0
        pool.value[h] = None
        pool.addr[h] = None
        pool.prev_addr[h] = None
        pool.store_value[h] = None
        pool.fwd_store[h] = None
        pool.ras_snapshot[h] = None
        pool.outcome_taken[h] = False
        pool.outcome_next_pc[h] = 0
        prev_col = pool.prev
        prev = prev_col[TAIL]
        prev_col[h] = prev
        pool.next[h] = TAIL
        pool.next[prev] = h
        prev_col[TAIL] = h
        pool.order[h] = order = self._next_order
        self._next_order = order + _SPACING
        index = self._alive_orders  # inlined OrderIndex.append
        n = index._n
        if n == len(index._buf):
            index._grow()
        index._buf[n] = order
        index._n = n + 1
        self.count += 1
        if self.segment_size == 1:
            pool.segment[h] = None
            return h
        segment = self.alloc_into(segment)
        pool.segment[h] = segment
        segment.live += 1
        return h

    def remove(self, h: int) -> None:
        """Unlink a dead slot, release its window slot, recycle it.

        The order-index removal and the free-list push are inlined (this
        class owns both through its pool and index): retirement and
        per-node squashes pay one call per instruction, not three."""
        pool = self.pool
        prev_col = pool.prev
        next_col = pool.next
        prev, nxt = prev_col[h], next_col[h]
        next_col[prev] = nxt
        prev_col[nxt] = prev
        segment = pool.segment[h]
        if segment is not None:
            segment.live -= 1
            if segment.live == 0:
                self.segments_allocated -= 1
        self.count -= 1
        index = self._alive_orders
        n = index._n
        buf = index._buf
        i = bisect_left(buf, pool.order[h], 0, n)
        buf[i : n - 1] = buf[i + 1 : n]
        index._n = n - 1
        pool._free.append(h)

    #: Unlink a retired instruction — same slot accounting as ``remove``,
    #: aliased rather than delegated (one call frame per retirement).
    retire = remove

    def remove_after(self, last_kept: int) -> list[int]:
        """Unlink the suffix after ``last_kept`` (every slot up to the
        tail) and recycle its slots; returns them tail-first.

        One link splice, one order-index truncation by count and one
        free-list extend replace a per-slot :meth:`remove`: the suffix's
        keys are the largest in the index, and the free list receives the
        slots in the same tail-first order a per-slot squash pushes them.
        A ``last_kept`` that is not linked squashes the whole window, as
        a tail-first walk that never meets it would.  The caller marks
        the victims dead; their columns stay readable until the next
        allocation."""
        pool = self.pool
        prev_col = pool.prev
        victims: list[int] = []
        node = prev_col[TAIL]
        while node != last_kept and node != HEAD:
            victims.append(node)
            node = prev_col[node]
        if not victims:
            return victims
        pool.next[node] = TAIL
        prev_col[TAIL] = node
        k = len(victims)
        self.count -= k
        if self.segment_size != 1:
            segment_col = pool.segment
            for h in victims:
                segment = segment_col[h]
                segment.live -= 1
                if segment.live == 0:
                    self.segments_allocated -= 1
        self._alive_orders.drop_last(k)
        pool._free.extend(victims)
        return victims

    # ------------------------------------------------------------------
    # traversal

    @property
    def head(self) -> int | None:
        h = self.pool.next[HEAD]
        return h if h != TAIL else None

    @property
    def tail(self) -> int | None:
        h = self.pool.prev[TAIL]
        return h if h != HEAD else None

    def iter_from(self, h: int):
        """Iterate handles from ``h`` (inclusive) to the tail boundary."""
        next_col = self.pool.next
        while h != TAIL and h != NO_LINK:
            yield h
            h = next_col[h]

    def iter_all(self):
        yield from self.iter_from(self.pool.next[HEAD])

    def index_of(self, h: int) -> int:
        """Window position of a linked slot: the number of alive
        instructions logically older than it (O(log n) via the
        incrementally maintained order index)."""
        return self._alive_orders.position(self.pool.order[h])

    def precedes(self, a: int, b: int) -> bool:
        """True if slot ``a`` is logically older than slot ``b``."""
        return self.pool.order[a] < self.pool.order[b]
