"""Structure-of-arrays state columns for the detailed core.

The detailed machine's dynamic-instruction state lives here as dense,
preallocated columns rather than per-instruction Python objects:

* :class:`InstrPool` — the columnar instruction pool: every field a
  dynamic instruction carries (identity, window links, rename tags,
  execution state, control state) is one capacity-sized column, and an
  in-flight instruction is just an integer *handle* indexing them.
  Slots are recycled through a free list on retire/squash; handles 0
  and 1 are the window's permanent head/tail boundary slots.
* :class:`OrderIndex` — the ROB's sorted order-key column (the position
  index behind ``index_of`` and the sanitizer's ``order-index`` audit)
  as a preallocated stdlib ``array('q')``.  Inserts and removes are
  C-speed slice moves, lookups are C ``bisect``, and a renumber refills
  the column with one block copy instead of a per-entry list rebuild.
* :class:`CompletionWheel` — the completion-event schedule as a
  preallocated ring of slot lists indexed by ``cycle & mask``.  Packed
  slot references and reissue tokens live in two parallel lists per
  slot (structure of arrays, not an array of tuples), so scheduling an
  event allocates nothing.

Every integer column is a stdlib ``array('q')`` at every capacity: the
hot paths touch one element at a time, and a numpy column, which boxes
a scalar per access, measured slower at every window size up to 4096
(EXPERIMENTS.md, "Wide windows").

Deliberately *not* columnar (measured, not assumed):

* the ready list stays a ``heapq`` of ``(eligible, order, uid, handle)``
  int tuples — CPython's C-implemented heap beats any Python-level
  sift-up/down over parallel arrays at window-sized occupancies;
* the rename map stays a list of ``PhysReg`` objects — tags are already
  shared write-many cells, and the broadcast network addresses them
  directly;
* the LSQ's unresolved-store subset stays a keyed dict — its entries'
  order keys would go stale on a ROB renumber, and the subset is
  near-empty in steady state.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left

from ..errors import PoolExhausted

_MIN_CAPACITY = 64


def _int_column(capacity: int, fill: int = 0) -> array:
    """A ``capacity``-long ``array('q')`` column holding ``fill``."""
    return array("q", [fill]) * capacity


class OrderIndex:
    """Sorted ``array('q')`` column of the window's order keys.

    Supports the exact surface the ROB, the sanitizer and the
    fault-injection layer use: sorted insert/remove by value,
    ``bisect_left`` position lookup, full renumber, and list-like
    indexing (``len``/``[]``/iteration) so audits and injected faults
    see one flat integer column.  The column doubles when it fills.
    """

    __slots__ = ("_buf", "_n")

    def __init__(self, capacity: int = _MIN_CAPACITY):
        self._buf = _int_column(max(int(capacity), _MIN_CAPACITY))
        self._n = 0

    # ------------------------------------------------------------------
    # sequence surface (sanitizer audits, fault injectors)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.tolist()[i]
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("OrderIndex index out of range")
        return self._buf[i]

    def __setitem__(self, i, value) -> None:
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("OrderIndex index out of range")
        self._buf[i] = value

    def __iter__(self):
        buf = self._buf
        for i in range(self._n):
            yield buf[i]

    def tolist(self) -> list[int]:
        return list(self._buf[: self._n])

    def __repr__(self) -> str:  # debugging aid
        return f"OrderIndex({self.tolist()!r})"

    # ------------------------------------------------------------------
    # sorted-column operations

    def _grow(self) -> None:
        fresh = _int_column(2 * len(self._buf))
        fresh[: self._n] = self._buf[: self._n]
        self._buf = fresh

    def position(self, order: int) -> int:
        """``bisect_left`` of ``order`` in the column."""
        return bisect_left(self._buf, order, 0, self._n)

    def insert(self, order: int) -> None:
        n = self._n
        if n == len(self._buf):
            self._grow()
        buf = self._buf
        if n and buf[n - 1] < order:  # append fast path (frontier fetch)
            buf[n] = order
        else:
            i = bisect_left(buf, order, 0, n)
            buf[i + 1 : n + 1] = buf[i:n]  # overlap-safe slice move
            buf[i] = order
        self._n = n + 1

    def append(self, order: int) -> None:
        """Extend the column with a key larger than every current entry.

        The v2 order scheme's dispatch path: tail appends carry strictly
        monotonic keys, so the sorted invariant holds by construction and
        neither the bisect nor the tail-comparison of :meth:`insert` is
        needed.
        """
        n = self._n
        if n == len(self._buf):
            self._grow()
        self._buf[n] = order
        self._n = n + 1

    def remove(self, order: int) -> None:
        # Runs once per retired or squashed instruction: the bisect is
        # inlined rather than routed through position().
        n = self._n
        buf = self._buf
        i = bisect_left(buf, order, 0, n)
        buf[i : n - 1] = buf[i + 1 : n]
        self._n = n - 1

    def drop_last(self, count: int) -> None:
        """Remove the ``count`` largest keys — a window suffix squash."""
        self._n -= count

    def renumber(self, count: int, spacing: int) -> None:
        """Refill the column with ``spacing * (1..count)`` — the key
        layout a ROB renumber assigns — in one block copy."""
        while count > len(self._buf):
            self._grow()
        self._buf[:count] = _refill_template(spacing, count)[:count]
        self._n = count

    def rebuild(self, orders) -> None:
        """Replace the column's contents with ``orders`` (already sorted)."""
        orders = array("q", orders)
        while len(orders) > len(self._buf):
            self._grow()
        self._buf[: len(orders)] = orders
        self._n = len(orders)


def _refill_template(spacing: int, count: int, _cache={}):
    """Shared, lazily grown ``spacing * (1..n)`` template: a renumber
    refill becomes one block copy instead of materializing a fresh
    range per renumber (renumbers fire every ~16 appends)."""
    template = _cache.get(spacing)
    if template is None or len(template) < count:
        size = max(count, 2 * len(template) if template is not None else 256)
        template = array("q", range(spacing, (size + 1) * spacing, spacing))
        _cache[spacing] = template
    return template


# ----------------------------------------------------------------------
# the columnar instruction pool

#: permanent boundary handles: the window's head/tail anchor slots.
#: Real instructions occupy handles ``>= 2``; link walks start at
#: ``next[HEAD]`` and stop on ``TAIL``, so the boundaries are explicit
#: indices rather than sentinel objects.
HEAD = 0
TAIL = 1

#: ``state`` column bit flags — the nine boolean fields of a dynamic
#: instruction packed into one int so liveness/retire gating is a single
#: masked compare and a slot reset is one store.
ST_INFLIGHT = 1 << 0
ST_COMPLETED = 1 << 1
ST_RETIRED = 1 << 2
ST_SQUASHED = 1 << 3
ST_IN_READY = 1 << 4
ST_RECOVERING = 1 << 5
ST_FETCHED_MP = 1 << 6
ST_ISSUED_MP = 1 << 7
ST_REISSUED_MP = 1 << 8

#: an instruction is dead once retired or squashed
ST_DEAD = ST_RETIRED | ST_SQUASHED

#: retirement proceeds only when the head slot's gating bits are exactly
#: "completed": not in the ready heap, not executing, not recovering
ST_RETIRE_GATE = ST_COMPLETED | ST_IN_READY | ST_INFLIGHT | ST_RECOVERING

#: packed slot references: ``ref = (uid << REF_SHIFT) | handle``.  A ref
#: stored in a side structure (ready heap payloads validate by uid, the
#: completion wheel, register consumer lists, ``fwd_store``) stays valid
#: across slot recycling — a recycled slot rewrites its ``ref`` column
#: entry, so ``pool.ref[ref & REF_MASK] == ref`` iff the referenced
#: instruction still owns the slot.
REF_SHIFT = 32
REF_MASK = (1 << REF_SHIFT) - 1


class InstrPool:
    """Preallocated columnar store of every in-flight instruction.

    One column per ``DynInstr`` field of the historical object model; an
    instruction is an integer handle, allocated by :meth:`alloc` and
    recycled through a LIFO free list when the ROB unlinks it at
    retire/squash.  The ROB's hot paths (``dispatch_tail``, ``remove``,
    ``remove_after``) pop and push the free list directly; :meth:`alloc`
    and :meth:`free` are the one-slot spellings they must match.
    Handles :data:`HEAD` and :data:`TAIL` are the window's permanent
    boundary slots and are never allocated.

    Columns split by type, deliberately:

    * **int columns** (``uid``, ``order``, ``prev``, ``next``,
      ``state``) — the link/ordering/liveness state every hot-path
      check touches, held as stdlib ``array('q')`` (the same column
      type as :class:`OrderIndex`).
    * **plain-list columns** (tags, values, addresses, control state) —
      these hold Python objects or ``None`` sentinels, which a typed
      array cannot store.

    A freed slot keeps its ``uid`` and dead ``state`` bits until the
    slot is reallocated, so stale references held by the ready heap or
    the completion wheel validate (and skip) exactly like the historical
    dead-node checks; :meth:`alloc` resets every column a dispatch does
    not overwrite before it is read.
    """

    __slots__ = (
        "capacity",
        "allocated_total",
        # int columns
        "uid",
        "order",
        "prev",
        "next",
        "state",
        # identity / payload columns (plain lists)
        "ref",
        "pc",
        "instr",
        "segment",
        # rename columns
        "src1_tag",
        "src2_tag",
        "dest_tag",
        "dest_arch",
        # execution-state columns
        "dispatch_cycle",
        "issue_count",
        "value",
        "addr",
        "prev_addr",
        "store_value",
        "fwd_store",
        # control-state columns
        "predicted_next_pc",
        "history_used",
        "ras_snapshot",
        "current_taken",
        "current_next_pc",
        "outcome_taken",
        "outcome_next_pc",
        "_free",
    )

    def __init__(self, capacity: int):
        capacity = int(capacity)
        if capacity < 3:
            raise ValueError("InstrPool needs the two boundary slots plus one")
        self.capacity = capacity
        self.allocated_total = 0
        self.uid = _int_column(capacity, -1)
        self.order = _int_column(capacity, -1)
        self.prev = _int_column(capacity, -1)
        self.next = _int_column(capacity, -1)
        # Unallocated slots read as dead, so an accidentally retained
        # handle behaves like a squashed instruction, never a live one.
        self.state = _int_column(capacity, ST_SQUASHED)
        self.ref = [-1] * capacity
        none_col = [None] * capacity
        self.pc = [-1] * capacity
        self.instr = list(none_col)
        self.segment = list(none_col)
        self.src1_tag = list(none_col)
        self.src2_tag = list(none_col)
        self.dest_tag = list(none_col)
        self.dest_arch = list(none_col)
        self.dispatch_cycle = [0] * capacity
        self.issue_count = [0] * capacity
        self.value = list(none_col)
        self.addr = list(none_col)
        self.prev_addr = list(none_col)
        self.store_value = list(none_col)
        self.fwd_store = list(none_col)
        self.predicted_next_pc = [0] * capacity
        self.history_used = [0] * capacity
        self.ras_snapshot = list(none_col)
        self.current_taken = [False] * capacity
        self.current_next_pc = [0] * capacity
        self.outcome_taken = [False] * capacity
        self.outcome_next_pc = [0] * capacity
        # Boundary slots: alive (state 0), fixed uids, linked by the ROB.
        self.uid[HEAD] = -1
        self.uid[TAIL] = -2
        self.state[HEAD] = 0
        self.state[TAIL] = 0
        # LIFO free list over the real slots; popping from the end means
        # the most recently freed slot is reused first (cache-warm).
        self._free = list(range(capacity - 1, TAIL, -1))

    # ------------------------------------------------------------------

    @property
    def live(self) -> int:
        """Number of currently allocated (not freed) real slots."""
        return (self.capacity - 2) - len(self._free)

    def alloc(self, uid: int, pc: int, instr, cycle: int) -> int:
        """Claim a slot for a newly dispatched instruction.

        Stamps identity (``uid``, ``ref``, ``pc``, ``instr``,
        ``dispatch_cycle``) and resets the stateful columns; the caller
        links the slot and assigns its order key.  Raises
        :class:`~repro.errors.PoolExhausted` when no slot is free.

        The rename columns (``src1_tag``, ``src2_tag``, ``dest_arch``,
        ``dest_tag``) are not reset: dispatch's rename writes all four
        for every instruction before anything reads them.  The
        prediction columns (``predicted_next_pc``, ``current_*``,
        ``history_used``) are not reset either: dispatch writes all of
        them through ``_predict_control`` for every control instruction,
        and every reader is confined to control instructions (the
        field-access atlas lists the readers; a test pins them).
        """
        free = self._free
        if not free:
            raise PoolExhausted(
                "instruction pool exhausted — a retired or squashed slot "
                "was never freed",
                capacity=self.capacity,
                live=self.live,
            )
        h = free.pop()
        self.allocated_total += 1
        self.uid[h] = uid
        self.ref[h] = (uid << REF_SHIFT) | h
        self.pc[h] = pc
        self.instr[h] = instr
        self.dispatch_cycle[h] = cycle
        self.state[h] = 0
        self.segment[h] = None
        self.issue_count[h] = 0
        self.value[h] = None
        self.addr[h] = None
        self.prev_addr[h] = None
        self.store_value[h] = None
        self.fwd_store[h] = None
        self.ras_snapshot[h] = None
        self.outcome_taken[h] = False
        self.outcome_next_pc[h] = 0
        return h

    def free(self, h: int) -> None:
        """Recycle an unlinked slot.

        The slot's ``uid``, ``ref`` and dead ``state`` bits survive
        until reallocation so stale heap/wheel references validate
        against them; columns are reset at :meth:`alloc`, not here.
        """
        self._free.append(h)

    def is_alive(self, h: int) -> bool:
        """Liveness of a slot (false for retired/squashed/freed)."""
        return not self.state[h] & ST_DEAD

    def valid_ref(self, ref: int) -> bool:
        """True iff a packed reference still addresses its instruction."""
        return self.ref[ref & REF_MASK] == ref

    def describe(self, h: int) -> str:
        """Diagnostic rendering of a slot (sanitizer/injector messages)."""
        instr = self.instr[h]
        op = instr.op.name if instr is not None else "?"
        return f"<{self.uid[h]}:{self.pc[h]}:{op}>"


class CompletionWheel:
    """Preallocated ring buffer of completion events.

    ``schedule(cycle, now, ref, token)`` files an event at an absolute
    cycle; ``take(cycle)`` returns the slot's parallel ``(refs, tokens)``
    lists for draining (caller clears them after iterating).  Events
    carry packed pool references (``InstrPool.ref``) so an entry left
    behind by a squashed-and-recycled slot self-invalidates.  The horizon must
    exceed the largest possible completion latency so a slot can never
    hold events for two different cycles — the constructor rounds it up
    to a power of two and asserts on violation at schedule time.
    """

    __slots__ = ("horizon", "_mask", "_nodes", "_tokens")

    def __init__(self, max_latency: int):
        horizon = 1
        while horizon <= max_latency + 1:
            horizon *= 2
        self.horizon = horizon
        self._mask = horizon - 1
        self._nodes = [[] for _ in range(horizon)]
        self._tokens = [[] for _ in range(horizon)]

    def schedule(self, cycle: int, now: int, ref: int, token: int) -> None:
        if cycle - now >= self.horizon:  # pragma: no cover - sizing bug guard
            raise AssertionError(
                f"completion latency {cycle - now} exceeds wheel horizon "
                f"{self.horizon}"
            )
        slot = cycle & self._mask
        self._nodes[slot].append(ref)
        self._tokens[slot].append(token)

    def take(self, cycle: int) -> tuple[list, list]:
        slot = cycle & self._mask
        return self._nodes[slot], self._tokens[slot]


__all__ = [
    "CompletionWheel",
    "HEAD",
    "InstrPool",
    "OrderIndex",
    "REF_MASK",
    "REF_SHIFT",
    "ST_COMPLETED",
    "ST_DEAD",
    "ST_FETCHED_MP",
    "ST_INFLIGHT",
    "ST_IN_READY",
    "ST_ISSUED_MP",
    "ST_RECOVERING",
    "ST_REISSUED_MP",
    "ST_RETIRED",
    "ST_RETIRE_GATE",
    "ST_SQUASHED",
    "TAIL",
]
