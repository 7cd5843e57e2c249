"""The array column backend on either side of a 4096-entry capacity.

The ROB's :class:`OrderIndex` and the :class:`InstrPool` are single
``array('q')`` column classes; a window of 4096 is the widest the study
runs.  Window size must never change simulation results, so these tests
drive the same insert / append / remove / renumber / rebuild sequences
at capacities straddling 4096 (crossing the order index's internal
``_grow`` doubling as they go) and require parity with a plain
sorted-list reference model at every step, plus fill-and-recycle churn
through the pool at the same capacities.
"""

from __future__ import annotations

from bisect import bisect_left, insort

import pytest

from repro.core.soa import (
    InstrPool,
    OrderIndex,
    REF_SHIFT,
    ST_COMPLETED,
    ST_SQUASHED,
)
from repro.isa import Instruction, Op

BOUNDARY = 4096

_NOP = Instruction(Op.NOP)


# ----------------------------------------------------------------------
# OrderIndex parity with a sorted-list model


class _ListOrderIndex:
    """Reference model of :class:`OrderIndex`: a plain sorted list."""

    def __init__(self):
        self.keys: list[int] = []

    def __len__(self):
        return len(self.keys)

    def tolist(self):
        return list(self.keys)

    def position(self, order):
        return bisect_left(self.keys, order)

    def insert(self, order):
        insort(self.keys, order)

    append = insert

    def remove(self, order):
        del self.keys[bisect_left(self.keys, order)]

    def renumber(self, count, spacing):
        self.keys = [spacing * (i + 1) for i in range(count)]

    def rebuild(self, orders):
        self.keys = list(orders)


def _drive(index, size: int) -> list[list[int]]:
    """One deterministic op sequence; returns state snapshots per phase.

    ``size`` is chosen to cross the initial capacity (and one internal
    doubling) for every capacity under test.
    """
    snapshots = []
    # tail appends with monotonic keys (v2 dispatch path), crossing _grow
    for i in range(size):
        index.append(16 * (i + 1))
    snapshots.append(index.tolist())
    # midpoint inserts between existing keys (v1 placement path)
    for i in range(0, size, 7):
        index.insert(16 * (i + 1) - 8)
    snapshots.append(index.tolist())
    # removes by value, every 5th surviving entry (retire/squash path)
    for value in index.tolist()[::5]:
        index.remove(value)
    snapshots.append(index.tolist())
    # position probes on hits and misses
    probes = [index.position(v) for v in (8, 16, 24, 16 * size // 2, 16 * size + 1)]
    snapshots.append(probes)
    # bulk renumber to the canonical spacing*(1..n) layout
    index.renumber(len(index), 64)
    snapshots.append(index.tolist())
    # rebuild from an explicit sorted list
    index.rebuild(range(3, 3 * (size // 2), 3))
    snapshots.append(index.tolist())
    return snapshots


@pytest.mark.parametrize("capacity", [BOUNDARY - 1, BOUNDARY, BOUNDARY + 1])
def test_backend_parity_at_boundary(capacity):
    size = BOUNDARY + 128  # crosses every tested capacity
    index = OrderIndex(capacity)
    model = _ListOrderIndex()
    for phase, (got, want) in enumerate(zip(_drive(index, size), _drive(model, size))):
        assert got == want, f"phase {phase} diverged at capacity {capacity}"
    assert len(index) == len(model)


def test_sequence_surface_parity_small():
    """len/getitem/iter/slice surface the sanitizer and injectors use."""
    index = OrderIndex(8)
    for value in (10, 30, 20, 40):
        index.insert(value)
    assert len(index) == 4
    assert index.tolist() == [10, 20, 30, 40]
    assert list(index) == [10, 20, 30, 40]
    assert index[0] == 10 and index[-1] == 40
    assert index[1:3] == [20, 30]
    with pytest.raises(IndexError):
        index[4]
    index[1] = 21
    assert index.tolist() == [10, 21, 30, 40]


# ----------------------------------------------------------------------
# InstrPool churn across the same boundary


@pytest.mark.parametrize("capacity", [BOUNDARY - 1, BOUNDARY, BOUNDARY + 1])
def test_instr_pool_backend_parity_at_boundary(capacity):
    """Fill the pool to the brim, then run squash-and-recycle waves: the
    columns must stay self-consistent on either side of 4096 entries."""
    pool = InstrPool(capacity)
    count = capacity - 2
    handles = []
    uid = 0
    for _ in range(count):
        h = pool.alloc(uid, uid * 4, _NOP, uid % 17)
        pool.order[h] = (uid + 1) << 4
        pool.state[h] = ST_COMPLETED if uid % 3 else 0
        handles.append(h)
        uid += 1
    assert sorted(handles) == list(range(2, capacity))
    recycled = 0
    for wave in range(3):
        victims = handles[len(handles) // 4 : len(handles) // 2 : 2 + wave]
        for h in victims:
            pool.state[h] |= ST_SQUASHED
            pool.free(h)
        for h in reversed(victims):  # LIFO: the last freed comes back first
            assert pool.alloc(uid, uid * 4, _NOP, uid % 17) == h
            pool.order[h] = (uid + 1) << 4
            uid += 1
        recycled += len(victims)
    assert pool.live == count and not pool._free
    assert pool.allocated_total == count + recycled
    uids = [pool.uid[h] for h in range(2, capacity)]
    assert len(set(uids)) == count
    for h in range(2, capacity):
        assert pool.ref[h] == (pool.uid[h] << REF_SHIFT) | h
        assert pool.order[h] == (pool.uid[h] + 1) << 4
        assert pool.pc[h] == pool.uid[h] * 4
        assert pool.is_alive(h)
