"""Physical registers and rename map for the detailed core.

The paper assumes an unlimited pool of physical registers (Sec 2.2), so
tags are simply objects.  Selective reissue makes a tag a *write-many*
cell: the same physical register receives a new value each time its
producer reissues, and consumers registered on the tag are woken to
reissue whenever the broadcast value actually changes.

Consumers and the producer are recorded as *packed pool references*
(``InstrPool.ref`` values, ``(uid << 32) | handle``), not handles: a
consumer entry can outlive its instruction (retire/squash does not scrub
registration lists), and a packed ref self-invalidates once the slot is
recycled (``pool.ref[ref & REF_MASK] != ref``), exactly replacing the
historical dead-node identity checks.
"""

from __future__ import annotations

from ..isa import NUM_REGS, REG_ZERO


class PhysReg:
    """One physical register: value + readiness + registered consumers."""

    __slots__ = ("value", "ready", "consumers", "producer")

    def __init__(self, producer=None):
        self.value = 0
        self.ready = False
        self.consumers: list = []  # packed refs to wake on broadcast
        self.producer = producer  # packed ref of the owner (None = arch)

    def broadcast(self, value: int) -> bool:
        """Publish a (possibly new) value; returns True if it changed."""
        changed = not self.ready or self.value != value
        self.value = value
        self.ready = True
        return changed


class RenameMap:
    """Architectural register -> physical tag, with backward undo.

    The fetch-frontier map is speculative.  Recovery restores it by
    walking squashed instructions youngest-first and re-installing each
    one's ``prev_tag`` (the mapping it displaced at dispatch).
    """

    def __init__(self):
        self.map: list[PhysReg] = []
        for _ in range(NUM_REGS):
            reg = PhysReg()
            reg.ready = True  # architectural registers start at zero
            self.map.append(reg)
        self.map[REG_ZERO].value = 0

    def lookup(self, arch: int) -> PhysReg:
        return self.map[arch]

    def define(self, arch: int, producer) -> tuple[PhysReg, PhysReg]:
        """Allocate a fresh tag for ``arch``; returns (new_tag, prev_tag)."""
        prev = self.map[arch]
        tag = PhysReg(producer)
        self.map[arch] = tag
        return tag, prev

    def undo(self, arch: int, prev_tag: PhysReg) -> None:
        self.map[arch] = prev_tag
