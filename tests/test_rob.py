"""Reorder buffer structure tests: linked window, order keys, order-scheme
knob resolution, and segments — all over pool handles."""

import pytest
from hypothesis import given, strategies as st

from repro.core import ORDER_SCHEMES, CoreConfig, ReorderBuffer, resolve_order_scheme
from repro.core.rob import _SPACING, _V2_TAIL
from repro.core.soa import TAIL
from repro.errors import ConfigError
from repro.isa import Instruction, Op

_NOP = Instruction(Op.NOP)


def alloc(rob, uid):
    """Allocate a pool slot the way dispatch does (pc = uid for tests)."""
    return rob.pool.alloc(uid, uid, _NOP, 0)


def window_uids(rob):
    return [rob.pool.uid[h] for h in rob.iter_all()]


def window_orders(rob):
    return [rob.pool.order[h] for h in rob.iter_all()]


def assert_orders_consistent(rob):
    orders = window_orders(rob)
    assert orders == sorted(orders)
    assert len(set(orders)) == len(orders)
    assert list(rob._alive_orders) == orders


class TestOrderSchemeKnob:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORDER", "v1")
        assert resolve_order_scheme("v2") == "v2"
        monkeypatch.setenv("REPRO_ORDER", "v2")
        assert resolve_order_scheme("v1") == "v1"

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORDER", "v1")
        assert resolve_order_scheme() == "v1"
        assert ReorderBuffer(16).order_scheme == "v1"

    def test_unset_defaults_to_v2(self, monkeypatch):
        monkeypatch.delenv("REPRO_ORDER", raising=False)
        assert resolve_order_scheme() == "v2"
        assert ReorderBuffer(16).order_scheme == "v2"

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORDER", "sideways")
        with pytest.raises(ConfigError, match="REPRO_ORDER"):
            resolve_order_scheme()

    def test_garbage_argument_rejected(self):
        with pytest.raises(ConfigError, match="order_scheme"):
            resolve_order_scheme("v3")

    def test_core_config_carries_the_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORDER", "v2")
        assert CoreConfig(order_scheme="v1").resolved_order_scheme() == "v1"
        monkeypatch.delenv("REPRO_ORDER", raising=False)
        assert CoreConfig().resolved_order_scheme() == "v2"

    def test_core_config_validates_the_knob(self):
        with pytest.raises(ConfigError, match="order_scheme"):
            CoreConfig(order_scheme="v3").validate()


class TestV2Scheme:
    def test_appends_are_monotonic_and_never_rewritten(self, monkeypatch):
        rob = ReorderBuffer(64, order_scheme="v2")
        monkeypatch.setattr(
            rob, "_respace",
            lambda: pytest.fail("append path must never trigger a respace"),
        )
        seg = None
        assigned = []
        for uid in range(64):
            h = alloc(rob, uid)
            seg = rob.append(h, seg)
            assigned.append(rob.pool.order[h])
        assert assigned == [(i + 1) * _SPACING for i in range(64)]
        # keys were assigned once and never touched again
        assert window_orders(rob) == assigned
        assert rob.pool.order[TAIL] == _V2_TAIL

    def test_restart_chain_fits_one_gap(self, monkeypatch):
        """A right-chained restart sequence (each instruction inserted
        after the previous one, the sequencer's dispatch pattern) fits
        hundreds of entries in one inter-key gap without a respace."""
        rob = ReorderBuffer(4096, order_scheme="v2")
        a = alloc(rob, 0)
        b = alloc(rob, 1)
        rob.append(a, None)
        rob.append(b, None)
        monkeypatch.setattr(
            rob, "_respace",
            lambda: pytest.fail("right-chained inserts must not respace"),
        )
        anchor = a
        for uid in range(2, 302):
            h = alloc(rob, uid)
            rob.insert_after(anchor, h, None)
            anchor = h
        assert window_uids(rob) == [0, *range(2, 302), 1]
        assert_orders_consistent(rob)

    def test_respace_fallback_restores_spacing(self):
        """Left-chained dense insertion (adversarial, not a dispatch
        pattern) exhausts gaps; the respace fallback keeps the order
        keys sorted, unique, and mirrored by the index."""
        rob = ReorderBuffer(4096, order_scheme="v2")
        first = alloc(rob, 0)
        rob.append(first, None)
        rob.append(alloc(rob, 1), None)
        for uid in range(2, 202):
            rob.insert_after(first, alloc(rob, uid), None)
        assert_orders_consistent(rob)
        assert rob.pool.order[TAIL] == _V2_TAIL
        # the tail-append sequence resumes above every live key
        h = alloc(rob, 999)
        rob.append(h, None)
        order_col = rob.pool.order
        assert order_col[h] > max(
            order_col[n] for n in rob.iter_all() if n != h
        )

    def test_append_after_remove_stays_monotonic(self):
        rob = ReorderBuffer(16, order_scheme="v2")
        handles = [alloc(rob, u) for u in range(8)]
        for h in handles:
            rob.append(h, None)
        keep_order = rob.pool.order[handles[3]]
        for h in handles[4:]:
            rob.remove(h)  # squash the youngest half
        late = alloc(rob, 100)
        rob.append(late, None)
        assert rob.pool.order[late] > keep_order
        assert_orders_consistent(rob)


class TestLinkedList:
    def test_append_order(self):
        rob = ReorderBuffer(16)
        seg = None
        for uid in range(5):
            seg = rob.append(alloc(rob, uid), seg)
        assert window_uids(rob) == [0, 1, 2, 3, 4]

    def test_insert_after_middle(self):
        rob = ReorderBuffer(16)
        handles = [alloc(rob, u) for u in range(3)]
        seg = None
        for h in handles:
            seg = rob.append(h, seg)
        inserted = alloc(rob, 99)
        rob.insert_after(handles[0], inserted, None)
        assert window_uids(rob) == [0, 99, 1, 2]
        assert rob.precedes(handles[0], inserted)
        assert rob.precedes(inserted, handles[1])

    def test_remove(self):
        rob = ReorderBuffer(16)
        handles = [alloc(rob, u) for u in range(3)]
        seg = None
        for h in handles:
            seg = rob.append(h, seg)
        rob.remove(handles[1])
        assert window_uids(rob) == [0, 2]
        assert rob.count == 2

    @pytest.mark.parametrize("scheme", ORDER_SCHEMES)
    def test_order_keys_survive_dense_insertion(self, scheme):
        rob = ReorderBuffer(4096, order_scheme=scheme)
        first = alloc(rob, 0)
        rob.append(first, None)
        anchor = first
        for uid in range(1, 200):
            rob.insert_after(anchor, alloc(rob, uid), None)  # always right after first
        uids = window_uids(rob)
        assert uids[0] == 0
        orders = window_orders(rob)
        assert orders == sorted(orders)
        assert len(set(orders)) == len(orders)

    @pytest.mark.parametrize("scheme", ORDER_SCHEMES)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=120))
    def test_random_ops_keep_order_consistent(self, scheme, ops):
        rob = ReorderBuffer(4096, order_scheme=scheme)
        live = []  # (uid, handle) pairs mirroring the window
        uid = 0
        for op in ops:
            if op in (0, 1) or not live:
                h = alloc(rob, uid)
                rob.append(h, None)
                live.append((uid, h))
                uid += 1
            elif op == 2:
                idx = len(live) // 2
                anchor = live[idx][1]
                h = alloc(rob, uid)
                rob.insert_after(anchor, h, None)
                live.insert(idx + 1, (uid, h))
                uid += 1
            else:
                rob.remove(live.pop(len(live) // 2)[1])
        assert window_uids(rob) == [u for u, _ in live]
        orders = window_orders(rob)
        assert orders == sorted(orders)


class TestSegments:
    def test_unsegmented_capacity(self):
        rob = ReorderBuffer(4, segment_size=1)
        seg = None
        for uid in range(4):
            seg = rob.append(alloc(rob, uid), seg)
        assert rob.full

    def test_segment_rounds_up(self):
        rob = ReorderBuffer(16, segment_size=4)
        rob.append(alloc(rob, 0), None)  # opens a 4-slot segment
        assert rob.slots_used == 4

    def test_contiguous_fill_shares_segment(self):
        rob = ReorderBuffer(16, segment_size=4)
        seg = None
        for uid in range(4):
            seg = rob.append(alloc(rob, uid), seg)
        assert rob.slots_used == 4

    def test_fragmentation_from_separate_contexts(self):
        rob = ReorderBuffer(16, segment_size=4)
        seg_a = rob.append(alloc(rob, 0), None)
        # a restart inserts with its own segment
        rob.insert_after(rob.head, alloc(rob, 1), None)
        assert rob.slots_used == 8  # two partially-used segments
        assert seg_a.live == 1

    def test_segment_freed_when_empty(self):
        rob = ReorderBuffer(16, segment_size=4)
        handles = [alloc(rob, u) for u in range(4)]
        seg = None
        for h in handles:
            seg = rob.append(h, seg)
        for h in handles[:3]:
            rob.retire(h)
        assert rob.slots_used == 4  # last instruction holds the segment
        rob.retire(handles[3])
        assert rob.slots_used == 0

    def test_window_must_divide_by_segment(self):
        import pytest

        with pytest.raises(ValueError):
            ReorderBuffer(10, segment_size=4)


def pool_snapshot(rob):
    """Every pool column plus the ROB's bookkeeping, with segments named
    by first appearance (Segment objects differ by identity only).  The
    links of unlinked slots are left out: nothing reads them before the
    slot is linked again."""
    pool = rob.pool
    names: dict[int, int] = {}
    segments = [
        None if seg is None else (names.setdefault(id(seg), len(names)), seg.live)
        for seg in pool.segment
    ]
    linked = {0, TAIL, *rob.iter_all()}
    columns = {}
    for name in pool.__slots__:
        if name == "segment":
            continue
        value = getattr(pool, name)
        if name in ("prev", "next"):
            value = [value[h] if h in linked else None for h in range(pool.capacity)]
        elif not isinstance(value, int):
            value = list(value)
        columns[name] = value
    return (columns, segments, rob.count, rob.segments_allocated,
            list(rob._alive_orders), getattr(rob, "_next_order", None))


class TestFusedPaths:
    """The fused frontier claim and the suffix splice must leave exactly
    the state their per-step spellings leave, column by column."""

    @pytest.mark.parametrize("scheme", ["v1", "v2"])
    @pytest.mark.parametrize("segment_size", [1, 4])
    def test_dispatch_tail_matches_alloc_plus_append(self, scheme, segment_size):
        fused = ReorderBuffer(32, segment_size, order_scheme=scheme)
        stepped = ReorderBuffer(32, segment_size, order_scheme=scheme)
        fused_seg = stepped_seg = None
        uid = 0
        for wave in range(6):
            while fused.count < 24:
                h = fused.dispatch_tail(uid, 3 * uid, _NOP, wave, fused_seg)
                fused_seg = fused.pool.segment[h]
                g = stepped.pool.alloc(uid, 3 * uid, _NOP, wave)
                stepped_seg = stepped.append(g, stepped_seg)
                assert h == g
                uid += 1
            # dirty the recycled slots' columns before they come back
            for rob in (fused, stepped):
                for h in list(rob.iter_all())[-10:]:
                    rob.pool.value[h] = rob.pool.addr[h] = 99
                    rob.pool.issue_count[h] = 3
                    rob.pool.state[h] |= 0b111
                rob.remove_after(list(rob.iter_all())[-11])
            assert pool_snapshot(fused) == pool_snapshot(stepped)
        assert pool_snapshot(fused) == pool_snapshot(stepped)

    def test_dispatch_tail_raises_pool_exhausted(self):
        from repro.errors import PoolExhausted

        rob = ReorderBuffer(4)
        for uid in range(4):
            rob.dispatch_tail(uid, uid, _NOP, 0, None)
        with pytest.raises(PoolExhausted):
            rob.dispatch_tail(4, 4, _NOP, 0, None)

    @pytest.mark.parametrize("scheme", ["v1", "v2"])
    @pytest.mark.parametrize("segment_size", [1, 4])
    @pytest.mark.parametrize("keep", [0, 1, 7, 19, 20])
    def test_remove_after_matches_tail_first_removes(self, scheme, segment_size, keep):
        spliced = ReorderBuffer(20, segment_size, order_scheme=scheme)
        stepped = ReorderBuffer(20, segment_size, order_scheme=scheme)
        for rob in (spliced, stepped):
            seg = None
            for uid in range(20):
                seg = rob.append(alloc(rob, uid), seg)
        handles = list(spliced.iter_all())
        last_kept = handles[keep - 1] if keep else 0  # 0 is HEAD
        victims = spliced.remove_after(last_kept)
        assert victims == handles[keep:][::-1]  # tail-first
        for h in victims:
            stepped.remove(h)
        assert window_uids(spliced) == list(range(keep))
        assert pool_snapshot(spliced) == pool_snapshot(stepped)
        assert spliced.pool.live == spliced.count == keep
        assert_orders_consistent(spliced)
