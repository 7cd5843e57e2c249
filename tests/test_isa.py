"""Unit tests for the ISA: semantics, encoding, assembler."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import (
    ALU_RI_OPS,
    ALU_RR_OPS,
    COND_BRANCH_OPS,
    NUM_REGS,
    REG_RA,
    AssemblerError,
    Instruction,
    Op,
    assemble,
    disassemble,
    evaluate,
    to_signed,
)
from repro.isa.instructions import (
    CONTROL_KERNELS,
    VALUE_KERNELS,
    _alu,
    effective_addr,
)

i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


class TestToSigned:
    def test_identity_in_range(self):
        assert to_signed(42) == 42
        assert to_signed(-42) == -42

    def test_wraps_overflow(self):
        assert to_signed(2**63) == -(2**63)
        assert to_signed(2**64) == 0
        assert to_signed(2**64 + 5) == 5

    @given(i64)
    def test_fixed_point(self, value):
        assert to_signed(value) == value

    @given(st.integers())
    def test_always_in_range(self, value):
        result = to_signed(value)
        assert -(2**63) <= result < 2**63


class TestAluSemantics:
    @given(i64, i64)
    def test_add_matches_python(self, a, b):
        result = evaluate(Instruction(Op.ADD, rd=1, rs1=2, rs2=3), 0, a, b)
        assert result.value == to_signed(a + b)

    @given(i64, i64)
    def test_sub_matches_python(self, a, b):
        result = evaluate(Instruction(Op.SUB, rd=1, rs1=2, rs2=3), 0, a, b)
        assert result.value == to_signed(a - b)

    @given(i64, i64)
    def test_mul_matches_python(self, a, b):
        result = evaluate(Instruction(Op.MUL, rd=1, rs1=2, rs2=3), 0, a, b)
        assert result.value == to_signed(a * b)

    @given(i64, i64)
    def test_bitwise(self, a, b):
        for op, fn in ((Op.AND, lambda: a & b), (Op.OR, lambda: a | b), (Op.XOR, lambda: a ^ b)):
            result = evaluate(Instruction(op, rd=1, rs1=2, rs2=3), 0, a, b)
            assert result.value == to_signed(fn())

    @given(i64)
    def test_div_by_zero_is_defined(self, a):
        result = evaluate(Instruction(Op.DIV, rd=1, rs1=2, rs2=3), 0, a, 0)
        assert result.value == -1
        result = evaluate(Instruction(Op.REM, rd=1, rs1=2, rs2=3), 0, a, 0)
        assert result.value == a

    def test_div_truncates_toward_zero(self):
        result = evaluate(Instruction(Op.DIV, rd=1, rs1=2, rs2=3), 0, -7, 2)
        assert result.value == -3

    @given(i64, st.integers(min_value=0, max_value=63))
    def test_shifts(self, a, sh):
        sll = evaluate(Instruction(Op.SLL, rd=1, rs1=2, rs2=3), 0, a, sh)
        assert sll.value == to_signed(a << sh)
        srl = evaluate(Instruction(Op.SRL, rd=1, rs1=2, rs2=3), 0, a, sh)
        assert srl.value == to_signed((a & (2**64 - 1)) >> sh)

    @given(i64, i64)
    def test_slt(self, a, b):
        result = evaluate(Instruction(Op.SLT, rd=1, rs1=2, rs2=3), 0, a, b)
        assert result.value == (1 if a < b else 0)

    def test_immediate_forms_use_imm_not_rs2(self):
        result = evaluate(Instruction(Op.ADDI, rd=1, rs1=2, imm=7), 0, 10, 999)
        assert result.value == 17

    def test_li_ignores_operands(self):
        result = evaluate(Instruction(Op.LI, rd=1, imm=-5), 0, 11, 22)
        assert result.value == -5


class TestControlSemantics:
    @pytest.mark.parametrize(
        "op,a,b,taken",
        [
            (Op.BEQ, 1, 1, True),
            (Op.BEQ, 1, 2, False),
            (Op.BNE, 1, 2, True),
            (Op.BNE, 1, 1, False),
            (Op.BLT, -1, 0, True),
            (Op.BLT, 0, 0, False),
            (Op.BGE, 0, 0, True),
            (Op.BGE, -1, 0, False),
        ],
    )
    def test_branch_conditions(self, op, a, b, taken):
        result = evaluate(Instruction(op, rs1=1, rs2=2, target=99), 10, a, b)
        assert result.taken is taken
        assert result.next_pc == (99 if taken else 11)

    def test_call_links_and_jumps(self):
        result = evaluate(Instruction(Op.CALL, rd=REG_RA, target=50), 10)
        assert result.value == 11
        assert result.next_pc == 50

    def test_jr_jumps_through_register(self):
        result = evaluate(Instruction(Op.JR, rs1=REG_RA), 10, 77)
        assert result.next_pc == 77

    def test_halt_sets_flag(self):
        assert evaluate(Instruction(Op.HALT), 3).halted

    def test_load_reports_address_only(self):
        result = evaluate(Instruction(Op.LOAD, rd=1, rs1=2, imm=8), 0, 100)
        assert result.addr == 108
        assert result.value is None

    def test_store_reports_address_and_data(self):
        result = evaluate(Instruction(Op.STORE, rs1=2, rs2=3, imm=8), 0, 100, 55)
        assert result.addr == 108
        assert result.store_value == 55


#: edge operands every raw kernel must agree with _alu/evaluate on
EDGE_OPERANDS = (0, 1, -1, 2**63 - 1, -(2**63))
SHIFT_COUNTS = (0, 63, 64, 127)
SHIFT_OPS = frozenset({Op.SLL, Op.SRL, Op.SLLI, Op.SRLI})
FAST_KERNEL_OPS = (
    Op.ADD, Op.ADDI, Op.SUB, Op.MUL, Op.AND, Op.ANDI, Op.SRLI, Op.SLT, Op.SLTI,
)


def _second_operands(op):
    return EDGE_OPERANDS + (SHIFT_COUNTS if op in SHIFT_OPS else ())


def _value_kernel_result(op, a, b):
    """Run ``op``'s raw value kernel with second operand ``b`` in rs2 or
    the immediate, poisoning the operand the form must ignore."""
    if op in ALU_RR_OPS:
        return VALUE_KERNELS[op.value](Instruction(op, rd=1, rs1=2, rs2=3), a, b)
    return VALUE_KERNELS[op.value](Instruction(op, rd=1, rs1=2, imm=b), a, 12345)


class TestRawKernels:
    """The core's execute stage calls VALUE_KERNELS/CONTROL_KERNELS
    directly; each entry must agree with ``_alu`` (the one arithmetic
    definition) or ``evaluate`` on the edges of the 64-bit range."""

    def test_every_opcode_has_exactly_one_kernel_kind(self):
        values = {op for op in Op if VALUE_KERNELS[op.value] is not None}
        controls = {op for op in Op if CONTROL_KERNELS[op.value] is not None}
        assert values == ALU_RR_OPS | ALU_RI_OPS | {Op.NOP, Op.HALT}
        assert controls == COND_BRANCH_OPS | {Op.JUMP, Op.CALL, Op.JR}

    @pytest.mark.parametrize(
        "op", sorted(ALU_RR_OPS | ALU_RI_OPS, key=lambda o: o.value),
        ids=lambda o: o.name,
    )
    def test_value_kernel_matches_alu_on_edges(self, op):
        for a in EDGE_OPERANDS:
            for b in _second_operands(op):
                got = _value_kernel_result(op, a, b)
                expected = to_signed(b) if op is Op.LI else _alu(op, a, b)
                assert got == expected, (op, a, b)
                assert type(got) is int and -(2**63) <= got < 2**63
                assert evaluate(
                    Instruction(op, rd=1, rs1=2, rs2=3, imm=b), 0, a, b
                ).value == expected

    def test_division_edges(self):
        assert _value_kernel_result(Op.DIV, 7, 0) == -1
        assert _value_kernel_result(Op.REM, 7, 0) == 7
        assert _value_kernel_result(Op.DIV, -(2**63), -1) == -(2**63)
        assert _value_kernel_result(Op.REM, -(2**63), -1) == 0

    def test_effective_addr_wraps_like_to_signed(self):
        for a in EDGE_OPERANDS:
            for imm in EDGE_OPERANDS:
                instr = Instruction(Op.LOAD, rd=1, rs1=2, imm=imm)
                assert effective_addr(instr, a) == to_signed(a + imm)

    def test_nop_and_halt_write_nothing(self):
        for op in (Op.NOP, Op.HALT):
            assert VALUE_KERNELS[op.value](Instruction(op), 5, 6) is None

    @given(st.integers(), st.integers())
    def test_fast_kernels_match_alu_on_any_int(self, a, b):
        """The inlined wrap must hold for operands outside the signed
        range too (loads can return any value a program's data holds)."""
        for op in FAST_KERNEL_OPS:
            assert _value_kernel_result(op, a, b) == _alu(op, a, b)

    @pytest.mark.parametrize(
        "op", sorted(COND_BRANCH_OPS, key=lambda o: o.value), ids=lambda o: o.name
    )
    def test_branch_kernel_matches_evaluate_on_edges(self, op):
        compare = {
            Op.BEQ: lambda a, b: a == b,
            Op.BNE: lambda a, b: a != b,
            Op.BLT: lambda a, b: a < b,
            Op.BGE: lambda a, b: a >= b,
        }[op]
        instr = Instruction(op, rs1=1, rs2=2, target=40)
        for a in EDGE_OPERANDS:
            for b in EDGE_OPERANDS:
                taken = compare(a, b)
                got = CONTROL_KERNELS[op.value](instr, 9, a, b)
                assert got == (taken, 40 if taken else 10, None), (op, a, b)
                result = evaluate(instr, 9, a, b)
                assert (result.taken, result.next_pc, result.value) == got

    @pytest.mark.parametrize("a", EDGE_OPERANDS)
    def test_jump_kernels_match_evaluate_on_edges(self, a):
        cases = {
            Op.JUMP: (Instruction(Op.JUMP, target=40), (True, 40, None)),
            Op.CALL: (Instruction(Op.CALL, rd=REG_RA, target=40), (True, 40, 10)),
            Op.JR: (Instruction(Op.JR, rs1=REG_RA), (True, to_signed(a), None)),
        }
        for op, (instr, expected) in cases.items():
            assert CONTROL_KERNELS[op.value](instr, 9, a, 0) == expected
            result = evaluate(instr, 9, a, 0)
            assert (result.taken, result.next_pc, result.value) == expected


class TestSourcesAndDest:
    def test_alu_rr_sources(self):
        instr = Instruction(Op.ADD, rd=1, rs1=2, rs2=3)
        assert instr.sources == (2, 3)
        assert instr.dest == 1

    def test_store_reads_base_and_data(self):
        instr = Instruction(Op.STORE, rs1=2, rs2=3)
        assert set(instr.sources) == {2, 3}
        assert instr.dest is None

    def test_li_reads_nothing(self):
        assert Instruction(Op.LI, rd=1, imm=3).sources == ()

    def test_write_to_r0_is_discarded(self):
        assert Instruction(Op.ADD, rd=0, rs1=1, rs2=2).dest is None

    def test_return_detection(self):
        assert Instruction(Op.JR, rs1=REG_RA).is_return
        assert not Instruction(Op.JR, rs1=5).is_return


class TestAssembler:
    def test_round_trip_simple(self):
        program = assemble(
            """
            .entry main
            main:
                li r1, 5
                addi r1, r1, -1
                bne r1, r0, main
                halt
            """
        )
        assert len(program) == 4
        assert program.entry == 0
        assert program[2].target == 0

    def test_labels_forward_and_backward(self):
        program = assemble(
            """
            start: jump end
            mid:   nop
            end:   beq r0, r0, mid
                   halt
            """
        )
        assert program[0].target == 2
        assert program[2].target == 1

    def test_register_aliases(self):
        program = assemble("jr ra\nhalt")
        assert program[0].rs1 == REG_RA

    def test_data_directive(self):
        program = assemble(".data 100 1 2 3\nhalt")
        assert program.data == {100: 1, 101: 2, 102: 3}

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("a: nop\na: halt")

    def test_undefined_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("jump nowhere\nhalt")

    def test_bad_register_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(f"addi r{NUM_REGS}, r0, 1\nhalt")

    def test_missing_halt_rejected(self):
        with pytest.raises(ValueError):
            assemble("nop")

    def test_wrong_operand_count_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("add r1, r2\nhalt")

    def test_comments_ignored(self):
        program = assemble("nop # comment\nnop ; other\nhalt")
        assert len(program) == 3

    def test_disassemble_round_trip(self):
        source = """
            li r1, 10
        loop:
            addi r1, r1, -1
            store r1, r2, 4
            load r3, r2, 4
            bne r1, r0, loop
            call fn
            halt
        fn:
            jr ra
        """
        program = assemble(source)
        text = "\n".join(disassemble(instr) for instr in program.instructions)
        reparsed = assemble(text + "\n")
        assert [
            (i.op, i.rd, i.rs1, i.rs2, i.imm, i.target)
            for i in reparsed.instructions
        ] == [
            (i.op, i.rd, i.rs1, i.rs2, i.imm, i.target)
            for i in program.instructions
        ]

    def test_every_opcode_is_assemblable(self):
        lines = []
        for op in Op:
            name = op.name.lower()
            if op in ALU_RR_OPS:
                lines.append(f"{name} r1, r2, r3")
            elif op is Op.LI:
                lines.append("li r1, 5")
            elif op in ALU_RI_OPS:
                lines.append(f"{name} r1, r2, 5")
            elif op in (Op.LOAD,):
                lines.append("load r1, r2, 0")
            elif op is Op.STORE:
                lines.append("store r1, r2, 0")
            elif op in COND_BRANCH_OPS:
                lines.append(f"{name} r1, r2, 0")
            elif op in (Op.JUMP, Op.CALL):
                lines.append(f"{name} 0")
            elif op is Op.JR:
                lines.append("jr ra")
            else:
                lines.append(name)
        program = assemble("\n".join(lines))
        assert len(program) == len(list(Op))
