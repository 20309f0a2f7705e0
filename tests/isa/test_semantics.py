"""Tests for the pure ALU/branch/address semantics."""

from hypothesis import given
from hypothesis import strategies as st

from repro.isa import semantics
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.utils.bitops import WORD_MASK, to_signed, to_unsigned

words = st.integers(min_value=0, max_value=WORD_MASK)


class TestAluResult:
    @given(words, words)
    def test_add_wraps(self, a, b):
        assert semantics.alu_result(Opcode.ADD, a, b, 0) == (a + b) & WORD_MASK

    @given(words, words)
    def test_sub_add_inverse(self, a, b):
        total = semantics.alu_result(Opcode.ADD, a, b, 0)
        assert semantics.alu_result(Opcode.SUB, total, b, 0) == a

    @given(words, words)
    def test_xor_involution(self, a, b):
        once = semantics.alu_result(Opcode.XOR, a, b, 0)
        assert semantics.alu_result(Opcode.XOR, once, b, 0) == a

    @given(words)
    def test_shift_roundtrip_low_bits(self, a):
        left = semantics.alu_result(Opcode.SLL, a, 0, 8)
        back = semantics.alu_result(Opcode.SRL, left, 0, 8)
        assert back == (a << 8 & WORD_MASK) >> 8

    @given(words, words)
    def test_cmplt_signed(self, a, b):
        expected = 1 if to_signed(a) < to_signed(b) else 0
        assert semantics.alu_result(Opcode.CMPLT, a, b, 0) == expected

    @given(words, words)
    def test_cmple_consistent_with_cmplt_and_cmpeq(self, a, b):
        le = semantics.alu_result(Opcode.CMPLE, a, b, 0)
        lt = semantics.alu_result(Opcode.CMPLT, a, b, 0)
        eq = semantics.alu_result(Opcode.CMPEQ, a, b, 0)
        assert le == (1 if (lt or eq) else 0)

    def test_mul_signed(self):
        a = to_unsigned(-3)
        assert semantics.alu_result(Opcode.MUL, a, 5, 0) == to_unsigned(-15)

    def test_lda_adds_immediate(self):
        assert semantics.alu_result(Opcode.LDA, 100, 0, -4) == 96

    def test_ldi_ignores_sources(self):
        assert semantics.alu_result(Opcode.LDI, 999, 999, 42) == 42

    def test_fdiv_by_zero_is_benign(self):
        # Wrong-path instructions may divide by garbage zero values.
        assert semantics.alu_result(Opcode.FDIV, 10, 0, 0) == 0


class TestBranchTaken:
    @given(words)
    def test_beq_bne_complementary(self, a):
        beq = semantics.branch_taken(Opcode.BEQ, a)
        bne = semantics.branch_taken(Opcode.BNE, a)
        assert beq != bne

    @given(words)
    def test_blt_bge_complementary(self, a):
        blt = semantics.branch_taken(Opcode.BLT, a)
        bge = semantics.branch_taken(Opcode.BGE, a)
        assert blt != bge

    def test_blt_uses_sign(self):
        assert semantics.branch_taken(Opcode.BLT, to_unsigned(-1))
        assert not semantics.branch_taken(Opcode.BLT, 1)


class TestControlOutcome:
    def test_br_always_taken(self):
        inst = Instruction(op=Opcode.BR, target=64)
        assert semantics.control_outcome(inst, 0, 0) == (True, 64)

    def test_conditional_fall_through(self):
        inst = Instruction(op=Opcode.BNE, src1=1, target=64)
        taken, next_pc = semantics.control_outcome(inst, 8, 0)
        assert not taken
        assert next_pc == 12

    def test_jmp_target_aligned(self):
        inst = Instruction(op=Opcode.JMP, src1=1)
        taken, next_pc = semantics.control_outcome(inst, 0, 0x47)
        assert taken
        assert next_pc == 0x44

    def test_effective_address_word_aligned(self):
        inst = Instruction(op=Opcode.LD, dest=1, src1=2, imm=5)
        assert semantics.effective_address(inst, 0x1003) % 8 == 0
