"""Unit and property tests for 64-bit two's-complement helpers."""

from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bitops import (WORD_MASK, mask_bits, sign_extend, to_signed,
                                to_unsigned)


class TestToSigned:
    def test_positive_unchanged(self):
        assert to_signed(5) == 5

    def test_max_negative(self):
        assert to_signed(1 << 63) == -(1 << 63)

    def test_all_ones_is_minus_one(self):
        assert to_signed(WORD_MASK) == -1

    def test_narrow_width(self):
        assert to_signed(0xFF, bits=8) == -1
        assert to_signed(0x7F, bits=8) == 127

    @given(st.integers(min_value=0, max_value=WORD_MASK))
    def test_roundtrip(self, value):
        assert to_unsigned(to_signed(value)) == value


class TestToUnsigned:
    def test_negative_wraps(self):
        assert to_unsigned(-1) == WORD_MASK

    def test_large_value_masked(self):
        assert to_unsigned(1 << 64) == 0

    @given(st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
    def test_roundtrip_signed(self, value):
        assert to_signed(to_unsigned(value)) == value


class TestSignExtend:
    def test_extends_negative(self):
        assert sign_extend(0x80, 8) == to_unsigned(-128)

    def test_keeps_positive(self):
        assert sign_extend(0x7F, 8) == 0x7F

    @given(st.integers(min_value=0, max_value=0xFFFF))
    def test_idempotent(self, value):
        once = sign_extend(value, 16)
        assert sign_extend(once, 64) == once


class TestMaskBits:
    def test_truncates(self):
        assert mask_bits(0x1FF, 8) == 0xFF

    def test_default_is_word(self):
        assert mask_bits(-1) == WORD_MASK
