import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from vandelab.errors import InvalidParameterError
from vandelab.hp import (
    FLOOR_BITS,
    GUARD_BITS,
    decimal_digits,
    decimal_str,
    parse_decimal,
    required_bits,
)


class TestRequiredBits:
    def test_ell_one_hits_floor(self):
        assert required_bits(1, 100, mpf("1e-6")) == 192

    def test_ell_three_formula(self):
        # independent scalar calculator: plain float log2 is accurate to
        # ~1e-15 here, far finer than the integer ceiling needs
        got = required_bits(3, 100, mpf("1e-10"))
        expected_term = 2 * 2 * math.log2(32 * math.pi * math.e * 1e8)
        assert got > 192
        assert got >= expected_term + 20 + 64 - 1
        assert got == max(192, math.ceil(expected_term) + 20 + 64)

    def test_monotone_in_inverse_ndelta(self):
        # at ell=2 both instances still sit on the 192-bit floor, so the
        # growth shows up as non-strict there and strictly above the
        # floor (ell=3 clears it from delta = 1e-10 on)
        assert required_bits(2, 100, mpf("1e-8")) >= \
            required_bits(2, 100, mpf("1e-4"))
        a = required_bits(3, 100, mpf("1e-10"))
        b = required_bits(3, 100, mpf("1e-14"))
        assert a > 192
        assert b > a

    def test_floor_respected_everywhere(self):
        assert required_bits(1, 1, mpf("1e6")) == 192
        assert required_bits(2, 10 ** 6, mpf("1.0")) == 192

    @given(ell=st.integers(1, 20), ell2=st.integers(1, 20),
           n=st.integers(1, 500), dexp=st.integers(-12, 2))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_ell(self, ell, ell2, n, dexp):
        lo, hi = sorted((ell, ell2))
        d = mpf(10) ** dexp
        assert required_bits(lo, n, d) <= required_bits(hi, n, d)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            required_bits(1, 100, mpf(0))
        with pytest.raises(InvalidParameterError):
            required_bits(1, 100, mpf(-1))
        with pytest.raises(InvalidParameterError):
            required_bits(0, 100, mpf(1))
        with pytest.raises(InvalidParameterError):
            required_bits(1, 0, mpf(1))


class TestDecimalRoundTrip:
    @pytest.mark.parametrize("text", ["1e-25", "0.1", "3.14159", "-2.5e10",
                                      "1", "7.000000001e-3"])
    def test_round_trip_digits(self, text):
        bits = 192
        x = parse_decimal(text, bits)
        back = parse_decimal(decimal_str(x, bits), bits)
        # must agree to at least bits*log10(2) - 2 significant digits
        digits = int(bits * math.log10(2)) - 2
        if x != 0:
            assert abs(back - x) <= abs(x) * mpf(10) ** (-digits)

    def test_parse_is_not_binary64(self):
        # 1e-25 through float64 differs from the correctly rounded value
        exact = parse_decimal("1e-25", 192)
        with mp.workprec(192):
            via_float = mpf(1e-25)
            assert abs(exact - via_float) > 0
            assert abs(exact - mpf(10) ** -25) < abs(via_float - mpf(10) ** -25)

    def test_float_input_rejected(self):
        with pytest.raises(InvalidParameterError):
            parse_decimal(1e-25, 192)

    def test_bad_string(self):
        with pytest.raises(InvalidParameterError):
            parse_decimal("not-a-number", 192)

    @pytest.mark.parametrize("text", ["inf", "-inf", "+inf", "nan"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(InvalidParameterError, match="not a finite"):
            parse_decimal(text, 192)

    def test_low_precision_rejected(self):
        with pytest.raises(InvalidParameterError):
            parse_decimal("1", 32)

    @given(st.floats(min_value=-1e12, max_value=1e12,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, value):
        bits = 128
        x = parse_decimal(repr(value), bits)
        back = parse_decimal(decimal_str(x, bits), bits)
        if x != 0:
            assert abs(back - x) <= abs(x) * mpf(10) ** (-(decimal_digits(bits) - 2))


class TestPrecisionDoubling:
    def test_derived_value_stable_under_doubling(self):
        # recomputing a composite expression at doubled precision moves it
        # by at most 2^-(p - guard)
        p = FLOOR_BITS
        guard = GUARD_BITS

        def expr(bits):
            with mp.workprec(bits):
                return mp.sin(mpf("0.1")) / mpf("0.1") + mp.exp(mpf("0.25"))

        lo, hi = expr(p), expr(2 * p)
        assert abs(lo - hi) <= abs(hi) * mpf(2) ** (-(p - guard))
