import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from conftest import decimal_str_reference
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


    @pytest.mark.parametrize("bits", [64, 192, 603, 2296])
    def test_exact_strings_read_back_to_the_value(self, bits):
        # the default digits miss some values by a bit; exact reads back,
        # and adds no digit to a string that already does
        rng = random.Random(bits)
        misses = 0
        with mp.workprec(bits):
            values = [mp.pi * mpf(rng.random()) * mpf(10) ** rng.randint(-30, 5)
                      for _ in range(200)] + [mpf("0.001"), -mp.pi]
        for x in values:
            short, exact = decimal_str(x, bits), decimal_str(x, bits, exact=True)
            assert parse_decimal(exact, bits) == x
            if parse_decimal(short, bits) == x:
                assert exact == short
            else:
                misses += 1
        assert misses > 0


def _seeded_values():
    """mpfs made at 53 to 4096 bits, ints, decimal strings, +-0, +-inf
    and nan: the inputs decimal_str is called on."""
    rng = random.Random(20240601)
    values = []
    for prec in (53, 64, 192, 613, 2000, 4096):
        with mp.workprec(prec):
            for _ in range(3):
                x = mp.pi * mpf(rng.random()) * mpf(10) ** rng.randint(-40, 40)
                values.append(x if rng.random() < 0.5 else -x)
            values.append(mpf(1) / 3)
    values += [0, 7, -123456789, 3 ** 2000 + 1]
    values += ["1e-25", "0.1", "-2.5e10", "3.14159265358979323846264338327950"]
    values += [mpf(0), -mpf(0), mpf("inf"), mpf("-inf"), mpf("nan")]
    return values


def _outcome(f, *args):
    """f(*args), or the refusal it raises."""
    try:
        return f(*args)
    except InvalidParameterError as exc:
        return "refused", str(exc)


class TestDecimalStrOfValueAndBits:
    # the string depends only on the value and bits: not on the ambient
    # precision, which each call leaves as it found it

    @pytest.mark.parametrize("bits", [16, 64, 192, 613, 2000, 16384])
    @pytest.mark.parametrize("exact", [False, True])
    def test_matches_reading_under_workprec(self, bits, exact):
        for x in _seeded_values():
            want = _outcome(decimal_str_reference, x, bits, exact)
            for ambient in (max(8, bits // 2), bits, 2 * bits + 64):
                with mp.workprec(ambient):
                    assert _outcome(decimal_str, x, bits, exact) == want, (
                        x, ambient)
                    assert mp.prec == ambient

    def test_default_bits_are_the_ambient_precision(self):
        for x in _seeded_values():
            for ambient in (53, 192, 613):
                with mp.workprec(ambient):
                    assert decimal_str(x) == decimal_str_reference(x, ambient)
                    assert mp.prec == ambient

def _int_of_digits(digits: str) -> int:
    """The int of a digit string of any length, read in chunks below
    int()'s 4300-digit limit."""
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def _is_nearest(x, exact: Fraction, bits: int) -> bool:
    """Whether the mpf x is a bits-bit value no farther from exact than
    either of its bits-bit neighbours."""
    man, exp = int(x.man), int(x.exp)
    shift = bits - man.bit_length()
    man, exp = man << shift, exp - shift
    below = (2 * man - 1, exp - 1) if man == 1 << (bits - 1) else (man - 1, exp)
    value, up, down = (Fraction(m) * Fraction(2) ** e
                       for m, e in ((man, exp), (man + 1, exp), below))
    return abs(value - exact) <= min(abs(up - exact), abs(down - exact))


class TestDecimalsOfAnyLength:
    # the envelope corner (12, 40, 1e-222, 100) runs at 16,341 bits and
    # writes 4919 digits, past the 4300 digits that int() reads

    def test_long_decimal_reads_correctly_rounded(self):
        rng = random.Random(4919)
        digits = "".join(rng.choice("0123456789") for _ in range(4919))
        bits = 16341
        x = parse_decimal("-0." + digits, bits)
        assert x < 0
        with mp.workprec(bits):
            x = -x
        assert _is_nearest(x, Fraction(_int_of_digits(digits),
                                       10 ** len(digits)), bits)

    def test_exact_string_reads_back_at_16384_bits(self):
        with mp.workprec(16384):
            x = mp.pi * mpf("1e-222")
        text = decimal_str(x, 16384, exact=True)
        assert len(text) > 4300
        assert parse_decimal(text, 16384) == x

    @given(st.integers(0, 10 ** 60), st.integers(0, 60), st.integers(-340, 340),
           st.sampled_from([64, 192, 603, 2296]))
    @settings(max_examples=200, deadline=None)
    def test_short_decimals_read_as_mpmath_reads_them(self, man, point, exp,
                                                      bits):
        # where mpmath's own reader rounds correctly, a decimal exponent
        # of at most 400 after the point's digits, both give the same bits
        digits = str(man).rjust(point + 1, "0")
        cut = len(digits) - point
        text = f"{digits[:cut]}.{digits[cut:]}e{exp}"
        with mp.workprec(bits):
            assert parse_decimal(text, bits) == mpf(text)
            assert parse_decimal("-" + text, bits) == -mpf(text)

    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "snan", "1e",
                                       "1/3", "0x10", [0, [1], -3], None])
    def test_refused(self, value):
        with pytest.raises(InvalidParameterError):
            parse_decimal(value, 192)

    def test_huge_exponent_refused(self):
        with pytest.raises(InvalidParameterError, match="exponent"):
            parse_decimal("1e-1000000000", 192)


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
