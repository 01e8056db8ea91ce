"""Arbitrary-precision scalar layer and the working-precision policy.

All real and complex scalars in this package are mpmath values (``mpf`` /
``mpc``).  mpmath rounds basic arithmetic correctly and elementary
functions faithfully at the ambient binary precision, which satisfies the
scalar contract here.  mpmath runs on gmpy2 when it is installed and on
its pure-Python backend otherwise; the package works with either.

Why a precision policy?
-----------------------
The spectra this laboratory computes collapse like
``sigma_min ~ sqrt(N) * (N*delta)^(ell-1)``, and spectral work routes
through the Gram matrix whose smallest eigenvalue is the *square* of that.
So the number of significant bits needed grows linearly in ``ell`` and in
``log2(1/(N*delta))``, with a factor 2 for the squaring.  The policy sizes
the working precision as

    max(FLOOR_BITS, ceil(2*(ell-1)*log2(32*pi*e/(N*delta))) + SOLVER_BITS + GUARD_BITS)

The main term buys the decay; SOLVER_BITS = 20 covers the eigensolver's
error bound, which scales with the trace (derived in ``required_bits``), and
GUARD_BITS = 64 is the headroom target: the bits by which the smallest
eigenvalue must clear that bound.  FLOOR_BITS = 192 is never undercut.
The main term is pessimistic, so the measured headroom usually exceeds the
target; a solve at policy bits that falls short of it is re-solved once at
the shortfall plus RESOLVE_MARGIN_BITS = 8, as the shortfall alone can miss.

Values are plain immutable mpmath numbers and safe to share; this module
keeps no mutable state of its own.  Computations that need a specific
precision run inside ``with mp.workprec(bits):`` blocks.
"""

from __future__ import annotations

from decimal import Decimal

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_rational, mpf_shift, round_nearest

from .errors import ConfigParseError, InvalidParameterError

FLOOR_BITS = 192
GUARD_BITS = 64
RESOLVE_MARGIN_BITS = 8
#: log2 of the eigensolver's error bound over 2^-p lambda_min 2^main,
#: rounded up; derived in PrecisionPolicy.required_bits
SOLVER_BITS = 20
MIN_BITS = 64
#: the largest decimal order of magnitude parse_decimal reads
MAX_DECIMAL_EXPONENT = 100_000

#: bits of precision at which the policy formula itself is evaluated;
#: only the integer ceiling matters, 80 bits is far more than enough.
_POLICY_EVAL_BITS = 80

LOG10_2 = 0.30102999566398119521


class PrecisionPolicy:
    """Sizing rule for working precision (see the module docstring)."""

    def required_bits(self, ell: int, N: int, delta) -> int:
        """Working precision for a spectrum with cluster size ``ell``,
        frequency cutoff ``N`` and minimal separation ``delta``.

        With main = 2 (ell - 1) log2(32 pi e / (N delta)), the policy takes
        lambda_min >= N 2^-main for the Gram (or kernel) matrix; for the
        prolate matrix the caller passes N = 1 and ell = s.  The eigensolver's
        error_bound (spectra.hermitian_eigenvalues) is, for n <= MAX_EIGEN_DIM
        = 256 and sweeps <= its budget of 31:
        - (2n + 3) 2^-p T <= 515 2^-p T, T the trace;
        - 3 (sweeps n (n - 1) / 2 + 1)(isqrt(n) + 9) 2^-(p + 24) T
          <= 4.6 2^-p T;
        - the stopping residual: each |d_ij| of the last sweep is at most
          2^-(p-8) T_W / n, T_W <= (1 + 2^(10-p)) T the columns' trace, so
          sqrt(2 sum_{i<j} d_ij^2) < 2^-(p-8) T_W, about 256 2^-p T.
        So error_bound <= 776 2^-p T < 2^9.61 2^-p T.  The trace is s (N+1)
        with s = n, and T / N <= s (N+1) / N <= 2 n <= 2^9, so
        error_bound / lambda_min < 2^(18.61 + main - p).  At p = main +
        SOLVER_BITS + GUARD_BITS the headroom floor(log2(lambda_min /
        error_bound)) is therefore at least GUARD_BITS whenever the
        assumed lambda_min holds; the solve measures the real headroom.
        """
        if ell < 1:
            raise InvalidParameterError(f"ell must be >= 1, got {ell}")
        if N < 1:
            raise InvalidParameterError(f"N must be >= 1, got {N}")
        delta = mpf(delta)
        if not delta > 0:
            raise InvalidParameterError(f"delta must be > 0, got {delta}")
        with mp.workprec(_POLICY_EVAL_BITS):
            growth = mp.log(pi_e(32) / (N * delta), 2)
            expr = int(mp.ceil(2 * (ell - 1) * growth)) + SOLVER_BITS + GUARD_BITS
        return max(FLOOR_BITS, expr)


DEFAULT_POLICY = PrecisionPolicy()


def pi_e(k: int):
    """k*pi*e from mp.pi and mp.e at the ambient precision.

    The bound formulas scale by 32*pi*e and 16*pi*e; they take them from
    here, never from decimal literals.
    """
    return k * mp.pi * mp.e


def required_bits(ell: int, N: int, delta) -> int:
    """Module-level shorthand for ``DEFAULT_POLICY.required_bits``."""
    return DEFAULT_POLICY.required_bits(ell, N, delta)


def as_mpf(x):
    """Coerce to mpf without re-rounding a value that already is one.

    ``mpf(x)`` re-rounds at the ambient precision even when x is an mpf,
    which silently destroys high-precision values created under a wider
    workprec.  Every coercion of possibly-high-precision input must go
    through here.
    """
    if isinstance(x, mpf):
        return x
    return mpf(x)


def as_mpc(x):
    """Like :func:`as_mpf` for complex scalars; mpf passes through too,
    since mpmath arithmetic mixes mpf and mpc freely."""
    if isinstance(x, (mpc, mpf)):
        return x
    return mpc(x)


def parse_decimal(text, bits: int):
    """Parse a decimal string (or an int) into an mpf, correctly rounded
    at ``bits``.

    The decimal is read exactly, as a ratio of ints, never through a
    binary64 float or int()'s 4300-digit limit, so "1e-25" lands on the
    closest ``bits``-bit value of 10^-25 and a decimal of any length
    reads.  Where mpmath's own reader rounds correctly, up to a decimal
    exponent of 400, the two agree.  Infinities, NaNs and decimals past
    10^+-MAX_DECIMAL_EXPONENT, whose exact ratio takes time and memory
    that grow with the exponent, are no decimal number here.
    """
    if bits < MIN_BITS:
        raise InvalidParameterError(
            f"precision must be >= {MIN_BITS} bits, got {bits}")
    return _read_decimal(text, bits)


def _read_decimal(text, bits: int):
    """parse_decimal at any bits, also below MIN_BITS."""
    if isinstance(text, float):
        # refuse silent binary64 round-trips for strings the caller had
        raise InvalidParameterError("pass decimal values as str or int, not float")
    try:
        if not isinstance(text, (str, int)):
            raise TypeError(type(text).__name__)
        value = Decimal(text)
    except (ArithmeticError, TypeError) as exc:
        raise InvalidParameterError(f"not a decimal number: {text!r}") from exc
    if not value.is_finite():
        raise InvalidParameterError(f"not a finite decimal number: {text!r}")
    if value and abs(value.adjusted()) > MAX_DECIMAL_EXPONENT:
        raise InvalidParameterError(
            f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}: {text!r}")
    num, den = value.as_integer_ratio()
    # the powers of two go in as a shift: mpmath strips trailing zero
    # bits a byte at a time, quadratic in the length of a long decimal
    twos = (num & -num).bit_length() - 1 if num else 0
    halves = (den & -den).bit_length() - 1
    raw = from_rational(num >> twos, den >> halves, bits, round_nearest)
    return mp.make_mpf(mpf_shift(raw, twos - halves))


def parse_int(value, key: str) -> int:
    """An int, or a string int() reads, as an int; anything else (a float,
    a bool, None, other text) is a ConfigParseError naming ``key``."""
    try:
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            return int(value)
    except ValueError:
        pass
    raise ConfigParseError(f"{key!r} must be an integer, got {value!r}", key=key)


def parse_bits(value, key: str) -> int | None:
    """A working precision given in the input: None stays None, for the
    policy to decide; anything else must be an integer of at least
    MIN_BITS, the floor parse_decimal reads decimals at."""
    if value is None:
        return None
    bits = parse_int(value, key)
    if bits < MIN_BITS:
        raise InvalidParameterError(
            f"{key!r} must be >= {MIN_BITS} bits, got {bits}")
    return bits


def decimal_digits(bits: int) -> int:
    """Significant decimal digits carried by a ``bits``-bit mantissa."""
    return max(3, int(bits * LOG10_2))


def decimal_str(x, bits: int | None = None, exact: bool = False) -> str:
    """Serialize an mpf to a decimal string with precision-matched digits.

    The string depends only on the value and ``bits`` (by default the
    ambient precision): x is read once, rounded to nearest at ``bits``
    as mpf(x) rounds it under workprec(bits), and formatted with no
    precision context, so the ambient precision never enters.  That is
    what the CSV/JSON reproducibility contract needs.  Those digits need
    not read back to x; exact adds the fewest, at most two, with which
    parse_decimal at the same bits gives x itself.
    """
    p = bits if bits is not None else mp.prec
    x = mpf(x, prec=p)
    text = mp.nstr(x, decimal_digits(p))
    if exact:  # floor(p log10 2) + 2 digits read back to any p-bit x
        for more in (1, 2):
            if _read_decimal(text, p) == x:
                break
            text = mp.nstr(x, decimal_digits(p) + more)
    return text
