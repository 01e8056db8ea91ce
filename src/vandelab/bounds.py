"""Evaluation of the explicit bound formulas and the window checks.

Every formula runs at the ambient precision, and 32*pi*e and 16*pi*e come
from ``hp.pi_e``, never from decimal literals.  At ell = m each lower-bound
shape is the scale of level m, and count_bands counts a spectrum into bands.

Of the absolute constants the theory leaves non-explicit, only the
lower-bound multiplier c1 is supplied by the caller; the ell-dependent
window constant is fixed at DEFAULT_WINDOW_FLOOR.  Both are reported,
never asserted: experiments measure them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .errors import InvalidParameterError
from .geometry import ClusterSpec
from .hp import as_mpf, decimal_str, pi_e

#: stand-in for the non-explicit window constant: the window check asks
#: N*theta >= s * DEFAULT_WINDOW_FLOOR.  Advisory only.
DEFAULT_WINDOW_FLOOR = 10


def _check_common(N: int, delta, ell: int = 1):
    if N < 1:
        raise InvalidParameterError(f"N must be >= 1, got {N}")
    if ell < 1:
        raise InvalidParameterError(f"ell must be >= 1, got {ell}")
    if not as_mpf(delta) > 0:
        raise InvalidParameterError("delta must be > 0")


def lower_bound_shape(N: int, delta, ell: int):
    """sqrt(N) * (N*delta / (32*pi*e))^(ell-1), the lower-bound shape."""
    _check_common(N, delta, ell)
    return mp.sqrt(N) * (N * as_mpf(delta) / pi_e(32)) ** (ell - 1)


def prolate_lower_shape(delta, ell: int):
    """(delta / (16*pi*e))^(2(ell-1)), the prolate lower-bound shape."""
    _check_common(1, delta, ell)
    return (as_mpf(delta) / pi_e(16)) ** (2 * (ell - 1))


def count_bands(values, thresholds) -> list:
    """Number of values in each band [t_m, t_{m-1}), with t_0 = +inf,
    for strictly decreasing thresholds t_1 > t_2 > ..., else
    InvalidParameterError."""
    if any(a <= b for a, b in zip(thresholds, thresholds[1:])):
        raise InvalidParameterError(
            "level thresholds do not strictly decrease: the level shapes "
            "grow with m once N*delta >= 32*pi*e (prolate: delta >= 16*pi*e)")
    uppers = [mpf("inf"), *thresholds[:-1]]
    return [sum(1 for v in values if t <= v < u)
            for t, u in zip(thresholds, uppers)]


def upper_bound_explicit(N: int, delta, ell: int, tau):
    """(1/2) * sqrt(N*ell*e) * (tau*N*delta)^(ell-1), fully explicit."""
    _check_common(N, delta, ell)
    if as_mpf(tau) < ell - 1:
        raise InvalidParameterError("need tau >= ell-1")
    return mp.sqrt(N * ell * mp.e) / 2 * (as_mpf(tau) * N * as_mpf(delta)) ** (ell - 1)


def slepian_constant(s: int):
    """The equispaced-cluster constant 2^(2s-2) / ((2s-1) * C(2s-2, s-1)^3).

    Evaluated as an exact rational, then rounded once to working precision.
    """
    if s < 1:
        raise InvalidParameterError(f"s must be >= 1, got {s}")
    frac = Fraction(2 ** (2 * s - 2), (2 * s - 1) * math.comb(2 * s - 2, s - 1) ** 3)
    return mpf(frac.numerator) / mpf(frac.denominator)


def srf(N: int, delta):
    """Super-resolution factor (N*delta)^-1."""
    _check_common(N, delta)
    return 1 / (N * as_mpf(delta))


@dataclass(frozen=True)
class BoundReport:
    """Every explicit bound formula evaluated for one configuration."""

    lower_shape: object
    upper_explicit: object
    slepian_asymptotic: object
    srf: object
    window_ok: bool
    window_reason: str
    user_c1: object
    window_floor: object
    precision_bits: int

    def to_json_dict(self) -> dict:
        bits = self.precision_bits
        return {
            "lower_shape": decimal_str(self.lower_shape, bits),
            "upper_explicit": decimal_str(self.upper_explicit, bits),
            "slepian_asymptotic": decimal_str(self.slepian_asymptotic, bits),
            "srf": decimal_str(self.srf, bits),
            "window_ok": self.window_ok,
            "window_reason": self.window_reason,
            "user_c1": decimal_str(self.user_c1, bits),
            "window_floor": decimal_str(self.window_floor, bits),
        }


def evaluate_all(N: int, cluster: ClusterSpec, bits: int,
                 user_c1=1) -> BoundReport:
    """Populate a BoundReport for frequency cutoff N and a cluster spec
    at ``bits``; it reads no nodes.

    window_ok combines the checkable parts of the admissible N-window:
    N*tau*delta <= 2*pi (the single-cluster upper condition) and
    N*theta >= s*DEFAULT_WINDOW_FLOOR, where the floor stands in for the
    non-explicit ell-dependent constant.  The report also records the
    raw products so callers can judge window membership themselves.
    """
    with mp.workprec(bits):
        lower = lower_bound_shape(N, cluster.delta, cluster.ell)
        upper = upper_bound_explicit(N, cluster.delta, cluster.ell, cluster.tau)
        slep = slepian_constant(cluster.s) * cluster.delta ** (2 * cluster.s - 2)
        srf_val = srf(N, cluster.delta)
        wf = as_mpf(DEFAULT_WINDOW_FLOOR)
        ntd = N * cluster.tau * cluster.delta
        nth = N * cluster.theta
        reasons = []
        if ntd > 2 * mp.pi:
            reasons.append(
                f"N*tau*delta = {decimal_str(ntd, 64)} exceeds 2*pi")
        if nth < cluster.s * wf:
            reasons.append(
                f"N*theta = {decimal_str(nth, 64)} below s*window_floor = "
                f"{decimal_str(cluster.s * wf, 64)}")
        ok = not reasons
        reason = "in window" if ok else "; ".join(reasons)
        return BoundReport(
            lower_shape=lower,
            upper_explicit=upper,
            slepian_asymptotic=slep,
            srf=srf_val,
            window_ok=ok,
            window_reason=reason,
            user_c1=as_mpf(user_c1),
            window_floor=wf,
            precision_bits=bits,
        )
