"""Seeded randomized verification suites.

Each suite draws reproducible random instances from a stated seed,
evaluates one inequality or spectral property on every instance, and
returns the verdicts together with the empirical constants it measured
(the minimum Salem ratio, the smallest rhs/lhs margin).  Each record is
built as the JSON object it is written as, with the keys check, index,
params, lhs, rhs, holds and seed; the seed is part of every record so a
report can be replayed.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field

from mpmath import mp, mpf
from mpmath.libmp import from_float

from .errors import InvalidParameterError
from .expsums import (
    ExpSum,
    check_cor_turan,
    check_nikolskii,
    check_riemann,
    check_turan,
    min_salem_ratio,
)
from .geometry import RANDOM, cluster_offsets
from .hp import decimal_str

DEFAULT_SUITE_SEED = 20240601
DEFAULT_SUITE_BITS = 192
SALEM_SEPARATIONS = ("1e-2", "1e-4", "1e-6")


@dataclass
class SuiteResult:
    name: str
    seed: int
    records: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    @property
    def all_hold(self) -> bool:
        return all(r["holds"] for r in self.records)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "all_hold": self.all_hold,
            "summary": self.summary,
            "records": self.records,
        }


def _rng_floats(rng, lo, hi):
    return lo + (hi - lo) * mpf(rng.random())


def _random_coeffs(rng, ell: int) -> list:
    """ell coefficients drawn uniformly from the unit square, each read
    as mpc(re, im) would read it."""
    prec, rnd = mp._prec_rounding
    return [mp.make_mpc((from_float(rng.uniform(-1, 1), prec, rnd),
                         from_float(rng.uniform(-1, 1), prec, rnd)))
            for _ in range(ell)]


def random_expsum(rng, ell: int, freq_range=5.0, min_sep=1e-3) -> ExpSum:
    """ell terms, coefficients in the unit square, frequencies separated
    by at least min_sep inside [-freq_range, freq_range].

    Each candidate x is drawn as a binary64 float and kept when
    abs(mpf(x) - mpf(y)) >= min_sep at the ambient precision p for every
    kept y.  At p >= 53 the mpfs are the floats, and a binary64 gap
    d = fl(|x - y|) >= far = fl(m (1 + 2^-50)), m = float(min_sep), decides
    that comparison: with u = 2^-53, far >= m (1 + 8u)(1 - u), |x - y| >=
    d/(1 + u), the mp gap is |x - y| rounded within 2^-p <= u, min_sep <=
    m/(1 - u), and (1 + 8u)(1 - u)^2/(1 + u) > 1/(1 - u).  Only the other
    gaps, and every gap when p < 53 or m is not within 2^+-1000, get the
    mp comparison.  Frequencies and coefficients are the mpfs of the
    floats, and the rng is called as before, so every draw is the same.
    """
    prec, rnd = mp._prec_rounding
    m = float(min_sep)
    far = m * (1 + 2.0 ** -50) \
        if prec >= 53 and 2.0 ** -1000 <= m <= 2.0 ** 1000 else math.inf
    xs = []
    while len(xs) < ell:
        x = rng.uniform(-freq_range, freq_range)
        if all(abs(x - y) >= far or abs(mpf(x) - mpf(y)) >= min_sep
               for y in xs):
            xs.append(x)
    freqs = tuple(mp.make_mpf(from_float(x, prec, rnd)) for x in xs)
    return ExpSum(tuple(_random_coeffs(rng, ell)), freqs)


def _clustered_expsum(rng, ell_max: int, exp_lo, exp_hi):
    """(ell, delta, P): a sum on one random cluster of ell <= ell_max
    frequencies, with delta = 10^-u for u uniform in [exp_lo, exp_hi]."""
    ell = rng.randint(1, ell_max)
    tau = mpf(max(ell - 1, 1)) + mpf(rng.uniform(0, 1))
    delta = mpf(10) ** (-_rng_floats(rng, mpf(exp_lo), mpf(exp_hi)))
    nodes = cluster_offsets(ell, ell, tau, delta, RANDOM, rng)
    return ell, delta, ExpSum(tuple(_random_coeffs(rng, ell)), nodes)


def _require_instances(instances: int):
    if instances < 1:
        raise InvalidParameterError(f"instances must be >= 1, got {instances}")


def _run(name: str, draw, instances: int, seed: int,
         margin: bool = False) -> SuiteResult:
    """One record per seeded instance; ``draw(rng)`` gives its
    (params, InequalityCheck).  With margin the summary also states the
    smallest rhs/lhs over the instances."""
    _require_instances(instances)
    rng = random.Random(seed)
    out = SuiteResult(name, seed)
    bits = DEFAULT_SUITE_BITS
    checks = []
    with mp.workprec(bits):
        for i in range(instances):
            params, chk = draw(rng)
            checks.append(chk)
            out.records.append({
                "check": name, "index": i, "params": params,
                "lhs": decimal_str(chk.lhs, bits),
                "rhs": decimal_str(chk.rhs, bits), "holds": chk.holds,
                "seed": seed})
        out.summary = {"instances": instances}
        if margin:
            worst = min(c.rhs / c.lhs if c.lhs > 0 else mpf("inf")
                        for c in checks)
            out.summary["min_rhs_over_lhs"] = decimal_str(worst, bits)
    return out


def _draw_turan(rng):
    ell = rng.randint(1, 5)
    P = random_expsum(rng, ell)
    b = mpf(rng.uniform(1.0, 4.0))
    w0 = mpf(rng.uniform(0.0, 0.7)) * b
    w1 = w0 + max(mpf(rng.uniform(0.05, 0.3)) * b, mpf("0.01"))
    return ({"ell": ell, "interval": decimal_str(b, 64)},
            check_turan(P, (mpf(0), b), (w0, w1)))


def _draw_nikolskii(rng):
    """p = inf, q = 2 on [0, 1]."""
    ell = rng.randint(1, 5)
    P = random_expsum(rng, ell, freq_range=20.0)
    return {"ell": ell, "p": "inf", "q": 2}, check_nikolskii(P)


def _draw_cor_turan(rng):
    ell, delta, P = _clustered_expsum(rng, 4, 2, 5)
    n_hi = min(300, int(4 * math.pi / float(delta)))
    N = rng.randint(50, max(50, n_hi))
    return ({"ell": ell, "N": N, "delta": decimal_str(delta, 64)},
            check_cor_turan(P, N, delta))


def _draw_riemann(rng):
    """Discrete-vs-continuous norm relation on a clustered sum."""
    ell, _, P = _clustered_expsum(rng, 5, 3, 6)
    N = rng.randint(30, 300)
    return {"ell": ell, "N": N}, check_riemann(P, N)


def run_salem_suite(instances: int, seed: int) -> SuiteResult:
    """Empirical Salem ratios: min over instances, for each separation
    of SALEM_SEPARATIONS, each drawing its instances afresh from seed.
    min_salem_ratio finds each minimum exactly, deciding most instances
    in binary64.

    summary.relative_spread states the max relative spread of the minima
    around their mean; the constant is only ever estimated, not asserted.
    """
    _require_instances(instances)
    out = SuiteResult("salem", seed)
    bits = DEFAULT_SUITE_BITS
    minima = []
    with mp.workprec(bits):
        for delta_text in SALEM_SEPARATIONS:
            rng = random.Random(seed)
            delta = mpf(delta_text)
            lo = min_salem_ratio(
                (random_expsum(rng, rng.randint(1, 5), freq_range=3.1,
                               min_sep=delta) for _ in range(instances)),
                delta)
            minima.append(lo)
            out.records.append({
                "check": "salem", "index": len(out.records),
                "params": {"delta": delta_text, "instances": instances},
                "lhs": decimal_str(lo, bits), "rhs": "0",
                "holds": bool(lo > 0), "seed": seed})
        mean = mp.fsum(minima) / len(minima)
        spread = max(abs(x - mean) / mean for x in minima)
        out.summary = {
            "minima": [decimal_str(x, bits) for x in minima],
            "empirical_constant": decimal_str(min(minima), bits),
            "relative_spread": decimal_str(spread, bits),
        }
    return out


#: suite name -> callable(instances, seed) -> SuiteResult, in the
#: order the inequalities command runs them by default
ALL_SUITES = {
    "turan": functools.partial(_run, "turan", _draw_turan, margin=True),
    "nikolskii": functools.partial(_run, "nikolskii", _draw_nikolskii,
                                   margin=True),
    "cor-turan": functools.partial(_run, "cor-turan", _draw_cor_turan),
    "salem": run_salem_suite,
    "riemann": functools.partial(_run, "riemann", _draw_riemann),
}
