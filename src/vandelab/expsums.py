"""Exponential sums: evaluation, exact norms, and inequality checks.

A sum is P(t) = sum_j c_j e^(i t x_j) with distinct real frequencies.
L2 norms over an interval use the paper-normalized measure
(1/mu(I) inside the integral) and are integrated in closed form: the
quantities checked here span hundreds of orders of magnitude, so
quadrature error would swamp them.  The L2 norm and the integer-sample
norm are real quadratic forms in the sinc (prolate) and Dirichlet
kernels, after one phase rotation of the coefficients, so they are real
by construction.  Their kernels are exact int ratios from the frame the
Dirichlet and prolate matrices are built from, _kernel_frame, and
_quadratic_form forms every pair exactly in one integer frame and
rounds the sum once, to p bits, within (1 + 2^-8) 2^-p of the form's
term mass.  A form raises
PrecisionError only when it does not clear its rounding dust.  The
Turan, Nikolskii, cor-Turan and Riemann checks each return an
InequalityCheck with both sides as computed; the Salem ratio is a
measured constant, not a verdict.  Its minimum over many sums,
min_salem_ratio, is exact, but most sums are decided in binary64: a
float ratio with a proven error bound shows that a sum lies above the
running minimum, and only the sums it cannot rule out get the exact L2
form.  The Salem and cor-Turan checks refuse frequencies closer than
delta around the circle; binary64 gaps with a proven margin pass most
sums, and only the others get the mp gaps and their refusal.

Sup norms are certified from a uniform grid: a derivative bound B for
the [0,1]-rescaled sum (the Bernstein factor) turns the grid maximum
into the two-sided enclosure grid_max <= sup <= grid_max / (1 - h*B/2).
A binary64 pass over the grid with a proven error bound E keeps only
the points within 2E of the float maximum for evaluation at mp
precision, so the result is still the mp maximum over the whole grid.
That pass steps each term's phase by a table of 32 points: libm's cos
and sin run once per 32-point block and once per table entry, and each
point costs one complex product per term.  It evaluates every 8th point
first, and the 7 between two of them only when their ends and the
Lipschitz bound |h| sum_j |c_j| |x_j| of |P| leave them able to reach
the cut: the points it skips would not have been kept.
Inequality verdicts always use the conservative side of each enclosure,
so a reported violation is a real violation and never a grid artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add

from mpmath import mp, mpf
from mpmath.libmp import (from_man_exp, mpf_add, mpf_mul, mpf_shift, mpf_sub,
                          round_nearest, to_fixed, to_float)

from .errors import (
    DegenerateInputError,
    InvalidParameterError,
    PrecisionError,
    ResourceLimitError,
)
from .geometry import LINE, PERIODIC, sorted_gaps
from .hp import as_mpc, as_mpf, decimal_str, pi_e
from .matrices import _dirichlet_guard, _kernel_frame, _phases

DEFAULT_MAX_SUP_SAMPLES = 2_000_000
MIN_SUP_SAMPLES = 64


@dataclass(frozen=True)
class ExpSum:
    """Coefficients and pairwise-distinct frequencies of one sum."""

    coeffs: tuple
    freqs: tuple

    def __post_init__(self):
        coeffs = tuple(as_mpc(c) for c in self.coeffs)
        freqs = tuple(as_mpf(x) for x in self.freqs)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "freqs", freqs)
        if len(coeffs) != len(freqs):
            raise InvalidParameterError(
                f"{len(coeffs)} coefficients vs {len(freqs)} frequencies")
        if len(set(freqs)) != len(freqs):
            raise DegenerateInputError("frequencies must be pairwise distinct")

    @property
    def degree(self) -> int:
        return sum(1 for c in self.coeffs if c)

    def coeff_norm_sq(self):
        return mp.fsum(abs(c) ** 2 for c in self.coeffs)


@dataclass(frozen=True)
class CertifiedSup:
    """Two-sided enclosure of a sup norm from a uniform grid."""

    lower: object
    upper: object
    samples: int


@dataclass(frozen=True)
class InequalityCheck:
    """One inequality verdict with both sides as computed."""

    lhs: object
    rhs: object
    holds: bool


def evaluate(P: ExpSum, t):
    """P(t) at ambient precision."""
    t = as_mpf(t)
    return mp.fsum((c * mp.expj(t * x) for c, x in zip(P.coeffs, P.freqs)),
                   absolute=False)


#: bits q carries beyond p, the gap bits and 2 log2(n) (_quadratic_form)
_FORM_MARGIN_BITS = 14


def _quadratic_form(P: ExpSum, A, m, domain: str, what: str):
    """sum_{j,k} c_j conj(c_k) e^(i m d) K(d), d = x_j - x_k, for the
    real even kernel K(d) = sin(A d) / h(d/2), K(0) = 2A, whose form is
    nonnegative: h(t) = t on LINE (the L2 kernel) and sin(t) on PERIODIC
    (the Dirichlet kernel).  A > 0 and m are exact mpfs.

    With r_j = c_j e^(i m x_j) the form is the sum of |c_j|^2 2A and, once
    per pair j < k, 2 Re(r_j conj(r_k)) K_jk, over the nonzero c_j, in
    one integer frame: K_jk = floor(num / den) from matrices._kernel_frame,
    in the unit 2^ke that puts 2A at q bits, u = 2^-q; the rotation
    (cos, sin)(m x_j) from _phases at q bits, the frame's when m = A; and
    the coefficients truncated into a unit 2^ce that puts their largest
    part at q bits.  The sum is exact, and rounded once, to p = mp.prec.

    The error, with c = max |c_j|, mass = sum_{j,k} |c_j| |c_k|
    |K(x_j - x_k)| >= 2A c^2 and g the frame's closest-pair guard: the
    floor adds 2^ke <= 2u 2A to the frame's error, so K_jk is within
    38 2^g u 2A; each coefficient is within 2 sqrt(2) u c, each rotated
    one within 10u c; so each of the n^2 terms is within 60 2^g u c^2 2A,
    and the sum within 60 n^2 2^(g-q) mass.  q = p + g + 2 bitlen(n) +
    _FORM_MARGIN_BITS takes that below 2^-(p+8) mass: the form is within
    (1 + 2^-8) 2^-p mass once rounded.  A form at or below 2^-(p-16) of
    the mass, summed in the frame from each |c_j| rounded up and each
    |K_jk| plus a unit, cannot be resolved: PrecisionError.
    """
    p = mp.prec
    terms = [(c, x) for c, x in zip(P.coeffs, P.freqs) if c]
    if not terms:
        return mpf(0)
    n = len(terms)
    q, ke, (C, S), pairs = _kernel_frame(
        [x for _, x in terms], A, domain,
        2 * n.bit_length() + _FORM_MARGIN_BITS, f"{what} quadratic form")
    Cm, Sm = (C, S) if m == A else zip(
        *_phases([mpf_mul(m._mpf_, x._mpf_) for _, x in terms], q))
    parts = [(c.real._mpf_, c.imag._mpf_) for c, _ in terms]
    top = max(v[2] + v[3] for pair in parts for v in pair if v[1])
    ce = top - q
    cr, ci = zip(*[(to_fixed(re, -ce), to_fixed(im, -ce)) for re, im in parts])
    rr = [(a * c - b * s) >> q for a, b, c, s in zip(cr, ci, Cm, Sm)]
    ri = [(a * s + b * c) >> q for a, b, c, s in zip(cr, ci, Cm, Sm)]
    k0 = to_fixed(mpf_shift(A._mpf_, 1), -ke)
    sq = [a * a + b * b for a, b in zip(cr, ci)]
    absc = [math.isqrt(v) + 3 for v in sq]  # |c_j| rounded up
    acc = k0 * sum(sq)
    mass = k0 * sum(v * v for v in absc)
    for j, k, num, den in pairs:
        kv = num // den
        acc += 2 * kv * (rr[j] * rr[k] + ri[j] * ri[k])
        mass += 2 * (abs(kv) + 1) * absc[j] * absc[k]
    unit = 2 * ce + ke
    form = mp.make_mpf(from_man_exp(acc, unit, p, round_nearest))
    if acc << (p - 16) <= mass:
        dust = mp.make_mpf(from_man_exp(mass, unit - (p - 16), p))
        raise PrecisionError(
            f"{what} quadratic form came out {decimal_str(form)}, not "
            f"above rounding dust {decimal_str(dust)}; raise precision")
    return form


def _l2_form(P: ExpSum, a, b):
    """int_a^b |P(t)|^2 dt in closed form: the quadratic form in
    E(d) = int_a^b e^(i d t) dt = e^(i m d) 2 sin(A d) / d, with
    m = (a + b)/2 and A = (b - a)/2, both exact.  On [-1, 1] the real
    factor is twice build_prolate's kernel."""
    a, b = as_mpf(a)._mpf_, as_mpf(b)._mpf_
    A = mp.make_mpf(mpf_shift(mpf_sub(b, a), -1))
    m = mp.make_mpf(mpf_shift(mpf_add(a, b), -1))
    return _quadratic_form(P, A, m, LINE, "L2")


def l2_norm_exact(P: ExpSum, a, b):
    """||P||_{L2(a,b)} with normalized measure: sqrt(_l2_form / (b - a))."""
    a, b = as_mpf(a), as_mpf(b)
    if not b > a:
        raise InvalidParameterError("need b > a")
    return mp.sqrt(_l2_form(P, a, b) / (b - a))


def discrete_norm(P: ExpSum, N: int):
    """The integer-sample norm (sum_{k=0}^{N} |P(k)|^2)^(1/2).

    For a unit coefficient vector this is ||V_N(x) c||_2.  Evaluated as
    the quadratic form in the Dirichlet sums sum_k e^(i k d): the phase
    e^(i N d / 2) times the ratio sin((N+1) d/2) / sin(d/2) that
    build_dirichlet_kernel assembles.  The form is rounded, and clears
    its dust, at _dirichlet_guard(N) bits over the ambient precision,
    the guard that kernel is rounded with.
    """
    if N < 0:
        raise InvalidParameterError("N must be >= 0")
    with mp.workprec(mp.prec + _dirichlet_guard(N)):
        form = _quadratic_form(P, mpf(N + 1) / 2, mpf(N) / 2, PERIODIC,
                               "discrete")
        val = mp.sqrt(form)
    return +val


_U = 2.0 ** -53  # unit roundoff of binary64
_CHUNK = 1 << 14  # grid points per float pass
_BLOCK = 32  # grid points per phase table in the float pass
_RUN = 8  # grid points per run between coarse points of the float pass


def _float_moduli(P: ExpSum, a, h, ks: range, samples: int, p: int,
                  top=0.0):
    """(f, E, e): binary64 f_k ~ 2^-e |P(a + k h)| for k in ks, a range
    within 0..samples, with |f_k - 2^-e |P(a + k h)|| <= E at every k,
    and f_k = -inf at the points it skips, each of which lies below
    fl(max(top, max f) - 2E), the cut of _grid_max.

    2^-e puts every coefficient part below 1, so nothing overflows.  The
    points are taken in blocks of _BLOCK, counted from ks.start.  Term j
    has one table T_j[m] = c_j e^(i fl(m beta_j)) for m < _BLOCK, and one
    base e^(i fl(alpha_j + k0 beta_j)) per block start k0, with
    alpha_j = fl(x_j a) and beta_j = fl(x_j h): its value at k = k0 + m
    is base * T_j[m], one complex product, so libm runs once per block
    and once per table entry.  The phase error does not grow with k.
    With u = 2^-53, n nonzero terms, S = sum_j |c_j| after scaling and
    r_j = |x_j| (|a| + samples |h|), E adds up:

    - phase: float(mpf) truncates x_j, a and h (2u each); alpha_j, beta_j,
      k0 beta_j, their sum and m beta_j are rounded once each.  The two
      parts add up to the phase at k in the product, exactly but for its
      rounding below: 7u r_j, taken as 10u r_j.  A term whose bound
      reaches 2 gets phase 0 and is charged 2 |c_j|;
    - coefficient rounding (2u), libm cos and sin within 2 ulp (3u) for
      the table and again for the base, the table's complex product (3u)
      and the base's (3u), and hypot within 1 ulp (2u): 16u S, taken as
      20u S;
    - recursive summation (Higham): gamma_{n-1} S;
    - an underflowing coefficient or product: 2^-1060 per term;
    - the mp evaluation of a point at p bits, so that the point of the
      mp maximum is kept too: 2^-(p-2) (max_j r_j + n + 4) S.

    E = (1 + 2^-20) (S (20u + gamma_{n-1} + 2^-(p-2) (max_j r_j + n + 4))
    + sum_j |c_j| min(10u r_j, 2) + n 2^-1060).  The factor 1 + 2^-20
    covers the (1 + O(u)) factors and the float evaluation of E.

    Runs.  The coarse points, every _RUN-th point of each block and the
    last point, are evaluated first; each run of up to _RUN - 1 points
    between two of them, k_L < k < k_R, only when it can reach the cut.
    With v_k = 2^-e |P(a + k h)|, |v_k - v_L| <= sum_j |c_j 2^-e| |x_j|
    (k - k_L) |h|, and the same from k_R, so v_k <= (v_L + v_R + _RUN L)/2
    with L = |h| sum_j |c_j 2^-e| |x_j|, and f_k <= v_k + E <=
    (f_L + f_R)/2 + 2E + _RUN L/2.  With M_j = |C_j| and H = fl(h),
    (1 + 8u) |H| sum_j M_j |X_j| bounds L but for underflow: a
    coefficient part below 2^-1074, or a product M_j |X_j| or x_j in the
    subnormal range, adds at most 2^-1068 (1 + |H|) per term, so at most
    n 2^-66 to v_k when 2^-1000 <= |H| <= 2^1000; for other H no run is
    skipped.  A run is skipped when, with lam = fl(sum_j M_j |X_j|),
    (1 + 2^-20) ((f_L + f_R)/2 + 2E + _RUN |H| lam/2) + n 2^-60 lies below
    the cut fl(top' - 2E), top' the largest of top and the coarse f: the
    factor and n 2^-60 cover the roundings of the bound and the
    underflow, so every f_k it skips is below the cut, and below the cut
    of every later chunk.  So the largest f_k is always evaluated, and
    _grid_max keeps the same points as a pass that evaluates them all.
    """
    peak = max((max(abs(c.real), abs(c.imag)) for c in P.coeffs), default=0)
    e = mp.frexp(peak)[1] if peak else 0
    A, H = float(a), float(h)
    starts = range(ks.start, ks.stop, _BLOCK)
    terms, mags, phase_err, r_max, lam = [], [], 0.0, 0.0, 0.0
    for c, x in zip(P.coeffs, P.freqs):
        if not c:
            continue
        cf = complex(float(mp.ldexp(c.real, -e)), float(mp.ldexp(c.imag, -e)))
        X = float(x)
        r = abs(X) * (abs(A) + samples * abs(H))
        alpha, beta, d = X * A, X * H, 10 * _U * r
        if not d < 2:
            alpha = beta = 0.0
            d = 2.0
        mags.append(abs(cf))
        phase_err += abs(cf) * d
        r_max = max(r_max, r)
        lam += abs(cf) * abs(X)
        table = [cf * complex(math.cos(t), math.sin(t))
                 for t in [m * beta for m in range(_BLOCK)]]
        bases = [complex(math.cos(t), math.sin(t))
                 for t in [alpha + k0 * beta for k0 in starts]]
        terms.append((bases, table))
    n, S = len(mags), sum(mags)
    gamma = (n - 1) * _U / (1 - (n - 1) * _U) if n else 0.0
    E = (1 + 2.0 ** -20) * (phase_err + n * 2.0 ** -1060 + S * (
        20 * _U + gamma + math.ldexp(r_max + n + 4, 2 - p)))
    if not terms:
        return [0.0] * len(ks), E, e

    def moduli(cols):
        # |sum_j cols(bases_j, table_j)|, summed term by term in order
        zs = None
        for bases, table in terms:
            col = cols(bases, table)
            zs = col if zs is None else list(map(add, zs, col))
        return list(map(abs, zs))

    last = len(ks) - 1
    coarse = list(range(0, last, _RUN)) + [last]
    fc = moduli(lambda bases, table: [
        w * v for w in bases for v in table[::_RUN]][:len(coarse) - 1]
        + [bases[last // _BLOCK] * table[last % _BLOCK]])
    f = [-math.inf] * len(ks)
    f[:last:_RUN] = fc[:-1]
    f[last] = fc[-1]
    top = max(top, max(fc))
    cut = top - 2 * E
    reach = 2 * E + _RUN / 2 * abs(H) * lam \
        if 2.0 ** -1000 <= abs(H) <= 2.0 ** 1000 else math.inf
    slop = n * 2.0 ** -60
    runs = [(i, j) for i, j, f_l, f_r in zip(coarse, coarse[1:], fc, fc[1:])
            if j - i > 1
            and not (1 + 2.0 ** -20) * ((f_l + f_r) / 2 + reach) + slop < cut]
    if runs:
        fe = moduli(lambda bases, table: [
            bases[i // _BLOCK] * v for i, j in runs
            for v in table[i % _BLOCK + 1:j - i // _BLOCK * _BLOCK]])
        pos = 0
        for i, j in runs:
            f[i + 1:j] = fe[pos:pos + j - i - 1]
            pos += j - i - 1
    return f, E, e


def _float_salem(P: ExpSum, W):
    """(r, E): a binary64 r of the Salem ratio of P on [0, W], with
    |r - R| <= E for R the mpf check_salem_ratio returns at p = mp.prec
    when W = 4 pi/delta_sep at p bits.  P has a nonzero coefficient.

    With c2 = sum_j |c_j|^2 and phi = W (x_j - x_k), the ratio is
    1 + sum_{j<k} Re(c_j conj(c_k) h(phi)) / c2 over the nonzero terms,
    h(phi) = 2 (e^(i phi) - 1)/(i phi) = 2 (sin phi + i (1 - cos phi))/phi,
    the cross terms of int_0^W |P|^2 dt / (W c2); |h| <= min(2, 4/|phi|).
    The coefficients are scaled by 2^-e so that their largest part is in
    [1/2, 1): nothing overflows and c2 >= 1/4.  With u = 2^-53, n nonzero
    terms and, per pair j < k, w = |C_j| |C_k|, s = |X_j| + |X_k|, the
    float phase Phi = fl(fl(W) fl(X_j - X_k)) and H = |h_re| + |h_im| of
    its float h, E adds up:

    - inputs: C_j, X_j and fl(W) round the mp values once, within u;
    - phase: X_j - X_k is within 2u s of x_j - x_k, and rounds within
      u s; the product adds u |Phi| and fl(W)'s rounding u |Phi|: Phi is
      within 5u fl(W) s of phi, taken as D = 8u fl(W) s, about 7e-8 rad
      where |phi| reaches 8e7 (delta = 1e-6, |x| ~ 3.1).  With v = |Phi| - D
      <= |phi|, |h(phi) - h(Phi)| <= 2 |e^(i phi) - e^(i Phi)| / |phi| +
      4 |1/phi - 1/Phi| <= (2 min(D, 2) + 4 D/|Phi|) / v.  A pair with
      v <= 0, or Phi not finite, gets E = inf;
    - h(Phi): libm cos and sin within 2 ulp (4u), 1 - cos rounded (2u),
      the two divisions by Phi (u each, of a numerator up to 2): within
      26.5u / |Phi|, taken as 28u / |Phi|;
    - the pair's product: C_j conj(C_k) is within 2u w of c_j conj(c_k)
      and rounds within sqrt(2) gamma_2 w; Re of its product with h
      rounds within gamma_2 w H; math.fsum of the pairs rounds once,
      within u of sum_pairs w H: 9u w H, taken as 10u w H;
    - the ratio: the float c2 is within 5u c2 of c2 (rounded parts,
      squares, fsum), so R = fl(sum / c2) adds 8u |R| beside the pairs' errors
      divided by c2, and r = fl(1 + R) adds u |r|: taken as 10u |R| and
      2u |r|;
    - the mp value: _quadratic_form is within (1 + 2^-8) 2^-p of its mass
      <= W (sum_j |c_j|)^2 <= W n c2, and the divisions, the square root,
      the square and c2 at p bits add about 10 roundings of the ratio:
      within 2^-p (1.01 n + 10 (|r| + 1)), taken as 2^-(p-8) (n + |r| + 1);
    - an underflowing coefficient part, product or quotient: 2^-1074
      each, at most 2^-1000 n^2 in all once divided by c2 >= 1/4.

    E = (1 + 2^-20) (sum_pairs w ((2 min(D, 2) + 4 D/|Phi|)/v +
    28u/|Phi| + 10u H) / c2 + 10u |R| + 2u |r| + 2^-(p-8) (n + |r| + 1)
    + 2^-1000 n^2).  The factor 1 + 2^-20 covers the (1 + O(u)) factors,
    c2 for the exact c2 and the float evaluation of E.
    """
    terms = [((c.real._mpf_, c.imag._mpf_), x._mpf_)
             for c, x in zip(P.coeffs, P.freqs) if c]
    n = len(terms)
    e = max(v[2] + v[3] for pair, _ in terms for v in pair if v[1])
    cs = [tuple(to_float(mpf_shift(v, -e), rnd=round_nearest) for v in pair)
          for pair, _ in terms]
    xs = [to_float(x, rnd=round_nearest) for _, x in terms]
    mags = [math.hypot(a, b) for a, b in cs]
    Wf = float(W)
    parts, err = [], 0.0
    for j, ((a, b), X) in enumerate(zip(cs, xs)):
        for k in range(j + 1, n):
            (ak, bk), Xk = cs[k], xs[k]
            ph = Wf * (X - Xk)
            D = 8 * _U * Wf * (abs(X) + abs(Xk))
            v = abs(ph) - D
            if not (math.isfinite(ph) and v > 0):
                return 1.0, math.inf
            hr, hi = 2 * math.sin(ph) / ph, 2 * (1 - math.cos(ph)) / ph
            zr, zi = a * ak + b * bk, b * ak - a * bk
            parts.append(zr * hr - zi * hi)
            err += mags[j] * mags[k] * (
                (2 * min(D, 2.0) + 4 * D / abs(ph)) / v + 28 * _U / abs(ph)
                + 10 * _U * (abs(hr) + abs(hi)))
    c2 = math.fsum([a * a for a, _ in cs] + [b * b for _, b in cs])
    R = math.fsum(parts) / c2
    r = 1 + R
    E = (1 + 2.0 ** -20) * (err / c2 + 10 * _U * abs(R) + 2 * _U * abs(r)
                            + math.ldexp(n + abs(r) + 1, 8 - mp.prec)
                            + n * n * 2.0 ** -1000)
    return r, E


def _grid_max(P: ExpSum, a, b, samples: int):
    """max |P| over samples+1 uniform points on [a, b], evaluated at
    prec + 16 + log2(samples) bits only where the float modulus is within
    2E of the float maximum (_float_moduli): every other point lies below
    the mp maximum.  Where E cannot separate the points, all are kept.
    The float pass runs in chunks of _CHUNK points to bound its memory."""
    a = as_mpf(a)
    h = (as_mpf(b) - a) / samples
    p = mp.prec + 16 + max(samples, 1).bit_length()
    top, kept = 0.0, []
    for lo in range(0, samples + 1, _CHUNK):
        ks = range(lo, min(lo + _CHUNK, samples + 1))
        f, E, _ = _float_moduli(P, a, h, ks, samples, p, top)
        top = max(top, max(f))
        cut = top - 2 * E
        kept += [(k, fk) for k, fk in zip(ks, f) if fk >= cut]
    cut = top - 2 * E
    with mp.workprec(p):
        best = max(abs(evaluate(P, a + k * h)) for k, fk in kept if fk >= cut)
    return +best


def bernstein_factor(P: ExpSum, a, b):
    """Derivative bound for the [0,1]-rescaled sum:
    sqrt(108*ell^5 + sum of rescaled frequencies squared)."""
    ell = P.degree
    width = as_mpf(b) - as_mpf(a)
    sq = mp.fsum((x * width) ** 2 for c, x in zip(P.coeffs, P.freqs) if c)
    return mp.sqrt(108 * mpf(ell) ** 5 + sq)


def linf_norm_certified(P: ExpSum, a, b) -> CertifiedSup:
    """Two-sided sup-norm enclosure over [a, b].

    The grid has at least ceil(B) intervals so the inflation factor
    1/(1 - h*B/2) never exceeds 2; more than DEFAULT_MAX_SUP_SAMPLES is
    refused.  A degree-one sum has constant modulus, so its sup is exact.
    """
    a, b = as_mpf(a), as_mpf(b)
    if not b > a:
        raise InvalidParameterError("need b > a")
    nz = [(c, x) for c, x in zip(P.coeffs, P.freqs) if c]
    if len(nz) == 0:
        return CertifiedSup(mpf(0), mpf(0), 0)
    if len(nz) == 1:
        v = abs(nz[0][0])
        return CertifiedSup(v, v, 0)
    B = bernstein_factor(P, a, b)
    samples = max(MIN_SUP_SAMPLES, int(mp.ceil(B)) + 1)
    if samples > DEFAULT_MAX_SUP_SAMPLES:
        raise ResourceLimitError(
            f"certified sup needs {samples} samples, budget is "
            f"{DEFAULT_MAX_SUP_SAMPLES}")
    lower = _grid_max(P, a, b, samples)
    h = mpf(1) / samples
    upper = lower / (1 - h * B / 2)
    return CertifiedSup(lower, upper, samples)


def check_turan(P: ExpSum, interval, subinterval) -> InequalityCheck:
    """sup on I against (4e mu(I)/mu(Omega))^(ell-1) times sup on Omega.

    lhs uses the lower sup estimate and rhs the upper one, so holds=False
    certifies a genuine violation.
    """
    a, b = as_mpf(interval[0]), as_mpf(interval[1])
    w0, w1 = as_mpf(subinterval[0]), as_mpf(subinterval[1])
    if not (b > a and w1 > w0):
        raise InvalidParameterError("intervals must have positive length")
    if w0 < a or w1 > b:
        raise InvalidParameterError("Omega must be contained in I")
    ell = P.degree
    lhs = linf_norm_certified(P, a, b).lower
    omega_sup = linf_norm_certified(P, w0, w1).upper
    rhs = (4 * mp.e * (b - a) / (w1 - w0)) ** (ell - 1) * omega_sup
    return InequalityCheck(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs))


def check_nikolskii(P: ExpSum) -> InequalityCheck:
    """||P||_inf <= (pi*ell/2) ||P||_2 on [0, 1].

    The sup norm is the certified grid maximum (lower side), so a False
    verdict is sound.
    """
    lhs = linf_norm_certified(P, 0, 1).lower
    rhs = mp.pi * P.degree / 2 * l2_norm_exact(P, 0, 1)
    return InequalityCheck(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs))


def _require_separated(P: ExpSum, delta_sep):
    """Refuse P unless its frequencies, reduced to (-pi, pi], are at least
    delta_sep (1 - 2^-(p-16)) apart around the circle, p = mp.prec.

    Binary64 passes most sums first.  With u = 2^-53, p >= 53 and every
    X_j = fl(x_j) within 3.1415 of 0, no x_j is reduced, and positive
    float gaps keep the mp order.  Each mp gap, and the closing arc
    2 pi - (x_last - x_first), is then within 51u < 2^-47 of its float
    value: X_j within 4u of x_j, each float subtraction within 7u, 2 fl(pi)
    within 7u of 2 pi, the mp roundings within 22 2^-p.  So when every
    float gap and the arc reach T = fl(fl(D (1 + 2^-50)) + 2^-46), with
    D = fl(delta_sep), every mp one is above T - 2^-47 >= D (1 + 5u) +
    2^-48 > delta_sep, and P passes.  Otherwise the mp test decides.
    """
    xs = sorted(to_float(x._mpf_, rnd=round_nearest) for x in P.freqs)
    if mp.prec >= 53 and xs and -3.1415 <= xs[0] and xs[-1] <= 3.1415:
        T = to_float(as_mpf(delta_sep)._mpf_, rnd=round_nearest) \
            * (1 + 2.0 ** -50) + 2.0 ** -46
        if len(xs) < 2 or (2 * math.pi - (xs[-1] - xs[0]) >= T and all(
                b - a >= T for a, b in zip(xs, xs[1:]))):
            return
    slack = mp.ldexp(1, -(mp.prec - 16))
    floor = as_mpf(delta_sep) * (1 - slack)
    order, gaps = sorted_gaps(P.freqs, PERIODIC)
    for k, g in enumerate(gaps):
        if g < floor:
            i, j = sorted((order[k], order[(k + 1) % len(order)]))
            raise InvalidParameterError(
                f"frequencies {i},{j} closer than the required "
                f"separation {decimal_str(as_mpf(delta_sep))}")


def check_salem_ratio(P: ExpSum, delta_sep):
    """||P||^2_{L2(0, 4pi/delta)} / ||c||^2, the empirical Salem ratio.

    Frequencies must be pairwise separated by at least delta_sep in the
    wrap-around sense.  Suites record the minimum ratio over instances as
    the empirical constant.
    """
    delta_sep = as_mpf(delta_sep)
    if not delta_sep > 0:
        raise InvalidParameterError("delta_sep must be > 0")
    _require_separated(P, delta_sep)
    c2 = P.coeff_norm_sq()
    if c2 == 0:
        raise DegenerateInputError("all coefficients are zero")
    norm = l2_norm_exact(P, mpf(0), 4 * mp.pi / delta_sep)
    return norm ** 2 / c2


def min_salem_ratio(sums, delta_sep):
    """The least check_salem_ratio over the sums, the same mpf, with each
    sum refused as check_salem_ratio refuses it.

    The first sum is evaluated exactly.  Each later sum gets a binary64
    ratio r within E of its exact one (_float_salem), and is skipped when
    r - E exceeds the running minimum lo rounded up to binary64: its
    ratio is above lo, so the minimum cannot move.  Otherwise it is
    evaluated exactly.  A skipped sum's form is then above lo/(2n) of its
    mass, so skipping only while lo > 2n 2^-(p-16) loses no PrecisionError
    an exact evaluation would raise.
    """
    delta_sep = as_mpf(delta_sep)
    if not delta_sep > 0:
        raise InvalidParameterError("delta_sep must be > 0")
    W = 4 * mp.pi / delta_sep
    lo = None
    for P in sums:
        if lo is not None:
            _require_separated(P, delta_sep)
            n = P.degree
            if not n:
                raise DegenerateInputError("all coefficients are zero")
            r, E = _float_salem(P, W)
            if r - E > lo_up and n < n_cap:
                continue
        ratio = check_salem_ratio(P, delta_sep)
        if lo is None or ratio < lo:
            lo = ratio
            lo_up = float(lo)
            if lo_up < lo:
                lo_up = math.nextafter(lo_up, math.inf)
            # lo > 2n 2^-(p-16) for every n below n_cap
            n_cap = int(mp.ldexp(lo, mp.prec - 17))
    if lo is None:
        raise InvalidParameterError("no sums to take the minimum of")
    return lo


def check_riemann(P: ExpSum, N: int) -> InequalityCheck:
    """||P||^2_{2,N} >= (N/2) int_0^1 |P(N u)|^2 du: the sample sum of
    |P|^2 at the integers 0..N against half its integral over [0, N],
    which is the same right side.

    Both sides are quadratic forms in closed form, discrete_norm's in the
    Dirichlet kernel and the L2 form on [0, N], so either raises
    PrecisionError when it does not clear its rounding dust.
    """
    if N < 1:
        raise InvalidParameterError("N must be >= 1")
    rhs = _l2_form(P, mpf(0), mpf(N)) / 2
    lhs = discrete_norm(P, N) ** 2
    return InequalityCheck(lhs=lhs, rhs=rhs, holds=bool(lhs >= rhs))


def check_cor_turan(P: ExpSum, N: int, delta) -> InequalityCheck:
    """||P||_{L2(0,N)} >= (2/(pi*ell)) (N*delta/(16*pi*e))^(ell-1)
    ||P||_{L2(0, 4pi/delta)}, for delta-separated frequencies and
    N <= 4*pi/delta.  Both sides are exact closed-form L2 norms."""
    delta = as_mpf(delta)
    if not delta > 0:
        raise InvalidParameterError("delta must be > 0")
    if N < 1:
        raise InvalidParameterError("N must be >= 1")
    if N > 4 * mp.pi / delta:
        raise InvalidParameterError("window violation: need N <= 4*pi/delta")
    _require_separated(P, delta)
    ell = P.degree
    lhs = l2_norm_exact(P, mpf(0), mpf(N))
    big = l2_norm_exact(P, mpf(0), 4 * mp.pi / delta)
    rhs = 2 / (mp.pi * ell) * (N * delta / pi_e(16)) ** (ell - 1) * big
    return InequalityCheck(lhs=lhs, rhs=rhs, holds=bool(lhs >= rhs))
