"""Arbitrary-precision real symmetric eigensolver and derived singular values.

Its matrices, the Dirichlet kernel K (with the spectrum of the
Vandermonde Gram G = U^H K U) and the prolate matrix, are positive
definite and graded over hundreds of orders of magnitude, so the solver
must keep the relative accuracy that QR-type methods lack.  It is the
Drmac-Veselic recipe (SIMAX 29, 2008; Demmel and Veselic, SIMAX 13, 1992
prove its accuracy):

1. Cholesky with diagonal pivoting in mpf at p bits, A = P^T R^T R P.  A
   pivot that is not positive raises PrecisionError naming it and the
   bits.
2. One-sided (Hestenes) Jacobi on the columns of W = R^T, whose Gram
   R R^T has the spectrum of A.  A column is a list of ints with one
   exponent, rounded to q = p + GUARD_BITS bits at its largest entry.
   For columns x, y the exact ints a = |x|^2, b = |y|^2 and d = x.y
   decide: d^2 2^(2(p-8)) <= a b leaves the pair, otherwise
   (x, y) -> (c x - s y, s x + c y) makes it orthogonal.  c and s are
   (mantissa, exponent) pairs, so a tiny s keeps its relative precision;
   each new column is formed exactly and rounded once.  The iteration
   stops after a sweep without a rotation; ConvergenceError if the last
   sweep of the budget still rotates.
3. The eigenvalues are the squared column norms, rounded to p bits.

The one resolution rule: a smallest eigenvalue at or below the solve's
error bound is noise, so the solver raises PrecisionError instead of
returning it.  Every spectrum it returns is resolved at p bits, and its
callers take it as it is.
"""

from __future__ import annotations

import dataclasses
import math
from operator import mul

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, round_nearest

from .errors import ConvergenceError, InvalidParameterError, PrecisionError
from .geometry import LINE, NodeSet, scale_to_circle
from .hp import decimal_str
from .matrices import VandermondeSpec, build_dirichlet_kernel, build_prolate

MAX_EIGEN_DIM = 256
#: bits each Jacobi column carries beyond the working precision
GUARD_BITS = 24


@dataclasses.dataclass(frozen=True)
class SpectrumResult:
    """Sorted spectrum plus solver diagnostics.

    values are non-increasing; kind is "singular" or "eigen".
    offdiag_residual is the off-diagonal Frobenius norm of W^T W, W the
    Jacobi columns, from the dot products of the final sweep, and
    sweeps_used the number of sweeps, the final one included.
    error_bound bounds the error of each eigenvalue the solve computed
    (for kind "singular", of each squared value); JSON leaves it out.
    """

    values: tuple
    kind: str
    precision_bits: int
    offdiag_residual: object
    sweeps_used: int
    error_bound: object

    @property
    def min_value(self):
        return self.values[-1]

    @property
    def headroom_bits(self) -> int:
        """floor(log2(lambda_min / error_bound)), lambda_min the smallest
        eigenvalue (squared singular value), which clears error_bound."""
        with mp.workprec(self.precision_bits):
            lam = self.min_value
            if self.kind == "singular":
                lam *= lam
            # mag is exact for an mpf: its floor(log2) plus one
            return mp.mag(lam / self.error_bound) - 1

    def to_json_dict(self) -> dict:
        bits = self.precision_bits
        return {
            "kind": self.kind,
            "precision_bits": bits,
            "values": [decimal_str(v, bits) for v in self.values],
            "offdiag_residual": decimal_str(self.offdiag_residual, bits),
            "sweeps_used": self.sweeps_used,
            "headroom_bits": self.headroom_bits,
        }


def _sweep_budget(n: int) -> int:
    """Full Jacobi sweeps allowed on an n x n matrix."""
    return 15 + 2 * max(1, math.ceil(math.log2(n))) if n > 1 else 1


def _round_column(col, e, q):
    """(col', e'): the column col 2^e with every entry rounded to a
    multiple of 2^e', to nearest with ties to even, where e' puts the
    largest entry at q bits; a column that fits stays as it is."""
    k = max(map(abs, col), default=0).bit_length() - q
    if k <= 0:
        return col, e
    half, low = 1 << (k - 1), (1 << k) - 1
    # w = v + 1/2 ulp; w >> k is v rounded half up, and a tie (w & low
    # == 0) is moved down to the even neighbour by clearing the last bit
    return [w >> k if (w := v + half) & low else w >> k & -2
            for v in col], e + k


def _combine(f, x, ex, g, y, ey, q):
    """f x + g y for scalars f, g given as (mantissa, exponent) pairs and
    columns x 2^ex, y 2^ey: formed exactly, then rounded by _round_column."""
    e = min(f[1] + ex, g[1] + ey)
    mf, mg = f[0] << f[1] + ex - e, g[0] << g[1] + ey - e
    return _round_column([mf * u + mg * v for u, v in zip(x, y)], e, q)


def _rotation(a, b, d, ex, ey, q):
    """(c, s) as (mantissa, exponent) pairs, truncated to q bits, of the
    rotation that makes columns x 2^ex and y 2^ey orthogonal, from the
    ints a = |x|^2, b = |y|^2 and d = x.y != 0.  In values,
    zeta = (b - a) / (2 d), t = sign(zeta) / (|zeta| + sqrt(1 + zeta^2)),
    c = 1 / sqrt(1 + t^2) and s = t c; with h = b - a, X = |h| +
    sqrt(h^2 + 4 d^2) and H = sqrt(X^2 + 4 d^2) that is c = X / H and
    |s| = 2 |d| / H."""
    # one power of two takes all three to a common exponent and d to
    # q + 32 bits: each is then off by less than a unit, and X and H by a
    # few, against H >= X >= 2 |d| >= 2^(q+32)
    k = q + 32 - d.bit_length()
    a, b, d = (v << j if j >= 0 else v >> -j for v, j in (
        (a, k + ex - ey), (b, k + ey - ex), (d, k)))
    h, y = b - a, 2 * abs(d)
    x = abs(h) + math.isqrt(h * h + y * y)
    hyp = math.isqrt(x * x + y * y)
    k = q + hyp.bit_length() - y.bit_length()
    s = (y << k) // hyp
    if h and (h < 0) != (d < 0):  # sign(0) = +1
        s = -s
    return ((x << q) // hyp, -q), (s, -k)


def _cholesky_rows(a, n, p):
    """The rows of R, A = P^T R^T R P by Cholesky with diagonal pivoting at
    p bits, for a symmetric matrix a of mpf rows (overwritten); each row
    is in pivot order.  A pivot that is not positive raises
    PrecisionError."""
    r = []
    for k in range(n):
        j = max(range(k, n), key=lambda i: a[i][i])  # the first largest
        a[k], a[j] = a[j], a[k]
        for row in a + r:
            row[k], row[j] = row[j], row[k]
        pivot = a[k][k]
        if pivot <= 0:
            raise PrecisionError(
                f"Cholesky pivot {k + 1} of {n} is {decimal_str(pivot, p)}: "
                f"the matrix is not positive definite at {p} bits; "
                "raise precision")
        d = mp.sqrt(pivot)
        tail = [x / d for x in a[k][k + 1:]]
        r.append([mpf(0)] * k + [d] + tail)
        for i, ri in enumerate(tail, k + 1):
            for j, rj in enumerate(tail[i - k - 1:], i):
                a[i][j] = a[j][i] = a[i][j] - ri * rj
    return r


def _int_column(row, q):
    """(col, e): a row of mpf entries as one column of ints times 2^e,
    rounded by _round_column."""
    raw = [x._mpf_ for x in row]
    top = max((exp + bc for _, man, exp, bc in raw if man), default=None)
    if top is None:
        return [0] * len(raw), 0
    # an entry below a quarter of the unit 2^(top - q) rounds to 0; the
    # others align to their lowest exponent within about p + q bits
    floor = top - q - 1
    e = min(exp for _, man, exp, bc in raw if man and exp + bc >= floor)
    return _round_column(
        [(-man if sign else man) << (exp - e) if man and exp + bc >= floor
         else 0 for sign, man, exp, bc in raw], e, q)


def hermitian_eigenvalues(rows, bits: int) -> SpectrumResult:
    """All eigenvalues of a real symmetric positive definite matrix,
    given as its rows, at ``bits``: pivoted Cholesky, then one-sided
    Jacobi on integer columns (see the module docstring).

    Values come back sorted non-increasing, and the smallest clears
    error_bound: every returned spectrum is resolved at ``bits``.  An
    empty or non-square matrix, a complex or non-finite entry or an entry
    pair with a[i][j] != a[j][i] raises InvalidParameterError; a Cholesky
    pivot that is not positive, or a smallest eigenvalue at or below
    error_bound, PrecisionError; and an exhausted sweep budget
    ConvergenceError (carrying the final off-diagonal residual).

    error_bound, with u = 2^-p, q = p + GUARD_BITS and T = trace(A), A
    the rows at p bits, sums what moves an eigenvalue:
    - Cholesky: R^T R = P A P^T + E, |E| <= gamma_{n+1} |R^T| |R|
      (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
      sec. 10.1), so ||E||_2 <= gamma_{n+1} ||R||_F^2 <= 2 (n + 1) u T.
    - Rotations: the first rounding and each of the at most
      sweeps n (n - 1) / 2 rotations move the columns they write by at
      most (sqrt(n) + 8) 2^-q of their Frobenius norm (sqrt(n) from the
      rounding, 8 from c^2 + s^2 != 1).  The columns are then an exact
      orthogonal transform of W + F, ||F||_F <= eta ||W||_F with
      eta = (sweeps n (n - 1) / 2 + 1)(sqrt(n) + 8) 2^-q, which moves an
      eigenvalue by at most (2 eta + eta^2) ||W||_F^2 <= 3 eta T.
    - The stop: at most offdiag_residual (Weyl).
    - Rounding the squared norms: u T.
    In all, ((2 n + 3) + 3 (sweeps n (n - 1) / 2 + 1)(isqrt(n) + 9)
    2^-GUARD_BITS) u T + offdiag_residual.
    """
    n = len(rows)
    if n < 1:
        raise InvalidParameterError("empty matrix")
    if n > MAX_EIGEN_DIM:
        raise InvalidParameterError(f"dimension {n} exceeds {MAX_EIGEN_DIM}")
    if any(len(row) != n for row in rows):
        raise InvalidParameterError("matrix is not square")
    p, q = bits, bits + GUARD_BITS

    with mp.workprec(p):
        try:
            a = [[mpf(x) for x in row] for row in rows]
        except TypeError as exc:  # mpf() refuses mpc and complex entries
            raise InvalidParameterError("complex entry in a real eigensolve") from exc
        # raw libmp values: normalized ones are equal iff their values are
        if any(a[i][j]._mpf_ != a[j][i]._mpf_
               for i in range(n) for j in range(i)):
            raise InvalidParameterError("matrix is not symmetric")
        if not all(mp.isfinite(x) for row in a for x in row):
            raise InvalidParameterError("non-finite entry in an eigensolve")
        trace = mp.fsum(a[i][i] for i in range(n))
        pairs = [_int_column(row, q) for row in _cholesky_rows(a, n, p)]
        cols, exps = [c for c, _ in pairs], [e for _, e in pairs]
        del a, pairs  # the sweeps need only the int columns
        norms = [sum(map(mul, x, x)) for x in cols]
        budget = _sweep_budget(n)
        sweeps, rotated, dots = 0, n > 1, []
        while rotated:
            sweeps, rotated, dots = sweeps + 1, False, []
            for i in range(n - 1):
                for j in range(i + 1, n):
                    x, y = cols[i], cols[j]
                    d = sum(map(mul, x, y))
                    ex, ey = exps[i], exps[j]
                    dots.append((d, ex + ey))
                    if d * d << 2 * (p - 8) <= norms[i] * norms[j]:
                        continue
                    rotated = True
                    c, s = _rotation(norms[i], norms[j], d, ex, ey, q)
                    cols[i], exps[i] = _combine(c, x, ex, (-s[0], s[1]), y,
                                                ey, q)
                    cols[j], exps[j] = _combine(s, x, ex, c, y, ey, q)
                    norms[i] = sum(map(mul, cols[i], cols[i]))
                    norms[j] = sum(map(mul, cols[j], cols[j]))
            if sweeps >= budget:
                break
        # the off-diagonal Frobenius norm of W^T W from the last sweep
        off = mp.sqrt(2 * mp.fsum(mp.make_mpf(from_man_exp(d * d, 2 * e))
                                  for d, e in dots))
        if rotated:
            raise ConvergenceError(
                f"Jacobi iteration did not converge in {budget} sweeps "
                f"(residual {decimal_str(off, p)})",
                residual=off, sweeps=sweeps)
        values = sorted((mp.make_mpf(from_man_exp(m, 2 * e, p, round_nearest))
                         for m, e in zip(norms, exps)), reverse=True)
        terms = (2 * n + 3 << GUARD_BITS) + 3 * (
            sweeps * n * (n - 1) // 2 + 1) * (math.isqrt(n) + 9)
        bound = mp.ldexp(terms * trace, -q) + off
        if values[-1] <= bound:
            raise PrecisionError(
                f"smallest Gram eigenvalue {decimal_str(values[-1], p)} "
                f"does not clear its error bound {decimal_str(bound, p)} "
                f"at {p} bits; raise precision")
        return SpectrumResult(tuple(values), "eigen", p, off, sweeps, bound)


def singular_values(spec: VandermondeSpec, bits: int) -> SpectrumResult:
    """Singular values of the Vandermonde matrix at ``bits``: square roots
    of the eigenvalues of its Dirichlet kernel K, which has the Gram
    spectrum."""
    eig = hermitian_eigenvalues(build_dirichlet_kernel(spec, bits), bits)
    with mp.workprec(bits):
        vals = tuple(mp.sqrt(lam) for lam in eig.values)
    return dataclasses.replace(eig, values=vals, kind="singular")


def normalized_lambda(sigma_min, N: int, delta, ell: int):
    """(lambda, log10 lambda) at the ambient precision, where lambda is
    sigma_min / (sqrt(N) (N delta)^(ell-1)) for a resolved sigma_min."""
    lam = sigma_min / (mp.sqrt(N) * (N * delta) ** (ell - 1))
    return lam, mp.log10(lam)


def prolate_limit_check(nodes: NodeSet, N_list, bits: int):
    """(lambda_min(G), [(N, gap), ...], headroom): the gap between
    sigma^2_min of the shifted matrix and lambda_min(G), both at ``bits``,
    for each N in the order given, and the least headroom_bits of these
    solves.

    For each N, sigma_min of the shifted normalized matrix equals
    sigma_min(V_2N(x/N)) / sqrt(2N), so its square is computed from the
    Dirichlet kernel of V_2N at the scaled nodes, at ``bits``.
    """
    if nodes.domain != LINE:
        raise InvalidParameterError("prolate limit check expects line nodes")
    if not N_list:
        raise InvalidParameterError("no N to check the limit at")
    if any(N < 1 for N in N_list):
        raise InvalidParameterError("every N must be >= 1")
    eig = hermitian_eigenvalues(build_prolate(nodes, bits), bits)
    lam_g, headroom = eig.min_value, eig.headroom_bits
    gaps = []
    for N in N_list:
        with mp.workprec(bits):
            scaled = scale_to_circle(nodes, N)
        kernel = build_dirichlet_kernel(VandermondeSpec(2 * N, scaled), bits)
        eig = hermitian_eigenvalues(kernel, bits)
        headroom = min(headroom, eig.headroom_bits)
        with mp.workprec(bits):
            gaps.append((N, abs(eig.min_value / (2 * N) - lam_g)))
    return lam_g, gaps, headroom
