"""Arbitrary-precision real symmetric eigensolver and derived singular values.

Its matrices, the Dirichlet kernel K (with the spectrum of the
Vandermonde Gram G = U^H K U) and the prolate matrix, are positive
definite and graded over hundreds of orders of magnitude.  Accuracy is
normwise, which is what error_bound states: about (2n + 3) 2^-p trace +
residual.  The kernel's diagonal N + 1, rounded to p bits, already moves
lambda_min by about 2^-p trace.  The recipe is Drmac-Veselic (SIMAX 29,
2008) with a normwise stop:

1. Cholesky with diagonal pivoting at p bits, A = P^T R^T R P, on raw
   libmp values: every square root, quotient, product and difference is
   rounded to nearest at p bits, as the mpf operators round them.  A
   pivot that is not positive raises PrecisionError naming it and the
   bits.
2. One-sided (Hestenes) Jacobi on the columns of W = R^T, whose Gram
   R R^T has the spectrum of A.  Every column is a list of ints in one
   unit 2^e, which puts sqrt(trace / n) at q + 1 bits, q = p +
   COLUMN_GUARD_BITS; the rows of R are truncated into it.  For columns
   x, y the exact ints a = |x|^2, b = |y|^2 and d = x.y decide: |d| <=
   2^-(p-8) T_W / n, T_W their first int trace, leaves the pair, else
   (x, y) -> (c x - s y, s x + c y) makes it orthogonal, with c and s
   q-bit fixed-point ints and each new entry rounded to nearest, ties to
   even.  The rotation is applied as a correction to the identity,
   x + (-(c' x + s y)) / 2^q and y + (s x - c' y) / 2^q with
   c' = 2^q - c, whose products are short where c is near 2^q; the
   rounded ints are the same.  The iteration stops after a sweep without
   a rotation; ConvergenceError if the last sweep of the budget still
   rotates.
3. The eigenvalues are the squared column norms, rounded to p bits.

The one resolution rule: a smallest eigenvalue at or below the solve's
error bound is noise, so the solver raises PrecisionError instead, with
the headroom_bits it fell short by if it is positive.  Every spectrum it
returns is resolved at p bits, and its callers take it as it is.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from operator import mul

from mpmath import mp, mpf
from mpmath.libmp import (from_int, from_man_exp, fzero, mpf_cmp, mpf_div,
                          mpf_mul, mpf_shift, mpf_sign, mpf_sqrt, mpf_sub,
                          mpf_sum, round_floor, round_nearest, to_int)

from .errors import ConvergenceError, InvalidParameterError, PrecisionError
from .geometry import LINE, NodeSet, scale_to_circle
from .hp import decimal_str
from .matrices import VandermondeSpec, build_dirichlet_kernel, build_prolate

MAX_EIGEN_DIM = 256
#: bits each Jacobi column carries beyond the working precision
COLUMN_GUARD_BITS = 24


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

    @functools.cached_property
    def headroom_bits(self) -> int:
        """floor(log2(lambda_min / error_bound)), lambda_min the smallest
        eigenvalue (squared singular value), which clears error_bound;
        computed once per result."""
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


def _rotated(x, y, c, s, q):
    """The columns (c x - s y, s x + c y) / 2^q, each entry rounded to
    nearest with ties to even, for int columns x, y and the q-bit
    fixed-point c, s of _rotation.  Applied as a correction to the
    identity: with c' = 2^q - c, small on the rotations that matter,
    x' = x + (-(c' x + s y)) / 2^q and y' = y + (s x - c' y) / 2^q, and
    as x 2^q is a multiple of 2^q, a tie is broken on the full value."""
    c, half, low = (1 << q) - c, 1 << (q - 1), (1 << q) - 1
    # w = correction + 1/2 ulp; u + (w >> q) is the new entry rounded half
    # up, and a tie (w & low == 0) is moved down to the even neighbour by
    # clearing the last bit of the sum
    return ([u + (w >> q) if (w := half - c * u - s * v) & low
             else u + (w >> q) & -2 for u, v in zip(x, y)],
            [v + (w >> q) if (w := half + s * u - c * v) & low
             else v + (w >> q) & -2 for u, v in zip(x, y)])


def _rotation(a, b, d, q):
    """(c, s), cos and sin times 2^q truncated to ints, of the rotation
    that makes columns x and y orthogonal, from the ints a = |x|^2,
    b = |y|^2 and d = x.y != 0.  In values, zeta = (b - a) / (2 d),
    t = sign(zeta) / (|zeta| + sqrt(1 + zeta^2)), c = 1 / sqrt(1 + t^2)
    and s = t c; with h = b - a, X = |h| + sqrt(h^2 + 4 d^2) and
    H = sqrt(X^2 + 4 d^2) that is c = X / H and |s| = 2 |d| / H."""
    # one power of two takes d to q + 32 bits: a, b, d are then off by less
    # than a unit, X and H by a few, and H >= X >= 2 |d| >= 2^(q+32)
    k = q + 32 - d.bit_length()
    a, b, d = (v << k if k >= 0 else v >> -k for v in (a, b, d))
    h, y = b - a, 2 * abs(d)
    x = abs(h) + math.isqrt(h * h + y * y)
    hyp = math.isqrt(x * x + y * y)
    s = (y << q) // hyp
    if h and (h < 0) != (d < 0):  # sign(0) = +1
        s = -s
    return (x << q) // hyp, s


def _cholesky_rows(a, n, p):
    """The rows of R, A = P^T R^T R P by Cholesky with diagonal pivoting at
    p bits, for a symmetric matrix a of raw libmp rows (overwritten); each
    row is in pivot order.  Every operation rounds to nearest at p bits,
    as the mpf operators do.  A pivot that is not positive raises
    PrecisionError."""
    r = []
    for k in range(n):
        j = k  # the first largest
        for i in range(k + 1, n):
            if mpf_cmp(a[i][i], a[j][j]) > 0:
                j = i
        a[k], a[j] = a[j], a[k]
        for row in a + r:
            row[k], row[j] = row[j], row[k]
        pivot = a[k][k]
        if mpf_sign(pivot) <= 0:
            raise PrecisionError(
                f"Cholesky pivot {k + 1} of {n} is "
                f"{decimal_str(mp.make_mpf(pivot), p)}: the matrix is not "
                f"positive definite at {p} bits; raise precision")
        d = mpf_sqrt(pivot, p, round_nearest)
        tail = [mpf_div(x, d, p, round_nearest) for x in a[k][k + 1:]]
        r.append([fzero] * k + [d] + tail)
        for i, ri in enumerate(tail, k + 1):
            for j, rj in enumerate(tail[i - k - 1:], i):
                a[i][j] = a[j][i] = mpf_sub(
                    a[i][j], mpf_mul(ri, rj, p, round_nearest), p,
                    round_nearest)
    return r


def _frame_column(row, e):
    """A row of raw libmp entries as ints in units of 2^e, each truncated
    toward zero: to_int of the shifted value, which forms no large int."""
    return [to_int(mpf_shift(x, -e)) for x in row]


def hermitian_eigenvalues(rows, bits: int) -> SpectrumResult:
    """All eigenvalues of a real symmetric positive definite matrix,
    given as its rows, at ``bits``: pivoted Cholesky, then one-sided
    Jacobi on int columns in one fixed-point frame (see the module
    docstring).

    Values come back sorted non-increasing, and the smallest clears
    error_bound: every returned spectrum is resolved at ``bits``.  An
    empty or non-square matrix, a complex or non-finite entry or an entry
    pair with a[i][j] != a[j][i] raises InvalidParameterError; a Cholesky
    pivot that is not positive, or a smallest eigenvalue at or below
    error_bound, PrecisionError (the latter with its headroom_bits if the
    eigenvalue is positive); and an exhausted sweep budget
    ConvergenceError (carrying the final off-diagonal residual).

    error_bound, with u = 2^-p, q = p + COLUMN_GUARD_BITS, T = trace(A),
    A the rows at p bits, and U = 2^e <= 2^-q sqrt(T / n) the unit, sums what
    moves an eigenvalue:
    - Cholesky: R^T R = P A P^T + E, |E| <= gamma_{n+1} |R^T| |R|
      (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
      sec. 10.1), so ||E||_2 <= gamma_{n+1} ||R||_F^2 <= 2 (n + 1) u T.
    - The frame: truncating W's n^2 entries moves it by less than n U <=
      sqrt(n) 2^-q sqrt(T) in Frobenius norm.  Each of the at most
      sweeps n (n - 1) / 2 rotations rounds 2 n entries by U / 2, at most
      2^-q sqrt(T / 2), and its c, s, about 2^-q short of cos, sin, scale
      it by 1 + O(2^-q): at most (sqrt(n) + 8) 2^-q sqrt(T) in all.  The
      final columns are an exact orthogonal transform of W + F,
      ||F||_F <= eta sqrt(T), eta = (sweeps n (n - 1) / 2 + 1)(sqrt(n) + 8)
      2^-q, which moves an eigenvalue by at most 3 eta T.
    - The stop: at most offdiag_residual (Weyl).  No pair of the last
      sweep rotated, so each |d| <= 2^-(p-8) T_W / n, and offdiag_residual
      < 2^-(p-8) T_W U^2 <= 2^-(p-8) ||R||_F^2: truncation only shrinks.
    - Rounding the squared norms: u T.
    In all, ((2 n + 3) + 3 (sweeps n (n - 1) / 2 + 1)(isqrt(n) + 9)
    2^-COLUMN_GUARD_BITS) u T + offdiag_residual.
    """
    n = len(rows)
    if n < 1:
        raise InvalidParameterError("empty matrix")
    if n > MAX_EIGEN_DIM:
        raise InvalidParameterError(f"dimension {n} exceeds {MAX_EIGEN_DIM}")
    if any(len(row) != n for row in rows):
        raise InvalidParameterError("matrix is not square")
    p, q = bits, bits + COLUMN_GUARD_BITS

    try:  # each entry a raw libmp value rounded at p, as mpf(x) rounds it
        a = [[mpf(x, prec=p)._mpf_ for x in row] for row in rows]
    except TypeError as exc:  # mpf() refuses mpc and complex entries
        raise InvalidParameterError("complex entry in a real eigensolve") from exc
    # normalized raw values are equal iff their values are
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise InvalidParameterError("matrix is not symmetric")
    # the raw infinities and nan are the values with no mantissa but an
    # exponent
    if any(not man and exp for row in a for _, man, exp, _ in row):
        raise InvalidParameterError("non-finite entry in an eigensolve")
    trace = mpf_sum([a[i][i] for i in range(n)], p, round_nearest)
    # every pivot, so the trace, positive
    r = _cholesky_rows(a, n, p)
    with mp.workprec(p):
        # the unit 2^e puts sqrt(trace / n) at q + 1 bits: trace / n
        # rounded down keeps its floor(log2), exp + bc - 1
        _, _, exp, bc = mpf_div(trace, from_int(n), p, round_floor)
        e = (exp + bc - 1) // 2 - q
        cols = [_frame_column(row, e) for row in r]
        del a, r  # the sweeps need only the int columns
        norms = [sum(map(mul, x, x)) for x in cols]
        # a pair rotates while |d| > 2^-(p-8) T_W / n, T_W the int trace
        # of the columns; for an int d that is |d| > tol
        tol = sum(norms) // (n << p - 8)
        budget = _sweep_budget(n)
        sweeps, rotated, off2 = 0, n > 1, 0
        while rotated:
            sweeps, rotated, off2 = sweeps + 1, False, 0
            for i in range(n - 1):
                for j in range(i + 1, n):
                    x, y = cols[i], cols[j]
                    d = sum(map(mul, x, y))
                    off2 += d * d
                    if abs(d) <= tol:
                        continue
                    rotated = True
                    c, s = _rotation(norms[i], norms[j], d, q)
                    cols[i], cols[j] = x, y = _rotated(x, y, c, s, q)
                    norms[i], norms[j] = (sum(map(mul, v, v)) for v in (x, y))
            if sweeps >= budget:
                break
        # the off-diagonal Frobenius norm of W^T W from the last sweep
        off = mp.sqrt(mp.ldexp(2 * off2, 4 * e))
        if rotated:
            raise ConvergenceError(
                f"Jacobi iteration did not converge in {budget} sweeps "
                f"(residual {decimal_str(off, p)})",
                residual=off, sweeps=sweeps)
        values = sorted((mp.make_mpf(from_man_exp(m, 2 * e, p, round_nearest))
                         for m in norms), reverse=True)
        terms = (2 * n + 3 << COLUMN_GUARD_BITS) + 3 * (
            sweeps * n * (n - 1) // 2 + 1) * (math.isqrt(n) + 9)
        bound = mp.ldexp(terms * mp.make_mpf(trace), -q) + off
        result = SpectrumResult(tuple(values), "eigen", p, off, sweeps, bound)
        if values[-1] <= bound:
            raise PrecisionError(
                f"smallest Gram eigenvalue {decimal_str(values[-1], p)} "
                f"does not clear its error bound {decimal_str(bound, p)} "
                f"at {p} bits; raise precision",
                headroom_bits=result.headroom_bits if values[-1] else None)
        return result


def singular_values(spec: VandermondeSpec, bits: int) -> SpectrumResult:
    """Singular values of the Vandermonde matrix at ``bits``: square roots
    of the eigenvalues of its Dirichlet kernel K, which has the Gram
    spectrum."""
    eig = hermitian_eigenvalues(build_dirichlet_kernel(spec, bits), bits)
    # mpf_sqrt rounds to nearest at bits, as mp.sqrt under workprec(bits)
    vals = tuple(mp.make_mpf(mpf_sqrt(lam._mpf_, bits, round_nearest))
                 for lam in eig.values)
    return dataclasses.replace(eig, values=vals, kind="singular")


def lambda_scale(N: int, delta, ell: int):
    """sqrt(N) (N delta)^(ell-1) at the ambient precision, the scale of
    normalized_lambda."""
    return mp.sqrt(N) * (N * delta) ** (ell - 1)


def normalized_lambda(sigma_min, scale):
    """(lambda, log10 lambda) at the ambient precision, where lambda is
    sigma_min / scale for a resolved sigma_min and scale the
    lambda_scale of its N, delta and ell."""
    lam = sigma_min / scale
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
