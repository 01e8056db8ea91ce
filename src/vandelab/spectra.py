"""Arbitrary-precision real symmetric eigensolver and derived singular values.

The solver is a cyclic-by-rows Jacobi iteration on the full matrix.
Jacobi is the right tool here for two reasons: it is trivial to run at
any mpmath precision, and on the graded positive definite matrices this
laboratory produces it computes even the smallest eigenvalues to high
*relative* accuracy, which QR-type methods do not guarantee.  The
spectra of interest span hundreds of orders of magnitude, so that
property is load-bearing.

Every matrix it is given is real: the prolate matrix, and the Dirichlet
kernel K that stands in for the Vandermonde Gram G = U^H K U.  Each
rotation zeroes one off-diagonal pair with the classical real angle;
the iteration stops when the off-diagonal Frobenius norm falls below
2^-(p-8) times the matrix Frobenius norm.

The working matrix holds each entry as a (signed mantissa, exponent)
pair of Python ints.  A rotation update (c x - s y, s x + c y) forms its
four products and two sums exactly in ints and rounds each to p bits,
to nearest with ties to even (_round, _add): the values mpf_mul, mpf_add
and mpf_sub return at (p, round_nearest), without libmp's tuple
normalization.  The rotation scalars c and s come from raw libmp calls,
the ones the mpf operators make.  The loop relies on the working matrix
being symmetric bit for bit, which the entry check demands and every
rotation keeps: off the (p, q) block the column and the row update of a
two-sided rotation are the same operations, so each pair is computed
once and stored twice.  Every bit matches the plain two-sided loop on
mpf objects.
"""

from __future__ import annotations

import dataclasses
import math

from mpmath import mp, mpf
from mpmath.libmp import (
    fone,
    from_man_exp,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_le,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    round_nearest as rnd,
)

from .errors import (
    ConvergenceError,
    InvalidParameterError,
    PrecisionError,
)
from .geometry import LINE, NodeSet, scale_to_circle
from .hp import decimal_str
from .matrices import VandermondeSpec, build_dirichlet_kernel, build_prolate

MAX_EIGEN_DIM = 256


@dataclasses.dataclass(frozen=True)
class SpectrumResult:
    """Sorted spectrum plus solver diagnostics.

    values are non-increasing; kind is "singular" or "eigen".
    offdiag_residual is the final off-diagonal Frobenius norm of the
    Jacobi iteration and sweeps_used the number of full sweeps it took.
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

    def to_json_dict(self) -> dict:
        bits = self.precision_bits
        return {
            "kind": self.kind,
            "precision_bits": bits,
            "values": [decimal_str(v, bits) for v in self.values],
            "offdiag_residual": decimal_str(self.offdiag_residual, bits),
            "sweeps_used": self.sweeps_used,
        }


def _round(m, e, p):
    """m 2^e rounded to p bits, to nearest with ties to even: the value
    mpf_mul and mpf_add return at (p, round_nearest), as a (signed
    mantissa, exponent) pair.  A carry can leave the mantissa at +-2^p."""
    n = m.bit_length() - p
    if n <= 0:
        return m, e
    q = m >> (n - 1)  # floor(m / 2^n), then the halfway bit
    if q & 1 and (q & 2 or m & ((1 << (n - 1)) - 1)):
        return (q >> 1) + 1, e + n
    return q >> 1, e + n


def _add(m1, e1, m2, e2, p):
    """m1 2^e1 + m2 2^e2 rounded by _round, for addends _round returned.

    An addend more than p + 4 bits below the other is less than half an
    ulp of it, so the sum rounds to the larger addend, as mpf_add's
    sticky-bit shortcut finds: no shift exceeds 2p + 4 bits.
    """
    if not m1:
        return m2, e2
    if not m2:
        return m1, e1
    d = e1 - e2
    if d >= 0:
        if d + m1.bit_length() - m2.bit_length() > p + 4:
            return m1, e1
        return _round((m1 << d) + m2, e2, p)
    if m2.bit_length() - d - m1.bit_length() > p + 4:
        return m2, e2
    return _round(m1 + (m2 << -d), e1, p)


def _pair(x):
    """A raw finite libmp value as a (signed mantissa, exponent) pair."""
    sign, man, exp, _ = x
    return -man if sign else man, exp


def _to_mpf(x):
    return mp.make_mpf(from_man_exp(*x))


def _offdiag_frobenius(a, n):
    return mp.sqrt(mp.fsum(_to_mpf(a[i][j]) ** 2
                           for i in range(n) for j in range(n) if i != j))


def _sweep_budget(n: int) -> int:
    """Full Jacobi sweeps allowed on an n x n matrix."""
    return 15 + 2 * max(1, math.ceil(math.log2(n))) if n > 1 else 1


def _rotation(app, aqq, apq, p):
    """(c, s) of the rotation that zeroes apq, as (mantissa, exponent)
    pairs, from raw libmp calls at (p, round_nearest): the values the mpf
    expressions tau = (aqq - app) / (2 |apq|), t = sign(tau) sign(apq) /
    (|tau| + sqrt(1 + tau^2)), c = 1 / sqrt(1 + t^2) and s = t c give."""
    tau = mpf_div(mpf_sub(aqq, app, p, rnd), mpf_shift(mpf_abs(apq), 1),
                  p, rnd)
    root = mpf_sqrt(mpf_add(fone, mpf_mul(tau, tau, p, rnd), p, rnd), p, rnd)
    t = mpf_div(fone, mpf_add(mpf_abs(tau), root, p, rnd), p, rnd)
    # sign(tau) * sign(a_pq), with sign(0) = +1: t stays odd in a_pq also
    # at tau = 0 (equal diagonals)
    if mpf_lt(tau, fzero) != mpf_lt(apq, fzero):
        t = mpf_neg(t)
    c = mpf_div(fone, mpf_sqrt(mpf_add(fone, mpf_mul(t, t, p, rnd), p, rnd),
                               p, rnd), p, rnd)
    s = mpf_mul(t, c, p, rnd)
    return _pair(c), _pair(s)


def hermitian_eigenvalues(rows, bits: int) -> SpectrumResult:
    """All eigenvalues of a real symmetric matrix, given as its rows, by
    cyclic Jacobi rotations at ``bits``.

    Values come back sorted non-increasing, ties broken by the original
    diagonal index.  A non-square matrix, a complex or non-finite entry
    or an entry pair with a[i][j] != a[j][i] raises
    InvalidParameterError, and an exhausted sweep budget ConvergenceError
    (carrying the final off-diagonal residual).  By Weyl's inequality
    each computed eigenvalue lies within ||E||_2 of the exact one, E the
    Jacobi backward error, bounded by
    32 * n * max(sweeps, 1) * 2^-p * ||A||_F (constant 32): the result's
    error_bound.
    """
    n = len(rows)
    if n > MAX_EIGEN_DIM:
        raise InvalidParameterError(f"dimension {n} exceeds {MAX_EIGEN_DIM}")
    if any(len(row) != n for row in rows):
        raise InvalidParameterError("matrix is not square")
    p = bits

    with mp.workprec(p):
        try:  # raw libmp values; normalized ones are equal iff their values are
            raw = [[mpf(x)._mpf_ for x in row] for row in rows]
        except TypeError as exc:  # mpf() refuses mpc and complex entries
            raise InvalidParameterError("complex entry in a real eigensolve") from exc
        if any(raw[i][j] != raw[j][i] for i in range(n) for j in range(i)):
            raise InvalidParameterError("matrix is not symmetric")
        if any(not man and exp for row in raw for _, man, exp, _ in row):
            raise InvalidParameterError("non-finite entry in an eigensolve")
        norm_f = mp.sqrt(mp.fsum(mp.make_mpf(x) ** 2 for row in raw for x in row))
        # the symmetric pair of entries shares one object
        a = [[_pair(x) for x in row] for row in raw]
        for i in range(n):
            for j in range(i):
                a[i][j] = a[j][i]
        budget = _sweep_budget(n)
        # a 1 x 1 or zero matrix has off = 0 <= threshold: it takes no sweep
        threshold = mp.ldexp(norm_f, -(p - 8))
        # rotations on entries this far below the matrix scale only churn
        # rounding noise; skip them
        rotation_floor = mp.ldexp(norm_f, -(p + 4))._mpf_
        sweeps = 0
        off = _offdiag_frobenius(a, n)
        while off > threshold and sweeps < budget:
            sweeps += 1
            for pi in range(n - 1):
                row_p = a[pi]
                for qi in range(pi + 1, n):
                    row_q = a[qi]
                    apq = from_man_exp(*row_p[qi])
                    if mpf_le(mpf_abs(apq), rotation_floor):
                        continue
                    (mc, ec), (ms, es) = _rotation(
                        from_man_exp(*row_p[pi]), from_man_exp(*row_q[qi]),
                        apq, p)
                    nms = -ms

                    def rotate(x, y):  # (c x - s y, s x + c y)
                        mx, ex = x
                        my, ey = y
                        m1, e1 = _round(mc * mx, ec + ex, p)
                        m2, e2 = _round(nms * my, es + ey, p)
                        m3, e3 = _round(ms * mx, es + ex, p)
                        m4, e4 = _round(mc * my, ec + ey, p)
                        return _add(m1, e1, m2, e2, p), _add(m3, e3, m4, e4, p)

                    for i in range(n):  # a[i][p] is a[p][i], bit for bit
                        if i != pi and i != qi:
                            x, y = rotate(row_p[i], row_q[i])
                            row_p[i] = a[i][pi] = x
                            row_q[i] = a[i][qi] = y
                    # the (p, q) block: columns p and q, then rows p and q
                    col_pp, col_pq = rotate(row_p[pi], row_p[qi])
                    col_qp, col_qq = rotate(row_q[pi], row_q[qi])
                    row_p[pi] = rotate(col_pp, col_qp)[0]
                    row_q[qi] = rotate(col_pq, col_qq)[1]
                    row_p[qi] = row_q[pi] = (0, 0)
            off = _offdiag_frobenius(a, n)
        if off > threshold:
            raise ConvergenceError(
                f"Jacobi iteration did not converge in {budget} sweeps "
                f"(residual {decimal_str(off, p)})",
                residual=off, sweeps=sweeps)
        diag = [(_to_mpf(a[i][i]), i) for i in range(n)]
        diag.sort(key=lambda vi: (-vi[0], vi[1]))
        bound = mp.ldexp(32 * n * max(sweeps, 1) * norm_f, -p)
        return SpectrumResult(tuple(v for v, _ in diag), "eigen", p, off,
                              sweeps, bound)


def require_resolved(eig: SpectrumResult) -> SpectrumResult:
    """eig, if the smallest eigenvalue of its positive definite Gram
    matrix clears the solve's error bound; PrecisionError if not, since
    it is then not resolved at p bits."""
    p = eig.precision_bits
    with mp.workprec(p):
        if eig.min_value <= eig.error_bound:
            raise PrecisionError(
                f"smallest Gram eigenvalue {decimal_str(eig.min_value, p)} "
                f"does not clear its error bound "
                f"{decimal_str(eig.error_bound, p)} at {p} bits; "
                "raise precision")
    return eig


def _sqrt_spectrum(eig: SpectrumResult) -> SpectrumResult:
    """Singular values from Gram eigenvalues that clear their error bound."""
    require_resolved(eig)
    with mp.workprec(eig.precision_bits):
        vals = tuple(mp.sqrt(lam) for lam in eig.values)
    return dataclasses.replace(eig, values=vals, kind="singular")


def singular_values(spec: VandermondeSpec, bits: int) -> SpectrumResult:
    """Singular values of the Vandermonde matrix at ``bits``: square roots
    of the eigenvalues of its Dirichlet kernel K, which has the Gram
    spectrum."""
    return _sqrt_spectrum(
        hermitian_eigenvalues(build_dirichlet_kernel(spec, bits), bits))


def normalized_lambda(sigma_min, N: int, delta, ell: int):
    """(lambda, log10 lambda) at the ambient precision, where lambda is
    sigma_min / (sqrt(N) (N delta)^(ell-1)); log10 of 0 is -inf."""
    lam = sigma_min / (mp.sqrt(N) * (N * delta) ** (ell - 1))
    return lam, mp.log10(lam) if lam > 0 else mpf("-inf")


def prolate_limit_check(nodes: NodeSet, N_list, bits: int):
    """(lambda_min(G), [(N, gap), ...]): the gap between sigma^2_min of
    the shifted matrix and lambda_min(G), both at ``bits``, for each N in
    the order given.

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
    lam_g = require_resolved(
        hermitian_eigenvalues(build_prolate(nodes, bits), bits)).min_value
    gaps = []
    for N in N_list:
        with mp.workprec(bits):
            scaled = scale_to_circle(nodes, N)
        kernel = build_dirichlet_kernel(VandermondeSpec(2 * N, scaled), bits)
        lam = require_resolved(hermitian_eigenvalues(kernel, bits)).min_value
        with mp.workprec(bits):
            gaps.append((N, abs(lam / (2 * N) - lam_g)))
    return lam_g, gaps
