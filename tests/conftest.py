"""Shared test oracles.

These deliberately avoid the code paths they check: the Gram oracle sums
the geometric series term by term, the eigenvalue oracle is mpmath's
eighe (tridiagonalization + QL, nothing like the package's Jacobi), and
the quadrature oracle integrates numerically.  The one exception is
jacobi_reference, which is the package's Jacobi iteration written the
plain way, to pin the fast one bit for bit.
"""

import math
import random

import pytest
from mpmath import mp, mpc, mpf, matrix

from vandelab.errors import ConvergenceError
from vandelab.matrices import HPMatrix


def gram_entry_direct(delta, N, bits):
    """sum_{k=0}^{N} e^(i k delta) by explicit term-by-term summation.

    Internal guard bits make the result faithfully rounded at ``bits``
    even when the sum nearly cancels, so this is "the direct sum at the
    same precision" rather than a lower-quality route.
    """
    guard = 32 + max(N, 1).bit_length() * 2
    with mp.workprec(bits + guard):
        acc = mpc(0)
        for k in range(N + 1):
            acc += mp.expj(k * delta)
    with mp.workprec(bits):
        return +acc


def eighe_eigenvalues(A: HPMatrix):
    """Independent Hermitian eigenvalues via mpmath, sorted descending."""
    n = A.rows
    with mp.workprec(A.precision_bits):
        M = matrix(n, n)
        for i in range(n):
            for j in range(n):
                M[i, j] = A.entries[i][j]
        vals = mp.eighe(M, eigvals_only=True)
        return sorted((mpf(v) for v in vals), reverse=True)


def jacobi_reference(A: HPMatrix, max_sweeps: int | None = None):
    """(values, offdiag_residual, sweeps_used) of cyclic Jacobi on A.

    The same iteration as spectra.hermitian_eigenvalues, written with
    mpf operators on the full matrix: every rotation updates columns p
    and q, then rows p and q.  It raises ConvergenceError with the same
    residual and sweep count.
    """
    n = A.rows
    p = A.precision_bits
    if max_sweeps is None:
        max_sweeps = 15 + 2 * max(1, math.ceil(math.log2(n))) if n > 1 else 1
    with mp.workprec(p):
        a = [[mpf(A.entries[i][j]) for j in range(n)] for i in range(n)]

        def offdiag():
            return mp.sqrt(mp.fsum(a[i][j] ** 2 for i in range(n)
                                   for j in range(n) if i != j))

        norm_f = mp.sqrt(mp.fsum(a[i][j] ** 2
                                 for i in range(n) for j in range(n)))
        if norm_f == 0 or n == 1:
            return sorted((a[i][i] for i in range(n)), reverse=True), mpf(0), 0
        threshold = mp.ldexp(norm_f, -(p - 8))
        rotation_floor = mp.ldexp(norm_f, -(p + 4))
        sweeps = 0
        off = offdiag()
        while off > threshold and sweeps < max_sweeps:
            sweeps += 1
            for pi in range(n - 1):
                for qi in range(pi + 1, n):
                    apq = a[pi][qi]
                    h = abs(apq)
                    if h <= rotation_floor:
                        continue
                    tau = (a[qi][qi] - a[pi][pi]) / (2 * h)
                    t = 1 / (abs(tau) + mp.sqrt(1 + tau * tau))
                    if (tau < 0) != (apq < 0):
                        t = -t
                    c = 1 / mp.sqrt(1 + t * t)
                    s = t * c
                    for i in range(n):
                        aip = a[i][pi]
                        aiq = a[i][qi]
                        a[i][pi] = c * aip - s * aiq
                        a[i][qi] = s * aip + c * aiq
                    for i in range(n):
                        api = a[pi][i]
                        aqi = a[qi][i]
                        a[pi][i] = c * api - s * aqi
                        a[qi][i] = s * api + c * aqi
                    a[pi][qi] = mpf(0)
                    a[qi][pi] = mpf(0)
            off = offdiag()
        if off > threshold:
            raise ConvergenceError("reference Jacobi did not converge",
                                   residual=off, sweeps=sweeps)
        diag = sorted(((a[i][i], i) for i in range(n)),
                      key=lambda vi: (-vi[0], vi[1]))
        return [v for v, _ in diag], off, sweeps


def random_hermitian(rng: random.Random, n: int, bits: int) -> HPMatrix:
    """A real symmetric matrix, the only Hermitian form the solver takes."""
    with mp.workprec(bits):
        rows = [[mpf(0)] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = mpf(rng.uniform(-2, 2))
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = mpf(rng.uniform(-1, 1))
    return HPMatrix(tuple(tuple(r) for r in rows), n, n, bits, hermitian=True)


@pytest.fixture
def rng():
    return random.Random(987654321)
