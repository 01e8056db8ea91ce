"""Shared test oracles.

These deliberately avoid the code paths they check: the Gram oracle sums
the geometric series term by term, the eigenvalue oracle is mpmath's
eighe (tridiagonalization + QL, nothing like the package's Jacobi), and
the quadrature oracle integrates numerically.
"""

import random

import pytest
from mpmath import mp, mpc, mpf, matrix

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
