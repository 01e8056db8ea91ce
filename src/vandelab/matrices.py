"""Assembly of the Gram, kernel and prolate matrices.

Spectral work downstream routes through an s x s matrix with
closed-form entries rather than the tall (N+1) x s factor: the node
counts here are small (s <= 40) while N reaches a few hundred, and a
closed-form entry carries no accumulated summation error.  That matrix
is the real Dirichlet kernel K (Slepian's discrete prolate kernel), with
G = V^H V = U^H K U for U = diag(e^(i N x_j / 2)); G is kept as its test
reference.  The eigenvalues are the squared singular values, which the
precision policy already budgets for.
Each builder returns its matrix as a tuple of rows, the real ones
symmetric bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import DegenerateInputError, InvalidParameterError
from .geometry import LINE, PERIODIC, NodeSet
from .hp import decimal_str

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class VandermondeSpec:
    """Frequency cutoff N plus the periodic node set."""

    N: int
    nodes: NodeSet

    def __post_init__(self):
        if self.nodes.domain != PERIODIC:
            raise InvalidParameterError("Vandermonde nodes must be periodic")
        if self.N < self.nodes.count - 1:
            raise InvalidParameterError(
                f"need N >= s-1, got N={self.N}, s={self.nodes.count}")


def _sinc(t):
    """sin(t) / t, and its limit 1 at t = 0."""
    if t == 0:
        return mpf(1)
    return mp.sin(t) / t


def _dirichlet_ratio(delta, N: int):
    """sin((N+1) delta/2) / sin(delta/2), and its limit N+1 at delta = 0."""
    if delta == 0:
        return mpf(N + 1)
    half = delta / 2
    return mp.sin((N + 1) * half) / mp.sin(half)


def _dirichlet_sum(delta, N: int):
    """sum_{k=0}^{N} e^(i k delta) as e^(i N delta/2) times the Dirichlet
    ratio: (e^(i(N+1)delta) - 1)/(e^(i delta) - 1) without its
    subtractive cancellation at small delta."""
    return mp.expj(N * delta / 2) * _dirichlet_ratio(delta, N)


def build_gram_closed_form(spec: VandermondeSpec, bits: int) -> tuple:
    """The s x s Hermitian Gram matrix V^H V with closed-form entries.

    G[j][m] = sum_k e^(i k (x_m - x_j)); the diagonal is exactly N+1.
    Entries are computed with guard bits sized to the argument reduction
    of sin at phase ~ N*pi, then rounded to the target precision.
    """
    N, xs = spec.N, spec.nodes.nodes
    s = len(xs)
    guard = 32 + max(N, 1).bit_length()
    rows = [[None] * s for _ in range(s)]
    with mp.workprec(bits + guard):
        for j in range(s):
            rows[j][j] = mpf(N + 1)
            for m in range(j + 1, s):
                val = _dirichlet_sum(xs[m] - xs[j], N)
                with mp.workprec(bits):
                    val = +val
                rows[j][m] = val
                rows[m][j] = mp.conj(val)
    return tuple(tuple(r) for r in rows)


def build_dirichlet_kernel(spec: VandermondeSpec, bits: int) -> tuple:
    """The s x s real symmetric kernel K = U G U^H, U = diag(e^(i N x_j/2)),
    with the spectrum of G: K[j][m] = sin((N+1) d/2) / sin(d/2) for
    d = x_m - x_j, rounded as the Gram builder rounds.  Each distinct d
    (an exact mpf, so equal entries come out bit for bit equal) is
    evaluated once: equispaced clusters repeat their gaps."""
    N, xs = spec.N, spec.nodes.nodes
    s = len(xs)
    rows = [[mpf(N + 1) if j == m else None for m in range(s)] for j in range(s)]
    entries = {}
    with mp.workprec(bits + 32 + max(N, 1).bit_length()):
        for j in range(s):
            for m in range(j + 1, s):
                d = xs[m] - xs[j]
                val = entries.get(d)
                if val is None:
                    val = _dirichlet_ratio(d, N)
                    with mp.workprec(bits):
                        val = entries[d] = +val
                rows[j][m] = rows[m][j] = val
    return tuple(tuple(r) for r in rows)


def build_prolate(nodes: NodeSet, bits: int) -> tuple:
    """The s x s generalized prolate matrix of sinc inner products.

    P[j][k] = sin(x_j - x_k)/(x_j - x_k) off the diagonal and 1 on it,
    the closed form of (1/2) * integral_{-1}^{1} e^(i w (x_j - x_k)) dw.
    Real symmetric and positive definite for distinct nodes.
    """
    if nodes.domain != LINE:
        raise InvalidParameterError("prolate matrix expects line-domain nodes")
    xs = nodes.nodes
    s = len(xs)
    tiny = mpf(2) ** -(bits // 2)
    rows = [[None] * s for _ in range(s)]
    with mp.workprec(bits):
        for j in range(s):
            rows[j][j] = mpf(1)
            for k in range(j + 1, s):
                d = xs[j] - xs[k]
                if d == 0:
                    raise DegenerateInputError(f"nodes {j} and {k} coincide")
                if abs(d) < tiny:
                    log.warning(
                        "prolate nodes %d,%d separated by %s < 2^-%d; "
                        "consider raising precision", j, k,
                        decimal_str(abs(d), bits), bits // 2)
                val = _sinc(d)
                rows[j][k] = val
                rows[k][j] = val
    return tuple(tuple(r) for r in rows)
