"""Assembly of the Gram, kernel and prolate matrices.

Spectral work downstream routes through an s x s matrix with
closed-form entries rather than the tall (N+1) x s factor: the node
counts here are small (s <= 40) while N reaches a few hundred, and a
closed-form entry carries no accumulated summation error.  That matrix
is the real Dirichlet kernel K (Slepian's discrete prolate kernel), with
G = V^H V = U^H K U for U = diag(e^(i N x_j / 2)); G is kept as its test
reference.  The eigenvalues are the squared singular values, which the
precision policy already budgets for.
All three are kernel matrices M[j][m] = k(x_m - x_j), assembled by one
pair loop that evaluates each distinct node difference once and fills
(m, j) with the conjugate; each builder returns a tuple of rows, the
real ones symmetric bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import InvalidParameterError
from .geometry import LINE, PERIODIC, NodeSet, sorted_gaps
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


def _kernel_rows(xs, diag, kernel) -> tuple:
    """Rows with diag on the diagonal, kernel(x_m - x_j) at (j, m) for
    m > j and its conjugate at (m, j).  Each distinct difference, an
    exact mpf at the ambient precision, is evaluated once: equispaced
    clusters repeat their gaps."""
    s = len(xs)
    rows = [[diag] * s for _ in range(s)]
    values = {}
    for j in range(s):
        for m in range(j + 1, s):
            d = xs[m] - xs[j]
            val = values.get(d)
            if val is None:
                val = values[d] = kernel(d)
            rows[j][m], rows[m][j] = val, val.conjugate()
    return tuple(tuple(r) for r in rows)


def _dirichlet_guard(N: int) -> int:
    """Guard bits of the Dirichlet kernels: sin at phase ~ N*pi loses
    about log2(N) bits to argument reduction."""
    return 32 + max(N, 1).bit_length()


def _dirichlet_rows(spec: VandermondeSpec, bits: int, kernel) -> tuple:
    """_kernel_rows of kernel(d, N), N + 1 on the diagonal, each entry
    evaluated with _dirichlet_guard(N) guard bits and rounded to bits."""
    def rounded(d):
        val = kernel(d, spec.N)
        with mp.workprec(bits):
            return +val

    with mp.workprec(bits + _dirichlet_guard(spec.N)):
        return _kernel_rows(spec.nodes.nodes, mpf(spec.N + 1), rounded)


def build_gram_closed_form(spec: VandermondeSpec, bits: int) -> tuple:
    """The s x s Hermitian Gram matrix V^H V with closed-form entries.

    G[j][m] = sum_{k=0}^{N} e^(i k d), d = x_m - x_j, as e^(i N d/2)
    times the Dirichlet ratio: (e^(i(N+1)d) - 1)/(e^(i d) - 1) without
    its subtractive cancellation at small d.  The diagonal is exactly N+1.
    """
    return _dirichlet_rows(
        spec, bits, lambda d, N: mp.expj(N * d / 2) * _dirichlet_ratio(d, N))


def build_dirichlet_kernel(spec: VandermondeSpec, bits: int) -> tuple:
    """The s x s real symmetric kernel K = U G U^H, U = diag(e^(i N x_j/2)),
    with the spectrum of G: K[j][m] = sin((N+1) d/2) / sin(d/2) for
    d = x_m - x_j, rounded as the Gram builder rounds."""
    return _dirichlet_rows(spec, bits, _dirichlet_ratio)


def build_prolate(nodes: NodeSet, bits: int) -> tuple:
    """The s x s generalized prolate matrix of sinc inner products.

    P[j][k] = sin(d)/d for d = x_k - x_j off the diagonal and 1 on it,
    the closed form of (1/2) * integral_{-1}^{1} e^(i w d) dw.  Real
    symmetric and positive definite for distinct nodes.  Nodes closer
    than 2^-(bits/2) draw one warning, naming the closest pair.
    """
    if nodes.domain != LINE:
        raise InvalidParameterError("prolate matrix expects line-domain nodes")
    with mp.workprec(bits):
        order, gaps = sorted_gaps(nodes.nodes, LINE)
        k = min(range(len(gaps)), key=gaps.__getitem__, default=None)
        if k is not None and gaps[k] < mpf(2) ** -(bits // 2):
            log.warning("prolate nodes %d,%d separated by %s < 2^-%d; "
                        "consider raising precision", *sorted(order[k:k + 2]),
                        decimal_str(gaps[k], bits), bits // 2)
        return _kernel_rows(nodes.nodes, mpf(1), _sinc)
