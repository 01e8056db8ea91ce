"""Assembly of the Dirichlet kernel and prolate matrices.

Spectral work downstream routes through an s x s matrix with
closed-form entries rather than the tall (N+1) x s factor: the node
counts here are small (s <= 40) while N reaches a few hundred, and a
closed-form entry carries no accumulated summation error.  That matrix
is the real Dirichlet kernel K (Slepian's discrete prolate kernel), with
G = V^H V = U^H K U for U = diag(e^(i N x_j / 2)); G is built as K under
those phases.  K, the prolate matrix and the exp-sum norms all take
their kernel from one integer frame (_kernel_frame); a builder rounds
each entry once and returns rows symmetric bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf
from mpmath.libmp import (from_man_exp, fzero, mpf_cos_sin, mpf_mul,
                          mpf_shift, round_nearest, to_fixed)

from .errors import InvalidParameterError, PrecisionError
from .geometry import LINE, PERIODIC, NodeSet, _pi, sorted_gaps
from .hp import decimal_str

#: bits a kernel entry carries beyond the working bits and the
#: closest-pair guard (_kernel_frame)
_KERNEL_GUARD_BITS = 32


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


def _dirichlet_guard(N: int) -> int:
    """_KERNEL_GUARD_BITS plus log2(N), for a frame scaled to the peak N+1."""
    return _KERNEL_GUARD_BITS + max(N, 1).bit_length()


def _phases(angles, q):
    """(cos, sin) of each exact raw-mpf angle as ints in units 2^-q, each
    within 3 units: mpf_cos_sin reduces the exact angle with the bits its
    size needs and rounds to q bits, and to_fixed truncates."""
    return [tuple(to_fixed(v, q) for v in mpf_cos_sin(t, q)) for t in angles]


def _kernel_frame(xs, A, domain: str, margin: int, what: str):
    """(q, ke, (C, S), pairs): K(d) = sin(A d) / h(d/2), K(0) = 2A, for
    every pair of the exact mpfs xs in one integer frame, with h(t) = t
    on LINE and sin(t) on PERIODIC and A > 0 an exact mpf.

    _phases gives each node, at q = p + g + margin bits, p = mp.prec,
    u = 2^-q: (C_j, S_j) = (cos, sin)(A x_j) and the half angle
    (c_j, s_j), which is (1, x_j/2) exactly on LINE.  pairs lists
    (j, k, num, den) for j < k in row order: num = (S_j C_k - C_j S_k) 2^t
    is sin(A d), d = x_j - x_k, den = s_j c_k - c_j s_k is h(d/2), both
    exact ints, and num / den is K(d) in the unit 2^ke that puts 2A at q
    bits.  With mag(y) = floor(log2 y) + 1 and gap the least distance of
    two points (on PERIODIC modulo 2 pi at p + 64 bits: an arc inside
    (-pi, pi] is one rounding, within 2^-(p+63) at any size; the closing
    arc, and every arc once a point was reduced, are within 2^-4 above
    2^-(p+40), and PrecisionError below):
    - S_j C_k - C_j S_k is within 9u of sin(A d) (q >= 6);
    - LINE: den is exact, so num / den 2^ke is within 18u / |d|, at most
      9 2^g u 2A for g = max(0, 2 - mag(A) - mag(gap));
    - PERIODIC: |sin(d/2)| >= gap / pi >= 2^-g for g = max(0, 4 -
      mag(gap)), so den is within 9u of it and at least half of it
      (q >= g + 5): num / den 2^ke is within 18u (1 + 2A) 2^g <=
      36 2^g u 2A.
    """
    p, n = mp.prec, len(xs)
    raw = [x._mpf_ for x in xs]
    g = 0
    if domain == LINE:
        # the halves x_j/2 exactly, as ints in one unit 2^eh
        eh = min((x[2] - 1 for x in raw if x[1]), default=0)
        halves = [to_fixed(x, -1 - eh) for x in raw]
        if n > 1:
            hs = sorted(halves)
            gap = min(b - a for a, b in zip(hs, hs[1:]))
            # mag(2 gap 2^eh) = gap.bit_length() + eh + 1
            g = max(0, 1 - mp.mag(A) - gap.bit_length() - eh)
    elif n > 1:
        with mp.workprec(p + 64):
            gaps = sorted_gaps(xs, PERIODIC)[1]
            pi = _pi()
            inside = all(-pi < x <= pi for x in xs)
        blurred = gaps[-1] if inside else min(gaps)
        if blurred < mp.ldexp(1, -(p + 40)):
            raise PrecisionError(
                f"{what}: two frequencies agree modulo 2 pi within "
                f"{decimal_str(blurred)}; raise precision")
        g = max(0, 4 - mp.mag(min(gaps)))
    q = p + g + margin
    C, S = zip(*_phases([mpf_mul(A._mpf_, x) for x in raw], q))
    two_a = mpf_shift(A._mpf_, 1)
    ke = two_a[2] + two_a[3] - q
    if domain == LINE:
        # (1, x_j/2) in a unit 2^de low enough that t needs no right shift
        de = min(eh, -2 * q - ke)
        c_half, s_half = [1] * n, [h << eh - de for h in halves]
    else:
        de = -2 * q
        c_half, s_half = zip(*_phases([mpf_shift(x, -1) for x in raw], q))
    t = -2 * q - de - ke
    pairs = [(j, k, (S[j] * C[k] - C[j] * S[k]) << t,
              s_half[j] * c_half[k] - c_half[j] * s_half[k])
             for j in range(n) for k in range(j + 1, n)]
    return q, ke, (C, S), pairs


def _quotient(num: int, den: int, exp: int, bits: int):
    """The raw mpf num / den 2^exp for ints num and den != 0, correctly
    rounded to nearest at bits by one integer division: its quotient
    has at least bits + 2 bits, and a sticky bit below them records a
    nonzero remainder, which is all rounding to bits can see of the
    rest."""
    if not num:
        return fzero
    a, b = abs(num), abs(den)
    # a / b > 2^(a.bit_length() - 1 - b.bit_length()), so q >= 2^(bits + 1)
    k = bits + 2 - a.bit_length() + b.bit_length()
    q, r = divmod(a << k, b) if k >= 0 else divmod(a, b << -k)
    man = q << 1 | (r != 0)
    return from_man_exp(-man if (num < 0) != (den < 0) else man,
                        exp - k - 1, bits, round_nearest)


def _kernel_matrix(xs, A, domain: str, bits: int, margin: int,
                   shift: int = 0) -> tuple:
    """Rows with K(x_j - x_k) 2^shift of _kernel_frame at (j, k) and
    (k, j), each the exact quotient num / den 2^(ke + shift) rounded once
    to bits by _quotient, and K(0) 2^shift = 2A 2^shift, exact, on the
    diagonal."""
    with mp.workprec(bits):
        _, ke, _, pairs = _kernel_frame(xs, A, domain, margin, "kernel matrix")
    diag = mp.make_mpf(mpf_shift(A._mpf_, 1 + shift))
    rows = [[diag] * len(xs) for _ in xs]
    for j, k, num, den in pairs:
        rows[j][k] = rows[k][j] = mp.make_mpf(
            _quotient(num, den, ke + shift, bits))
    return tuple(tuple(r) for r in rows)


def build_gram_closed_form(spec: VandermondeSpec, bits: int) -> tuple:
    """The s x s Hermitian Gram matrix V^H V: build_dirichlet_kernel's K
    under its phases, G[j][m] = e^(i N d/2) K[j][m], d = x_m - x_j, with K
    and the product at _dirichlet_guard(N) guard bits and rounded once to
    bits, its conjugate at (m, j), and exactly N+1 on the diagonal."""
    N, xs = spec.N, spec.nodes.nodes
    wp = bits + _dirichlet_guard(N)
    K = build_dirichlet_kernel(spec, wp)
    rows = [list(r) for r in K]
    with mp.workprec(wp):
        for j in range(len(xs)):
            for m in range(j + 1, len(xs)):
                val = mp.expj(N * (xs[m] - xs[j]) / 2) * K[j][m]
                with mp.workprec(bits):
                    val = +val
                rows[j][m], rows[m][j] = val, val.conjugate()
    return tuple(tuple(r) for r in rows)


def build_dirichlet_kernel(spec: VandermondeSpec, bits: int) -> tuple:
    """The s x s real symmetric kernel K = U G U^H, U = diag(e^(i N x_j/2)),
    with the spectrum of G: sin((N+1) d/2) / sin(d/2), d = x_m - x_j, by
    _kernel_frame with _dirichlet_guard(N) bits, and N + 1 on the diagonal."""
    N = spec.N
    return _kernel_matrix(spec.nodes.nodes, mpf(N + 1) / 2, PERIODIC, bits,
                          _dirichlet_guard(N))


def build_prolate(nodes: NodeSet, bits: int) -> tuple:
    """The s x s generalized prolate matrix of sinc inner products.

    P[j][k] = sin(d)/d for d = x_k - x_j off the diagonal and 1 on it,
    (1/2) * integral_{-1}^{1} e^(i w d) dw: half the kernel of
    _kernel_frame at A = 1, each entry correctly rounded at any gap.
    Real symmetric and positive definite for distinct nodes; whether a
    close pair is resolved is the eigensolver's error_bound to judge.
    """
    if nodes.domain != LINE:
        raise InvalidParameterError("prolate matrix expects line-domain nodes")
    return _kernel_matrix(nodes.nodes, mpf(1), LINE, bits, _KERNEL_GUARD_BITS,
                          shift=-1)
