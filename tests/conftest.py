"""Shared test oracles and fixtures.

The oracles deliberately avoid the code paths they check: the Gram oracle
sums the geometric series term by term, the sinc and Dirichlet ratio, and
the Gram matrix and Dirichlet kernel built from them, are evaluated one
pair at a time with mpmath's sin where the builders use per-node phases
in one integer frame, the eigenvalue oracle is mpmath's
eighe (tridiagonalization + QL, nothing like the package's Jacobi),
the quadrature oracle integrates numerically, and the partition oracle
compares every pair of nodes where the validator scans sorted gaps.  jacobi_reference is
two-sided cyclic Jacobi on the full matrix with mpf operators, another
iteration than the package's pivoted Cholesky and one-sided Jacobi.

Five oracles are the package's own earlier forms, kept to show that
their faster successors give the same bits: the pivoted Cholesky on mpf
operators, the rotation as four full products per entry pair, the
kernel entries rounded from unstripped integers, the reduction into
(-pi, pi] evaluating pi at each use, and decimal_str reading its value
under a working precision.

The fixtures are reference matrices and seeded instance generators that
only tests use: the tall Vandermonde and shifted Vandermonde factors,
the quadrature norm, random multi-cluster configurations, the seeded
kernel configs and the heavy sweep points, and the per-level c1 fit.
"""

import random
from dataclasses import dataclass

import pytest
from mpmath import mp, mpc, mpf, matrix
from mpmath.libmp import from_int, from_man_exp, mpf_div, round_nearest

from vandelab.errors import (
    ConfigValidationError,
    ConvergenceError,
    DegenerateInputError,
    InvalidParameterError,
    PrecisionError,
)
from vandelab.experiments import point_spec
from vandelab.expsums import ExpSum, evaluate
from vandelab.geometry import (
    LINE,
    PERIODIC,
    RANDOM,
    ClusterSpec,
    NodeSet,
    PartitionResult,
    _distance_slack,
    default_centers,
    generate_config,
)
from vandelab.bounds import count_bands, lower_bound_shape
from vandelab.hp import (_read_decimal, as_mpf, decimal_digits, decimal_str,
                         required_bits)
from vandelab.matrices import VandermondeSpec, _kernel_frame
from vandelab.suites import DEFAULT_SUITE_BITS, _rng_floats


def sinc(t):
    """sin(t) / t, and its limit 1 at t = 0: the per-pair reference for
    the prolate entries and the L2 kernel."""
    if t == 0:
        return mpf(1)
    return mp.sin(t) / t


def dirichlet_ratio(delta, N: int):
    """sin((N+1) delta/2) / sin(delta/2), and its limit N+1 at delta = 0:
    the per-pair reference for the Dirichlet kernel."""
    if delta == 0:
        return mpf(N + 1)
    half = delta / 2
    return mp.sin((N + 1) * half) / mp.sin(half)


def gram_ratio(delta, N: int):
    """e^(i N delta/2) dirichlet_ratio(delta, N): sum_{k=0}^{N} e^(i k delta)
    in closed form, the per-pair reference for the Gram matrix."""
    return mp.expj(N * delta / 2) * dirichlet_ratio(delta, N)


def naive_dirichlet(spec: VandermondeSpec, bits: int, kernel):
    """The s x s rows of kernel(x_m - x_j, N) at (j, m), j < m, and its
    conjugate at (m, j), each entry evaluated on its own with 32 + log2(N)
    guard bits and rounded once to bits, and N + 1 on the diagonal: the
    Dirichlet kernel for kernel = dirichlet_ratio, the Gram matrix V^H V
    for gram_ratio."""
    N, xs = spec.N, spec.nodes.nodes
    s = len(xs)
    rows = [[mpf(N + 1)] * s for _ in range(s)]
    with mp.workprec(bits + 32 + max(N, 1).bit_length()):
        for j in range(s):
            for m in range(j + 1, s):
                val = kernel(xs[m] - xs[j], N)
                with mp.workprec(bits):
                    val = +val
                rows[j][m], rows[m][j] = val, mp.conj(val)
    return rows


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


def eighe_eigenvalues(rows, bits: int):
    """Independent Hermitian eigenvalues via mpmath, sorted descending."""
    n = len(rows)
    with mp.workprec(bits):
        M = matrix(n, n)
        for i in range(n):
            for j in range(n):
                M[i, j] = rows[i][j]
        vals = mp.eighe(M, eigvals_only=True)
        return sorted((mpf(v) for v in vals), reverse=True)


def jacobi_reference(rows, bits: int):
    """(values, offdiag_residual, sweeps_used) of cyclic Jacobi on rows.

    Two-sided: every rotation zeroes one off-diagonal pair of the full
    matrix with mpf operators, updating columns p and q, then rows p and
    q.  It stops when the off-diagonal Frobenius norm falls below
    2^-(p-8) of the Frobenius norm, and raises ConvergenceError after
    100 sweeps.
    """
    n = len(rows)
    p = bits
    max_sweeps = 100
    with mp.workprec(p):
        a = [[mpf(rows[i][j]) for j in range(n)] for i in range(n)]

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


def random_hermitian(rng: random.Random, n: int, bits: int) -> tuple:
    """A real symmetric matrix, as a rule indefinite."""
    with mp.workprec(bits):
        rows = [[mpf(0)] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = mpf(rng.uniform(-2, 2))
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = mpf(rng.uniform(-1, 1))
    return tuple(tuple(r) for r in rows)


def random_spd(rng: random.Random, n: int, bits: int) -> tuple:
    """B^T B + I for B with entries uniform in (-1, 1): real symmetric
    positive definite, the matrices the eigensolver takes."""
    with mp.workprec(bits):
        b = [[mpf(rng.uniform(-1, 1)) for _ in range(n)] for _ in range(n)]
        rows = [[mpf(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = mp.fsum(
                    b[k][i] * b[k][j] for k in range(n)) + (i == j)
    return tuple(tuple(r) for r in rows)


@pytest.fixture
def rng():
    return random.Random(987654321)


def random_periodic_nodes(rng, s):
    xs = set()
    while len(xs) < s:
        xs.add(mpf(rng.uniform(-3.1, 3.1)))
    return NodeSet(tuple(sorted(xs)), PERIODIC)


def seeded_configs():
    """(bits, xs, N) of 300 seeded configs at 64 to 2000 bits: a third of
    them exact binary equispaced clusters whose differences repeat
    exactly, a third random nodes on the circle and a third clusters
    10^-1 to 10^-12 apart."""
    rng = random.Random(20261018)
    for i in range(300):
        bits = (64, 192, 600, 2000)[i % 4]
        s = rng.randint(2, 6)
        with mp.workprec(bits):
            if i % 3 == 0:
                c = mpf(rng.randint(-64, 64)) / 32
                step = mpf(2) ** -rng.randint(3, 40)
                xs = tuple(c + j * step for j in range(s))
            elif i % 3 == 1:
                xs = tuple(random_periodic_nodes(rng, s).nodes)
            else:
                delta = mpf(10) ** -rng.randint(1, 12)
                c = mpf(rng.uniform(-3, 3))
                xs = tuple(c + j * delta for j in range(s))
        yield bits, xs, rng.randint(s, 400)


#: (ell, s, delta, N) of the heavy sweep points: s up to 40, and up to
#: 1932 bits at (12, 12, 1e-25, 144)
HEAVY_POINTS = (
    (6, 6, "1e-10", 100),
    (12, 12, "1e-25", 144),
    (4, 16, "1e-10", 192),
    (6, 24, "1e-10", 288),
    (4, 24, "1e-10", 288),
    (8, 40, "1e-10", 480),
)


def sweep_point(ell, s, delta, N):
    """(bits, nodes, N) of an equispaced sweep point with tau auto at the
    policy bits, the nodes a sweep row solves."""
    spec_at, N = point_spec({"ell": ell, "N": N, "delta": delta,
                             "tau": "auto", "s": s, "theta": None})
    bits = required_bits(ell, N, delta)
    with mp.workprec(bits):
        nodes, _ = generate_config(spec_at(bits), "equispaced", None,
                                   20240601, PERIODIC)
    return bits, nodes, N


def cholesky_rows_reference(a, n, p):
    """The eigensolver's pivoted Cholesky as it was on mpf operators at p
    bits, kept as the oracle of the one on raw libmp values: the rows of
    R, A = P^T R^T R P, for a symmetric matrix a of mpf rows
    (overwritten), each in pivot order."""
    with mp.workprec(p):
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


def decimal_str_reference(x, bits: int, exact: bool = False) -> str:
    """decimal_str as it was, reading x as mpf(x) under workprec(bits)
    and formatting it there: the oracle that the string depends only on
    x and bits."""
    with mp.workprec(bits):
        x = mpf(x)
        text = mp.nstr(x, decimal_digits(bits))
        if exact:
            for more in (1, 2):
                if _read_decimal(text, bits) == x:
                    break
                text = mp.nstr(x, decimal_digits(bits) + more)
        return text

def rounded_reference(vals, k):
    """Each int of vals divided by 2^k, k >= 1, rounded to nearest with
    ties to even: the eigensolver's rounding as it was."""
    half, low = 1 << (k - 1), (1 << k) - 1
    return [w >> k if (w := v + half) & low else w >> k & -2 for v in vals]


def rotated_reference(x, y, c, s, q):
    """(c x - s y, s x + c y) / 2^q rounded by rounded_reference: the
    rotation as four full products per entry pair, as it was applied."""
    return tuple(rounded_reference([f * u + g * v for u, v in zip(x, y)], q)
                 for f, g in ((c, -s), (s, c)))


def kernel_matrix_reference(xs, A, domain, bits, margin, diag, shift=0):
    """matrices._kernel_matrix as raw rows, each entry rounded from the
    unstripped numerator and denominator of the kernel frame."""
    with mp.workprec(bits):
        _, ke, _, pairs = _kernel_frame(xs, A, domain, margin, "kernel matrix")
    rows = [[diag._mpf_] * len(xs) for _ in xs]
    for j, k, num, den in pairs:
        rows[j][k] = rows[k][j] = mpf_div(
            from_man_exp(num, ke + shift), from_int(den), bits, round_nearest)
    return rows


def build_vandermonde(spec: VandermondeSpec, bits: int | None = None) -> tuple:
    """The rows of the (N+1) x s matrix V[k][j] = e^(i k x_j), k = 0..N."""
    p = bits if bits is not None else mp.prec
    N, xs = spec.N, spec.nodes.nodes
    with mp.workprec(p + 16 + max(N, 1).bit_length()):
        bases = [mp.expj(x) for x in xs]
        cols = []
        for z in bases:
            col = [mpc(1)]
            for _ in range(N):
                col.append(col[-1] * z)
            cols.append(col)
        with mp.workprec(p):
            return tuple(tuple(+cols[j][k] for j in range(len(xs)))
                         for k in range(N + 1))


def build_shifted_vandermonde(nodes: NodeSet, N: int, bits: int | None = None) -> tuple:
    """The rows of the (2N+1) x s matrix e^(i k x_j / N)/sqrt(2N), k = -N..N.

    Requires every x_j/N to lie in (-pi, pi].
    """
    if nodes.domain != LINE:
        raise InvalidParameterError("shifted Vandermonde expects line-domain nodes")
    if N < 1:
        raise InvalidParameterError("N must be >= 1")
    p = bits if bits is not None else mp.prec
    with mp.workprec(p + 16 + (2 * N).bit_length()):
        xis = []
        for x in nodes.nodes:
            xi = x / N
            if not (-mp.pi < xi <= mp.pi):
                raise InvalidParameterError(
                    f"scaled node {decimal_str(xi)} outside (-pi, pi]")
            xis.append(xi)
        scale = 1 / mp.sqrt(2 * N)
        cols = []
        for xi in xis:
            z = mp.expj(xi)
            col = [scale * mp.expj(-N * xi)]
            for _ in range(2 * N):
                col.append(col[-1] * z)
            cols.append(col)
        with mp.workprec(p):
            return tuple(tuple(+cols[j][k] for j in range(len(xis)))
                         for k in range(2 * N + 1))


def lq_norm_quadrature(P: ExpSum, a, b, q):
    """||P||_{L^q(a,b)} with normalized measure, by adaptive
    Gauss-Legendre: the oracle for the closed-form L2 norm."""
    a, b = as_mpf(a), as_mpf(b)
    if not b > a:
        raise InvalidParameterError("need b > a")
    q = as_mpf(q)
    if not q > 0:
        raise InvalidParameterError("need q > 0")
    integral = mp.quad(lambda t: abs(evaluate(P, t)) ** q, [a, b])
    return (integral / (b - a)) ** (1 / q)


@dataclass(frozen=True)
class ClusteredInstance:
    nodes: NodeSet
    cluster: ClusterSpec
    N: int
    multiplicities: tuple


def random_clustered_config(rng, ell_range=(2, 4), clusters_range=(1, 3),
                            delta_exp_range=(4.0, 8.0), n_range=(60, 300),
                            theta=1, require_distinct_mults=False,
                            layout=RANDOM, n_per_s: int = 10) -> ClusteredInstance:
    """A validated multi-cluster configuration on the circle.

    N is drawn above n_per_s * s (default keeps N*theta >= 10*s, the
    advisory window); centers sit on the default even spread, so theta
    must stay below 2*pi/M minus the cluster extent.
    """
    while True:
        ell = rng.randint(*ell_range)
        n_clusters = rng.randint(*clusters_range)
        mults = [ell] + [rng.randint(1, ell) for _ in range(n_clusters - 1)]
        if require_distinct_mults and len(set(mults)) < 2:
            continue
        break
    s = sum(mults)
    # drawn instances are built at a fixed precision so the same seed
    # yields the same configuration whatever the caller's context is
    with mp.workprec(DEFAULT_SUITE_BITS):
        if ell > 1:
            tau = mpf(ell - 1) + _rng_floats(rng, mpf(0), mpf(ell))
        else:
            tau = mpf(1)
        delta = mpf(10) ** (-_rng_floats(rng, mpf(delta_exp_range[0]),
                                         mpf(delta_exp_range[1])))
        lo = max(n_range[0], n_per_s * s)
        if lo > n_range[1]:
            raise InvalidParameterError(
                f"n_range {n_range} cannot accommodate s={s}")
        N = rng.randint(lo, n_range[1])
        spec = ClusterSpec(delta=delta, theta=as_mpf(theta), s=s, ell=ell,
                           tau=tau)
        centers = default_centers(n_clusters)
        nodes, _ = generate_config(spec, layout, centers,
                                   seed=rng.randrange(2 ** 31), domain=PERIODIC)
    return ClusteredInstance(nodes=nodes, cluster=spec, N=N,
                             multiplicities=tuple(mults))


@dataclass(frozen=True)
class LevelCountFit:
    """Fitted c1 window for the per-level spectral counting.

    For each instance and level m, counting singular values in the band
    [c1*shape_m, c1*shape_{m-1}) must find exactly q_m of them; that
    pins c1 into (lo, hi].  A nonempty intersection across all instances
    is the testable content; c1 is the geometric midpoint.
    """

    lo: object
    hi: object
    c1: object
    instances: int

    @property
    def nonempty(self) -> bool:
        return self.lo < self.hi


def fit_level_constant(spectra_and_partitions, bits: int = DEFAULT_SUITE_BITS) -> LevelCountFit:
    """Intersect the admissible c1 intervals over (spectrum, q, N, delta).

    Each item is (sigma: descending tuple, q: tuple, N: int, delta).
    """
    lo_all, hi_all = mpf(0), mpf("inf")
    count = 0
    with mp.workprec(bits):
        for sigma, q, N, delta in spectra_and_partitions:
            count += 1
            s = len(sigma)
            ell = len(q)
            cums = [sum(q[:m]) for m in range(1, ell + 1)]
            for m in range(1, ell + 1):
                cum = cums[m - 1]
                shape = lower_bound_shape(N, delta, m)
                hi_all = min(hi_all, sigma[cum - 1] / shape)
                if cum < s:
                    lo_all = max(lo_all, sigma[cum] / shape)
        c1 = mp.sqrt(lo_all * hi_all) if 0 < lo_all < hi_all else \
            (hi_all / 2 if hi_all < mp.inf else mpf(1))
    return LevelCountFit(lo=lo_all, hi=hi_all, c1=c1, instances=count)


def level_counts(sigma, q, N, delta, c1, bits: int = DEFAULT_SUITE_BITS) -> list:
    """Counts of sigma in the bands of c1 * lower_bound_shape(N, delta, m),
    m = 1..len(q), with the thresholds evaluated at bits."""
    with mp.workprec(bits):
        return count_bands(sigma, [as_mpf(c1) * lower_bound_shape(N, delta, m)
                                   for m in range(1, len(q) + 1)])


def wrap_to_interval_reference(x):
    """The geometry module's wrap_to_interval as it was before it kept pi
    per precision, evaluating mp.pi at each use: the oracle that the
    cached pi gives the same bits."""
    x = as_mpf(x)
    if -mp.pi < x <= mp.pi:
        return x
    big = mp.isfinite(x) and mp.mag(x) > 16
    with mp.workprec(mp.prec + (mp.mag(x) + 16 if big else 0)):
        two_pi = 2 * mp.pi
        r = x - two_pi * mp.floor((x + mp.pi) / two_pi)
        if r <= -mp.pi:
            r += two_pi
        elif r > mp.pi:
            r -= two_pi
    return wrap_to_interval_reference(+r) if big else r


def wrap_distance_reference(x, y):
    """The geometry module's first wrap_distance, kept verbatim so the
    pairwise oracle shares no reduction with the code it checks.  Within
    a few ulps of an odd multiple of pi it can return a little above pi.
    """
    d = as_mpf(x) - as_mpf(y)
    two_pi = 2 * mp.pi
    n = mp.floor((d + mp.pi) / two_pi)
    if n != 0:
        d = d - two_pi * n  # in [-pi, pi) up to rounding of 2*pi*n
    return abs(d)


def validate_config_reference(nodes: NodeSet, spec: ClusterSpec) -> PartitionResult:
    """validate_config by pairwise distances: the oracle for the scan.

    It fills the s x s distance matrix, joins the single-linkage
    clusters at tau*delta with a union-find, then checks every pair
    inside a cluster against delta and tau*delta and every pair across
    clusters against theta.  Clusters are ordered by their smallest
    member node.  Same slack, error classes and conditions as the
    validator.
    """
    if nodes.count != spec.s:
        raise ConfigValidationError(
            f"node count {nodes.count} differs from spec s={spec.s}")
    if nodes.domain == PERIODIC and spec.tau > mp.pi / spec.delta:
        raise InvalidParameterError("periodic domain requires tau <= pi/delta")
    dist = wrap_distance_reference if nodes.domain == PERIODIC else \
        (lambda x, y: abs(x - y))
    s = nodes.count
    tol = _distance_slack(nodes, spec.delta)
    link = spec.tau * spec.delta + tol
    lo_delta = spec.delta - tol
    lo_theta = spec.theta - tol

    d = [[mpf(0)] * s for _ in range(s)]
    for i in range(s):
        for j in range(i + 1, s):
            dij = dist(nodes.nodes[i], nodes.nodes[j])
            if dij == 0:
                raise DegenerateInputError(
                    f"nodes {i} and {j} coincide (distance 0)")
            d[i][j] = d[j][i] = dij

    parent = list(range(s))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(s):
        for j in range(i + 1, s):
            if d[i][j] <= link:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    groups = {}
    for i in range(s):
        groups.setdefault(find(i), []).append(i)
    clusters = sorted(groups.values(),
                      key=lambda g: min(nodes.nodes[i] for i in g))

    for g in clusters:
        if len(g) > spec.ell:
            raise ConfigValidationError(
                f"cluster {tuple(g)} has multiplicity {len(g)} > ell",
                pair=None, condition="multiplicity")
        for a in range(len(g)):
            for b in range(a + 1, len(g)):
                i, j = g[a], g[b]
                if d[i][j] < lo_delta:
                    raise ConfigValidationError(
                        f"nodes {i},{j} below delta",
                        pair=(i, j), condition="within-cluster minimum")
                if d[i][j] > link:
                    raise ConfigValidationError(
                        f"nodes {i},{j} exceed tau*delta",
                        pair=(i, j), condition="within-cluster diameter")
    for a in range(len(clusters)):
        for b in range(a + 1, len(clusters)):
            for i in clusters[a]:
                for j in clusters[b]:
                    if d[i][j] < lo_theta:
                        raise ConfigValidationError(
                            f"nodes {i},{j} from different clusters below "
                            f"theta", pair=(i, j),
                            condition="inter-cluster separation")

    mults = tuple(len(g) for g in clusters)
    q = tuple(sum(1 for r in mults if r >= m) for m in range(1, spec.ell + 1))
    return PartitionResult(clusters=tuple(tuple(g) for g in clusters),
                           multiplicities=mults, q=q)
