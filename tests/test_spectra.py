import tracemalloc

import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, mpf_add, mpf_mul, mpf_sub, round_nearest

from conftest import (
    build_vandermonde,
    eighe_eigenvalues,
    jacobi_reference,
    random_hermitian,
)
from vandelab.errors import ConvergenceError, InvalidParameterError, PrecisionError
from vandelab.experiments import resolve_point
from vandelab.geometry import LINE, PERIODIC, ClusterSpec, NodeSet, generate_config
from vandelab.hp import required_bits
from vandelab.matrices import (
    VandermondeSpec,
    build_dirichlet_kernel,
    build_gram_closed_form,
    build_prolate,
)
from vandelab.spectra import (
    SpectrumResult,
    _add,
    _round,
    _sqrt_spectrum,
    hermitian_eigenvalues,
    normalized_lambda,
    prolate_limit_check,
    singular_values,
)

BITS = 192

# 1 - sin(0.1)/0.1, frozen from the 2x2 closed-form oracle at 250 bits
LAMBDA_MIN_2X2 = "0.00166583353171847693185801589377973010084611982"


def identity(n):
    return tuple(tuple(mpf(1) if i == j else mpf(0) for j in range(n))
                 for i in range(n))


class TestJacobi:
    def test_identity(self):
        eig = hermitian_eigenvalues(identity(3), BITS)
        assert eig.values == (1, 1, 1)
        assert eig.kind == "eigen"

    def test_two_by_two_closed_form(self):
        with mp.workprec(BITS):
            a = mp.sin(mpf("0.1")) / mpf("0.1")
            eig = hermitian_eigenvalues(((mpf(1), a), (a, mpf(1))), BITS)
            lam_min, lam_max = eig.values[1], eig.values[0]
            assert abs(lam_min - mpf(LAMBDA_MIN_2X2)) < mpf(10) ** -40
            assert abs(lam_max - (1 + a)) < mpf(10) ** -40

    def test_trace_identity_random(self, rng):
        with mp.workprec(BITS):
            M = random_hermitian(rng, 4, BITS)
            eig = hermitian_eigenvalues(M, BITS)
            trace = mp.fsum(M[i][i] for i in range(4))
            total = mp.fsum(eig.values)
            assert abs(total - trace) <= \
                mpf(2) ** -(BITS - 16) * max(1, abs(trace))

    def test_against_eighe_oracle(self, rng):
        with mp.workprec(BITS):
            for n in (2, 5, 8):
                M = random_hermitian(rng, n, BITS)
                mine = hermitian_eigenvalues(M, BITS).values
                ref = eighe_eigenvalues(M, BITS)
                scale = max(abs(v) for v in ref) + 1
                for a, b in zip(mine, ref):
                    assert abs(a - b) <= scale * mpf(2) ** -(BITS - 24)

    def test_graded_gram_full_relative_accuracy(self):
        # spec(K) == spec(G): the Gram of a 5-node cluster at delta=1e-6
        # spans ~50 orders of magnitude; Jacobi on the real kernel K must
        # track every eigenvalue of the complex Gram G in relative terms
        ell, N = 5, 100
        bits = required_bits(ell, N, mpf("1e-6"))
        with mp.workprec(bits):
            delta = mpf("1e-6")
            nodes = NodeSet(tuple((k - mpf(ell - 1) / 2) * delta
                                  for k in range(ell)))
            spec = VandermondeSpec(N, nodes)
            mine = hermitian_eigenvalues(
                build_dirichlet_kernel(spec, bits), bits).values
            ref = eighe_eigenvalues(build_gram_closed_form(spec, bits), bits)
            for a, b in zip(mine, ref):
                assert b > 0
                assert abs(a - b) / b < mpf(10) ** -30

    def test_diagonal_similarity_invariance(self, rng):
        # conjugating by a diagonal of signs must not move eigenvalues
        with mp.workprec(BITS):
            n = 4
            M = random_hermitian(rng, n, BITS)
            signs = [rng.choice((-1, 1)) for _ in range(n)]
            conj = tuple(
                tuple(signs[i] * M[i][j] * signs[j]
                      for j in range(n)) for i in range(n))
            a_vals = hermitian_eigenvalues(M, BITS).values
            b_vals = hermitian_eigenvalues(conj, BITS).values
            scale = max(abs(v) for v in a_vals) + 1
            for a, b in zip(a_vals, b_vals):
                assert abs(a - b) <= scale * mpf(2) ** -(BITS - 16)

    def test_rejects_complex_entry(self):
        with mp.workprec(BITS):
            M = ((mpf(1), mpc(0, 1)), (mpc(0, -1), mpf(1)))
        with pytest.raises(InvalidParameterError):
            hermitian_eigenvalues(M, BITS)

    def test_rejects_asymmetric_entry(self):
        # one off-diagonal entry moved by one ulp: a[0][2] != a[2][0]
        with mp.workprec(BITS):
            x = mpf("0.3")
            moved = x + mp.ldexp(1, mp.mag(x) - BITS)
            assert moved != x
            M = ((mpf(2), mpf("0.1"), moved),
                 (mpf("0.1"), mpf(1), mpf("0.2")),
                 (x, mpf("0.2"), mpf(3)))
        with pytest.raises(InvalidParameterError, match="not symmetric"):
            hermitian_eigenvalues(M, BITS)

    def test_nonconvergence_diagnostic(self, rng, monkeypatch):
        monkeypatch.setattr("vandelab.spectra._sweep_budget", lambda n: 0)
        M = random_hermitian(rng, 4, BITS)
        with pytest.raises(ConvergenceError) as err:
            hermitian_eigenvalues(M, BITS)
        assert err.value.residual is not None
        assert err.value.residual > 0

    def test_requires_hermitian_tag(self):
        # an asymmetric matrix is no real symmetric input
        M = ((mpf(1), mpf(2)), (mpf(3), mpf(4)))
        with pytest.raises(InvalidParameterError):
            hermitian_eigenvalues(M, BITS)

    @pytest.mark.parametrize("entry", ["inf", "-inf", "nan"])
    def test_rejects_non_finite_entry(self, entry):
        M = ((mpf(1), mpf(0)), (mpf(0), mpf(entry)))
        with pytest.raises(InvalidParameterError, match="non-finite"):
            hermitian_eigenvalues(M, BITS)

    def test_rejects_non_square(self):
        M = ((mpf(1), mpf(0), mpf(0)), (mpf(0), mpf(1), mpf(0)))
        with pytest.raises(InvalidParameterError, match="not square"):
            hermitian_eigenvalues(M, BITS)

    def test_error_bound_formula(self, rng):
        # 32 * n * max(sweeps, 1) * 2^-p * ||A||_F, with the norm summed here
        for n in (1, 4):
            M = random_hermitian(rng, n, BITS)
            eig = hermitian_eigenvalues(M, BITS)
            with mp.workprec(BITS):
                norm_f = mp.sqrt(mp.fsum(x * x for row in M for x in row))
                expect = mp.ldexp(32 * n * max(eig.sweeps_used, 1) * norm_f,
                                  -BITS)
            assert eig.error_bound == expect

    def test_dimension_cap(self):
        with pytest.raises(InvalidParameterError):
            hermitian_eigenvalues(identity(257), BITS)

    def test_zero_matrix(self):
        rows = tuple(tuple(mpf(0) for _ in range(3)) for _ in range(3))
        eig = hermitian_eigenvalues(rows, BITS)
        assert eig.values == (0, 0, 0)


def _equal_diagonal(M):
    """M with every diagonal entry 1, so the first rotation has tau = 0."""
    n = len(M)
    return tuple(tuple(mpf(1) if i == j else M[i][j] for j in range(n))
                 for i in range(n))


def _assert_same_as_reference(M, bits):
    values, residual, sweeps = jacobi_reference(M, bits)
    eig = hermitian_eigenvalues(M, bits)
    assert eig.values == tuple(values)
    assert eig.offdiag_residual == residual
    assert eig.sweeps_used == sweeps


def _sweep_kernel(ell, s, delta, N):
    """(K, bits): the Dirichlet kernel of a sweep point, equispaced."""
    point = {"ell": ell, "N": N, "delta": delta, "tau": "auto", "s": s,
             "theta": None, "precision_override": None}
    spec, N, centers, bits = resolve_point(point)
    with mp.workprec(bits):
        nodes = generate_config(spec, "equispaced", centers, 20240601,
                                PERIODIC)
    return build_dirichlet_kernel(VandermondeSpec(N, nodes), bits), bits


class TestJacobiBitIdentity:
    """The symmetric-pair integer loop against the two-sided mpf loop:
    every value, the residual and the sweep count are bit-equal."""

    @pytest.mark.parametrize("bits", [53, 192, 613])
    def test_random_symmetric(self, rng, bits):
        for n in range(1, 9):
            M = random_hermitian(rng, n, bits)
            _assert_same_as_reference(M, bits)
            _assert_same_as_reference(_equal_diagonal(M), bits)

    def test_readme_sweep_kernel(self):
        _assert_same_as_reference(*_sweep_kernel(6, None, "1e-10", 100))

    # heavy sweep points: n = 12 at 2296 bits and n = 16 at 395 bits
    @pytest.mark.parametrize("ell, s, delta, N", [
        (12, 12, "1e-25", 144), (4, 16, "1e-10", 192)])
    def test_heavy_sweep_kernel(self, ell, s, delta, N):
        _assert_same_as_reference(*_sweep_kernel(ell, s, delta, N))

    def test_prolate_matrix(self):
        with mp.workprec(256):
            nodes = NodeSet(tuple(mpf(x) for x in
                                  ("-0.0015", "-0.0005", "0.0005", "0.0015")),
                            LINE)
        _assert_same_as_reference(build_prolate(nodes, 256), 256)

    def test_convergence_error(self, rng, monkeypatch):
        monkeypatch.setattr("vandelab.spectra._sweep_budget", lambda n: 2)
        M = random_hermitian(rng, 6, BITS)
        with pytest.raises(ConvergenceError) as ref:
            jacobi_reference(M, BITS)
        with pytest.raises(ConvergenceError) as err:
            hermitian_eigenvalues(M, BITS)
        assert err.value.residual == ref.value.residual
        assert err.value.sweeps == ref.value.sweeps == 2


def _operands(rng, p):
    """Pairs of at most p bits, or +-2^p as a carry leaves them: zero,
    one, product ties (3 times 2^(p-1) + 1 or + 3), sum ties and carries
    (all ones, or all ones but the last, plus 1/2), powers of two, random
    mantissas and exponents 10^5 bits apart, each also negated, so that
    every value meets its own negative and cancels to zero."""
    top = 1 << p
    mans = [0, 1, 3, top // 2 + 1, top // 2 + 3, top - 1, top - 2, top]
    out = [(m, 0) for m in mans] + [(1, -1), (1, p), (3, -p)]
    out += [(rng.getrandbits(p) | top >> 1, rng.randrange(-3 * p, 3 * p))
            for _ in range(6)]
    out += [(rng.getrandbits(p) | 1, e) for e in (10 ** 5, -10 ** 5)]
    return out + [(-m, e) for m, e in out if m]


class TestIntegerRounding:
    """_round and _add against mpf_mul, mpf_add and mpf_sub at
    (p, round_nearest): each product, sum and difference is the same
    value."""

    @pytest.mark.parametrize("p", [53, 192, 613, 2296])
    def test_against_libmp(self, rng, p):
        xs = _operands(rng, p)
        for mx, ex in xs:
            x = from_man_exp(mx, ex)
            for my, ey in xs:
                y = from_man_exp(my, ey)
                assert from_man_exp(*_round(mx * my, ex + ey, p)) == \
                    mpf_mul(x, y, p, round_nearest)
                assert from_man_exp(*_add(mx, ex, my, ey, p)) == \
                    mpf_add(x, y, p, round_nearest)
                assert from_man_exp(*_add(mx, ex, -my, ey, p)) == \
                    mpf_sub(x, y, p, round_nearest)

    def test_exponent_gap_allocates_no_large_int(self, rng):
        # aligned exactly, a 10^8-bit gap would take a 12.5 MB int
        p = 2296
        big, tiny = rng.getrandbits(p) | 1, -(rng.getrandbits(p) | 1)
        tracemalloc.start()
        try:
            assert _add(big, 0, tiny, -10 ** 8, p) == (big, 0)
            assert _add(tiny, -10 ** 8, big, 0, p) == (big, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 5

    def test_round_any_integer(self, rng):
        for p in (53, 192, 613, 2296):
            for bits in (1, p - 1, p, p + 1, p + 2, 2 * p + 1, 3 * p):
                for _ in range(20):
                    m = rng.getrandbits(bits) * rng.choice((1, -1))
                    e = rng.randrange(-p, p)
                    assert from_man_exp(*_round(m, e, p)) == \
                        from_man_exp(m, e, p, round_nearest)


class TestSqrtClamp:
    def test_dust_clamped(self):
        # dust of either sign at or below the Weyl error bound
        # 32 * n * sweeps * 2^-p * ||K||_F = 2^-(p-8) is no singular value
        with mp.workprec(BITS):
            bound = mpf(2) ** -(BITS - 8)
            for dust in (-bound / 4, bound):
                eig = SpectrumResult((mpf(4), dust), "eigen", BITS, mpf(0), 1,
                                     bound)
                with pytest.raises(PrecisionError):
                    _sqrt_spectrum(eig)
            eig = SpectrumResult((mpf(4), 4 * bound), "eigen", BITS, mpf(0), 1,
                                 bound)
            assert _sqrt_spectrum(eig).values == (2, 2 * mp.sqrt(bound))

    def test_genuinely_negative_raises(self):
        with mp.workprec(BITS):
            eig = SpectrumResult((mpf(4), mpf("-0.25")), "eigen", BITS,
                                 mpf(0), 1, mpf(2) ** -(BITS - 8))
            with pytest.raises(PrecisionError):
                _sqrt_spectrum(eig)


class TestSingularValues:
    def test_single_column(self):
        with mp.workprec(BITS):
            sv = singular_values(VandermondeSpec(3, NodeSet((mpf("0.4"),))),
                                 bits=BITS)
            assert abs(sv.min_value - 2) <= mpf(2) ** -(BITS - 16)
            assert sv.kind == "singular"

    def test_orthogonal_pair(self):
        with mp.workprec(BITS):
            sv = singular_values(
                VandermondeSpec(1, NodeSet((mpf(0), mp.pi))), bits=BITS)
            for v in sv.values:
                assert abs(v - mp.sqrt(2)) <= mpf(2) ** -(BITS - 16)

    def test_two_column_svd_oracle(self):
        # rectangular oracle: 2x2 Gram assembled term by term from the
        # explicit 11x2 matrix, diagonalized by the quadratic formula
        with mp.workprec(BITS):
            N = 10
            nodes = NodeSet((mpf(0), mpf("1e-3")))
            spec = VandermondeSpec(N, nodes)
            sv = singular_values(spec, bits=BITS)
            V = build_vandermonde(spec, BITS)
            g00 = mp.fsum(abs(V[k][0]) ** 2 for k in range(N + 1))
            g11 = mp.fsum(abs(V[k][1]) ** 2 for k in range(N + 1))
            g01 = mp.fsum((mp.conj(V[k][0]) * V[k][1]
                           for k in range(N + 1)), absolute=False)
            tr, det = g00 + g11, g00 * g11 - abs(g01) ** 2
            disc = mp.sqrt(tr * tr - 4 * det)
            expect = sorted([mp.sqrt((tr + disc) / 2),
                             mp.sqrt((tr - disc) / 2)], reverse=True)
            for a, b in zip(sv.values, expect):
                assert abs(a - b) <= b * mpf(2) ** -(BITS - 24)

    def test_trace_identity(self, rng):
        with mp.workprec(BITS):
            xs = set()
            while len(xs) < 4:
                xs.add(mpf(rng.uniform(-3, 3)))
            spec = VandermondeSpec(25, NodeSet(tuple(sorted(xs))))
            sv = singular_values(spec, bits=BITS)
            total = mp.fsum(v ** 2 for v in sv.values)
            assert abs(total - 4 * 26) <= mpf(2) ** -(BITS - 24) * 4 * 26
            assert sv.values[0] ** 2 <= 26 * 4  # sigma_max^2 <= s(N+1)
            assert sv.min_value ** 2 <= 26 * (1 + mpf(2) ** -(BITS - 24))

    def test_column_augmentation_monotonicity(self, rng):
        # appending a column never increases sigma_min
        with mp.workprec(BITS):
            for _ in range(3):
                xs = sorted(mpf(rng.uniform(-3, 3)) for _ in range(4))
                big = singular_values(
                    VandermondeSpec(30, NodeSet(tuple(xs))), bits=BITS)
                small = singular_values(
                    VandermondeSpec(30, NodeSet(tuple(xs[:3]))), bits=BITS)
                assert big.min_value <= small.min_value * \
                    (1 + mpf(2) ** -(BITS - 24))


def _lambda(nodes, N, spec, bits):
    sv = singular_values(VandermondeSpec(N, nodes), bits)
    with mp.workprec(bits):
        return normalized_lambda(sv.min_value, N, spec.delta, spec.ell)[0]


class TestNormalizedMinSV:
    def test_single_node_closed_form(self):
        with mp.workprec(BITS):
            spec = ClusterSpec(delta="0.5", theta="1", s=1, ell=1, tau=0)
            lam = _lambda(NodeSet((mpf(0),)), 3, spec, BITS)
            expect = 2 / mp.sqrt(3)
            assert abs(lam - expect) <= mpf(2) ** -(BITS - 24)

    def test_precision_doubling_agreement(self):
        spec = ClusterSpec(delta="1e-6", theta="1", s=2, ell=2, tau=1)
        with mp.workprec(256):
            nodes = generate_config(spec, "equispaced", [mpf(0)], seed=3)
        base = required_bits(2, 100, mpf("1e-6"))
        lo = _lambda(nodes, 100, spec, base)
        hi = _lambda(nodes, 100, spec, 2 * base)
        with mp.workprec(2 * base):
            rel = abs(lo - hi) / hi
            assert rel < mpf(10) ** -10

    def test_delta_independence_within_factor_two(self):
        lams = []
        for dtext in ("1e-6", "1e-8"):
            spec = ClusterSpec(delta=dtext, theta="1", s=2, ell=2, tau=1)
            bits = required_bits(2, 100, mpf(dtext))
            with mp.workprec(bits):
                nodes = generate_config(spec, "equispaced", [mpf(0)], seed=3)
            lams.append(_lambda(nodes, 100, spec, bits))
        ratio = lams[0] / lams[1]
        assert mpf("0.5") < ratio < 2

    def test_entire_spectrum_scaling_shape(self):
        # sigma_m >= kappa * sqrt(N) (N delta / 32 pi e)^(m-1): the fitted
        # per-level ratios must stay positive and delta-stable
        N, ell = 100, 3
        ratios_by_delta = []
        for dtext in ("1e-4", "1e-6", "1e-8"):
            delta = mpf(dtext)
            bits = required_bits(ell, N, delta)
            spec = ClusterSpec(delta=dtext, theta="1", s=ell, ell=ell,
                               tau=ell - 1)
            with mp.workprec(bits):
                nodes = generate_config(spec, "equispaced", [mpf(0)], seed=5)
                sv = singular_values(VandermondeSpec(N, nodes), bits)
                c2 = 32 * mp.pi * mp.e
                ratios = [sv.values[m - 1] /
                          (mp.sqrt(N) * (N * delta / c2) ** (m - 1))
                          for m in range(1, ell + 1)]
            assert all(r > 0 for r in ratios)
            ratios_by_delta.append(ratios)
        for m in range(ell):
            per_m = [float(r[m]) for r in ratios_by_delta]
            assert max(per_m) / min(per_m) < 4


class TestProlateLimit:
    def test_single_node_exact_gap(self):
        with mp.workprec(BITS):
            _, out = prolate_limit_check(NodeSet((mpf("0.7"),), LINE),
                                         [5, 20], bits=BITS)
            for N, gap in out:
                expect = mpf(1) / (2 * N)
                assert abs(gap - expect) <= mpf(2) ** -(BITS - 24)

    def test_pair_gap_decreases(self):
        nodes = NodeSet((mpf(0), mpf("0.5")), LINE)
        _, out = prolate_limit_check(nodes, [10, 50, 250], bits=256)
        gaps = [g for _, g in out]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_invalid_n(self):
        with pytest.raises(InvalidParameterError):
            prolate_limit_check(NodeSet((mpf(0),), LINE), [0], bits=BITS)
        with pytest.raises(InvalidParameterError):
            prolate_limit_check(NodeSet((mpf(0),), PERIODIC), [5], bits=BITS)
