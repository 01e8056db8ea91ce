import itertools
import random

import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_int, from_man_exp, mpf_div, round_nearest

from conftest import (
    HEAVY_POINTS,
    build_shifted_vandermonde,
    build_vandermonde,
    dirichlet_ratio,
    gram_entry_direct,
    gram_ratio,
    kernel_matrix_reference,
    naive_dirichlet,
    random_periodic_nodes,
    seeded_configs,
    sinc,
    sweep_point,
)
from vandelab.errors import InvalidParameterError, PrecisionError
from vandelab.geometry import LINE, PERIODIC, NodeSet
from vandelab.matrices import (
    _KERNEL_GUARD_BITS,
    VandermondeSpec,
    _dirichlet_guard,
    _quotient,
    build_dirichlet_kernel,
    build_gram_closed_form,
    build_prolate,
)
from vandelab.spectra import hermitian_eigenvalues

BITS = 192

# sin(0.1)/0.1 frozen from the scalar oracle at 250 bits
SINC_TENTH = "0.99833416646828152306814198410622026989915388"


class TestVandermonde:
    def test_k_zero_row_of_ones(self):
        with mp.workprec(BITS):
            V = build_vandermonde(VandermondeSpec(0, NodeSet((mpf("0.3"),))))
            assert len(V) == 1 and len(V[0]) == 1
            assert V[0][0] == 1

    def test_antipodal_pair(self):
        with mp.workprec(BITS):
            V = build_vandermonde(VandermondeSpec(1, NodeSet((mpf(0), mp.pi))))
            tol = mpf(2) ** -(BITS - 8)
            assert V[0][0] == 1 and V[0][1] == 1
            assert abs(V[1][0] - 1) <= tol
            assert abs(V[1][1] + 1) <= tol

    def test_quarter_turn_column(self):
        with mp.workprec(BITS):
            V = build_vandermonde(VandermondeSpec(2, NodeSet((mp.pi / 2,))))
            tol = mpf(2) ** -(BITS - 8)
            assert abs(V[0][0] - 1) <= tol
            assert abs(V[1][0] - mpc(0, 1)) <= tol
            assert abs(V[2][0] + 1) <= tol

    def test_unimodular_entries(self, rng):
        with mp.workprec(BITS):
            nodes = random_periodic_nodes(rng, 4)
            V = build_vandermonde(VandermondeSpec(30, nodes), BITS)
            tol = mpf(2) ** -(BITS - 16)
            for k in range(len(V)):
                for j in range(len(V[0])):
                    assert abs(abs(V[k][j]) - 1) <= tol

    def test_shape_precondition(self):
        with mp.workprec(BITS):
            nodes = NodeSet((mpf(0), mpf(1), mpf(2)))
            with pytest.raises(InvalidParameterError):
                VandermondeSpec(1, nodes)
            with pytest.raises(InvalidParameterError):
                VandermondeSpec(5, NodeSet((mpf(0),), LINE))


class TestGramClosedForm:
    def test_diagonal_exactly_n_plus_one(self, rng):
        with mp.workprec(BITS):
            nodes = random_periodic_nodes(rng, 5)
            G = build_gram_closed_form(VandermondeSpec(37, nodes), BITS)
            for j in range(5):
                assert G[j][j] == 38

    def test_orthogonal_columns(self):
        with mp.workprec(BITS):
            G = build_gram_closed_form(
                VandermondeSpec(1, NodeSet((mpf(0), mp.pi))), BITS)
            assert abs(G[0][1]) <= mpf(2) ** -(BITS - 16)

    def test_hermitian_by_construction(self, rng):
        with mp.workprec(BITS):
            nodes = random_periodic_nodes(rng, 4)
            G = build_gram_closed_form(VandermondeSpec(20, nodes), BITS)
            for j in range(4):
                for k in range(4):
                    assert G[j][k] == mp.conj(G[k][j])

    def test_against_direct_summation_oracle(self, rng):
        with mp.workprec(BITS):
            tol = mpf(2) ** -(BITS - 16)
            for _ in range(10):
                s = rng.randint(2, 4)
                N = rng.randint(1, 50)
                nodes = random_periodic_nodes(rng, s)
                G = build_gram_closed_form(VandermondeSpec(N, nodes), BITS)
                for j in range(s):
                    for m in range(s):
                        direct = gram_entry_direct(
                            nodes.nodes[m] - nodes.nodes[j], N, BITS)
                        ref = max(abs(direct), mpf(N + 1) * tol)
                        assert abs(G[j][m] - direct) <= tol * ref

    def test_equals_vhv(self, rng):
        # invariant: closed form == V^H V entrywise
        with mp.workprec(BITS):
            for _ in range(5):
                s = rng.randint(2, 5)
                N = rng.randint(s, 60)
                nodes = random_periodic_nodes(rng, s)
                spec = VandermondeSpec(N, nodes)
                V = build_vandermonde(spec, BITS)
                G = build_gram_closed_form(spec, BITS)
                tol = mpf(2) ** -(BITS - 16)
                for j in range(s):
                    for m in range(s):
                        acc = mp.fsum(
                            (mp.conj(V[k][j]) * V[k][m]
                             for k in range(N + 1)), absolute=False)
                        ref = max(abs(acc), mpf(N + 1) * tol)
                        assert abs(G[j][m] - acc) <= tol * ref


class TestProlate:
    def test_singleton(self):
        with mp.workprec(BITS):
            G = build_prolate(NodeSet((mpf("2.5"),), LINE), BITS)
            assert len(G) == 1 and G[0][0] == 1

    def test_pair_entry_frozen(self):
        with mp.workprec(BITS):
            G = build_prolate(NodeSet((mpf(0), mpf("0.1")), LINE), BITS)
            assert abs(G[0][1] - mpf(SINC_TENTH)) < mpf(10) ** -40
            assert G[0][0] == 1 and G[1][1] == 1

    def test_symmetry(self, rng):
        with mp.workprec(BITS):
            xs = sorted(mpf(rng.uniform(-5, 5)) for _ in range(5))
            G = build_prolate(NodeSet(tuple(xs), LINE), BITS)
            for j in range(5):
                for k in range(5):
                    assert G[j][k] == G[k][j]

    def test_positive_definite(self, rng):
        from vandelab.spectra import hermitian_eigenvalues

        with mp.workprec(BITS):
            xs = sorted(mpf(rng.uniform(-4, 4)) for _ in range(4))
            G = build_prolate(NodeSet(tuple(xs), LINE), BITS)
            eig = hermitian_eigenvalues(G, BITS)
            assert all(v > 0 for v in eig.values)

    def test_domain_check(self):
        with pytest.raises(InvalidParameterError):
            build_prolate(NodeSet((mpf(0), mpf(1)), PERIODIC), BITS)


def _raw(rows):
    return [[getattr(v, "_mpc_", None) or v._mpf_ for v in r] for r in rows]


def _heavy_points():
    """(bits, xs, N) of two heavy sweep points: s = 24 at N = 288, and
    s = 12 at N = 144 and delta 1e-25."""
    for point in ((6, 24, "1e-10", 288), (12, 12, "1e-25", 144)):
        bits, nodes, N = sweep_point(*point)
        yield bits, nodes.nodes, N


class TestOneAssembler:
    def test_builders_bitwise_equal_naive_entries(self):
        # the Dirichlet kernel from per-node phases is bit for bit the
        # ratio of two sines per pair, rounded once
        for bits, xs, N in itertools.chain(seeded_configs(), _heavy_points()):
            spec = VandermondeSpec(N, NodeSet(xs, PERIODIC))
            assert _raw(build_dirichlet_kernel(spec, bits)) == _raw(
                naive_dirichlet(spec, bits, dirichlet_ratio))
            assert _raw(build_gram_closed_form(spec, bits)) == _raw(
                naive_dirichlet(spec, bits, gram_ratio))

    def test_prolate_entries_correctly_rounded(self):
        # each entry within (1/2 + 2^-16) ulp of sin(d)/d at 4p bits, ulp
        # that of the reference at bits; the diagonal is 1
        entries, worst = 0, mpf(0)
        for bits, xs, _ in seeded_configs():
            G = build_prolate(NodeSet(xs, LINE), bits)
            s = len(xs)
            with mp.workprec(4 * bits):
                for j in range(s):
                    assert G[j][j] == 1
                    for k in range(j + 1, s):
                        assert G[j][k]._mpf_ == G[k][j]._mpf_
                        ref = sinc(xs[k] - xs[j])
                        ulps = abs(G[j][k] - ref) / mp.ldexp(1, mp.mag(ref) - bits)
                        worst = max(worst, ulps)
                        entries += 1
        assert entries > 1900
        assert worst <= mpf(1) / 2 + mpf(2) ** -16, worst

    def test_close_prolate_nodes_left_to_the_solver(self):
        # below 2^-(bits/2) apart lambda_min <= 1 - sinc(d) < 2^-bits / 6:
        # the entries are built and the solve refuses them
        for xs in ((mpf(1), mpf(2) ** -100, mpf(0), 3 * mpf(2) ** -100),
                   (mpf(0), mpf(2) ** -97)):
            P = build_prolate(NodeSet(xs, LINE), BITS)
            with pytest.raises(PrecisionError):
                hermitian_eigenvalues(P, BITS)
        # 2^-90 apart, lambda_min = 1 - sinc(d) ~ 2^-182.6 is resolved
        d = mpf(2) ** -90
        got = hermitian_eigenvalues(build_prolate(NodeSet((0, d), LINE), BITS),
                                    BITS).min_value
        with mp.workprec(2 * BITS):
            assert abs(got / (1 - sinc(d)) - 1) < mpf(2) ** -4


class TestKernelRounding:
    def test_entries_equal_unstripped_quotients(self):
        # each entry, rounded from num and den by one integer division,
        # is the correctly rounded quotient of the unstripped ints
        for point in HEAVY_POINTS:
            bits, nodes, N = sweep_point(*point)
            assert _raw(build_dirichlet_kernel(VandermondeSpec(N, nodes), bits)) \
                == kernel_matrix_reference(nodes.nodes, mpf(N + 1) / 2, PERIODIC,
                                           bits, _dirichlet_guard(N), mpf(N + 1))
        for bits, xs, _ in seeded_configs():
            assert _raw(build_prolate(NodeSet(xs, LINE), bits)) == \
                kernel_matrix_reference(xs, mpf(1), LINE, bits,
                                        _KERNEL_GUARD_BITS, mpf(1), shift=-1)


    @pytest.mark.parametrize("bits", [53, 192, 613])
    def test_one_division_rounds_as_mpf_div(self, bits):
        # exact quotients, ties to even either way, remainders just off a
        # tie, both signs and random sizes: the bits of mpf_div
        half = 1 << bits - 1
        cases = [(0, 7), (1, 3), (-1, 3), (1, -3), (-6, -3), (1 << 500, 1)]
        for m in (half, half + 1):  # (2m + 1) / 2 is a tie between m, m + 1
            cases += [(2 * m + 1, 2), (-(2 * m + 1), 2), (6 * m + 3, 6),
                      (6 * m + 2, 6), (6 * m + 4, -6)]
        rng = random.Random(bits)
        for _ in range(300):
            num = rng.getrandbits(rng.randint(1, 3 * bits)) * rng.choice((-1, 1))
            cases.append((num, rng.getrandbits(rng.randint(1, 2 * bits)) | 1))
        for num, den in cases:
            for exp in (-bits, 0, 7):
                assert _quotient(num, den, exp, bits) == mpf_div(
                    from_man_exp(num, exp), from_int(den), bits,
                    round_nearest), (num, den, exp)


class TestPeriodicGapRule:
    def test_tiny_difference_inside_the_interval(self):
        # 0 and 1e-100 differ by one rounding at any size: every entry of
        # the 64-bit kernel is N + 1 = 11
        K = build_dirichlet_kernel(
            VandermondeSpec(10, NodeSet((mpf(0), mpf("1e-100")))), 64)
        assert all(v == 11 for row in K for v in row)

    def test_tiny_closing_arc_raises(self):
        # nodes built at 4p bits 2^-120 from either side of +-pi: the
        # closing arc carries the absolute error of 2 pi at p + 64 bits
        p = 64
        with mp.workprec(4 * p):
            nodes = NodeSet((-mp.pi + mpf(2) ** -121, mp.pi - mpf(2) ** -121))
        with pytest.raises(PrecisionError, match="modulo 2 pi"):
            build_dirichlet_kernel(VandermondeSpec(10, nodes), p)


class TestShiftedVandermonde:
    def test_single_column_norm(self):
        with mp.workprec(BITS):
            N = 7
            M = build_shifted_vandermonde(NodeSet((mpf("1.3"),), LINE), N, BITS)
            assert len(M) == 2 * N + 1
            norm_sq = mp.fsum(abs(M[k][0]) ** 2 for k in range(len(M)))
            expect = mpf(2 * N + 1) / (2 * N)
            assert abs(norm_sq - expect) <= mpf(2) ** -(BITS - 24)

    def test_factorization_into_plain_vandermonde(self, rng):
        # entrywise: Vtilde = V_2N(x/N) * diag(e^{-i N x_j / N}) / sqrt(2N)
        with mp.workprec(BITS):
            N = 9
            xs = tuple(sorted(mpf(rng.uniform(-3, 3)) for _ in range(3)))
            line = NodeSet(xs, LINE)
            M = build_shifted_vandermonde(line, N, BITS)
            xi = NodeSet(tuple(x / N for x in xs), PERIODIC)
            V = build_vandermonde(VandermondeSpec(2 * N, xi), BITS)
            scale = 1 / mp.sqrt(2 * N)
            tol = mpf(2) ** -(BITS - 24)
            for j, x in enumerate(xs):
                phase = mp.expj(-N * (x / N))
                for k in range(2 * N + 1):
                    expect = scale * V[k][j] * phase
                    assert abs(M[k][j] - expect) <= tol

    def test_gram_approaches_prolate_entry(self):
        # refinement in N: the Gram off-diagonal of Vtilde approaches the
        # sinc entry monotonically for this pair
        with mp.workprec(BITS):
            xs = NodeSet((mpf(0), mpf("0.1")), LINE)
            target = mp.sin(mpf("0.1")) / mpf("0.1")
            gaps = []
            for N in (10, 100, 1000):
                M = build_shifted_vandermonde(xs, N, BITS)
                acc = mp.fsum((mp.conj(M[k][0]) * M[k][1]
                               for k in range(len(M))), absolute=False)
                gaps.append(abs(acc - target))
            assert gaps[0] > gaps[1] > gaps[2]

    def test_out_of_range_scaled_node(self):
        with mp.workprec(BITS):
            with pytest.raises(InvalidParameterError):
                build_shifted_vandermonde(NodeSet((mpf(100),), LINE), 2, BITS)
