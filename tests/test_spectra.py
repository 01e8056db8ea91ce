import math
import tracemalloc
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from conftest import (
    HEAVY_POINTS,
    build_vandermonde,
    cholesky_rows_reference,
    eighe_eigenvalues,
    gram_ratio,
    jacobi_reference,
    naive_dirichlet,
    random_hermitian,
    random_spd,
    rotated_reference,
    seeded_configs,
    sweep_point,
)
from vandelab import hp
from vandelab.errors import ConvergenceError, InvalidParameterError, PrecisionError
from vandelab.geometry import LINE, PERIODIC, ClusterSpec, NodeSet, generate_config
from vandelab.hp import required_bits
from vandelab.matrices import (
    VandermondeSpec,
    build_dirichlet_kernel,
    build_prolate,
)
from vandelab.spectra import (
    _cholesky_rows,
    _frame_column,
    _rotated,
    _rotation,
    hermitian_eigenvalues,
    lambda_scale,
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
            M = random_spd(rng, 4, BITS)
            eig = hermitian_eigenvalues(M, BITS)
            trace = mp.fsum(M[i][i] for i in range(4))
            total = mp.fsum(eig.values)
            assert abs(total - trace) <= \
                mpf(2) ** -(BITS - 16) * max(1, abs(trace))

    def test_against_eighe_oracle(self, rng):
        with mp.workprec(BITS):
            for n in (2, 5, 8):
                M = random_spd(rng, n, BITS)
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
            ref = eighe_eigenvalues(naive_dirichlet(spec, bits, gram_ratio),
                                    bits)
            for a, b in zip(mine, ref):
                assert b > 0
                assert abs(a - b) / b < mpf(10) ** -30

    def test_diagonal_similarity_invariance(self, rng):
        # conjugating by a diagonal of signs must not move eigenvalues
        with mp.workprec(BITS):
            n = 4
            M = random_spd(rng, n, BITS)
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

    @pytest.mark.parametrize("entry", [mpc(0, 1), mpc(2, 0), 1j, complex(2)])
    def test_refuses_complex_entry_by_name(self, entry):
        # an mpc or Python complex entry, even with no imaginary part
        M = ((mpf(3), entry), (entry, mpf(3)))
        with pytest.raises(InvalidParameterError,
                           match="complex entry in a real eigensolve"):
            hermitian_eigenvalues(M, BITS)

    def test_entries_are_read_at_the_working_precision(self, rng):
        # rows given at 2p bits solve as the same rows rounded to p first
        for n in (1, 3, 6):
            with mp.workprec(2 * BITS):
                wide = tuple(tuple(x * mp.pi for x in row)
                             for row in random_spd(rng, n, 2 * BITS))
            with mp.workprec(BITS):
                narrow = tuple(tuple(+x for x in row) for row in wide)
            assert narrow != wide
            assert hermitian_eigenvalues(wide, BITS) == \
                hermitian_eigenvalues(narrow, BITS)

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
        M = random_spd(rng, 4, BITS)
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
        with pytest.raises(InvalidParameterError, match="empty matrix"):
            hermitian_eigenvalues((), BITS)

    def test_error_bound_formula(self, rng):
        # ((2 n + 3) + 3 (sweeps n (n - 1) / 2 + 1)(isqrt(n) + 9) 2^-24)
        # 2^-p trace(A) + offdiag_residual, with the trace summed here
        for n in (1, 4, 9):
            M = random_spd(rng, n, BITS)
            eig = hermitian_eigenvalues(M, BITS)
            with mp.workprec(BITS):
                trace = mp.fsum(M[i][i] for i in range(n))
                terms = (2 * n + 3) * 2 ** 24 + 3 * (
                    eig.sweeps_used * n * (n - 1) // 2 + 1) * (math.isqrt(n) + 9)
                expect = mp.ldexp(terms * trace, -(BITS + 24)) + \
                    eig.offdiag_residual
            assert eig.error_bound == expect

    def test_s40_sweep_kernel_at_policy_bits(self):
        # n = 40 at 538 bits, solved directly: the two-sided reference is
        # too slow at this size
        eig = hermitian_eigenvalues(*_sweep_kernel(8, 40, "1e-10", 480))
        assert eig.headroom_bits >= hp.GUARD_BITS
        assert eig.sweeps_used <= 6

    def test_dimension_cap(self):
        with pytest.raises(InvalidParameterError):
            hermitian_eigenvalues(identity(257), BITS)

    def test_zero_matrix(self):
        rows = tuple(tuple(mpf(0) for _ in range(3)) for _ in range(3))
        with pytest.raises(PrecisionError,
                           match=f"pivot 1 of 3 is 0.0: .* at {BITS} bits"):
            hermitian_eigenvalues(rows, BITS)

    def test_exactly_singular_block(self):
        # the second Cholesky pivot is exactly 0 and so is its block
        with pytest.raises(PrecisionError,
                           match=f"pivot 2 of 2 is 0.0: .* at {BITS} bits"):
            hermitian_eigenvalues(((1, 1), (1, 1)), BITS)

    def test_indefinite_raises(self, rng):
        with pytest.raises(PrecisionError, match="pivot 2 of 2 .* at 192 bits"):
            hermitian_eigenvalues(((1, 2), (2, 1)), 192)
        for n in (3, 5, 8):
            M = random_hermitian(rng, n, BITS)
            assert eighe_eigenvalues(M, BITS)[-1] < 0
            with pytest.raises(PrecisionError, match=f"at {BITS} bits"):
                hermitian_eigenvalues(M, BITS)


def _unit_diagonal(M, bits):
    """D^-1/2 M D^-1/2, D the diagonal of M: every diagonal entry is 1, so
    every candidate for the first Cholesky pivot ties."""
    n = len(M)
    with mp.workprec(bits):
        return tuple(tuple(mpf(1) if i == j else
                           M[i][j] / mp.sqrt(M[i][i] * M[j][j])
                           for j in range(n)) for i in range(n))


def _assert_within_bound(M, bits):
    """Every eigenvalue lies within the solve's error_bound of the
    two-sided reference at bits + 64."""
    eig = hermitian_eigenvalues(M, bits)
    values, _, _ = jacobi_reference(M, bits + 64)
    with mp.workprec(bits + 64):
        for mine, ref in zip(eig.values, values):
            assert abs(mine - ref) <= eig.error_bound
    return eig


def _sweep_kernel(ell, s, delta, N):
    """(K, bits): the Dirichlet kernel of a sweep point, equispaced."""
    bits, nodes, N = sweep_point(ell, s, delta, N)
    return build_dirichlet_kernel(VandermondeSpec(N, nodes), bits), bits


class TestJacobiBitIdentity:
    """The one-sided solve against jacobi_reference, two-sided cyclic
    Jacobi at p + 64 bits: every value lies within the solve's
    error_bound.  (The name is kept from when the reference was the same
    iteration, bit for bit.)"""

    @pytest.mark.parametrize("bits", [53, 192, 613])
    def test_random_symmetric(self, rng, bits):
        for n in range(1, 9):
            M = random_spd(rng, n, bits)
            _assert_within_bound(M, bits)
            _assert_within_bound(_unit_diagonal(M, bits), bits)

    def test_readme_sweep_kernel(self):
        _assert_within_bound(*_sweep_kernel(6, None, "1e-10", 100))

    # heavy sweep points: n = 12 at 1932 bits, n = 16 at 287 bits and
    # n = 24 at 283 bits, with four nearly equal singular values per level
    @pytest.mark.parametrize("ell, s, delta, N", [
        (12, 12, "1e-25", 144), (4, 16, "1e-10", 192), (4, 24, "1e-10", 288)])
    def test_heavy_sweep_kernel(self, ell, s, delta, N):
        # each converges in 4 sweeps, the final one without a rotation
        assert _assert_within_bound(*_sweep_kernel(ell, s, delta, N)) \
            .sweeps_used <= 4

    def test_prolate_matrix(self):
        with mp.workprec(256):
            nodes = NodeSet(tuple(mpf(x) for x in
                                  ("-0.0015", "-0.0005", "0.0005", "0.0015")),
                            LINE)
        _assert_within_bound(build_prolate(nodes, 256), 256)

    def test_convergence_error(self, rng, monkeypatch):
        # the budget counts every sweep, the final one without a rotation
        # too; a budget that ends on a rotating sweep raises
        M = random_spd(rng, 6, BITS)
        need = hermitian_eigenvalues(M, BITS).sweeps_used
        assert need > 2
        monkeypatch.setattr("vandelab.spectra._sweep_budget", lambda n: need)
        assert hermitian_eigenvalues(M, BITS).sweeps_used == need
        monkeypatch.setattr("vandelab.spectra._sweep_budget",
                            lambda n: need - 1)
        with pytest.raises(ConvergenceError) as err:
            hermitian_eigenvalues(M, BITS)
        assert err.value.sweeps == need - 1
        assert err.value.residual > 0


def _assert_rounded(exact, col, e):
    """col is exact, as Fractions, in units of 2^e, each entry rounded to
    nearest with ties to even."""
    unit = Fraction(2) ** e
    assert len(col) == len(exact)
    for x, m in zip(exact, col):
        err = abs(x - m * unit)
        assert err <= unit / 2
        if err == unit / 2:
            assert m % 2 == 0


class TestIntegerRounding:
    """_rotated, _frame_column and _rotation against exact rationals:
    a rotated entry is the nearest multiple of the unit, ties to even."""

    def test_round_any_integer(self, rng):
        # at c = 1 and s = 0 the first new column is x / 2^k
        for q in (53, 216, 637, 2320):
            for bits in (1, q - 1, q, q + 1, q + 2, 2 * q + 1, 3 * q):
                for _ in range(10):
                    col = [rng.getrandbits(rng.randint(1, bits)) *
                           rng.choice((1, -1))
                           for _ in range(rng.randint(1, 9))]
                    k = rng.randint(1, q + 2)
                    x, y = _rotated(col, [0] * len(col), 1, 0, k)
                    _assert_rounded([Fraction(m) for m in col], x, k)
                    assert y == [0] * len(col)

    def test_rotate_any_integers(self, rng):
        # both new columns are (c x - s y, s x + c y) rounded in units 2^q
        for q in (53, 216, 637, 2320):
            for _ in range(20):
                n = rng.randint(1, 9)
                x, y = ([rng.getrandbits(rng.randint(1, 2 * q)) *
                         rng.choice((1, -1)) for _ in range(n)]
                        for _ in range(2))
                c = rng.randint(0, 1 << q)
                s = rng.randint(-(1 << q), 1 << q)
                x2, y2 = _rotated(x, y, c, s, q)
                _assert_rounded([Fraction(c * u - s * v)
                                 for u, v in zip(x, y)], x2, q)
                _assert_rounded([Fraction(s * u + c * v)
                                 for u, v in zip(x, y)], y2, q)

    def test_ties_and_carry(self):
        # the unit is 2^3: entries +-4, +-12 and +-20 are ties, and
        # 2^(q+3) - 1 carries to 2^q
        q = 53
        col = [(1 << q + 3) - 1, 4, 12, 20, -4, -12, -20, 5, -5]
        assert _rotated(col, [0] * 9, 1, 0, 3)[0] == \
            [1 << q, 0, 2, 2, 0, -2, -2, 1, -1]

    def test_ties_on_the_full_value(self):
        # at c = 2^3 and s = -1 the new columns are x + y / 8 and y - x / 8:
        # 1 + 1/2 goes to 2, where 1 plus the even rounding of 1/2 is 1
        x, y = [1, 1, -1, 3, 4, -4], [4, -4, 4, 12, 1, 2]
        assert _rotated(x, y, 8, -1, 3) == ([2, 0, 0, 4, 4, -4],
                                            [4, -4, 4, 12, 0, 2])

    def test_matches_four_product_form(self, rng):
        # the correction to the identity gives the ints of the four full
        # products: on rotations of _rotation, on ties (c = 2^q and
        # s = +-2^(q-1) halve every odd entry of y), with s < 0 and s = 0
        ties = 0
        for q in (53, 216, 637, 2320):
            for _ in range(30):
                n = rng.randint(1, 8)
                x = [rng.getrandbits(q) * rng.choice((1, -1))
                     for _ in range(n)]
                y = [rng.getrandbits(rng.randint(1, q)) * rng.choice((1, -1))
                     for _ in range(n)]
                a = sum(u * u for u in x)
                b = sum(v * v for v in y)
                d = sum(u * v for u, v in zip(x, y))
                rotations = [(1 << q, 1 << q - 1), (1 << q, -(1 << q - 1)),
                             (rng.randint(0, 1 << q), 0),
                             (rng.randint(0, 1 << q), -rng.randint(1, 1 << q))]
                if d:
                    rotations.append(_rotation(a, b, d, q))
                for c, s in rotations:
                    assert _rotated(x, y, c, s, q) == \
                        rotated_reference(x, y, c, s, q)
                ties += sum(v & 1 for v in y)
        assert ties > 100

    def test_frame_column(self):
        # the first rounding truncates toward zero, so a column that is
        # never rotated carries no more than its Cholesky row
        p = 192
        q = p + 24
        with mp.workprec(p):
            row = [mpf(1) / 3, -mpf(2) / 7, mpf(0), mp.ldexp(1, -q - 40),
                   mp.ldexp(3, -q - 2), mp.ldexp(1, -10 ** 6), mpf(5) / 11,
                   mp.ldexp(1, -q), -mp.ldexp(7, -q - 1)]
            exact = [Fraction(-m if sign else m) * Fraction(2) ** e
                     for sign, m, e, _ in (x._mpf_ for x in row)]
        col = _frame_column([x._mpf_ for x in row], -q)
        assert col == [int(x * 2 ** q) for x in exact]
        assert col[4:6] == [0, 0] and col[7:] == [1, -3]
        assert _frame_column([mpf(0)._mpf_] * 3, -q) == [0, 0, 0]
        # entries that are all multiples of the unit keep their values
        row = [mpf(12)._mpf_, mpf(-3)._mpf_, mpf(0)._mpf_]
        assert _frame_column(row, 0) == [12, -3, 0]
        assert _frame_column(row, -5) == [12 << 5, -3 << 5, 0]

    def test_exponent_gap_allocates_no_large_int(self):
        # aligned exactly, a 10^8-bit gap would take a 12.5 MB int
        with mp.workprec(192):
            row = [(mpf(1) / 3)._mpf_, mp.ldexp(1, -10 ** 8)._mpf_]
        tracemalloc.start()
        try:
            col = _frame_column(row, -216)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert col[1] == 0
        assert peak < 10 ** 5

    def test_rotation(self, rng):
        # c and s are cos and sin of the orthogonalizing angle times 2^q,
        # within a unit; applied exactly, they leave |x.y| <= 2^(2-q)(a + b)
        q = 216
        for _ in range(40):
            n = rng.randint(1, 8)
            x = [rng.getrandbits(q) * rng.choice((1, -1)) for _ in range(n)]
            y = [rng.getrandbits(rng.randint(1, q)) * rng.choice((1, -1))
                 for _ in range(n)]
            a = sum(u * u for u in x)
            b = sum(v * v for v in y)
            d = sum(u * v for u, v in zip(x, y))
            if d == 0:
                continue
            c, s = _rotation(a, b, d, q)
            with mp.workprec(2 * q + 64):
                zeta = mpf(b - a) / (2 * d)
                t = mp.sign(zeta) / (abs(zeta) + mp.sqrt(1 + zeta ** 2)) \
                    if zeta else mpf(1)
                cos = 1 / mp.sqrt(1 + t * t)
                assert abs(c - mp.ldexp(cos, q)) < 2
                assert abs(s - mp.ldexp(t * cos, q)) < 2
                x2 = [(c * u - s * v) for u, v in zip(x, y)]
                y2 = [(s * u + c * v) for u, v in zip(x, y)]
                dot = mpf(sum(u * v for u, v in zip(x2, y2)))
                assert abs(dot) <= mp.ldexp(a + b, q + 2)


def _cholesky_outcomes(rows, p):
    """[_cholesky_rows, cholesky_rows_reference] of rows at p bits, each
    the rows of R as raw values or the text of its PrecisionError."""
    with mp.workprec(p):
        a = [[mpf(x) for x in row] for row in rows]
    outcomes = []
    for cholesky, entry in ((_cholesky_rows, lambda x: x._mpf_),
                            (cholesky_rows_reference, lambda x: x)):
        try:
            r = cholesky([[entry(x) for x in row] for row in a], len(a), p)
        except PrecisionError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append([[getattr(x, "_mpf_", x) for x in row]
                             for row in r])
    return outcomes


class TestCholeskyOracle:
    """The pivoted Cholesky on raw libmp values gives the bits, pivot order
    and refusals of the one on mpf operators."""

    def test_seeded_kernels(self):
        # the Dirichlet and prolate matrices of 300 seeded configs at 64 to
        # 2000 bits, the close clusters among them refused by a pivot
        refused = 0
        for bits, xs, N in seeded_configs():
            for rows in (build_dirichlet_kernel(
                    VandermondeSpec(N, NodeSet(xs, PERIODIC)), bits),
                    build_prolate(NodeSet(xs, LINE), bits)):
                new, ref = _cholesky_outcomes(rows, bits)
                assert new == ref
                refused += isinstance(ref, str)
        assert refused > 10

    @pytest.mark.parametrize("point", HEAVY_POINTS)
    def test_heavy_kernels(self, point):
        new, ref = _cholesky_outcomes(*_sweep_kernel(*point))
        assert not isinstance(ref, str)
        assert new == ref

    @pytest.mark.parametrize("bits", [53, 192, 613])
    def test_pivot_ties(self, rng, bits):
        for n in range(1, 9):
            new, ref = _cholesky_outcomes(
                _unit_diagonal(random_spd(rng, n, bits), bits), bits)
            assert new == ref

    def test_refused_pivots(self, rng):
        # zero, exactly singular and indefinite matrices raise the same
        # text, which names the pivot, its value and the bits
        cases = [((0, 0, 0), (0, 0, 0), (0, 0, 0)), ((1, 1), (1, 1)),
                 ((1, 2), (2, 1)), ((4, 0), (0, mpf("-0.25")))]
        cases += [random_hermitian(rng, n, BITS) for n in (3, 5, 8)]
        for rows in cases:
            new, ref = _cholesky_outcomes(rows, BITS)
            assert isinstance(ref, str) and new == ref


class TestResolution:
    """The solver returns a spectrum only if its smallest eigenvalue
    clears error_bound."""

    #: 2^-32 relative: far beyond a last-bit move of the solver, whose
    #: value of diag(4, tiny) is within 2^-120 of tiny relative, and still
    #: close to each boundary
    NEAR = mpf(2) ** -32

    @staticmethod
    def _bound_at_trace_4():
        # diag(4, tiny) needs one sweep and no rotation, so its bound is
        # (7 + 3 * 2 * 10 * 2^-24) 2^-p trace with trace >= 4
        with mp.workprec(BITS):
            return mp.ldexp((7 << 24) + 60, -(BITS + 24)) * 4

    def test_unresolved_raises(self):
        bound = self._bound_at_trace_4()
        with mp.workprec(BITS):
            tinies = (bound / 4, bound * (1 - self.NEAR))
        for tiny in tinies:
            with pytest.raises(PrecisionError,
                               match=f"does not clear its error bound .* at "
                                     f"{BITS} bits; raise precision"):
                hermitian_eigenvalues(((4, 0), (0, tiny)), BITS)

    def test_resolved_returned(self):
        # just above error_bound, and just on each side of 2^10 times it
        with mp.workprec(BITS):
            bound = self._bound_at_trace_4()
            for tiny, headroom in ((bound * (1 + self.NEAR), 0),
                                   (bound * 1024 * (1 - self.NEAR), 9),
                                   (bound * 1024 * (1 + self.NEAR), 10)):
                eig = hermitian_eigenvalues(((4, 0), (0, tiny)), BITS)
                assert eig.values[0] == 4
                assert abs(eig.min_value - tiny) <= eig.error_bound \
                    < eig.min_value
                assert eig.headroom_bits == headroom

    def test_genuinely_negative_raises(self):
        with pytest.raises(PrecisionError, match="pivot 2 of 2 is -0.25"):
            hermitian_eigenvalues(((4, 0), (0, mpf("-0.25"))), BITS)


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
        return normalized_lambda(
            sv.min_value, lambda_scale(N, spec.delta, spec.ell))[0]


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
            nodes, _ = generate_config(spec, "equispaced", [mpf(0)], seed=3)
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
                nodes, _ = generate_config(spec, "equispaced", [mpf(0)], seed=3)
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
                nodes, _ = generate_config(spec, "equispaced", [mpf(0)], seed=5)
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
            _, out, _ = prolate_limit_check(NodeSet((mpf("0.7"),), LINE),
                                            [5, 20], bits=BITS)
            for N, gap in out:
                expect = mpf(1) / (2 * N)
                assert abs(gap - expect) <= mpf(2) ** -(BITS - 24)

    def test_pair_gap_decreases(self):
        nodes = NodeSet((mpf(0), mpf("0.5")), LINE)
        _, out, _ = prolate_limit_check(nodes, [10, 50, 250], bits=256)
        gaps = [g for _, g in out]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_invalid_n(self):
        with pytest.raises(InvalidParameterError):
            prolate_limit_check(NodeSet((mpf(0),), LINE), [0], bits=BITS)
        with pytest.raises(InvalidParameterError):
            prolate_limit_check(NodeSet((mpf(0),), PERIODIC), [5], bits=BITS)
