import random
from unittest import mock

import pytest
from mpmath import mp, mpc, mpf

from conftest import (build_vandermonde, dirichlet_ratio, gram_ratio,
                      lq_norm_quadrature, naive_dirichlet, sinc)
from vandelab import expsums
from vandelab.errors import (
    DegenerateInputError,
    InvalidParameterError,
    PrecisionError,
    ResourceLimitError,
)
from vandelab.expsums import (
    ExpSum,
    _float_moduli,
    _grid_max,
    _l2_form,
    bernstein_factor,
    check_cor_turan,
    check_nikolskii,
    check_riemann,
    check_salem_ratio,
    check_turan,
    discrete_norm,
    evaluate,
    l2_norm_exact,
    linf_norm_certified,
    min_salem_ratio,
)
from vandelab.geometry import LINE, PERIODIC, RANDOM, NodeSet, cluster_offsets
from vandelab.matrices import VandermondeSpec, build_prolate
from vandelab.spectra import singular_values
from vandelab.suites import (ALL_SUITES, DEFAULT_SUITE_SEED, _clustered_expsum,
                             random_expsum)

BITS = 192


def random_sum(rng, ell, freq_range=5.0):
    freqs = set()
    while len(freqs) < ell:
        freqs.add(mpf(rng.uniform(-freq_range, freq_range)))
    coeffs = tuple(mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                   for _ in range(ell))
    return ExpSum(coeffs, tuple(sorted(freqs)))


def naive_interval_transform(d, a, b):
    """int_a^b e^(i d t) dt for d != 0 as (e^(i d b) - e^(i d a)) / (i d),
    at doubled precision against its cancellation at small d."""
    with mp.workprec(2 * mp.prec):
        return (mp.expj(d * b) - mp.expj(d * a)) / (mpc(0, 1) * d)


def recurrence_grid_max(P, a, b, samples):
    """Full-grid oracle: every point by the recurrence z_j <- z_j e^(i x_j h)
    at prec + 16 + log2(samples) bits, as _grid_max ran before the float
    prescreen."""
    a = mpf(a)
    h = (mpf(b) - a) / samples
    with mp.workprec(mp.prec + 16 + max(samples, 1).bit_length()):
        steps = [mp.expj(x * h) for x in P.freqs]
        zs = [c * mp.expj(x * a) for c, x in zip(P.coeffs, P.freqs)]
        best = mpf(0)
        for _ in range(samples + 1):
            best = max(best, abs(mp.fsum(zs, absolute=False)))
            zs = [z * st for z, st in zip(zs, steps)]
    return +best


def scaled(P, power):
    return ExpSum(tuple(mpc(mp.ldexp(c.real, power), mp.ldexp(c.imag, power))
                        for c in P.coeffs), P.freqs)


def fine(rng, lo, hi):
    """Uniform in [lo, hi] with BITS random bits: not a binary64 value."""
    return lo + (hi - lo) * mp.ldexp(rng.getrandbits(BITS), -BITS)


def _symmetric_tie(seed, eps, a, h, samples, p):
    """(P, top, second, E, e) when the float pass ranks the larger value
    of a mirrored pair of grid points first by mistake, else None."""
    r = random.Random(seed)
    freqs = tuple(mpf(r.uniform(-6, 6)) for _ in range(4)) + (mpf("0.5"),)
    coeffs = tuple(mpc(r.uniform(-1, 1)) for _ in range(4)) + (mpc(0, eps),)
    P = ExpSum(coeffs, freqs)
    f, E, e = _float_moduli(P, a, h, range(samples + 1), samples, p)
    first = max(f, key=lambda k: (f[k], -k))
    mirror = samples - first
    with mp.workprec(p):
        top, second = (abs(evaluate(P, a + k * h)) for k in (mirror, first))
    if first != mirror and mirror in f and f[first] > f[mirror] \
            and top > second:
        return P, top, second, E, e
    return None


class TestExpSumType:
    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            ExpSum((1, 2), (0,))

    def test_duplicate_frequencies(self):
        with pytest.raises(DegenerateInputError):
            ExpSum((1, 2), (mpf("0.5"), mpf("0.5")))

    def test_degree_counts_nonzero(self):
        P = ExpSum((1, 0, 2), (0, 1, 2))
        assert P.degree == 2


class TestEvaluate:
    def test_constant(self):
        P = ExpSum((mpc(3, 1),), (mpf(0),))
        with mp.workprec(BITS):
            assert evaluate(P, mpf("17.5")) == mpc(3, 1)

    def test_antipodal_cancellation(self):
        with mp.workprec(BITS):
            P = ExpSum((1, -1), (mpf(0), mp.pi))
            assert abs(evaluate(P, 1) - 2) <= mpf(2) ** -(BITS - 16)

    def test_higher_precision_oracle(self, rng):
        with mp.workprec(BITS):
            P = random_sum(rng, 4)
            t = mpf(rng.uniform(0, 10))
            mine = evaluate(P, t)
        with mp.workprec(2 * BITS):
            ref = sum(c * mp.expj(t * x) for c, x in zip(P.coeffs, P.freqs))
            assert abs(mine - ref) <= mpf(2) ** -(BITS - 8) * (abs(ref) + 1)


class TestL2Exact:
    def test_single_unimodular(self, rng):
        with mp.workprec(BITS):
            P = ExpSum((mpc(1),), (mpf("3.7"),))
            for a, b in ((0, 1), (-5, 17), (0, 10000)):
                v = l2_norm_exact(P, mpf(a), mpf(b))
                assert abs(v - 1) <= mpf(2) ** -(BITS - 24)

    def test_antipodal_pair_interval_two(self):
        # E(pi) over [0,2] vanishes, so the norm is sqrt(2)
        with mp.workprec(BITS):
            P = ExpSum((1, 1), (mpf(0), mp.pi))
            v = l2_norm_exact(P, mpf(0), mpf(2))
            assert abs(v - mp.sqrt(2)) <= mpf(2) ** -(BITS - 24)

    def test_quadrature_oracle(self, rng):
        with mp.workprec(BITS):
            for _ in range(5):
                P = random_sum(rng, rng.randint(1, 4))
                a, b = mpf(0), mpf(rng.uniform(0.5, 3.0))
                exact = l2_norm_exact(P, a, b)
                quad = lq_norm_quadrature(P, a, b, 2)
                assert abs(exact - quad) <= mpf(2) ** -(BITS // 2) * (1 + exact)

    def test_unit_interval_is_the_prolate_form(self, rng):
        # int_{-1}^{1} e^(i d t) dt / 2 = sin(d)/d, build_prolate's entry
        with mp.workprec(BITS):
            for ell in (2, 3, 5):
                P = random_sum(rng, ell)
                G = build_prolate(NodeSet(P.freqs, LINE), BITS)
                form = mp.fsum(P.coeffs[j] * mp.conj(P.coeffs[k]) * G[j][k]
                               for j in range(ell) for k in range(ell))
                l2 = l2_norm_exact(P, mpf(-1), mpf(1))
                tol = mpf(2) ** -(BITS - 32) * abs(form)
                assert abs(l2 ** 2 - form) <= tol

    def test_interval_validation(self):
        P = ExpSum((1,), (0,))
        with pytest.raises(InvalidParameterError):
            l2_norm_exact(P, mpf(1), mpf(1))


class TestIntervalTransform:
    """The L2 form's kernel is E(d) = int_a^b e^(i d t) dt: for the two-term
    sums with frequencies (x + d, x), _l2_form is 2w + 2 Re E(d) with
    coefficients (1, 1) and 2w + 2 Im E(d) with (1, i), w = b - a."""

    @staticmethod
    def transform(d, x, a, b):
        w = b - a
        re, im = (_l2_form(ExpSum((1, c), (x + d, x)), a, b) - 2 * w
                  for c in (1, mpc(0, 1)))
        return mpc(re, im) / 2

    def test_matches_naive_formula(self, rng):
        with mp.workprec(2 * BITS):
            for _ in range(10):
                d = mpf(rng.uniform(-20, 20))
                a, b = mpf(rng.uniform(-3, 0)), mpf(rng.uniform(0.1, 5))
                if d == 0:
                    continue
                naive = naive_interval_transform(d, a, b)
                mine = self.transform(d, mpf(rng.uniform(-5, 5)), a, b)
                assert abs(mine - naive) <= mpf(2) ** -(BITS) * (abs(naive) + 1)

    def test_zero_frequency(self):
        with mp.workprec(BITS):
            assert _l2_form(ExpSum((1,), (mpf("0.7"),)), mpf(2), mpf(5)) == 3


def pair_formula(P, m, kernel):
    """(form, mass) summed pair by pair, each kernel value evaluated at the
    ambient precision: the reference for the integer frame."""
    rot = [c * mp.expj(m * x) for c, x in zip(P.coeffs, P.freqs)]
    form = mass = mpf(0)
    for cj, rj, xj in zip(P.coeffs, rot, P.freqs):
        for ck, rk, xk in zip(P.coeffs, rot, P.freqs):
            kv = kernel(xj - xk)
            form += kv * (rj.real * rk.real + rj.imag * rk.imag)
            mass += abs(kv) * abs(cj) * abs(ck)
    return form, mass


def _suite_draws(rng):
    """(family, P, b, N) as the suites draw them, and one tighter cluster:
    [0, b] the L2 interval and N the sample count; salem reaches |x| b ~ 4e7
    and riemann gaps ~1e-6."""
    for _ in range(3):
        yield "turan", random_expsum(rng, rng.randint(2, 5)), \
            mpf(rng.uniform(1, 4)), rng.randint(30, 300)
        yield "nikolskii", random_expsum(rng, rng.randint(2, 5),
                                         freq_range=20.0), mpf(1), 50
    for delta in ("1e-2", "1e-4", "1e-6"):
        delta = mpf(delta)
        P = random_expsum(rng, rng.randint(2, 5), freq_range=3.1,
                          min_sep=delta)
        yield "salem", P, 4 * mp.pi / delta, rng.randint(30, 300)
    for lo, hi in ((2, 5), (3, 6), (6, 6)):
        _, _, P = _clustered_expsum(rng, 5, lo, hi)
        N = rng.randint(50, 300)
        yield "riemann", P, mpf(N), N
    # gaps of 1e-12, tighter than any suite draws: the gap bits of q matter
    nodes = cluster_offsets(4, 4, mpf(3), mpf("1e-12"), RANDOM, rng)
    coeffs = tuple(mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in nodes)
    yield "cluster", ExpSum(coeffs, tuple(nodes)), mpf(200), 200


class TestFormsAgainstPairFormula:
    """_l2_form and discrete_norm against the per-pair formula at 4p
    bits, within 2^-(p-4) of the form's mass."""

    @staticmethod
    def variants(P):
        zero = ExpSum((mpc(0),) + P.coeffs[1:], P.freqs)
        return {"": P, "x2^700": scaled(P, 700), "x2^-700": scaled(P, -700),
                "zero coefficient": zero}

    def test_seeded_suite_draws(self, rng):
        checked = 0
        with mp.workprec(BITS):
            draws = list(_suite_draws(rng))
        for family, base, b, N in draws:
            for name, P in self.variants(base).items():
                for a in (mpf(0), -b / 3):
                    with mp.workprec(BITS):
                        got = _l2_form(P, a, b)
                    with mp.workprec(4 * BITS):
                        w = b - a
                        form, mass = pair_formula(
                            P, (a + b) / 2, lambda d: w * sinc(w * d / 2))
                        assert abs(got - form) <= mp.ldexp(mass, 4 - BITS), \
                            (family, name, a)
                with mp.workprec(BITS):
                    got = discrete_norm(P, N)
                    # the Dirichlet form itself, without discrete_norm's
                    # extra bits
                    bare = expsums._quadratic_form(
                        P, mpf(N + 1) / 2, mpf(N) / 2, PERIODIC, "discrete")
                with mp.workprec(4 * BITS):
                    form, mass = pair_formula(
                        P, mpf(N) / 2, lambda d: dirichlet_ratio(d, N))
                    for value in (got ** 2, bare):
                        assert abs(value - form) <= mp.ldexp(mass, 4 - BITS), \
                            (family, name, N)
                checked += 1
        assert checked == 4 * 13

    def test_frequencies_equal_modulo_two_pi(self):
        # the samples e^(i k x) of x = 0 and x = 2 pi agree, so the norm is
        # (N + 1) |c_1 + c_2|^2; the frame needs their distance modulo 2 pi
        N, c = 40, (mpc("0.6", "-0.2"), mpc("0.3", "0.5"))
        with mp.workprec(4 * BITS):
            P = ExpSum(c, (mpf(0), 2 * mp.pi))
            got = discrete_norm(P, N)
            assert abs(got ** 2 / ((N + 1) * abs(c[0] + c[1]) ** 2) - 1) \
                <= mpf(2) ** -(4 * BITS - 8)
        with mp.workprec(BITS):
            with pytest.raises(PrecisionError, match="modulo 2 pi"):
                discrete_norm(P, N)


class TestDiscreteNorm:
    def test_four_unimodular_samples(self):
        with mp.workprec(BITS):
            P = ExpSum((1,), (mpf("0.9"),))
            v = discrete_norm(P, 3)
            assert abs(v - 2) <= mpf(2) ** -(BITS - 24)

    def test_tiny_gap_inside_the_interval(self):
        # frequencies 0 and 1e-100: the sum norm is sqrt(44) to the last
        # bit, and the difference cancels into rounding dust
        with mp.workprec(64):
            freqs = (mpf(0), mpf("1e-100"))
            assert discrete_norm(ExpSum((1, 1), freqs), 10) == mp.sqrt(44)
            with pytest.raises(PrecisionError, match="rounding dust"):
                discrete_norm(ExpSum((1, -1), freqs), 10)

    def test_matrix_product_oracle(self, rng):
        with mp.workprec(BITS):
            ell, N = 3, 20
            P = random_sum(rng, ell, freq_range=3.0)
            c_norm = mp.sqrt(P.coeff_norm_sq())
            unit = ExpSum(tuple(c / c_norm for c in P.coeffs), P.freqs)
            mine = discrete_norm(unit, N)
            V = build_vandermonde(
                VandermondeSpec(N, NodeSet(P.freqs)), BITS)
            acc = mpf(0)
            for k in range(N + 1):
                row = mp.fsum((V[k][j] * unit.coeffs[j]
                               for j in range(ell)), absolute=False)
                acc += abs(row) ** 2
            assert abs(mine - mp.sqrt(acc)) <= mpf(2) ** -(BITS - 24) * (1 + mine)

    def test_random_unit_vectors_dominate_sigma_min(self, rng):
        with mp.workprec(BITS):
            N = 15
            freqs = tuple(sorted(mpf(rng.uniform(-2, 2)) for _ in range(3)))
            sv = singular_values(VandermondeSpec(N, NodeSet(freqs)), bits=BITS)
            slack = 1 + mpf(2) ** -(BITS - 32)
            for _ in range(64):
                raw = [mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                       for _ in range(3)]
                scale = mp.sqrt(mp.fsum(abs(c) ** 2 for c in raw))
                P = ExpSum(tuple(c / scale for c in raw), freqs)
                assert discrete_norm(P, N) >= sv.min_value / slack

    def test_order_independence(self, rng):
        with mp.workprec(BITS):
            P = random_sum(rng, 4)
            perm = ExpSum(P.coeffs[::-1], P.freqs[::-1])
            a, b = discrete_norm(P, 25), discrete_norm(perm, 25)
            assert abs(a - b) <= mpf(2) ** -(BITS - 8) * (1 + a)

    def test_closed_form_matches_direct_sum_on_cluster(self, rng):
        ell, N = 5, 300
        with mp.workprec(BITS):
            delta = mpf("1e-6")
            freqs = tuple(mpf("0.7") + k * delta * (1 + mpf(rng.random()))
                          for k in range(ell))
            coeffs = tuple(mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                           for _ in range(ell))
            P = ExpSum(coeffs, freqs)
            mine = discrete_norm(P, N)
        with mp.workprec(2 * BITS):
            direct = mp.sqrt(mp.fsum(abs(evaluate(P, k)) ** 2
                                     for k in range(N + 1)))
            assert abs(mine - direct) <= mpf(2) ** -(BITS - 8) * direct

    def test_cancellation_matches_sigma_min_or_raises(self):
        # unit coefficients along the smallest singular vector of a
        # 5-node cluster: the form cancels by ~2^-117 of its term mass
        ell, N, ref_bits = 5, 300, 4 * BITS
        with mp.workprec(ref_bits):
            freqs = tuple(mpf("0.3") + k * mpf("1e-6") for k in range(ell))
            G = naive_dirichlet(VandermondeSpec(N, NodeSet(freqs)),
                                ref_bits, gram_ratio)
            M = mp.matrix(ell, ell)
            for i in range(ell):
                for j in range(ell):
                    M[i, j] = G[i][j]
            lam, Q = mp.eighe(M)
            low = min(range(ell), key=lambda i: lam[i])
            vec = [Q[r, low] for r in range(ell)]
            sigma = mp.sqrt(lam[low])
        raised = []
        for bits in (53, 64, 96, 128, BITS):
            with mp.workprec(bits):
                P = ExpSum(tuple(+c for c in vec), freqs)
                try:
                    got = discrete_norm(P, N)
                except PrecisionError:
                    raised.append(bits)
                    continue
            # a form above 2^16 times its rounding floor has >= 10 good bits
            assert abs(got - sigma) <= sigma * mpf(2) ** -10
            if bits == BITS:
                assert abs(got - sigma) <= sigma * mpf(2) ** -100
        assert raised == [53, 64]


class TestCertifiedSup:
    def test_constant(self):
        with mp.workprec(BITS):
            P = ExpSum((mpc(0, 2),), (mpf(0),))
            cert = linf_norm_certified(P, mpf(0), mpf(1))
            assert cert.lower == cert.upper == 2

    def test_single_unimodular_term(self):
        with mp.workprec(BITS):
            P = ExpSum((1,), (mpf(5),))
            cert = linf_norm_certified(P, mpf(0), mpf(1))
            assert cert.lower == 1 and cert.upper == 1

    def test_encloses_denser_grid(self, rng):
        from vandelab.expsums import _grid_max

        with mp.workprec(BITS):
            for _ in range(3):
                P = random_sum(rng, 3)
                cert = linf_norm_certified(P, mpf(0), mpf(1))
                denser = _grid_max(P, mpf(0), mpf(1), 10 * cert.samples)
                assert cert.lower <= denser * (1 + mpf(2) ** -(BITS - 24))
                assert denser <= cert.upper

    def test_upper_is_lower_over_one_minus_half_hb(self, rng):
        # the enclosure 1/(1 - h B/2), h = 1/samples, B the Bernstein
        # factor: upper is the grid maximum inflated by exactly that
        with mp.workprec(BITS):
            for ell in (2, 3, 5):
                P = random_sum(rng, ell)
                a, b = mpf(0), mpf(rng.uniform(0.5, 2))
                cert = linf_norm_certified(P, a, b)
                B = bernstein_factor(P, a, b)
                h = mpf(1) / cert.samples
                want = cert.lower / (1 - h * B / 2)
                assert abs(cert.upper - want) <= want * mpf(2) ** -(BITS - 8)

    def test_budget(self, rng, monkeypatch):
        monkeypatch.setattr(expsums, "DEFAULT_MAX_SUP_SAMPLES", 10)
        with mp.workprec(BITS):
            P = random_sum(rng, 5)
            with pytest.raises(ResourceLimitError):
                linf_norm_certified(P, mpf(0), mpf(1))


class TestGridMaxPrescreen:
    @pytest.mark.parametrize("chunk", [1 << 14, 7, 45, 1000])
    def test_random_sums_match_full_grid(self, rng, monkeypatch, chunk):
        # chunks of 7, 45 and 1000 points restart the every-8th coarse
        # points off a multiple of 8 and end in a short run
        monkeypatch.setattr(expsums, "_CHUNK", chunk)
        with mp.workprec(BITS):
            for i in range(12):
                P = random_sum(rng, rng.randint(1, 6), freq_range=20.0)
                a = mpf(rng.uniform(-3, 3))
                b = a + mpf(rng.uniform(0.1, 4))
                samples = rng.randint(64, 2000 if i % 4 == 3 else 300)
                assert _grid_max(P, a, b, samples) == \
                    recurrence_grid_max(P, a, b, samples)

    def test_coefficients_scaled_by_powers_of_two(self, rng):
        with mp.workprec(BITS):
            P = random_sum(rng, 4)
            base = _grid_max(P, 0, 1, 128)
            for power in (2000, -2000):
                Q = scaled(P, power)
                got = _grid_max(Q, 0, 1, 128)
                assert got == recurrence_grid_max(Q, 0, 1, 128)
                assert got == mp.ldexp(base, power)

    def test_underflowing_coefficient(self, rng):
        # 2^-1200 relative to the largest part: zero in binary64
        with mp.workprec(BITS):
            P = random_sum(rng, 3)
            Q = ExpSum(P.coeffs[:2] + scaled(P, -1200).coeffs[2:], P.freqs)
            assert _grid_max(Q, 0, 1, 100) == recurrence_grid_max(Q, 0, 1, 100)

    def test_large_phases(self, rng):
        # |x| |b| = 1e7 keeps a useful float phase; 1e17 leaves none, so
        # every grid point becomes a candidate
        with mp.workprec(BITS):
            for width, start in ((1e3, 1e3), (1e9, 1e8)):
                P = random_sum(rng, 3, freq_range=1e4)
                a = mpf(start)
                b = a + width
                assert _grid_max(P, a, b, 80) == recurrence_grid_max(P, a, b, 80)

    def test_near_tie_ranked_second_by_floats(self):
        # real coefficients make |P(-t)| = |P(t)|, and the grid on [-1, 1]
        # is symmetric, so the largest grid values come in tied pairs; a
        # term i*eps*e^(i t/2), far below float resolution, breaks the tie
        samples = 64
        with mp.workprec(BITS):
            a, b = mpf(-1), mpf(1)
            h = (b - a) / samples
            p = BITS + 16 + samples.bit_length()
            P, top, second, E, e = next(
                tie for tie in (_symmetric_tie(seed, eps, a, h, samples, p)
                                for seed in range(50)
                                for eps in ("1e-30", "-1e-30"))
                if tie is not None)
            assert mp.ldexp(top - second, -e) < E
            got = _grid_max(P, a, b, samples)
            assert got == recurrence_grid_max(P, a, b, samples)
            assert got == +top and got > second

    def test_float_moduli_within_stated_bound(self, rng):
        # every third sum has |x| |t| up to ~1e8, where the phase term of
        # E dominates; every third has its coefficients scaled by 2^+-k
        skipped = 0
        with mp.workprec(BITS):
            for i in range(12):
                wide = i % 3 == 2
                P = random_sum(rng, rng.randint(1, 6),
                               freq_range=3e4 if wide else 30.0)
                if i % 3 == 1:
                    P = scaled(P, 700 * (i - 5))
                a = mpf(rng.uniform(-3e3, 3e3) if wide else rng.uniform(-50, 50))
                b = a + mpf(rng.uniform(0.1, 10))
                samples = rng.randint(64, 200)
                skipped += self._check_float_moduli(P, a, b, samples,
                                                    range(samples + 1))
            # past 1000 samples, on ranges of 33 to 159 points that start
            # past 0, as a later chunk after the grid's largest float
            # modulus
            for i in range(6):
                wide = i % 3 == 2
                P = random_sum(rng, rng.randint(2, 6),
                               freq_range=3e4 if wide else 30.0)
                a = mpf(rng.uniform(-3e3, 3e3) if wide else rng.uniform(-50, 50))
                b = a + mpf(rng.uniform(0.1, 10))
                samples = rng.randint(1001, 2000)
                lo = 32 * rng.randint(0, 25) + rng.randint(1, 31)
                hi = lo + 32 * rng.randint(1, 4) + rng.randint(1, 31)
                p = BITS + 16 + samples.bit_length()
                with mock.patch.object(expsums, "_RUN", 1):
                    top = max(_float_moduli(P, a, (b - a) / samples,
                                            range(samples + 1), samples,
                                            p)[0].values())
                skipped += self._check_float_moduli(P, a, b, samples,
                                                    range(lo, hi), top)
        # the runs were tested: some points were skipped
        assert skipped > 100

    def test_run_around_a_sharp_peak_is_evaluated(self):
        # |P(t)| = |sin 2t / sin(t/2)| peaks at 4 at t = 0, 0.3 h before
        # grid point 17 and 7.3 h before its zero at grid point 24, with
        # h = pi/14.6: |P| falls by more than 3.9 from point 16 to 24, over
        # half the run's Lipschitz reach 8 h sum_j |x_j| = 6.89, so only the
        # full reach keeps the largest point (f is |P| scaled by 1/2)
        samples = 32
        with mp.workprec(BITS):
            P = ExpSum((1, 1, 1, 1), tuple(mpf(j) - mpf("1.5")
                                           for j in range(4)))
            h = mp.pi / mpf("14.6")
            a = -mpf("16.7") * h
            b = a + samples * h
            f, E, e = _float_moduli(P, a, h, range(samples + 1), samples,
                                    BITS + 16 + samples.bit_length())
            assert max(f.values()) == f[17] > f[16] > f[24] + 3.9 / 2
            got = _grid_max(P, a, b, samples)
            assert got == recurrence_grid_max(P, a, b, samples)
            assert got == abs(evaluate(P, a + 17 * h))

    def test_float_moduli_constant_term_of_the_bound(self):
        # one term of frequency below 1e-9 on [0, 1]: |P| is the constant
        # |c| and the phase term of E is negligible, so E is nearly
        # (1 + 2^-20) 12u |c|, and the float pass's own roundings of
        # coefficient, cos and sin, product and modulus show.  Seed 53 is
        # the worst of a search over seeds 0-299: 0.199 E, so E with 2u
        # for 12u would be exceeded 1.19 times over
        samples = 2000
        rng = random.Random(53)
        with mp.workprec(BITS):
            c = mpc(fine(rng, -1, 1), fine(rng, -1, 1))
            P = ExpSum((c,), (fine(rng, -1e-9, 1e-9),))
            f, E, e = _float_moduli(P, mpf(0), mpf(1) / samples,
                                    range(samples + 1), samples,
                                    BITS + 16 + samples.bit_length())
            exact = mp.ldexp(abs(c), -e)
        # |P| is flat, so every run reaches the cut and every point is
        # evaluated
        assert len(f) == samples + 1
        worst = max(abs(fk - exact) for fk in f.values())
        assert worst <= E
        assert worst > E / 6

    @staticmethod
    def _check_float_moduli(P, a, b, samples, ks, top=0.0):
        """The number of points the pass skips.  Every point it evaluates
        is the value a pass over every point gives, bit for bit, within E
        of the exact modulus; every point it skips is below the cut by
        more than E, so its float value could not reach it."""
        h = (b - a) / samples
        p = BITS + 16 + samples.bit_length()
        f, E, e = _float_moduli(P, a, h, ks, samples, p, top)
        with mock.patch.object(expsums, "_RUN", 1):
            full, E_full, e_full = _float_moduli(P, a, h, ks, samples, p, top)
        assert (E_full, e_full) == (E, e) and sorted(full) == list(ks)
        assert f.keys() <= full.keys()
        S = mp.fsum(abs(c) for c in P.coeffs)
        assert E < 1e-6 * float(mp.ldexp(S, -e))
        cut = max(top, max(f.values())) - 2 * E
        with mp.workprec(4 * BITS):
            for k in ks:
                exact = mp.ldexp(abs(evaluate(P, a + k * h)), -e)
                assert abs(full[k] - exact) <= E
                if k in f:
                    assert f[k] == full[k]
                else:
                    assert exact + E < cut
        return len(ks) - len(f)

    def test_mp_pass_evaluates_one_point_per_call(self, monkeypatch):
        # E separates the grid maximum from every other point on the first
        # 50 Turan and 50 Nikolskii draws: a looser E would send more
        # points to the mp pass, each about 1000 times a binary64 point
        counts = {"evaluate": 0, "grid_max": 0}

        def counting(name, fn):
            def wrapped(*args):
                counts[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(expsums, "evaluate",
                            counting("evaluate", expsums.evaluate))
        monkeypatch.setattr(expsums, "_grid_max",
                            counting("grid_max", expsums._grid_max))
        for name, calls in (("turan", 82), ("nikolskii", 121)):
            ALL_SUITES[name](instances=50, seed=DEFAULT_SUITE_SEED)
            assert counts == {"evaluate": calls, "grid_max": calls}

    def test_float_pass_points_at_the_suite_seed(self, monkeypatch):
        # the grid points the binary64 pass evaluates on the first 50 Turan
        # and 50 Nikolskii draws: a looser E or a weaker run test would
        # evaluate more of them
        points = [0]

        def counting(*args):
            f, E, e = _float_moduli(*args)
            points[0] += len(f)
            return f, E, e

        monkeypatch.setattr(expsums, "_float_moduli", counting)
        for name, want in (("turan", 6492), ("nikolskii", 9877)):
            ALL_SUITES[name](instances=50, seed=DEFAULT_SUITE_SEED)
            assert points[0] == want


class TestTuran:
    def test_degree_one_equality(self):
        with mp.workprec(BITS):
            P = ExpSum((mpc(2, 1),), (mpf(3),))
            chk = check_turan(P, (mpf(0), mpf(2)), (mpf("0.5"), mpf(1)))
            assert chk.holds
            assert chk.lhs == chk.rhs  # constant modulus, factor 1

    def test_omega_equals_interval(self, rng):
        with mp.workprec(BITS):
            P = random_sum(rng, 3)
            chk = check_turan(P, (mpf(0), mpf(1)), (mpf(0), mpf(1)))
            assert chk.holds  # factor (4e)^(ell-1) >= 1 with equal sups

    def test_random_suite_small(self, rng):
        with mp.workprec(BITS):
            for _ in range(25):
                P = random_sum(rng, rng.randint(1, 5))
                b = mpf(rng.uniform(1, 4))
                w0 = mpf(rng.uniform(0, 0.6)) * b
                w1 = w0 + mpf(rng.uniform(0.1, 0.4)) * b
                assert check_turan(P, (mpf(0), b), (w0, w1)).holds

    def test_interval_validation(self):
        P = ExpSum((1,), (0,))
        with pytest.raises(InvalidParameterError):
            check_turan(P, (mpf(0), mpf(1)), (mpf("0.5"), mpf(2)))


class TestNikolskii:
    def test_degree_one(self):
        with mp.workprec(BITS):
            P = ExpSum((mpc(0, "1.5"),), (mpf(7),))
            chk = check_nikolskii(P)
            assert chk.holds

    def test_one_term_rhs_is_half_pi_times_l2(self):
        # ||P||_inf <= (pi ell / 2) ||P||_2 with ell = 1: P = (3 + 4i)
        # e^(7 i t) has ||P||_2 = 5 on [0, 1], so rhs = 5 pi / 2
        with mp.workprec(BITS):
            chk = check_nikolskii(ExpSum((mpc(3, 4),), (mpf(7),)))
            assert chk.lhs == 5
            assert abs(chk.rhs - 5 * mp.pi / 2) <= mpf(2) ** -(BITS - 8)


def salem_stress_sum(rng, delta):
    """2 to 8 terms whose closest pair is exactly delta apart, half the
    other frequencies within 0.5 of +-3.1, where the float phase
    W (x_j - x_k) loses most, and every part at full precision."""
    ell = rng.randint(2, 8)
    while True:
        x0 = fine(rng, 2.6, 3.1) * rng.choice((1, -1))
        freqs = [x0, x0 - delta if x0 > 0 else x0 + delta]
        while len(freqs) < ell:
            x = (fine(rng, 2.6, 3.1) * rng.choice((1, -1))
                 if rng.random() < 0.5 else fine(rng, -3.1, 3.1))
            if all(abs(x - y) >= 2 * delta for y in freqs):
                freqs.append(x)
        coeffs = [mpc(fine(rng, -1, 1), fine(rng, -1, 1)) for _ in freqs]
        P = ExpSum(tuple(coeffs), tuple(freqs))
        try:
            expsums._require_separated(P, delta)
        except InvalidParameterError:  # the closing arc across +-pi
            continue
        return P


class TestSalem:
    def test_single_term_ratio_one(self):
        with mp.workprec(BITS):
            P = ExpSum((mpc(0, 3),), (mpf("0.5"),))
            ratio = check_salem_ratio(P, mpf("1e-2"))
            assert abs(ratio - 1) <= mpf(2) ** -(BITS - 32)

    def test_two_frequency_closed_form(self, rng):
        # oracle: ratio = 1 + 2 Re[c1 conj(c2) E(x1-x2)] / (mu(I) ||c||^2)
        with mp.workprec(BITS):
            delta = mpf("1e-3")
            c = (mpc("0.4", "-0.3"), mpc("-0.7", "0.2"))
            x = (mpf("0.2"), mpf("0.2") + delta)
            P = ExpSum(c, x)
            ratio = check_salem_ratio(P, delta)
            width = 4 * mp.pi / delta
            cross = c[0] * mp.conj(c[1]) * naive_interval_transform(
                x[0] - x[1], mpf(0), width)
            c2 = abs(c[0]) ** 2 + abs(c[1]) ** 2
            expect = 1 + 2 * cross.real / (width * c2)
            assert abs(ratio - expect) <= mpf(2) ** -(BITS - 32)

    def test_separation_enforced(self):
        with mp.workprec(BITS):
            P = ExpSum((1, 1), (mpf(0), mpf("1e-4")))
            with pytest.raises(InvalidParameterError):
                check_salem_ratio(P, mpf("1e-2"))

    def test_separation_measured_across_pi(self):
        # 3.1 and -3.1 are 2*pi - 6.2 = 0.083 apart across +-pi
        with mp.workprec(BITS):
            P = ExpSum((1, 1), (mpf("3.1"), mpf("-3.1")))
            with pytest.raises(InvalidParameterError, match="frequencies 0,1"):
                check_salem_ratio(P, mpf("0.1"))

    @pytest.mark.parametrize("delta", ["1e-1", "1e-2", "1e-4", "1e-6"])
    def test_float_ratio_within_stated_bound(self, rng, delta):
        # at delta 1e-6 the phase W (x_j - x_k) reaches 8e7 rad and the
        # frequencies' rounding to binary64 moves it by up to 1e-8: the
        # phase term of E dominates; every fourth sum is scaled by 2^+-700
        worst = 0
        with mp.workprec(BITS):
            delta = mpf(delta)
            W = 4 * mp.pi / delta
            for i in range(40):
                P = salem_stress_sum(rng, delta)
                if i % 4 == 3:
                    P = scaled(P, rng.choice((700, -700)))
                r, E = expsums._float_salem(P, W)
                err = abs(r - check_salem_ratio(P, delta))
                assert E < 1e-6 and err <= E, (i, err, E)
                worst = max(worst, err / E)
        # the draws come near enough to E to fail a looser one
        assert worst > 1e-3

    def test_float_ratio_refuses_frequencies_equal_in_binary64(self):
        # 1 and 1 + 2^-60 are one float: the float phase is 0, E infinite
        with mp.workprec(BITS):
            P = ExpSum((1, mpc(0, 1)), (mpf(1), 1 + mp.ldexp(1, -60)))
            assert expsums._float_salem(P, 4 * mp.pi / mp.ldexp(1, -61)) \
                == (1.0, float("inf"))

    def test_minimum_is_exact_in_any_order(self, rng):
        # ascending, the first sum is the minimum and the rest are decided
        # in binary64; descending, every sum is the running minimum
        with mp.workprec(BITS):
            delta = mpf("1e-4")
            sums = [random_expsum(rng, rng.randint(1, 5), freq_range=3.1,
                                  min_sep=delta) for _ in range(30)]
            ratios = [check_salem_ratio(P, delta) for P in sums]
            least = min(ratios)
            order = sorted(range(len(sums)), key=ratios.__getitem__)
            for idx in (order, order[::-1], list(range(len(sums)))):
                got = min_salem_ratio((sums[i] for i in idx), delta)
                assert got == least and got.man == least.man
            assert min_salem_ratio(sums[1:2], delta) == ratios[1]

    def test_minimum_refuses_later_sums_as_check_salem_ratio(self):
        # the bad sums come after one of ratio 1 - 2/(5 pi), and the
        # unseparated one has a float ratio near 2: only the refusals stop
        # them
        with mp.workprec(BITS):
            delta = mpf("1e-2")
            low = ExpSum((1, mpc(0, 1)), (mpf(0), mpf("0.0125")))
            close = ExpSum((1, 1), (mpf(0), mpf("1e-4")))
            zero = ExpSum((0, 0), (mpf(0), mpf(1)))
            lo = check_salem_ratio(low, delta)
            r, E = expsums._float_salem(close, 4 * mp.pi / delta)
            assert lo < 1 and r - E > lo + 1 / 2
            with pytest.raises(InvalidParameterError, match="frequencies 0,1"):
                min_salem_ratio([low, close], delta)
            with pytest.raises(DegenerateInputError, match="all coefficients"):
                min_salem_ratio([low, zero], delta)
            with pytest.raises(InvalidParameterError, match="delta_sep"):
                min_salem_ratio([low], 0)
            with pytest.raises(InvalidParameterError, match="no sums"):
                min_salem_ratio([], delta)


def _boundary_sum(gap, x0=mpf(1)):
    """Three terms whose closest pair, x0 and x0 + gap, is frequencies
    0,1; the third is far from both."""
    return ExpSum((1, mpc(0, 1), 2), (x0, x0 + gap, mpf(-2)))


class TestSeparationBoundary:
    # the closest gap is delta (1 + k 2^-52) for k = -1, 0, 1: one
    # binary64 ulp of delta below, at and above it, and 1 + gap rounds to
    # the same binary64 value in all three, so only the mp gap decides
    REFUSED = "frequencies 0,1 closer than the required separation 0.0078125"

    @pytest.mark.parametrize("k, ok", [(-1, False), (0, True), (1, True)])
    def test_check_salem_ratio(self, k, ok):
        with mp.workprec(BITS):
            delta = mp.ldexp(1, -7)
            P = _boundary_sum(delta * (1 + k * mp.ldexp(1, -52)))
            if ok:
                ratio = check_salem_ratio(P, delta)
                assert ratio == min_salem_ratio([P, P], delta)
                assert abs(ratio - 1) < mp.ldexp(1, -100)
            else:
                for run in (lambda: check_salem_ratio(P, delta),
                            lambda: min_salem_ratio([P], delta),
                            lambda: min_salem_ratio([_boundary_sum(
                                2 * delta), P], delta)):
                    with pytest.raises(InvalidParameterError) as err:
                        run()
                    assert str(err.value) == self.REFUSED

    @pytest.mark.parametrize("k, ok", [(-1, False), (0, True), (1, True)])
    def test_check_cor_turan(self, k, ok):
        with mp.workprec(BITS):
            delta = mp.ldexp(1, -7)
            P = _boundary_sum(delta * (1 + k * mp.ldexp(1, -52)))
            if ok:
                assert check_cor_turan(P, 100, delta).holds
            else:
                with pytest.raises(InvalidParameterError) as err:
                    check_cor_turan(P, 100, delta)
                assert str(err.value) == self.REFUSED

    @pytest.mark.parametrize("k, ok", [(-1, False), (0, True), (1, True)])
    def test_decimal_separation(self, k, ok):
        # delta = 1e-2 at BITS is no binary64 value; the gap from 0 is
        # delta itself, or delta moved by one binary64 ulp of it
        with mp.workprec(BITS):
            delta = mpf("1e-2")
            P = _boundary_sum(delta * (1 + k * mp.ldexp(1, -52)), mpf(0))
            if ok:
                assert check_salem_ratio(P, delta) > 0
            else:
                with pytest.raises(InvalidParameterError) as err:
                    check_salem_ratio(P, delta)
                assert str(err.value) == ("frequencies 0,1 closer than the "
                                          "required separation 0.01")

    @pytest.mark.parametrize("k, ok", [(-1, False), (1, True)])
    def test_wrap_around_pair(self, k, ok):
        # pi - d/2 and -pi + d/2 (1 + k 2^-40) are d (1 + k 2^-41) apart
        # across +-pi and 2 pi - d apart on the line; the third term sits
        # in between
        with mp.workprec(BITS):
            delta = mpf("1e-3")
            half = delta / 2
            far = -mp.pi + half * (1 + k * mp.ldexp(1, -40))
            P = ExpSum((1, mpc(0, 1), 2), (mp.pi - half, far, mpf("0.5")))
            if ok:
                assert check_salem_ratio(P, delta) > 0
                assert check_cor_turan(P, 50, delta).holds
            else:
                for run in (lambda: check_salem_ratio(P, delta),
                            lambda: check_cor_turan(P, 50, delta)):
                    with pytest.raises(InvalidParameterError) as err:
                        run()
                    assert str(err.value) == (
                        "frequencies 0,1 closer than the required "
                        "separation 0.001")

    @pytest.mark.parametrize("delta, ok", [("0.08", True), ("0.09", False)])
    def test_frequency_beyond_pi(self, delta, ok):
        # 3.2 reduces to 3.2 - 2 pi = -3.0832, 0.0832 from -3
        with mp.workprec(BITS):
            P = ExpSum((1, 1), (mpf("-3"), mpf("3.2")))
            if ok:
                assert check_salem_ratio(P, mpf(delta)) > 0
            else:
                with pytest.raises(InvalidParameterError) as err:
                    check_salem_ratio(P, mpf(delta))
                assert str(err.value) == ("frequencies 0,1 closer than the "
                                          "required separation 0.09")


class TestRiemannGap:
    def test_constant_gap_exact(self):
        # T == |c|^2, so the (N+1)/N overcount is the whole gap
        with mp.workprec(BITS):
            c = mpc("0.8", "-0.6")
            P = ExpSum((c,), (mpf("1.3"),))
            chk = check_riemann(P, 50)
            gap = abs(2 * chk.rhs - chk.lhs) / 50
            expect = abs(c) ** 2 / mpf(50)
            assert abs(gap - expect) <= mpf(2) ** -(BITS - 32)
            assert chk.holds

    def test_unresolved_integral_raises(self):
        # |1 - e^(i 1e-8 t)|^2 integrates to 3.33e-17 on [0, 1], below the
        # rounding dust of its terms at 53 bits: no verdict may rest on it
        P = ExpSum((1, -1), (mpf(0), mpf("1e-8")))
        with mp.workprec(53):
            with pytest.raises(PrecisionError):
                check_riemann(P, 1)
        with mp.workprec(300):
            l1 = 2 * check_riemann(P, 1).rhs  # rhs = (N/2) l1 at N = 1
            assert abs(l1 / (mpf("1e-16") / 3) - 1) < mpf("1e-6")

    def test_relation_and_shape_bounded(self, rng):
        with mp.workprec(BITS):
            worst = mpf(0)
            for _ in range(10):
                ell = rng.randint(1, 3)
                delta = mpf(10) ** mpf(-rng.uniform(3, 5))
                freqs = tuple(k * delta for k in range(ell))
                coeffs = tuple(mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                               for _ in range(ell))
                P = ExpSum(coeffs, freqs)
                N = rng.randint(30, 150)
                chk = check_riemann(P, N)
                assert chk.holds
                t_sup = linf_norm_certified(P, 0, N).lower ** 2
                rhs_shape = mpf(P.degree) ** 5 / N * t_sup
                if rhs_shape > 0:
                    gap = abs(2 * chk.rhs - chk.lhs) / N
                    worst = max(worst, gap / rhs_shape)
            # gap <= (B/2 + 1)/N * ||T||_inf with B ~ sqrt(108 w^5); for
            # ell <= 3 that stays within a small multiple of ell^5/N
            assert worst < 8


class TestCorTuran:
    def test_degree_one(self):
        with mp.workprec(BITS):
            P = ExpSum((mpc(1, 2),), (mpf("0.3"),))
            chk = check_cor_turan(P, 100, mpf("1e-2"))
            assert chk.holds  # rhs = (2/pi)*lhs < lhs

    def test_equispaced_pair_direct(self):
        with mp.workprec(BITS):
            delta = mpf("1e-4")
            P = ExpSum((mpc(1), mpc(-1)), (mpf(0), delta))
            chk = check_cor_turan(P, 100, delta)
            assert chk.holds

    def test_equispaced_pair_rhs_written_out(self):
        # P = 1 - e^(i delta t): |P|^2 = 2 - 2 cos(delta t) has mean
        # 2 - 2 sin(delta T)/(delta T) on [0, T], so the normalized
        # ||P||_{L2(0, 4 pi/delta)} is sqrt(2), and with ell = 2 the right
        # side is 2/(2 pi) (N delta/(16 pi e)) sqrt(2)
        with mp.workprec(BITS):
            N, delta = 100, mpf("1e-4")
            chk = check_cor_turan(ExpSum((mpc(1), mpc(-1)), (mpf(0), delta)),
                                  N, delta)
            rhs = 2 / (2 * mp.pi) * (N * delta / (16 * mp.pi * mp.e)) \
                * mp.sqrt(2)
            lhs = mp.sqrt(2 - 2 * mp.sin(delta * N) / (delta * N))
            assert abs(chk.rhs - rhs) <= rhs * mpf(2) ** -(BITS - 16)
            assert abs(chk.lhs - lhs) <= lhs * mpf(2) ** -(BITS - 40)

    def test_window_violation(self):
        with mp.workprec(BITS):
            P = ExpSum((1,), (mpf(0),))
            with pytest.raises(InvalidParameterError):
                check_cor_turan(P, 10 ** 6, mpf("1e-2"))

    def test_random_clustered_small(self, rng):
        with mp.workprec(BITS):
            for _ in range(25):
                ell = rng.randint(1, 4)
                delta = mpf(10) ** mpf(-rng.uniform(2, 4))
                freqs = tuple(k * delta for k in range(ell))
                coeffs = tuple(mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                               for _ in range(ell))
                P = ExpSum(coeffs, freqs)
                assert check_cor_turan(P, 60, delta).holds


class TestSingleClusterNormChain:
    def test_chain_combines_cor_turan_and_salem(self, rng):
        # for unit-coefficient single-cluster sums inside the window,
        # ||P||_{L2(0,N)} >= (2/(pi ell)) (N delta/(16 pi e))^(ell-1)
        # times the square root of the instance's Salem ratio
        with mp.workprec(BITS):
            for _ in range(10):
                ell = rng.randint(2, 4)
                delta = mpf(10) ** mpf(-rng.uniform(3, 5))
                freqs = tuple(k * delta for k in range(ell))
                raw = [mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                       for _ in range(ell)]
                scale = mp.sqrt(mp.fsum(abs(c) ** 2 for c in raw))
                P = ExpSum(tuple(c / scale for c in raw), freqs)
                N = rng.randint(40, 200)
                lhs = l2_norm_exact(P, mpf(0), mpf(N))
                salem = check_salem_ratio(P, delta)
                factor = 2 / (mp.pi * ell) * \
                    (N * delta / (16 * mp.pi * mp.e)) ** (ell - 1)
                assert lhs >= factor * mp.sqrt(salem) * \
                    (1 - mpf(2) ** -(BITS - 32))
