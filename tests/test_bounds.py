import random

import pytest
from mpmath import mp, mpf

from conftest import random_clustered_config
from vandelab.bounds import (
    count_bands,
    evaluate_all,
    lower_bound_shape,
    slepian_constant,
    srf,
    upper_bound_explicit,
)
from vandelab.errors import InvalidParameterError
from vandelab.geometry import ClusterSpec, NodeSet, generate_config
from vandelab.hp import required_bits
from vandelab.matrices import VandermondeSpec
from vandelab.spectra import singular_values

BITS = 192

# scalar-oracle values frozen at 250 bits
LOWER_SHAPE_2_100_1EM4 = "0.000365936447026994754314014177916667951336968258"
UPPER_2_100_1EM4 = "0.116582199079856210168176803108420043819011815"
SQRT_E = "1.6487212707001281468486507878141635716537761"


class TestLowerShape:
    def test_ell_one(self):
        with mp.workprec(BITS):
            assert abs(lower_bound_shape(100, mpf("1e-6"), 1) - 10) \
                <= mpf(2) ** -(BITS - 8)

    def test_frozen_value(self):
        with mp.workprec(BITS):
            got = lower_bound_shape(100, mpf("1e-4"), 2)
            assert abs(got - mpf(LOWER_SHAPE_2_100_1EM4)) < mpf(10) ** -40

    def test_homogeneity_in_delta(self):
        with mp.workprec(BITS):
            for ell in (1, 2, 4):
                a = lower_bound_shape(100, mpf("1e-5"), ell)
                b = lower_bound_shape(100, mpf("2e-5"), ell)
                assert abs(b - a * 2 ** (ell - 1)) <= \
                    a * 2 ** (ell - 1) * mpf(2) ** -(BITS - 16)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            lower_bound_shape(0, mpf(1), 1)
        with pytest.raises(InvalidParameterError):
            lower_bound_shape(10, mpf(0), 1)
        with pytest.raises(InvalidParameterError):
            lower_bound_shape(10, mpf(1), 0)


class TestCountBands:
    def test_values_in_each_band(self):
        values = [mpf(5), mpf(3), mpf(2), mpf("0.5")]
        assert count_bands(values, [mpf(4), mpf(1)]) == [1, 2]

    def test_bands_are_closed_below(self):
        # band m is [t_m, t_{m-1}): a value at t_m counts in band m, and a
        # value at t_{m-1} in band m - 1
        thresholds = [mpf(4), mpf(1)]
        assert count_bands([mpf(1)], thresholds) == [0, 1]
        assert count_bands([mpf(4)], thresholds) == [1, 0]
        assert count_bands([mpf(4), mpf(1), mpf("0.5")], thresholds) == [1, 1]

    @pytest.mark.parametrize("thresholds", [(1, 1), (1, 2), (3, 1, 1)])
    def test_thresholds_must_strictly_decrease(self, thresholds):
        with pytest.raises(InvalidParameterError, match="strictly decrease"):
            count_bands([mpf(1)], [mpf(t) for t in thresholds])


class TestUpperExplicit:
    def test_ell_one_sqrt_e(self):
        with mp.workprec(BITS):
            got = upper_bound_explicit(4, mpf("0.1"), 1, mpf(0))
            assert abs(got - mpf(SQRT_E)) < mpf(10) ** -40

    def test_frozen_value(self):
        with mp.workprec(BITS):
            got = upper_bound_explicit(100, mpf("1e-4"), 2, mpf(1))
            assert abs(got - mpf(UPPER_2_100_1EM4)) < mpf(10) ** -40

    def test_monotone_in_tau(self):
        with mp.workprec(BITS):
            vals = [upper_bound_explicit(100, mpf("1e-4"), 3, mpf(t))
                    for t in (2, 3, 5)]
            assert vals[0] < vals[1] < vals[2]

    def test_tau_precondition(self):
        with pytest.raises(InvalidParameterError):
            upper_bound_explicit(100, mpf("1e-4"), 3, mpf(1))


class TestSlepianConstant:
    def test_small_s_exact(self):
        with mp.workprec(BITS):
            assert slepian_constant(1) == 1
            assert abs(slepian_constant(2) - mpf(1) / 6) <= mpf(2) ** -(BITS - 8)
            assert abs(slepian_constant(3) - mpf(2) / 135) <= mpf(2) ** -(BITS - 8)

    def test_rational_oracle(self):
        # independent evaluation with python integers
        import math

        with mp.workprec(BITS):
            for s in range(1, 8):
                num = 2 ** (2 * s - 2)
                den = (2 * s - 1) * math.comb(2 * s - 2, s - 1) ** 3
                assert abs(slepian_constant(s) - mpf(num) / den) <= \
                    mpf(2) ** -(BITS - 8)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            slepian_constant(0)


class TestSrf:
    def test_above_one_iff_subrayleigh(self):
        with mp.workprec(BITS):
            assert srf(100, mpf("1e-6")) > 1
            assert srf(100, mpf("0.5")) < 1
            assert srf(2, mpf("0.5")) == 1


class TestEvaluateAll:
    def test_single_node_specializations(self):
        with mp.workprec(BITS):
            cluster = ClusterSpec(delta="1e-4", theta="3", s=1, ell=1, tau=0)
            rep = evaluate_all(100, cluster, bits=BITS)
            assert abs(rep.lower_shape - 10) <= mpf(2) ** -(BITS - 16)
            assert abs(rep.upper_explicit - mp.sqrt(100 * mp.e) / 2) \
                <= mpf(2) ** -(BITS - 16)
            assert abs(rep.srf - 100) <= mpf(2) ** -(BITS - 16) * 100

    def test_window_flag(self):
        with mp.workprec(BITS):
            spec = ClusterSpec(delta="1e-6", theta="1", s=2, ell=2, tau=1)
            rep = evaluate_all(100, spec, bits=BITS)
            # N*theta = 100 >= 10*s = 20 and N*tau*delta = 1e-4 <= 2*pi
            assert rep.window_ok
            assert rep.window_reason == "in window"
            assert abs(rep.srf - 10 ** 4) <= 1
            tight = ClusterSpec(delta="1e-6", theta="0.1", s=2, ell=2, tau=1)
            rep2 = evaluate_all(100, tight, bits=BITS)
            assert not rep2.window_ok
            assert "window_floor" in rep2.window_reason

    @pytest.mark.parametrize("side", [-1, 1])
    def test_window_edge_at_two_pi(self, side):
        # N*tau*delta a hair (2^-(BITS-10) relative) below or above 2*pi;
        # N*theta = 100 clears s*window_floor = 20
        with mp.workprec(BITS):
            delta = 2 * mp.pi / 100 * (1 + side * mp.ldexp(1, 10 - BITS))
            spec = ClusterSpec(delta=delta, theta="1", s=2, ell=2, tau=1)
            rep = evaluate_all(100, spec, bits=BITS)
        if side < 0:
            assert rep.window_ok
            assert rep.window_reason == "in window"
        else:
            assert not rep.window_ok
            assert rep.window_reason == \
                "N*tau*delta = 6.283185307179586477 exceeds 2*pi"

    def test_slepian_field(self):
        with mp.workprec(BITS):
            spec = ClusterSpec(delta="1e-3", theta="1", s=2, ell=2, tau=1)
            rep = evaluate_all(100, spec, bits=BITS)
            expect = mpf(1) / 6 * mpf("1e-3") ** 2
            assert abs(rep.slepian_asymptotic - expect) <= \
                expect * mpf(2) ** -(BITS - 16)

    def test_json_fields(self):
        with mp.workprec(BITS):
            spec = ClusterSpec(delta="1e-6", theta="1", s=2, ell=2, tau=1)
            obj = evaluate_all(100, spec,
                               bits=BITS).to_json_dict()
            for key in ("lower_shape", "upper_explicit", "slepian_asymptotic",
                        "srf", "window_ok", "window_reason", "user_c1"):
                assert key in obj


class TestBoundInvariants:
    def test_upper_bound_holds_on_random_window_instances(self):
        # the explicit upper bound has content for ell >= 2; a smaller
        # replica of the acceptance sweep
        rng = random.Random(31415)
        for _ in range(20):
            inst = random_clustered_config(rng)
            bits = required_bits(inst.cluster.ell, inst.N, inst.cluster.delta)
            sv = singular_values(VandermondeSpec(inst.N, inst.nodes), bits)
            with mp.workprec(bits):
                ub = upper_bound_explicit(inst.N, inst.cluster.delta,
                                          inst.cluster.ell, inst.cluster.tau)
                assert sv.min_value <= ub

    def test_bracket_property_with_fitted_offset(self):
        # (ell-1)*log10(1/(16 pi e)) - off <= log10 Lambda <= (ell-1)*log10 tau + off
        rows = []
        for ell in range(2, 7):
            delta = mpf("1e-8")
            bits = required_bits(ell, 100, delta)
            spec = ClusterSpec(delta="1e-8", theta="1", s=ell, ell=ell,
                               tau=max(ell - 1, 1))
            with mp.workprec(bits):
                nodes, _ = generate_config(spec, "equispaced", [mpf(0)], seed=9)
                sv = singular_values(VandermondeSpec(100, nodes), bits)
                lam = sv.min_value / (mp.sqrt(100) * (100 * delta) ** (ell - 1))
                rows.append((ell, float(mp.log10(lam)), float(spec.tau)))
        import math

        lo_slope = -math.log10(float(16 * 3.14159265358979 * 2.71828182845905))
        needed = 0.0
        for ell, log_lam, tau in rows:
            needed = max(needed, (ell - 1) * lo_slope - log_lam)
            needed = max(needed, log_lam - (ell - 1) * math.log10(tau))
        assert needed <= 1.0

    def test_prolate_shape_constant_positive(self):
        from vandelab.matrices import build_prolate
        from vandelab.spectra import hermitian_eigenvalues

        with mp.workprec(256):
            kappas = []
            for s in (2, 3):
                delta = mpf("1e-2")
                nodes = NodeSet(tuple((k - mpf(s - 1) / 2) * delta
                                      for k in range(s)), "line")
                lam = hermitian_eigenvalues(build_prolate(nodes, 256),
                                            256).min_value
                shape = (delta / (16 * mp.pi * mp.e)) ** (2 * (s - 1))
                kappas.append(lam / shape)
            assert all(k > 0 for k in kappas)
