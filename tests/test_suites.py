import collections
import random

import pytest
from mpmath import mp, mpf

from conftest import fit_level_constant, level_counts, random_clustered_config
from vandelab import expsums
from vandelab.bounds import count_bands, lower_bound_shape
from vandelab.expsums import check_salem_ratio
from vandelab.geometry import validate_config
from vandelab.hp import decimal_str, required_bits
from vandelab.matrices import VandermondeSpec
from vandelab.spectra import singular_values
from vandelab.suites import (ALL_SUITES, DEFAULT_SUITE_BITS,
                             DEFAULT_SUITE_SEED, SALEM_SEPARATIONS,
                             random_expsum, run_salem_suite)


class TestInstanceGenerator:
    def test_configs_validate_and_record_multiplicities(self):
        rng = random.Random(4)
        for _ in range(10):
            inst = random_clustered_config(rng)
            part = validate_config(inst.nodes, inst.cluster)
            assert sorted(part.multiplicities) == sorted(inst.multiplicities)
            assert max(part.multiplicities) == inst.cluster.ell
            assert inst.N >= 10 * inst.cluster.s

    def test_distinct_multiplicities_knob(self):
        rng = random.Random(5)
        for _ in range(5):
            inst = random_clustered_config(rng, clusters_range=(2, 3),
                                           require_distinct_mults=True)
            assert len(set(inst.multiplicities)) >= 2


class TestInequalitySuites:
    def test_turan_small(self):
        res = ALL_SUITES["turan"](instances=20, seed=11)
        assert res.all_hold
        assert len(res.records) == 20
        assert mpf(res.summary["min_rhs_over_lhs"]) >= 1

    def test_nikolskii_small(self):
        res = ALL_SUITES["nikolskii"](instances=20, seed=11)
        assert res.all_hold

    def test_cor_turan_small(self):
        res = ALL_SUITES["cor-turan"](instances=20, seed=11)
        assert res.all_hold

    def test_salem_small(self):
        res = ALL_SUITES["salem"](instances=20, seed=11)
        assert res.all_hold
        assert mpf(res.summary["empirical_constant"]) > 0
        assert mpf(res.summary["relative_spread"]) < mpf("0.2")

    def test_riemann_small(self):
        res = ALL_SUITES["riemann"](instances=15, seed=11)
        assert res.all_hold
        assert len(res.records) == 15

    def test_determinism(self):
        a = ALL_SUITES["turan"](instances=10, seed=77)
        b = ALL_SUITES["turan"](instances=10, seed=77)
        assert [r.to_json_dict() for r in a.records] == \
            [r.to_json_dict() for r in b.records]
        c = ALL_SUITES["turan"](instances=10, seed=78)
        assert [r.to_json_dict() for r in a.records] != \
            [r.to_json_dict() for r in c.records]


def salem_draws(seed, instances, delta):
    """run_salem_suite's draws at one separation, by the same rng calls."""
    rng = random.Random(seed)
    for _ in range(instances):
        yield random_expsum(rng, rng.randint(1, 5), freq_range=3.1,
                            min_sep=delta)


class TestSalemMinimum:
    @pytest.mark.parametrize("seed", [20240601, 7, 11])
    def test_minimum_is_the_least_exact_ratio(self, seed):
        # the suite's minimum, to the last printed digit, is the least
        # check_salem_ratio over every draw, each evaluated in full
        instances = 150
        res = run_salem_suite(instances, seed)
        bits = DEFAULT_SUITE_BITS
        with mp.workprec(bits):
            want = []
            for delta_text in SALEM_SEPARATIONS:
                delta = mpf(delta_text)
                lo = min(check_salem_ratio(P, delta)
                         for P in salem_draws(seed, instances, delta))
                want.append(decimal_str(lo, bits))
        assert [r.lhs for r in res.records] == want
        assert res.summary["minima"] == want

    def test_exact_evaluations_at_500_instances(self, monkeypatch):
        # the binary64 prescreen decides all but these draws of 500 per
        # separation; a looser bound E sends more to the exact L2 form
        calls = collections.Counter()

        def counting(P, delta):
            calls[float(delta)] += 1
            return check_salem_ratio(P, delta)

        monkeypatch.setattr(expsums, "check_salem_ratio", counting)
        run_salem_suite(500, DEFAULT_SUITE_SEED)
        assert calls == {1e-2: 4, 1e-4: 9, 1e-6: 6}


class TestLevelCounting:
    def test_band_counts_synthetic(self):
        # levels engineered around thresholds with c1 = 1: two values at
        # the first scaling level, one at each deeper level
        with mp.workprec(192):
            N, delta = 100, mpf("1e-6")
            c2 = 32 * mp.pi * mp.e
            shape = [mp.sqrt(N) * (N * delta / c2) ** m for m in range(3)]
            sigma = (2 * shape[0], mpf("1.5") * shape[0],
                     3 * shape[1], 5 * shape[2])
            q = (2, 1, 1)
            thresholds = [lower_bound_shape(N, delta, m)
                          for m in range(1, len(q) + 1)]
            counts = count_bands(sigma, thresholds)
            assert counts == [2, 1, 1]
            assert thresholds[0] > thresholds[1] > thresholds[2]

    def test_fit_on_real_instances(self):
        rng = random.Random(21)
        data = []
        for _ in range(4):
            inst = random_clustered_config(
                rng, ell_range=(2, 3), clusters_range=(2, 3),
                delta_exp_range=(6.5, 8.5), require_distinct_mults=True)
            part = validate_config(inst.nodes, inst.cluster)
            bits = required_bits(inst.cluster.ell, inst.N, inst.cluster.delta)
            sv = singular_values(VandermondeSpec(inst.N, inst.nodes), bits)
            data.append((sv.values, part.q, inst.N, inst.cluster.delta))
        fit = fit_level_constant(data)
        assert fit.nonempty
        for sigma, q, N, delta in data:
            counts = level_counts(sigma, q, N, delta, fit.c1)
            assert counts == list(q)
