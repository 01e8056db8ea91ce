import cmath
import collections
import json
import math
import random
import types
from pathlib import Path

import pytest
from mpmath import mp, mpc, mpf

from conftest import fit_level_constant, level_counts, random_clustered_config
from vandelab import expsums
from vandelab.bounds import count_bands, lower_bound_shape
from vandelab.expsums import check_salem_ratio, l2_norm_exact
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

    @pytest.mark.parametrize("name", sorted(ALL_SUITES))
    def test_records_in_document_key_order(self, name):
        res = ALL_SUITES[name](instances=5, seed=DEFAULT_SUITE_SEED)
        for i, rec in enumerate(res.records):
            assert list(rec) == ["check", "index", "params", "lhs", "rhs",
                                 "holds", "seed"]
            assert (rec["check"], rec["index"], rec["seed"]) == \
                (name, i, DEFAULT_SUITE_SEED)
            assert isinstance(rec["holds"], bool)

    def test_determinism(self):
        a = ALL_SUITES["turan"](instances=10, seed=77)
        b = ALL_SUITES["turan"](instances=10, seed=77)
        assert a.records == b.records
        c = ALL_SUITES["turan"](instances=10, seed=78)
        assert a.records != c.records


class ScriptedRng:
    """Hands out the given uniforms in order and records each range."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = []

    def uniform(self, lo, hi):
        self.calls.append((lo, hi))
        return self.values.pop(0)


G = 2.0 ** -7


class TestRandomExpsumSeparation:
    # the second draw is G = 2^-7 from the first in binary64 and in mp:
    # it is kept when G >= min_sep, else the third draw is
    @staticmethod
    def _draw(min_sep, kept):
        rng = ScriptedRng([1.0, 1.0 + G, -2.0, 0.5, -0.25, 0.75, 0.125])
        P = random_expsum(rng, 2, min_sep=min_sep)
        second, coeffs = (1.0 + G, (-2.0, 0.5, -0.25, 0.75)) if kept else \
            (-2.0, (0.5, -0.25, 0.75, 0.125))
        assert P.freqs == (mpf(1.0), mpf(second))
        assert P.coeffs == (mpc(*coeffs[:2]), mpc(*coeffs[2:]))
        draws = 2 if kept else 3
        assert rng.calls == [(-5.0, 5.0)] * draws + [(-1, 1)] * 4

    @pytest.mark.parametrize("min_sep, kept", [
        (G, True),
        (math.nextafter(G, math.inf), False),
        (math.nextafter(G, 0), True),
    ])
    @pytest.mark.parametrize("bits", [53, DEFAULT_SUITE_BITS])
    def test_gap_at_the_boundary(self, min_sep, kept, bits):
        with mp.workprec(bits):
            self._draw(min_sep, kept)

    @pytest.mark.parametrize("k, kept", [(1, False), (-1, True)])
    def test_gap_below_binary64_resolution(self, k, kept):
        # min_sep = G (1 + k 2^-100) rounds to G in binary64: only the mp
        # comparison decides
        with mp.workprec(DEFAULT_SUITE_BITS):
            self._draw(mp.ldexp(1 + k * mp.ldexp(1, -100), -7), kept)

    def test_gap_against_each_earlier_draw(self):
        # the third draw clears the first but not the second
        with mp.workprec(DEFAULT_SUITE_BITS):
            rng = ScriptedRng([0.0, 1.0, 1.0 - G / 2, -1.0] + [0.5] * 6)
            P = random_expsum(rng, 3, min_sep=G)
        assert P.freqs == (mpf(0), mpf(1), mpf(-1))


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
        assert [r["lhs"] for r in res.records] == want
        assert res.summary["minima"] == want

    def test_exact_evaluations_at_500_instances(self, monkeypatch):
        # the binary64 prescreen decides all but these draws of 500 per
        # separation; a looser bound E sends more to the exact L2 form
        calls = collections.Counter()

        def counting(P, a, b):
            # the window is [0, 4 pi/delta]: count by delta
            calls[round(float(4 * mp.pi / b), 12)] += 1
            return l2_norm_exact(P, a, b)

        monkeypatch.setattr(expsums, "l2_norm_exact", counting)
        run_salem_suite(500, DEFAULT_SUITE_SEED)
        assert calls == {1e-2: 4, 1e-4: 9, 1e-6: 6}


def _moved(v, ulps):
    """v moved by |ulps| ulp toward the sign of ulps."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        v = math.nextafter(v, toward)
    return v


class TestLibmPerturbation:
    # the binary64 decisions of the suites carry margins wider than libm's
    # error: with every cmath.rect, math.sin and math.cos result expsums
    # uses moved by 2 ulp, the 20-instance document is the golden one
    @pytest.mark.parametrize("mode", ["seeded", "upward"])
    def test_suites_document_unchanged(self, mode, monkeypatch):
        rng = random.Random(DEFAULT_SUITE_SEED)
        calls = collections.Counter()

        def ulps():
            return 2 if mode == "upward" else rng.choice((-2, 2))

        def moved(name, f):
            def g(*args):
                calls[name] += 1
                v = f(*args)
                if isinstance(v, complex):
                    return complex(_moved(v.real, ulps()),
                                   _moved(v.imag, ulps()))
                return _moved(v, ulps())
            return g

        libm = types.SimpleNamespace(**{k: getattr(math, k) for k in dir(math)
                                        if not k.startswith("_")})
        libm.sin, libm.cos = moved("sin", math.sin), moved("cos", math.cos)
        monkeypatch.setattr(expsums, "math", libm)
        monkeypatch.setattr(expsums, "rect", moved("rect", cmath.rect))
        doc = [suite(instances=20, seed=DEFAULT_SUITE_SEED).to_json_dict()
               for suite in ALL_SUITES.values()]
        golden = Path(__file__).resolve().parent / "golden"
        want = json.loads((golden / "inequalities_20.json").read_text(
            encoding="utf-8"))
        assert set(calls) == {"rect", "sin", "cos"}
        assert json.loads(json.dumps(doc)) == want


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
