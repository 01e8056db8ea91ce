import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from conftest import (validate_config_reference, wrap_distance_reference,
                      wrap_to_interval_reference)
from vandelab.errors import (
    ConfigValidationError,
    DegenerateInputError,
    InvalidParameterError,
    VandelabError,
)
from vandelab.geometry import (
    EQUISPACED,
    LINE,
    PERIODIC,
    RANDOM,
    ClusterSpec,
    NodeSet,
    PartitionResult,
    _distance_slack,
    assign_multiplicities,
    default_centers,
    generate_config,
    scale_to_circle,
    sorted_gaps,
    validate_config,
    wrap_distance,
    wrap_to_interval,
)

# frozen by direct evaluation of |6 mod (-pi, pi]| with the mpmath
# scalar calculator at 250 bits
TWO_PI_MINUS_SIX = "0.283185307179586476925286766559005768394338799"


class TestWrapDistance:
    def test_identity(self):
        assert wrap_distance(0, 0) == 0

    def test_two_pi_periodicity(self):
        with mp.workprec(192):
            assert wrap_distance(mp.pi, -mp.pi) < mpf(2) ** -180

    def test_frozen_value(self):
        with mp.workprec(192):
            assert abs(wrap_distance(3, -3) - mpf(TWO_PI_MINUS_SIX)) \
                < mpf(10) ** -44

    def test_tiny_distance_stays_exact(self):
        # the reduction must not route tiny gaps through 2*pi
        with mp.workprec(192):
            d = mpf("1e-25")
            assert wrap_distance(d / 2, -d / 2) == d

    @given(x=st.floats(-50, 50), y=st.floats(-50, 50), z=st.floats(-50, 50),
           k=st.integers(-3, 3))
    @settings(max_examples=120, deadline=None)
    def test_metric_properties(self, x, y, z, k):
        with mp.workprec(128):
            dxy = wrap_distance(x, y)
            assert dxy == wrap_distance(y, x)
            assert 0 <= dxy <= mp.pi
            slack = mpf(2) ** -(mp.prec - 8)
            assert dxy <= wrap_distance(x, z) + wrap_distance(z, y) + slack
            shifted = wrap_distance(x + 2 * mp.pi * k, y)
            assert abs(dxy - shifted) <= slack * (1 + abs(mpf(x)) + abs(mpf(y)))

    def test_never_above_pi_near_odd_multiples_of_pi(self):
        # a difference a few ulps inside an odd multiple of pi once reduced
        # to just below -pi and came back as pi + 6.4e-58
        with mp.workprec(192):
            x = mpf("-0.75")
            assert wrap_distance(x, x - mp.pi + mpf(2) ** -190) <= mp.pi
        rng = random.Random(20261018)
        for bits in (64, 192, 600):
            with mp.workprec(bits):
                for _ in range(500):
                    x = mpf(rng.uniform(-3, 3))
                    y = x + rng.choice((-3, -1, 1, 3)) * mp.pi + \
                        rng.randint(-8, 8) * mp.ldexp(1, 2 - bits)
                    assert wrap_distance(x, y) <= mp.pi
                    assert wrap_distance(y, x) <= mp.pi

    def test_agrees_with_the_first_reduction_away_from_pi(self):
        # the one reduction moves a distance only within 2^-(p-12) of pi
        rng = random.Random(7)
        moved = 0
        for bits in (64, 192, 600):
            with mp.workprec(bits):
                near = mp.ldexp(1, 12 - bits)
                for _ in range(1000):
                    x = mpf(rng.uniform(-10, 10))
                    if rng.random() < 0.5:  # a few ulps from an odd multiple
                        y = x + rng.choice((-3, -1, 1, 3)) * mp.pi + \
                            rng.randint(-8, 8) * mp.ldexp(1, 2 - bits)
                    else:
                        y = mpf(rng.uniform(-10, 10))
                    new, old = wrap_distance(x, y), wrap_distance_reference(x, y)
                    if new != old:
                        moved += 1
                        assert abs(new - mp.pi) <= near
                        assert abs(old - mp.pi) <= near
        assert 0 < moved < 300

    def test_wrap_to_interval(self):
        with mp.workprec(128):
            assert wrap_to_interval(mp.pi) == mp.pi
            assert wrap_to_interval(-mp.pi) == mp.pi
            # near the boundary either representative may come back;
            # what matters is the angle and the half-open range
            for x in (3 * mp.pi, -3 * mp.pi, 7 * mp.pi):
                r = wrap_to_interval(x)
                assert -mp.pi < r <= mp.pi
                assert wrap_distance(r, mp.pi) < mpf(2) ** -100
            x = mpf("0.7")
            assert abs(wrap_to_interval(x + 4 * mp.pi) - x) < mpf(2) ** -100

    @pytest.mark.parametrize("bits", [64, 192])
    @pytest.mark.parametrize("x", ["1e30", "-1e30", 2 ** 200])
    def test_huge_angles_reduce_into_range(self, bits, x):
        # an ulp of 1e30 at 64 bits exceeds 2*pi: one reduction gave -6.87e10
        with mp.workprec(bits):
            x = mpf(x)
            r = wrap_to_interval(x)
            assert -mp.pi < r <= mp.pi
            assert wrap_distance(x, 0) <= mp.pi
        with mp.workprec(2000):
            ref = wrap_to_interval(x)
        with mp.workprec(bits):
            assert r == +ref


#: precisions in an order that changes the precision between any two calls
_PI_PRECISIONS = (53, 613, 192, 2000)


def _pi_cases():
    """(name, x) at the ambient precision p: +-pi rounded at p, one ulp
    either side of each, and points reduced from outside."""
    pi = +mp.pi
    ulp = mp.ldexp(1, mp.mag(pi) - mp.prec)
    return [("pi", pi), ("pi-ulp", pi - ulp), ("pi+ulp", pi + ulp),
            ("-pi", -pi), ("-pi-ulp", -pi - ulp), ("-pi+ulp", -pi + ulp),
            ("3pi", 3 * pi), ("-7pi/2", -7 * pi / 2), ("2^20", mpf(2) ** 20)]


class TestWrapMatchesPiAtEachUse:
    """wrap_to_interval gives the bits of its earlier form, which
    evaluated mp.pi at each comparison, whatever precision ran before."""

    @pytest.mark.parametrize("case", range(9))
    def test_alternating_precisions(self, case):
        for bits in _PI_PRECISIONS * 2:
            with mp.workprec(bits):
                name, x = _pi_cases()[case]
                got, want = wrap_to_interval(x), wrap_to_interval_reference(x)
                assert got._mpf_ == want._mpf_, (name, bits)
                if -mp.pi < x <= mp.pi:
                    assert got is x, (name, bits)

    def test_in_range_input_is_returned_as_it_is(self):
        for bits in _PI_PRECISIONS:
            with mp.workprec(bits):
                for name, x in _pi_cases():
                    if name in ("pi", "pi-ulp", "-pi+ulp"):
                        assert wrap_to_interval(x) is x, (name, bits)
                    else:
                        assert wrap_to_interval(x) is not x, (name, bits)

    @pytest.mark.parametrize("bits", _PI_PRECISIONS)
    def test_inside_a_raised_workprec(self, bits):
        # inputs rounded at bits, reduced at 2 bits + 1, and again at bits
        with mp.workprec(bits):
            cases = _pi_cases()
        for raised in (2 * bits + 1, bits):
            with mp.workprec(raised):
                for name, x in cases:
                    got = wrap_to_interval(x)
                    assert got._mpf_ == wrap_to_interval_reference(x)._mpf_, \
                        (name, bits, raised)
                    assert -mp.pi < got <= mp.pi


class TestSortedGaps:
    def test_line(self):
        with mp.workprec(128):
            order, gaps = sorted_gaps((mpf(2), mpf(-1), mpf("0.5")), LINE)
        assert order == [1, 2, 0]
        assert gaps == [mpf("1.5"), mpf("1.5")]

    def test_circle_appends_the_closing_arc(self):
        with mp.workprec(128):
            order, gaps = sorted_gaps((mpf("3.1"), mpf("-3.1")), PERIODIC)
            assert order == [1, 0]
            assert gaps[0] == mpf("6.2")
            assert gaps[1] == 2 * mp.pi - mpf("6.2")
            assert sorted_gaps((mpf(1),), PERIODIC) == ([0], [])

    def test_periodic_points_outside_are_reduced(self):
        with mp.workprec(128):
            _, gaps = sorted_gaps((mpf("0.5"), 2 * mp.pi + mpf("0.25")),
                                  PERIODIC)
            assert abs(min(gaps) - mpf("0.25")) < mpf(2) ** -100


class TestNodeSet:
    def test_duplicates_rejected(self):
        with pytest.raises(DegenerateInputError):
            NodeSet((mpf(0), mpf(0)))

    def test_periodic_range_enforced(self):
        with pytest.raises(InvalidParameterError):
            NodeSet((mpf(4),), PERIODIC)
        NodeSet((mpf(4),), LINE)  # fine on the line

    def test_json_round_trip(self):
        ns = NodeSet((mpf("0.25"), mpf("-1.5")), PERIODIC)
        back = NodeSet.from_json_dict(ns.to_json_dict(192), 192)
        assert back.domain == ns.domain
        for a, b in zip(back.nodes, ns.nodes):
            assert abs(a - b) <= abs(b) * mpf(10) ** -50


class TestClusterSpec:
    def test_invariants(self):
        with pytest.raises(InvalidParameterError):
            ClusterSpec(delta="0.1", theta="1", s=2, ell=3, tau="5")
        with pytest.raises(InvalidParameterError):
            ClusterSpec(delta="0.1", theta="1", s=3, ell=3, tau="1")
        with pytest.raises(InvalidParameterError):
            ClusterSpec(delta="0", theta="1", s=2, ell=2, tau="1")
        with pytest.raises(InvalidParameterError):
            ClusterSpec(delta="0.1", theta="0", s=2, ell=2, tau="1")

    def test_json_round_trip(self):
        spec = ClusterSpec(delta="1e-6", theta="1.5", s=5, ell=3, tau="2.5")
        back = ClusterSpec.from_json_dict(spec.to_json_dict(192), 192)
        assert (back.s, back.ell) == (5, 3)
        assert abs(back.delta - spec.delta) < mpf(10) ** -40


class TestValidateConfig:
    def test_equispaced_triple_single_cluster(self):
        with mp.workprec(192):
            nodes = NodeSet((mpf(0), mpf("0.01"), mpf("0.02")))
            spec = ClusterSpec(delta="0.01", theta=mp.pi, s=3, ell=3, tau=2)
            part = validate_config(nodes, spec)
        assert part.multiplicities == (3,)
        assert part.q == (1, 1, 1)

    def test_two_cluster_example(self):
        with mp.workprec(192):
            nodes = NodeSet((mpf(0), mpf("0.001"), mpf("2.0"),
                             mpf("2.001"), mpf("2.002")))
            spec = ClusterSpec(delta="0.001", theta="1.9", s=5, ell=3, tau=2)
            part = validate_config(nodes, spec)
        assert part.clusters == ((0, 1), (2, 3, 4))
        assert part.multiplicities == (2, 3)
        assert part.q == (2, 2, 1)
        # exhaustive pairwise oracle: conditions hold with the wrap metric
        with mp.workprec(192):
            for ci, cluster in enumerate(part.clusters):
                for a in cluster:
                    for b in cluster:
                        if a < b:
                            d = wrap_distance(nodes.nodes[a], nodes.nodes[b])
                            assert spec.delta * mpf("0.999") <= d
                            assert d <= spec.tau * spec.delta * mpf("1.001")
                    for other in part.clusters[ci + 1:]:
                        for b in other:
                            assert wrap_distance(nodes.nodes[a],
                                                 nodes.nodes[b]) >= spec.theta

    def test_count_mismatch(self):
        with mp.workprec(192):
            nodes = NodeSet((mpf(0), mpf("0.01")))
            spec = ClusterSpec(delta="0.01", theta="1", s=3, ell=2, tau=1)
            with pytest.raises(ConfigValidationError):
                validate_config(nodes, spec)

    def test_separation_violation_names_pair(self):
        with mp.workprec(192):
            # two "clusters" closer than theta
            nodes = NodeSet((mpf(0), mpf("0.5")))
            spec = ClusterSpec(delta="0.01", theta="1.0", s=2, ell=1, tau=0)
            with pytest.raises(ConfigValidationError) as err:
                validate_config(nodes, spec)
            assert err.value.pair == (0, 1)
            assert "inter-cluster" in err.value.condition

    def test_diameter_violation(self):
        with mp.workprec(192):
            # consecutive gaps stay below tau*delta = 0.02 so linkage
            # chains all three, but the end-to-end spread exceeds it
            nodes = NodeSet((mpf(0), mpf("0.018"), mpf("0.036")))
            spec = ClusterSpec(delta="0.01", theta="1", s=3, ell=3, tau="2")
            with pytest.raises(ConfigValidationError) as err:
                validate_config(nodes, spec)
            assert err.value.condition == "within-cluster diameter"

    def test_multiplicity_overflow_flagged(self):
        with mp.workprec(192):
            nodes = NodeSet((mpf(0), mpf("0.01"), mpf("0.02")))
            spec = ClusterSpec(delta="0.01", theta="1", s=3, ell=2, tau=2)
            with pytest.raises(ConfigValidationError) as err:
                validate_config(nodes, spec)
            assert err.value.condition == "multiplicity"

    def test_below_delta_rejected(self):
        with mp.workprec(192):
            nodes = NodeSet((mpf(0), mpf("0.005")))
            spec = ClusterSpec(delta="0.01", theta="1", s=2, ell=2, tau=2)
            with pytest.raises(ConfigValidationError) as err:
                validate_config(nodes, spec)
            assert err.value.condition == "within-cluster minimum"

    def test_periodic_tau_cap(self):
        with mp.workprec(192):
            nodes = NodeSet((mpf(0), mpf(1)))
            spec = ClusterSpec(delta="1", theta="1", s=2, ell=2, tau=100)
            with pytest.raises(InvalidParameterError):
                validate_config(nodes, spec)


    def test_cluster_order_ignores_the_listing_order(self):
        # the cluster across +-pi holds the smallest node, so it comes first
        with mp.workprec(192):
            xs = (mp.pi - mpf("0.001"), -mp.pi + mpf("0.001"), mpf(0))
            spec = ClusterSpec(delta="0.001", theta="1", s=3, ell=2, tau=3)
            for perm in itertools.permutations(xs):
                part = validate_config(NodeSet(perm), spec)
                assert part.multiplicities == (2, 1)
                assert [{perm[i] for i in g} for g in part.clusters] == \
                    [{xs[0], xs[1]}, {xs[2]}]

    def test_one_cluster_closing_the_circle_is_accepted(self):
        # every arc 2*pi/3 is within tau*delta = pi, and so is every pair
        with mp.workprec(192):
            third = 2 * mp.pi / 3
            nodes = NodeSet((mpf(0), third, -third))
            spec = ClusterSpec(delta=1, theta=1, s=3, ell=3, tau=mp.pi)
            part = validate_config(nodes, spec)
        assert part.clusters == ((0, 1, 2),)
        assert part.q == (1, 1, 1)

    def test_one_cluster_closing_the_circle_checks_its_pairs(self):
        # arcs pi/2 <= tau*delta = 3 chain all four round the circle, but
        # 0 and pi are pi apart
        with mp.workprec(192):
            nodes = NodeSet((mpf(0), mp.pi / 2, mp.pi, -mp.pi / 2))
            spec = ClusterSpec(delta=1, theta=1, s=4, ell=4, tau=3)
            with pytest.raises(ConfigValidationError) as err:
                validate_config(nodes, spec)
        assert err.value.condition == "within-cluster diameter"
        assert err.value.pair == (0, 2)


def _oracle_case(rng):
    """A seeded (nodes, spec, kind) at the ambient precision.

    kind is "clustered" (random centers, gaps at delta, at the top of
    their range or anywhere near it), "straddle" (on the circle, one
    cluster centered within a cluster width of pi), "boundary" (full equispaced
    clusters with tau = ell-1 whose facing edges are exactly theta
    apart) or "closing" (nodes spread round the circle whose arcs may
    all be within tau*delta).  About one in ten clusters outgrows ell
    and one spec in fifty miscounts the nodes.
    """
    kind = rng.choice(("clustered", "straddle", "boundary", "closing"))
    domain = rng.choice((PERIODIC, LINE)) if kind in ("clustered", "boundary") \
        else PERIODIC
    if kind == "closing":
        s = rng.randint(2, 6)
        arc = 2 * mp.pi / s
        phase = mpf(rng.uniform(-4, 4))
        jitter = rng.choice((0, 0.1))
        xs = [phase + arc * (j + mpf(rng.uniform(-jitter, jitter)))
              for j in range(s)]
        top = rng.choice((arc, mp.pi, arc * mpf(rng.uniform(0.95, s / 2))))
        delta = arc * mpf(rng.choice((1, rng.uniform(0.25, 1.05))))
        tau = min(mp.pi / delta, top / delta)
        ell = min(s, int(tau) + 1)
        if rng.random() < 0.2:
            ell = rng.randint(1, ell)
        theta = mpf(rng.uniform(0.1, 2))
    else:
        ell = rng.randint(1, 4)
        if kind == "boundary":
            tau = mpf(ell - 1)
        else:
            tau = mpf(ell - 1) + mpf(rng.choice((0, 1, rng.uniform(0, 2))))
        if tau == 0:
            tau = mpf(rng.uniform(0, 1))
        delta = mpf(10) ** -rng.uniform(1, 5)
        if domain == PERIODIC:
            tau = min(tau, mp.pi / delta)
        theta = mpf(rng.uniform(0.05, 1.2))
        n_clusters = rng.randint(1, 4)
        lim = 3 if domain == PERIODIC else 20
        if kind == "boundary":
            step = theta + tau * delta
            start = mpf(rng.uniform(-lim, lim))
            centers = [start + j * step for j in range(n_clusters)]
        elif kind == "straddle":
            centers = [mp.pi + mpf(rng.uniform(-1, 1)) * tau * delta] + \
                [mpf(rng.uniform(-lim, lim)) for _ in range(n_clusters - 1)]
        else:
            centers = [mpf(rng.uniform(-lim, lim)) for _ in range(n_clusters)]
        xs = []
        for center in centers:
            r = ell if kind == "boundary" else \
                rng.randint(1, ell + (rng.random() < 0.1))
            gaps = [delta] * (r - 1) if kind == "boundary" else [
                rng.choice((delta, tau * delta / max(r - 1, 1),
                            delta * mpf(rng.uniform(0.8, 1.2 * float(tau) + 1))))
                for _ in range(r - 1)]
            x = center - mp.fsum(gaps) / 2
            xs.append(x)
            for g in gaps:
                x += g
                xs.append(x)
        ell = min(ell, len(xs))
    if domain == PERIODIC:
        xs = [wrap_to_interval(x) for x in xs]
    nodes = NodeSet(tuple(xs), domain)
    spec = ClusterSpec(delta=delta, theta=theta,
                       s=len(xs) + (rng.random() < 0.02), ell=ell,
                       tau=max(tau, mpf(ell - 1)))
    return nodes, spec, kind


def _outcome(validate, nodes, spec):
    try:
        return validate(nodes, spec)
    except VandelabError as exc:
        return type(exc)


class TestScanAgreesWithPairwiseOracle:
    CASES = 20_000

    def test_seeded_configs(self):
        rng = random.Random(20240618)
        seen = dict.fromkeys(("line", "circle", "straddle", "boundary",
                              "closing", "rejected"), 0)
        # draw until every kind of configuration the scan treats apart was
        # accepted often enough, and a fair share rejected, 100 times each
        checked = 0
        while min(seen.values()) < 100:
            assert checked < self.CASES, seen
            with mp.workprec(rng.choice((64, 192, 600))):
                try:
                    nodes, spec, kind = _oracle_case(rng)
                except VandelabError:
                    continue  # coinciding nodes: NodeSet refuses them
                got = _outcome(validate_config, nodes, spec)
                want = _outcome(validate_config_reference, nodes, spec)
                checked += 1
                assert got == want, (kind, nodes, spec)
                if not isinstance(got, PartitionResult):
                    seen["rejected"] += 1
                    continue
                link = spec.tau * spec.delta + _distance_slack(nodes, spec.delta)
                arcs = sorted_gaps(nodes.nodes, nodes.domain)[1]
            seen["circle" if nodes.domain == PERIODIC else "line"] += 1
            if kind == "straddle" and any(
                    max(nodes.nodes[i] for i in g) -
                    min(nodes.nodes[i] for i in g) > mp.pi
                    for g in got.clusters):
                seen["straddle"] += 1
            if kind == "boundary" and got.cluster_count > 1:
                seen["boundary"] += 1
            if nodes.domain == PERIODIC and spec.s > 2 and max(arcs) <= link:
                seen["closing"] += 1


class TestGenerateConfig:
    def test_pair_centered_at_origin(self):
        with mp.workprec(192):
            spec = ClusterSpec(delta="1e-6", theta="1", s=2, ell=2, tau=1)
            nodes, _ = generate_config(spec, EQUISPACED, [mpf(0)], seed=7)
            d = mpf("1e-6")
            assert nodes.nodes[0] == -d / 2
            assert nodes.nodes[1] == d / 2

    def test_equispaced_gaps_exact(self):
        with mp.workprec(192):
            spec = ClusterSpec(delta="1e-5", theta="1", s=3, ell=3, tau=2)
            # center 0: offsets are the nodes, gaps exactly delta
            nodes, _ = generate_config(spec, EQUISPACED, [mpf(0)], seed=7)
            xs = sorted(nodes.nodes)
            assert xs[1] - xs[0] == spec.delta
            assert xs[2] - xs[1] == spec.delta
            assert xs[2] - xs[0] == 2 * spec.delta
            # shifted center: gaps exact up to one rounding of the shift
            nodes, _ = generate_config(spec, EQUISPACED, [mpf("0.5")], seed=7)
            xs = sorted(nodes.nodes)
            ulp = mpf(2) ** -(192 - 4)
            for gap in (xs[1] - xs[0], xs[2] - xs[1]):
                assert abs(gap - spec.delta) <= ulp

    @pytest.mark.parametrize("s, ell, clusters", [(3, 3, 1), (7, 3, 3)])
    def test_no_centers_are_the_default_centers(self, s, ell, clusters):
        with mp.workprec(192):
            spec = ClusterSpec(delta="1e-4", theta="1", s=s, ell=ell, tau=2)
            a, _ = generate_config(spec, RANDOM, None, seed=5)
            b, _ = generate_config(spec, RANDOM, default_centers(clusters),
                                   seed=5)
            assert a.nodes == b.nodes

    def test_determinism(self):
        with mp.workprec(192):
            spec = ClusterSpec(delta="1e-4", theta="1", s=4, ell=2, tau="1.5")
            centers = [mpf(-2), mpf(1)]
            a, _ = generate_config(spec, RANDOM, centers, seed=123)
            b, _ = generate_config(spec, RANDOM, centers, seed=123)
            assert a.nodes == b.nodes
            c, _ = generate_config(spec, RANDOM, centers, seed=124)
            assert a.nodes != c.nodes

    def test_infeasible_centers(self):
        with mp.workprec(192):
            spec = ClusterSpec(delta="1e-4", theta="1", s=4, ell=2, tau=1)
            with pytest.raises(ConfigValidationError):
                generate_config(spec, EQUISPACED, [mpf(0), mpf("0.5")], seed=1)

    def test_close_centers_refused_in_any_order_and_range(self):
        with mp.workprec(192):
            spec = ClusterSpec(delta="1e-4", theta="1", s=3, ell=1, tau=0)
            # listed out of order: 2 and 1.9 are the close pair
            with pytest.raises(ConfigValidationError) as err:
                generate_config(spec, EQUISPACED,
                                [mpf(2), mpf(0), mpf("1.9")], seed=1)
            assert err.value.pair == (0, 2)
            assert err.value.condition == "center separation"
            # 3.25 lies outside (-pi, pi], 0.067 from -3.1 across +-pi
            with pytest.raises(ConfigValidationError) as err:
                generate_config(spec, EQUISPACED,
                                [mpf("-3.1"), mpf(0), mpf("3.25")], seed=1)
            assert err.value.pair == (0, 2)

    def test_round_trip_recovers_multiplicities(self):
        rng = random.Random(55)
        with mp.workprec(192):
            for _ in range(10):
                ell = rng.randint(1, 4)
                n_clusters = rng.randint(1, 3)
                s = ell + sum(rng.randint(1, ell) for _ in range(n_clusters - 1))
                tau = str(max(ell - 1, 0) + 1)
                spec = ClusterSpec(delta="1e-5", theta="0.8", s=s, ell=ell,
                                   tau=tau)
                centers = [mpf(-3) + j * mpf(2) for j in range(n_clusters)]
                layout = rng.choice([EQUISPACED, RANDOM])
                nodes, _ = generate_config(spec, layout, centers,
                                           seed=rng.randrange(10 ** 6))
                part = validate_config(nodes, spec)
                assert part.cluster_count == n_clusters
                assert max(part.multiplicities) == ell
                assert sum(part.multiplicities) == s

    def test_assign_multiplicities(self):
        assert assign_multiplicities(5, 3, 2) == [3, 2]
        assert assign_multiplicities(3, 3, 1) == [3]
        assert assign_multiplicities(7, 3, 3) == [3, 2, 2]
        with pytest.raises(InvalidParameterError):
            assign_multiplicities(10, 2, 2)  # 8 > ell per extra cluster
        with pytest.raises(InvalidParameterError):
            assign_multiplicities(3, 2, 3)  # not enough nodes


class TestCountQ:
    def _partition(self, mults, ell):
        q = tuple(sum(1 for r in mults if r >= m) for m in range(1, ell + 1))
        clusters, i = [], 0
        for r in mults:
            clusters.append(tuple(range(i, i + r)))
            i += r
        return PartitionResult(tuple(clusters), tuple(mults), q)

    def test_examples(self):
        # clusters of 2, 3 and 1 nodes, ordered by their smallest node
        with mp.workprec(192):
            nodes = NodeSet(tuple(mpf(x) for x in (
                "-1.5", "-1.499", "0", "0.001", "0.002", "1.5")))
            spec = ClusterSpec(delta="1e-3", theta="1", s=6, ell=3, tau=3)
            part = validate_config(nodes, spec)
        assert part.multiplicities == (2, 3, 1)
        assert part.q == (3, 2, 1)

    def test_q_nonincreasing_and_sums(self):
        part = self._partition([3, 2, 2, 1], 3)
        assert list(part.q) == sorted(part.q, reverse=True)
        assert part.q[0] == len(part.multiplicities)
        assert sum(part.multiplicities) == 8


class TestCenterAndScale:
    def test_scaling_property(self):
        # a line configuration maps to a circle configuration with both
        # separation scales divided by N
        rng = random.Random(99)
        with mp.workprec(192):
            for _ in range(5):
                ell = rng.randint(2, 3)
                spec = ClusterSpec(delta="0.001", theta="2.0", s=ell + 1,
                                   ell=ell, tau=str(ell))
                centers = [mpf(0), mpf(5)]
                nodes, _ = generate_config(spec, RANDOM, centers,
                                           seed=rng.randrange(10 ** 6),
                                           domain=LINE)
                N = 40
                scaled = scale_to_circle(nodes, N)
                scaled_spec = ClusterSpec(
                    delta=spec.delta / N, theta=spec.theta / N,
                    s=spec.s, ell=spec.ell, tau=spec.tau)
                part = validate_config(scaled, scaled_spec)
                assert sum(part.multiplicities) == spec.s

    def test_scale_domain_check(self):
        ns = NodeSet((mpf(0), mpf(1)), PERIODIC)
        with pytest.raises(InvalidParameterError):
            scale_to_circle(ns, 10)
