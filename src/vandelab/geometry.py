"""Node-set construction and validation for clustered configurations.

A configuration is a set of distinct nodes, on the periodic interval
(-pi, pi] or on the real line, grouped into clusters: within a cluster
consecutive nodes sit at distance between delta and tau*delta, and any
two nodes from different clusters are at least theta apart.  Single-
linkage clusters at threshold tau*delta are runs of sorted nodes, so the
validator scans the sorted gaps once: arcs above tau*delta cut the runs,
a run is checked by its size, its arcs and its end nodes, and each cut
arc against theta.  Only a cluster closing the circle has its pairs
checked.  As admissible configurations keep the two scales apart
(tau*delta < theta), single linkage finds the unique admissible
partition whenever one exists.

Boundary equalities (d == delta, d == tau*delta, d == theta) are valid.
Distances are computed in finite precision, so comparisons carry the
absolute slack max(1, |x|) 2^-(p-16) at ambient precision p, and
configurations on a boundary, generated at that precision, validate.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import (
    ConfigParseError,
    ConfigValidationError,
    DegenerateInputError,
    InvalidParameterError,
    PrecisionError,
)
from .hp import as_mpf, decimal_str, parse_decimal, parse_int

PERIODIC = "periodic"
LINE = "line"

EQUISPACED = "equispaced"
RANDOM = "random"


@functools.lru_cache(maxsize=64)
def _pi_at(prec: int):
    with mp.workprec(prec):
        return +mp.pi


def _pi():
    """pi rounded at the ambient precision, the value mp.pi takes in an
    operation there, evaluated once per precision: an mp.pi operand costs
    a constant evaluation each time."""
    return _pi_at(mp.prec)


def wrap_to_interval(x):
    """Reduce an angle to the representative in (-pi, pi].

    An x already inside, by two comparisons with pi at the ambient
    precision, is returned as it is.  Inputs sitting within rounding
    distance of an odd multiple of pi can land an ulp outside the
    half-open interval; the final adjustments fold them back.  An x
    above 2^16, whose reduction would lose mag(x) bits, is reduced with
    mag(x) + 16 more and rounded back.
    """
    x = as_mpf(x)
    pi = _pi()
    if -pi < x <= pi:
        return x
    big = mp.isfinite(x) and mp.mag(x) > 16
    with mp.workprec(mp.prec + (mp.mag(x) + 16 if big else 0)):
        pi = _pi()
        two_pi = 2 * pi
        r = x - two_pi * mp.floor((x + pi) / two_pi)
        if r <= -pi:
            r += two_pi
        elif r > pi:
            r -= two_pi
    return wrap_to_interval(+r) if big else r  # rounding back can give -pi


def wrap_distance(x, y):
    """Angular distance |Arg e^(i(x-y))| in [0, pi].

    Symmetric, and invariant under shifting either argument by 2*pi.
    The difference is reduced straight into (-pi, pi] and only then made
    absolute: reducing into [0, 2*pi) first would compute tiny distances
    as a difference of two numbers near 2*pi and lose their relative
    precision entirely.
    """
    return abs(wrap_to_interval(as_mpf(x) - as_mpf(y)))


def sorted_gaps(points, domain: str):
    """(order, gaps): point indices sorted by value, and gaps[k] the arc
    from order[k] to order[k+1], with the closing arc from the last back
    to the first appended on the circle.  Periodic points outside
    (-pi, pi] are reduced first; gaps below pi are then the subtractions
    wrap_distance performs.
    """
    xs = [as_mpf(x) for x in points]
    if domain == PERIODIC:
        xs = [wrap_to_interval(x) for x in xs]
    order = sorted(range(len(xs)), key=xs.__getitem__)
    gaps = [xs[b] - xs[a] for a, b in zip(order, order[1:])]
    if domain == PERIODIC and len(xs) > 1:
        gaps.append(2 * _pi() - (xs[order[-1]] - xs[order[0]]))
    return order, gaps


@dataclass(frozen=True)
class NodeSet:
    """Ordered distinct nodes with their domain tag."""

    nodes: tuple
    domain: str = PERIODIC

    def __post_init__(self):
        if self.domain not in (PERIODIC, LINE):
            raise InvalidParameterError(f"unknown domain {self.domain!r}")
        nodes = tuple(as_mpf(x) for x in self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if self.domain == PERIODIC:
            pi = _pi()
            for x in nodes:
                if not (-pi < x <= pi):
                    raise InvalidParameterError(
                        f"periodic node {decimal_str(x)} outside (-pi, pi]")
        seen = set()
        for x in nodes:
            if x in seen:
                raise DegenerateInputError(f"duplicate node {decimal_str(x)}")
            seen.add(x)

    @property
    def count(self) -> int:
        return len(self.nodes)

    def to_json_dict(self, bits: int | None = None, exact: bool = False) -> dict:
        return {
            "domain": self.domain,
            "nodes": [decimal_str(x, bits, exact) for x in self.nodes],
        }

    @classmethod
    def from_json_dict(cls, obj: dict, bits: int) -> "NodeSet":
        if not isinstance(obj, dict):
            raise ConfigParseError("node set must be a JSON object", key="nodes")
        try:
            domain = obj["domain"]
            raw = obj["nodes"]
        except KeyError as exc:
            raise ConfigParseError(f"node set missing key {exc.args[0]!r}",
                                   key=exc.args[0]) from exc
        if not isinstance(raw, list):
            raise ConfigParseError("node set 'nodes' must be a list", key="nodes")
        return cls(tuple(parse_decimal(v, bits) for v in raw), domain)


@dataclass(frozen=True)
class ClusterSpec:
    """Parameters (delta, theta, s, ell, tau) of a clustered configuration."""

    delta: object
    theta: object
    s: int
    ell: int
    tau: object

    def __post_init__(self):
        object.__setattr__(self, "delta", as_mpf(self.delta))
        object.__setattr__(self, "theta", as_mpf(self.theta))
        object.__setattr__(self, "tau", as_mpf(self.tau))
        if not self.delta > 0:
            raise InvalidParameterError("delta must be > 0")
        if not self.theta > 0:
            raise InvalidParameterError("theta must be > 0")
        if not (1 <= self.ell <= self.s):
            raise InvalidParameterError(
                f"need 1 <= ell <= s, got ell={self.ell}, s={self.s}")
        if self.tau < self.ell - 1:
            raise InvalidParameterError(
                f"need tau >= ell-1, got tau={decimal_str(self.tau)}, ell={self.ell}")

    def to_json_dict(self, bits: int | None = None, exact: bool = False) -> dict:
        return {
            "delta": decimal_str(self.delta, bits, exact),
            "theta": decimal_str(self.theta, bits, exact),
            "s": self.s,
            "ell": self.ell,
            "tau": decimal_str(self.tau, bits, exact),
        }

    @classmethod
    def from_json_dict(cls, obj: dict, bits: int) -> "ClusterSpec":
        if not isinstance(obj, dict):
            raise ConfigParseError("cluster spec must be a JSON object", key="cluster")
        vals = {}
        for key in ("delta", "theta", "s", "ell", "tau"):
            if key not in obj:
                raise ConfigParseError(f"cluster spec missing key {key!r}", key=key)
            vals[key] = obj[key]
        return cls(
            delta=parse_decimal(vals["delta"], bits),
            theta=parse_decimal(vals["theta"], bits),
            s=parse_int(vals["s"], "s"),
            ell=parse_int(vals["ell"], "ell"),
            tau=parse_decimal(vals["tau"], bits),
        )


@dataclass(frozen=True)
class PartitionResult:
    """Cluster partition: index sets, their sizes, and the counts q_m.

    clusters are ascending index tuples ordered by their smallest member
    node (a cluster across +-pi comes first); q[m-1] is the number of
    clusters of multiplicity at least m, for m = 1..ell.
    """

    clusters: tuple
    multiplicities: tuple
    q: tuple

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)


def _distance_slack(nodes: NodeSet, delta):
    """Absolute tolerance for the boundary comparisons of the validator.

    Stored nodes differ from their ideal positions by up to a rounding of
    their own magnitude (they were created as center + offset), so the
    comparison slack must be absolute at the node scale, not relative to
    delta.  If that slack is not far below delta the working precision
    cannot resolve the configuration at all.
    """
    scale = max([mpf(1)] + [abs(x) for x in nodes.nodes])
    tol = scale * mp.ldexp(1, -(mp.prec - 16))
    if tol >= as_mpf(delta) / 4:
        raise PrecisionError(
            f"cannot validate separations of {decimal_str(as_mpf(delta))} at "
            f"{mp.prec} bits with nodes of magnitude {decimal_str(scale)}; "
            f"raise the working precision")
    return tol


def validate_config(nodes: NodeSet, spec: ClusterSpec) -> PartitionResult:
    """Check a node set against a cluster spec and return its partition.

    Raises ConfigValidationError naming the offending pair of node indices
    and the violated condition when the set is not a valid
    (delta, theta, s, ell, tau) configuration for the node set's domain.
    """
    if nodes.count != spec.s:
        raise ConfigValidationError(
            f"node count {nodes.count} differs from spec s={spec.s}")
    if nodes.domain == PERIODIC and spec.tau > _pi() / spec.delta:
        raise InvalidParameterError(
            "periodic domain requires tau <= pi/delta")
    dist = wrap_distance if nodes.domain == PERIODIC else lambda x, y: abs(x - y)
    s = nodes.count
    tol = _distance_slack(nodes, spec.delta)
    link = spec.tau * spec.delta + tol
    order, gaps = sorted_gaps(nodes.nodes, nodes.domain)

    def ends(k):  # the node indices at either end of arc k
        return tuple(sorted((order[k], order[(k + 1) % s])))

    if 0 in gaps:
        i, j = ends(gaps.index(0))
        raise DegenerateInputError(f"nodes {i} and {j} coincide (distance 0)")
    # clusters are the runs of arcs <= tau*delta; scanning from the last
    # cut on puts a run across +-pi, which holds the smallest node, first
    cuts = [k for k, g in enumerate(gaps) if g > link]
    circle = len(gaps) == s  # two or more nodes on the circle
    closed = circle and not cuts  # one cluster closes the circle
    first = cuts[-1] + 1 if circle and cuts else 0
    scan = [(first + step) % s for step in range(s)]
    bounds = [0] + [n + 1 for n, k in enumerate(scan) if k in cuts] + [s]
    runs = [scan[a:b] for a, b in zip(bounds, bounds[1:]) if a < b]
    clusters = tuple(tuple(sorted(order[k] for k in run)) for run in runs)

    for run, members in zip(runs, clusters):
        if len(members) > spec.ell:
            raise ConfigValidationError(
                f"single-linkage cluster {members} has multiplicity "
                f"{len(members)} > ell={spec.ell}; configuration rejected",
                pair=None, condition="multiplicity")
        for k in run if closed else run[:-1]:
            if gaps[k] < spec.delta - tol:
                i, j = ends(k)
                raise ConfigValidationError(
                    f"nodes {i},{j} at distance {decimal_str(gaps[k])} "
                    f"below delta={decimal_str(spec.delta)}",
                    pair=(i, j), condition="within-cluster minimum")
        # a run's end nodes are its farthest pair, but a cluster closing
        # the circle has no ends
        pairs = itertools.combinations(members, 2) if closed else \
            [tuple(sorted((order[run[0]], order[run[-1]])))]
        for i, j in pairs:
            dij = dist(nodes.nodes[i], nodes.nodes[j])
            if dij > link:
                raise ConfigValidationError(
                    f"nodes {i},{j} at distance {decimal_str(dij)} "
                    f"exceed cluster diameter tau*delta="
                    f"{decimal_str(spec.tau * spec.delta)}",
                    pair=(i, j), condition="within-cluster diameter")
    # the geodesic between two clusters crosses a cut arc
    for k in cuts if len(runs) > 1 else ():
        if gaps[k] < spec.theta - tol:
            i, j = ends(k)
            raise ConfigValidationError(
                f"nodes {i},{j} from different clusters at "
                f"distance {decimal_str(gaps[k])} below theta="
                f"{decimal_str(spec.theta)}",
                pair=(i, j), condition="inter-cluster separation")

    mults = tuple(len(g) for g in clusters)
    q = tuple(sum(1 for r in mults if r >= m) for m in range(1, spec.ell + 1))
    return PartitionResult(clusters=clusters, multiplicities=mults, q=q)


def assign_multiplicities(s: int, ell: int, n_clusters: int) -> list:
    """Deterministic split of s nodes into n_clusters clusters.

    The first cluster gets exactly ell nodes (so the configuration
    realizes its stated maximal multiplicity); the rest is spread as
    evenly as possible.  Infeasible splits raise.
    """
    if n_clusters < 1:
        raise InvalidParameterError("need at least one cluster center")
    rest = s - ell
    others = n_clusters - 1
    if ell < 1 or rest < others or rest > others * ell:
        raise InvalidParameterError(
            f"cannot place s={s} nodes into {n_clusters} clusters with "
            f"max multiplicity ell={ell}")
    mults = [ell]
    if others:
        base, extra = divmod(rest, others)
        for j in range(others):
            mults.append(base + (1 if j < extra else 0))
    return mults


def cluster_offsets(r: int, ell: int, tau, delta, layout: str, rng) -> list:
    """Node offsets of one cluster relative to its center, min+max = 0."""
    if layout not in (EQUISPACED, RANDOM):
        raise InvalidParameterError(f"unknown layout {layout!r}")
    if r == 1:
        return [mpf(0)]
    if layout == EQUISPACED:
        gaps = [delta] * (r - 1)
    else:
        # gaps in [delta, tau*delta/(ell-1)] keep every pairwise distance
        # inside [delta, tau*delta] for any multiplicity r <= ell
        hi = tau * delta / (ell - 1)
        gaps = [delta + (hi - delta) * mpf(rng.random()) for _ in range(r - 1)]
    offs = [mpf(0)]
    for g in gaps:
        offs.append(offs[-1] + g)
    mid = (offs[0] + offs[-1]) / 2
    return [o - mid for o in offs]


def default_centers(n_clusters: int):
    """Evenly spread centers on the circle, center 0 for a single cluster."""
    pi = _pi()
    return tuple(-pi + (2 * j + 1) * pi / n_clusters for j in range(n_clusters))


def _default_count(s: int, ell: int) -> int:
    """The M = ceil(s/ell) default centers of s nodes, at least one."""
    return max(1, -(-s // ell))


def default_theta(s: int, ell: int):
    """The widest theta the default centers of s nodes in clusters of at
    most ell allow: pi for one cluster, 2*pi/M - 1 for M."""
    n_clusters = _default_count(s, ell)
    theta = mp.pi if n_clusters == 1 else 2 * mp.pi / n_clusters - 1
    if theta <= 0:
        raise InvalidParameterError(
            f"no room for {n_clusters} default cluster centers; "
            "set theta explicitly")
    return theta


def generate_config(spec: ClusterSpec, layout: str, cluster_centers,
                    seed: int, domain: str = PERIODIC
                    ) -> tuple[NodeSet, PartitionResult]:
    """Build a node set realizing ``spec`` around the given centers, and
    its partition.  Centers None are the ceil(s/ell) default centers.

    Equispaced layout puts each cluster on an arithmetic progression with
    gap exactly delta; random layout draws the gaps reproducibly from
    ``seed``.  The nodes are validated against ``spec`` before returning;
    the partition is the one validate_config found.
    """
    if cluster_centers is None:
        cluster_centers = default_centers(_default_count(spec.s, spec.ell))
    centers = [as_mpf(c) for c in cluster_centers]
    if not centers:
        raise InvalidParameterError("need at least one cluster center")
    margin = spec.theta + spec.tau * spec.delta
    slack = mp.ldexp(1, -(mp.prec - 16))
    order, gaps = sorted_gaps(centers, domain)
    for k, g in enumerate(gaps):
        if g < margin * (1 - slack):
            a, b = sorted((order[k], order[(k + 1) % len(order)]))
            raise ConfigValidationError(
                f"cluster centers {a},{b} closer than theta + tau*delta",
                pair=(a, b), condition="center separation")
    mults = assign_multiplicities(spec.s, spec.ell, len(centers))
    rng = random.Random(seed)
    out = []
    for center, r in zip(centers, mults):
        for off in cluster_offsets(r, spec.ell, spec.tau, spec.delta, layout, rng):
            x = center + off
            out.append(wrap_to_interval(x) if domain == PERIODIC else x)
    nodes = NodeSet(tuple(out), domain)
    return nodes, validate_config(nodes, spec)


def scale_to_circle(nodes: NodeSet, N: int) -> NodeSet:
    """Map line nodes x to x/N on the periodic interval.

    If x is a (delta, theta, s, ell, tau) configuration on the line, the
    image is a (delta/N, theta/N, s, ell, tau) configuration on the
    circle once every x/N lands inside (-pi, pi].
    """
    if nodes.domain != LINE:
        raise InvalidParameterError("scale_to_circle expects line-domain nodes")
    if N < 1:
        raise InvalidParameterError("N must be >= 1")
    pi = _pi()
    scaled = []
    for x in nodes.nodes:
        xi = x / N
        if not (-pi < xi <= pi):
            raise InvalidParameterError(
                f"scaled node {decimal_str(xi)} outside (-pi, pi]; increase N")
        scaled.append(xi)
    return NodeSet(tuple(scaled), PERIODIC)
