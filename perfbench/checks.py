"""Output checks made apart from vandelab.

Nothing here imports vandelab.  Each check takes what a command wrote
(decoded JSON) plus the inputs the benchmark itself chose, and returns a
list of problems; an empty list means the output passed.

Two sorts of check:

* references -- the same quantity recomputed by other code: a Gram
  matrix by term-by-term summation of V^H V and a prolate matrix from
  mpmath's sinc, both at p + 64 bits, whose eigenvalues are bracketed by
  Sylvester inertia of an LDL^H factorisation of A - t*I; closed forms
  such as 1 - sin(d)/d; mp.quad for L2 norms; direct sums for discrete
  norms; the bound formulas re-evaluated from their definitions.
* properties -- facts the method must satisfy whatever the code: the
  trace identity sum sigma_k^2 = s*(N+1), upper_explicit >= sigma_min,
  gaps that shrink with N, inequality verdicts that hold, Salem minima
  above zero, grid maxima between |P| at the interval ends and sum |c_j|.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from mpmath import mp, mpc, mpf

#: relative accuracy (significant digits) demanded of every singular value
#: and eigenvalue that is compared against a reference spectrum
SPECTRUM_DIGITS = 15
#: spectra up to this size are checked value by value, on every
#: FULL_SPECTRUM_STRIDE-th sweep row and on every single-instance command;
#: other spectra only at their ends (each value costs two O(n^3)
#: factorisations at p + 64 bits)
FULL_SPECTRUM_MAX = 8
FULL_SPECTRUM_STRIDE = 8
#: extra bits of every reference computation over the precision the
#: program reported
REF_GUARD_BITS = 64
#: digits to which mp.quad norms and recomputed formulas must agree
QUAD_DIGITS = 20
QUAD_BITS = 112
FORMULA_DIGITS = 30
#: every SUITE_SAMPLE_STRIDE-th suite instance gets reference checks
SUITE_SAMPLE_STRIDE = 50
SUITE_BITS = 192


def _slepian_constant(s):
    """2^(2s-2) / ((2s-1) * C(2s-2, s-1)^3) at the ambient precision."""
    c = Fraction(2 ** (2 * s - 2), (2 * s - 1) * math.comb(2 * s - 2, s - 1) ** 3)
    return mpf(c.numerator) / c.denominator


def _rel_close(a, b, digits) -> bool:
    tol = mpf(10) ** -digits
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _digits(bits: int) -> int:
    return max(3, int(bits * 0.30102999566398119521))


# ---------------------------------------------------------------- matrices


def gram_direct(nodes, N: int):
    """V^H V summed term by term, V[k][j] = e^(i k x_j), k = 0..N.

    The powers e^(i k x_j) come from a running product in fixed point
    (Python integers scaled by 2^f, f = ambient precision plus guard
    bits for the N rounding steps); the sums of products are exact
    integers, rounded once to the ambient precision.
    """
    s = len(nodes)
    f = mp.prec + 16 + max(N, 1).bit_length()
    one = 1 << f
    cols = []
    for x in nodes:
        with mp.workprec(f + 16):
            z = mp.expj(x)
            zr = int(mp.nint(mp.ldexp(z.real, f)))
            zi = int(mp.nint(mp.ldexp(z.imag, f)))
        re, im = one, 0
        col = [(re, im)]
        for _ in range(N):
            re, im = (re * zr - im * zi) >> f, (re * zi + im * zr) >> f
            col.append((re, im))
        cols.append(col)
    G = [[None] * s for _ in range(s)]
    for j in range(s):
        G[j][j] = mpf(N + 1)
        for m in range(j + 1, s):
            # conj(a + ib) * (c + id) = (ac + bd) + i(ad - bc)
            sr = si = 0
            for (a, b), (c, d) in zip(cols[j], cols[m]):
                sr += a * c + b * d
                si += a * d - b * c
            val = mpc(mp.ldexp(mpf(sr), -2 * f), mp.ldexp(mpf(si), -2 * f))
            G[j][m] = val
            G[m][j] = mp.conj(val)
    return G


def prolate_direct(nodes):
    """sinc(x_j - x_k) from mpmath, the prolate matrix of line nodes."""
    s = len(nodes)
    return [[mp.sinc(nodes[j] - nodes[k]) if j != k else mpf(1)
             for k in range(s)] for j in range(s)]


def count_below(A, t) -> int:
    """Number of eigenvalues of the Hermitian A below t (Sylvester inertia).

    Counts the negative pivots of an LDL^H factorisation of A - t*I
    without pivoting, updating the lower triangle only.  A zero pivot
    leaves the count undetermined and raises ArithmeticError.
    """
    n = len(A)
    M = [[A[i][j] - (t if i == j else 0) for j in range(i + 1)] for i in range(n)]
    negative = 0
    for k in range(n):
        d = mp.re(M[k][k])
        if d == 0:
            raise ArithmeticError(f"zero pivot at step {k}")
        if d < 0:
            negative += 1
        conj_col = [mp.conj(M[j][k]) if j > k else None for j in range(n)]
        for i in range(k + 1, n):
            row_i = M[i]
            li = row_i[k] / d
            for j in range(k + 1, i + 1):
                row_i[j] -= li * conj_col[j]
    return negative


def bracket_problems(A, ascending_values, indices, eps, label):
    """Each listed value must lie within relative eps of the eigenvalue of
    A with the same ascending rank: count(< v - eps|v|) <= k and
    count(< v + eps|v|) >= k + 1."""
    problems = []
    for k in indices:
        v = ascending_values[k]
        lo, hi = v - eps * abs(v), v + eps * abs(v)
        try:
            below_lo = count_below(A, lo)
            below_hi = count_below(A, hi)
        except ArithmeticError as exc:
            problems.append(f"{label}[{k}]: inertia undetermined ({exc})")
            continue
        if below_lo > k or below_hi < k + 1:
            problems.append(
                f"{label}[{k}] = {mp.nstr(v, 12)} is not within "
                f"{mp.nstr(eps, 3)} of the reference eigenvalue of rank {k} "
                f"(counts below {below_lo}, {below_hi})")
    return problems


def _spectrum_indices(n, full=True):
    return list(range(n)) if full and n <= FULL_SPECTRUM_MAX else sorted({0, n - 1})


# ---------------------------------------------------------------- spectra


def singular_spectrum_problems(nodes_text, N, bits, values_text,
                               sigma_min_text, full=True):
    """Reported singular values of V_N(x), descending, against a Gram
    summed term by term at bits + 64 and the trace identity."""
    problems = []
    s = len(nodes_text)
    if len(values_text) != s:
        return [f"{len(values_text)} singular values for {s} nodes"]
    with mp.workprec(bits + REF_GUARD_BITS):
        vals = [mpf(v) for v in values_text]
        if any(vals[i] < vals[i + 1] for i in range(s - 1)):
            problems.append("singular values are not non-increasing")
        if mpf(sigma_min_text) != vals[-1]:
            problems.append("sigma_min differs from the last singular value")
        if vals[-1] <= 0:
            problems.append(f"sigma_min = {mp.nstr(vals[-1], 8)} is not positive")
            return problems
        trace = mp.fsum(v * v for v in vals)
        if not _rel_close(trace, mpf(s * (N + 1)), _digits(bits) - 10):
            problems.append(f"sum sigma^2 = {mp.nstr(trace, 20)} differs "
                            f"from s*(N+1) = {s * (N + 1)}")
        G = gram_direct([mpf(x) for x in nodes_text], N)
        eig = [v * v for v in reversed(vals)]
        eps = 2 * mpf(10) ** -SPECTRUM_DIGITS
        problems += bracket_problems(G, eig, _spectrum_indices(s, full), eps,
                                     "sigma^2")
    return problems


def sweep_row_problems(row, detail):
    """One ok sweep row: spectrum reference, lambda and the upper bound."""
    if row["status"] != "ok":
        return [f"status {row['status']}: {detail.get('reason', '')}"]
    bits = int(row["precision_bits"])
    N, ell = int(row["N"]), int(row["ell"])
    spectrum = detail["spectrum"]
    problems = singular_spectrum_problems(
        detail["nodes"]["nodes"], N, bits, spectrum["values"],
        row["sigma_min"], detail["index"] % FULL_SPECTRUM_STRIDE == 0)
    if len(detail["nodes"]["nodes"]) != int(row["s"]):
        problems.append("node count differs from s")
    with mp.workprec(bits + REF_GUARD_BITS):
        sigma = mpf(row["sigma_min"])
        lam = sigma / (mp.sqrt(N) * (N * mpf(row["delta"])) ** (ell - 1))
        if not _rel_close(lam, mpf(row["lambda"]), _digits(bits) - 5):
            problems.append(f"lambda {row['lambda'][:20]} is not "
                            f"sigma_min/(sqrt(N)(N delta)^(ell-1))")
        if mpf(row["upper_explicit"]) < sigma:
            problems.append("upper_explicit < sigma_min")
    return problems


def bound_formula_problems(N, cluster, bounds, bits):
    """The bound report against the formulas evaluated here."""
    problems = []
    with mp.workprec(bits + REF_GUARD_BITS):
        delta, theta, tau = (mpf(cluster[k]) for k in ("delta", "theta", "tau"))
        s, ell = int(cluster["s"]), int(cluster["ell"])
        expected = {
            "lower_shape": mp.sqrt(N) * (N * delta / (32 * mp.pi * mp.e)) ** (ell - 1),
            "upper_explicit": mp.sqrt(N * ell * mp.e) / 2 * (tau * N * delta) ** (ell - 1),
            "srf": 1 / (N * delta),
            "slepian_asymptotic": _slepian_constant(s) * delta ** (2 * s - 2),
        }
        for key, ref in expected.items():
            if not _rel_close(mpf(bounds[key]), ref, FORMULA_DIGITS):
                problems.append(f"{key} = {bounds[key][:20]} differs from "
                                f"its formula {mp.nstr(ref, 20)}")
        window = N * tau * delta <= 2 * mp.pi and N * theta >= s * mpf(bounds["window_floor"])
        if bool(bounds["window_ok"]) != bool(window):
            problems.append("window_ok disagrees with N*tau*delta <= 2pi and "
                            "N*theta >= s*window_floor")
    return problems


def spectrum_doc_problems(doc):
    bits, N = int(doc["precision_bits"]), int(doc["N"])
    problems = singular_spectrum_problems(
        doc["nodes"]["nodes"], N, bits, doc["spectrum"]["values"],
        doc["sigma_min"])
    problems += bound_formula_problems(N, doc["cluster"], doc["bounds"], bits)
    with mp.workprec(bits):
        if mpf(doc["bounds"]["upper_explicit"]) < mpf(doc["sigma_min"]):
            problems.append("upper_explicit < sigma_min")
    return problems


def bounds_doc_problems(doc):
    return bound_formula_problems(int(doc["N"]), doc["cluster"], doc["bounds"],
                                  int(doc["precision_bits"]))


def _line_ref_bits(nodes, floor_bits):
    """Bits for a prolate reference: lambda_min ~ d_min^(2(s-1)) must sit
    far above the rounding of entries of size 1."""
    s = len(nodes)
    with mp.workprec(64):
        dmin = min(abs(a - b) for i, a in enumerate(nodes) for b in nodes[i + 1:])
        need = int(2 * (s - 1) * mp.log(1 / min(dmin, mpf(1)), 2)) + 128
    return max(floor_bits, need) + REF_GUARD_BITS


def prolate_doc_problems(doc, delta_text):
    """Prolate eigenvalues against the sinc matrix, the 2x2 closed form
    and, at delta = 1e-3, the Slepian asymptotic within 2%."""
    problems = []
    bits = int(doc["precision_bits"])
    nodes_text = doc["nodes"]["nodes"]
    s = len(nodes_text)
    values_text = doc["spectrum"]["values"]
    if len(values_text) != s:
        return [f"{len(values_text)} eigenvalues for {s} nodes"]
    with mp.workprec(_line_ref_bits([mpf(x) for x in nodes_text], bits)):
        nodes = [mpf(x) for x in nodes_text]
        vals = [mpf(v) for v in values_text]
        lam_min = mpf(doc["lambda_min"])
        if lam_min != vals[-1]:
            problems.append("lambda_min differs from the last eigenvalue")
        if not _rel_close(mp.fsum(vals), mpf(s), _digits(bits) - 10):
            problems.append(f"eigenvalues sum to {mp.nstr(mp.fsum(vals), 20)}, "
                            f"not the trace {s}")
        eps = mpf(10) ** -SPECTRUM_DIGITS
        problems += bracket_problems(prolate_direct(nodes), vals[::-1],
                                     _spectrum_indices(s), eps, "lambda")
        if s == 2:
            d = abs(nodes[1] - nodes[0])
            closed = 1 - mp.sin(d) / d
            if not _rel_close(lam_min, closed, 12):
                problems.append(f"lambda_min {mp.nstr(lam_min, 15)} differs "
                                f"from 1 - sin(d)/d = {mp.nstr(closed, 15)}")
        if delta_text == "1e-3":
            ratio_text = doc.get("slepian_ratio")
            ratio = lam_min / (_slepian_constant(s)
                               * mpf(delta_text) ** (2 * s - 2))
            if ratio_text is None or not _rel_close(mpf(ratio_text), ratio, 12):
                problems.append(f"slepian_ratio {ratio_text} differs from "
                                f"{mp.nstr(ratio, 15)}")
            if not abs(ratio - 1) <= mpf("0.02"):
                problems.append(f"Slepian ratio {mp.nstr(ratio, 8)} is not "
                                f"within 2% of 1 at delta = 1e-3")
    return problems


def limit_doc_problems(doc, n_list):
    """Gaps shrink as N grows; lambda_min is the smallest eigenvalue of
    the sinc matrix of the nodes."""
    problems = []
    gaps = doc["gaps"]
    if [g["N"] for g in gaps] != list(n_list):
        return [f"gaps reported for N = {[g['N'] for g in gaps]}"]
    nodes_text = doc["nodes"]["nodes"]
    with mp.workprec(_line_ref_bits([mpf(x) for x in nodes_text], 192)):
        values = [mpf(g["gap"]) for g in gaps]
        if any(not values[i] > values[i + 1] for i in range(len(values) - 1)):
            problems.append("gaps do not decrease in N: "
                            + ", ".join(g["gap"][:12] for g in gaps))
        nodes = [mpf(x) for x in nodes_text]
        lam = mpf(doc["lambda_min"])
        problems += bracket_problems(prolate_direct(nodes), [lam], [0],
                                     mpf(10) ** -SPECTRUM_DIGITS, "lambda_min")
    return problems


# ---------------------------------------------------------------- suites
#
# The suites draw their instances inside the program from random.Random
# (seed).  The draws are replayed here so that sampled instances can be
# recomputed; the record parameters (ell, N, interval) are compared with
# the replay first, so a drift between the two shows as a failure.


def _expsum(rng, ell, freq_range=5.0, min_sep=1e-3):
    freqs = []
    while len(freqs) < ell:
        x = mpf(rng.uniform(-freq_range, freq_range))
        if all(abs(x - y) >= min_sep for y in freqs):
            freqs.append(x)
    coeffs = [mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(ell)]
    return coeffs, freqs


def _uniform_mpf(rng, lo, hi):
    return lo + (hi - lo) * mpf(rng.random())


def _cluster(rng, ell, tau, delta):
    if ell == 1:
        return [mpf(0)]
    hi = tau * delta / (ell - 1)
    xs = [mpf(0)]
    for _ in range(ell - 1):
        xs.append(xs[-1] + _uniform_mpf(rng, delta, hi))
    mid = (xs[0] + xs[-1]) / 2
    return [x - mid for x in xs]


def _clustered_sum(rng, ell_max, delta_lo, delta_hi):
    """cor-turan / riemann draw: ell, tau, delta, nodes, coefficients."""
    ell = rng.randint(1, ell_max)
    tau = mpf(max(ell - 1, 1)) + mpf(rng.uniform(0, 1))
    delta = mpf(10) ** (-_uniform_mpf(rng, mpf(delta_lo), mpf(delta_hi)))
    nodes = _cluster(rng, ell, tau, delta)
    coeffs = [mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(ell)]
    return ell, delta, coeffs, nodes


def _value(coeffs, freqs, t):
    return mp.fsum((c * mp.expj(t * x) for c, x in zip(coeffs, freqs)),
                   absolute=False)


def _quad_l2_sq(coeffs, freqs, a, b):
    """(1/(b-a)) * integral_a^b |P|^2 by mp.quad on pieces short enough
    for the fastest oscillation."""
    span = max(freqs) - min(freqs)
    pieces = min(400, 1 + int(span * (b - a) / 2))
    with mp.workprec(QUAD_BITS):
        pts = [a + (b - a) * mpf(k) / pieces for k in range(pieces + 1)]
        integral = mp.quad(lambda t: abs(_value(coeffs, freqs, t)) ** 2, pts)
        return integral / (b - a)


def _l2_sq_closed(coeffs, freqs, length):
    """(1/L) * integral_0^L |P|^2 from (e^(iLd) - 1)/(i d), d = x_j - x_k."""
    acc = mpc(0)
    for cj, xj in zip(coeffs, freqs):
        for ck, xk in zip(coeffs, freqs):
            d = xj - xk
            e = length if d == 0 else (mp.expj(length * d) - 1) / (mpc(0, 1) * d)
            acc += cj * mp.conj(ck) * e
    return acc.real / length


def _sup_ends_problems(coeffs, freqs, a, b, lhs):
    """A grid maximum lies between |P| at the interval ends and sum |c_j|."""
    tol = mpf(10) ** -FORMULA_DIGITS
    ends = max(abs(_value(coeffs, freqs, a)), abs(_value(coeffs, freqs, b)))
    top = mp.fsum(abs(c) for c in coeffs)
    if lhs < ends * (1 - tol):
        return [f"grid maximum {mp.nstr(lhs, 12)} below |P| at an interval "
                f"end {mp.nstr(ends, 12)}"]
    if lhs > top * (1 + tol):
        return [f"grid maximum {mp.nstr(lhs, 12)} above sum |c_j| "
                f"{mp.nstr(top, 12)}"]
    return []


def _turan(i, rec, rng, sampled):
    ell = rng.randint(1, 5)
    coeffs, freqs = _expsum(rng, ell)
    b = mpf(rng.uniform(1.0, 4.0))
    w0 = mpf(rng.uniform(0.0, 0.7)) * b
    w1 = w0 + max(mpf(rng.uniform(0.05, 0.3)) * b, mpf("0.01"))
    with mp.workprec(64):
        interval = mp.nstr(b, 19)
    if rec["params"]["ell"] != ell or rec["params"]["interval"] != interval:
        return ["record parameters differ from the replayed draw"]
    lhs, rhs = mpf(rec["lhs"]), mpf(rec["rhs"])
    problems = [] if lhs <= rhs else ["lhs > rhs"]
    if sampled:
        problems += _sup_ends_problems(coeffs, freqs, mpf(0), b, lhs)
        factor = (4 * mp.e * b / (w1 - w0)) ** (ell - 1)
        ends = max(abs(_value(coeffs, freqs, w0)), abs(_value(coeffs, freqs, w1)))
        if rhs < factor * ends * (1 - mpf(10) ** -FORMULA_DIGITS):
            problems.append("rhs below the factor times |P| at an end of Omega")
    return problems


def _nikolskii(i, rec, rng, sampled):
    ell = rng.randint(1, 5)
    coeffs, freqs = _expsum(rng, ell, freq_range=20.0)
    if rec["params"]["ell"] != ell:
        return ["record parameters differ from the replayed draw"]
    lhs, rhs = mpf(rec["lhs"]), mpf(rec["rhs"])
    problems = [] if lhs <= rhs else ["lhs > rhs"]
    if sampled:
        problems += _sup_ends_problems(coeffs, freqs, mpf(0), mpf(1), lhs)
        l2 = rhs / (mp.pi * ell / 2)
        ref = mp.sqrt(_quad_l2_sq(coeffs, freqs, mpf(0), mpf(1)))
        if not _rel_close(l2, ref, QUAD_DIGITS):
            problems.append(f"L2(0,1) norm {mp.nstr(l2, 15)} differs from "
                            f"mp.quad {mp.nstr(ref, 15)}")
    return problems


def _cor_turan(i, rec, rng, sampled):
    ell, delta, coeffs, nodes = _clustered_sum(rng, 4, 2, 5)
    n_hi = min(300, int(4 * math.pi / float(delta)))
    N = rng.randint(50, max(50, n_hi))
    if rec["params"]["ell"] != ell or rec["params"]["N"] != N:
        return ["record parameters differ from the replayed draw"]
    lhs, rhs = mpf(rec["lhs"]), mpf(rec["rhs"])
    problems = [] if lhs >= rhs else ["lhs < rhs"]
    if sampled:
        ref_small = mp.sqrt(_quad_l2_sq(coeffs, nodes, mpf(0), mpf(N)))
        ref_big = mp.sqrt(_quad_l2_sq(coeffs, nodes, mpf(0), 4 * mp.pi / delta))
        factor = 2 / (mp.pi * ell) * (N * delta / (16 * mp.pi * mp.e)) ** (ell - 1)
        if not _rel_close(lhs, ref_small, QUAD_DIGITS):
            problems.append(f"L2(0,N) norm {mp.nstr(lhs, 15)} differs from "
                            f"mp.quad {mp.nstr(ref_small, 15)}")
        if not _rel_close(rhs / factor, ref_big, QUAD_DIGITS):
            problems.append(f"L2(0,4pi/delta) norm {mp.nstr(rhs / factor, 15)} "
                            f"differs from mp.quad {mp.nstr(ref_big, 15)}")
    return problems


def _riemann(i, rec, rng, sampled):
    ell, delta, coeffs, nodes = _clustered_sum(rng, 5, 3, 6)
    N = rng.randint(30, 300)
    if rec["params"]["ell"] != ell or rec["params"]["N"] != N:
        return ["record parameters differ from the replayed draw"]
    lhs, rhs = mpf(rec["lhs"]), mpf(rec["rhs"])
    problems = [] if lhs >= rhs else ["discrete norm below N/2 * L1"]
    if sampled:
        with mp.workprec(mp.prec + 32):
            direct = mp.fsum(abs(_value(coeffs, nodes, k)) ** 2
                             for k in range(N + 1))
        if not _rel_close(lhs, direct, FORMULA_DIGITS):
            problems.append(f"discrete norm^2 {mp.nstr(lhs, 15)} differs from "
                            f"sum_k |P(k)|^2 = {mp.nstr(direct, 15)}")
        ref = mpf(N) / 2 * _quad_l2_sq(coeffs, nodes, mpf(0), mpf(N))
        if not _rel_close(rhs, ref, QUAD_DIGITS):
            problems.append(f"N/2 * L1 {mp.nstr(rhs, 15)} differs from "
                            f"mp.quad {mp.nstr(ref, 15)}")
    return problems


_REPLAY = {
    "turan": _turan,
    "nikolskii": _nikolskii,
    "cor-turan": _cor_turan,
    "riemann": _riemann,
}

SALEM_DELTAS = ("1e-2", "1e-4", "1e-6")


def _salem_problems(result, seed, instances, stride):
    """Returns {record index: problems}; each record stands for
    `instances` draws."""
    out = {}
    records = result["records"]
    if len(records) != len(SALEM_DELTAS):
        return {0: [f"{len(records)} Salem records, expected {len(SALEM_DELTAS)}"]}
    for r, (rec, delta_text) in enumerate(zip(records, SALEM_DELTAS)):
        problems = []
        lo = mpf(rec["lhs"])
        if rec["params"]["delta"] != delta_text or not rec["holds"]:
            problems.append("record does not hold or names another delta")
        if not lo > 0:
            problems.append(f"Salem minimum {rec['lhs'][:20]} is not positive")
        rng = random.Random(seed)
        delta = mpf(delta_text)
        for i in range(instances):
            ell = rng.randint(1, 5)
            freqs = []
            while len(freqs) < ell:
                x = mpf(rng.uniform(-3.1, 3.1))
                if all(abs(x - y) >= delta for y in freqs):
                    freqs.append(x)
            coeffs = [mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for _ in range(ell)]
            if i % stride == 0:
                with mp.workprec(SUITE_BITS + REF_GUARD_BITS):
                    ratio = _l2_sq_closed(coeffs, freqs, 4 * mp.pi / delta) / \
                        mp.fsum(abs(c) ** 2 for c in coeffs)
                if lo > ratio * (1 + mpf(10) ** -QUAD_DIGITS):
                    problems.append(f"Salem minimum {mp.nstr(lo, 12)} exceeds "
                                    f"instance {i}'s ratio {mp.nstr(ratio, 12)}")
        out[r] = problems
    return out


def suites_problems(doc, seed, instances, checks, stride=SUITE_SAMPLE_STRIDE):
    """Per suite, {instance index: problems} for the instances that
    failed; Salem keys are record indices standing for `instances` draws.
    A suite missing from the document maps to None."""
    by_name = {r["name"]: r for r in doc}
    out = {}
    with mp.workprec(SUITE_BITS):
        for name in checks:
            result = by_name.get(name)
            if result is None or result.get("seed") != seed:
                out[name] = None
                continue
            if name == "salem":
                failed = _salem_problems(result, seed, instances, stride)
            else:
                records = result["records"]
                if len(records) != instances:
                    out[name] = None
                    continue
                rng = random.Random(seed)
                failed = {}
                for i, rec in enumerate(records):
                    problems = _REPLAY[name](i, rec, rng, i % stride == 0)
                    if not rec["holds"]:
                        problems.append("verdict does not hold")
                    failed[i] = problems
            out[name] = {i: p for i, p in failed.items() if p}
    return out
