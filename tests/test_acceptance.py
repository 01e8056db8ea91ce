"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Every tolerance is pinned here, none is configurable.
"""

import csv
import json
import random
import time

from mpmath import mp, mpf

from conftest import (
    fit_level_constant,
    gram_entry_direct,
    level_counts,
    random_clustered_config,
)
from vandelab.bounds import slepian_constant, upper_bound_explicit
from vandelab.experiments import ExperimentManifest, run_sweep
from vandelab.geometry import LINE, NodeSet, validate_config
from vandelab.hp import required_bits
from vandelab.matrices import (
    VandermondeSpec,
    build_dirichlet_kernel,
    build_prolate,
)
from vandelab.spectra import (
    hermitian_eigenvalues,
    prolate_limit_check,
    singular_values,
)
from vandelab.suites import ALL_SUITES


def _report(num, name, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed {tail}"


def _equispaced_line_cluster(s, delta):
    return NodeSet(tuple((k - mpf(s - 1) / 2) * delta for k in range(s)),
                   LINE)


def test_01_slepian_asymptotic_reproduction():
    t0 = time.perf_counter()
    ok = True
    detail = []
    with mp.workprec(320):
        for s in (2, 3, 4):
            ratios = []
            for dtext in ("1e-2", "1e-3", "1e-4"):
                delta = mpf(dtext)
                G = build_prolate(_equispaced_line_cluster(s, delta), 320)
                lam = hermitian_eigenvalues(G, 320).min_value
                ratios.append(lam / (slepian_constant(s)
                                     * delta ** (2 * s - 2)))
            # within 2% at delta = 1e-3 and monotone approach to 1
            if not (mpf("0.98") <= ratios[1] <= mpf("1.02")):
                ok = False
            if not (abs(ratios[0] - 1) > abs(ratios[1] - 1)
                    > abs(ratios[2] - 1)):
                ok = False
            detail.append(f"s={s} ratio(1e-3)={mp.nstr(ratios[1], 10)}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10
    _report(1, "slepian asymptotic reproduction", ok,
            "; ".join(detail) + f"; {elapsed:.2f}s")


def test_02_exact_two_by_two_prolate():
    t0 = time.perf_counter()
    with mp.workprec(256):
        delta = mpf("0.1")
        G = build_prolate(NodeSet((mpf(0), delta), LINE), 256)
        lam = hermitian_eigenvalues(G, 256).min_value
        closed = 1 - mp.sin(delta) / delta
        rel = abs(lam - closed) / closed
        ok = rel < mpf(10) ** -12
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1
    _report(2, "exact 2x2 prolate eigenvalue", ok,
            f"rel err {mp.nstr(rel, 3)}; {elapsed:.2f}s")


def test_03_figure_one_bracket(tmp_path):
    t0 = time.perf_counter()
    manifest = ExperimentManifest.from_json_dict({
        "experiment_id": "accept-bracket",
        "kind": "sweep",
        "grid": {
            "ell": [2, 3, 4, 5, 6, 7, 8],
            "N": [100],
            "delta": ["1e-6", "1e-10"],
            "layout": ["equispaced"],
        },
    })
    summary = run_sweep(manifest, tmp_path)
    ok = summary.ok == 14 and summary.failed == 0
    lam_by_key = {}
    for row in summary.rows:
        ell = int(row["ell"])
        with mp.workprec(64):
            val = mpf(row["log10_lambda"]) / (ell - 1)
            tau = mpf(row["tau"])
            lo = mpf("-2.13") - mpf("0.5")
            hi = mp.log10(tau) + mpf("0.5")
            if not (lo <= val <= hi):
                ok = False
        lam_by_key.setdefault(ell, []).append(mpf(row["lambda"]))
    for ell, lams in lam_by_key.items():
        if len(lams) != 2:
            ok = False
            continue
        ratio = lams[0] / lams[1]
        if not (mpf("0.5") < ratio < 2):
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300
    _report(3, "figure-1 bracket and delta stability", ok,
            f"slope {summary.fitted_slope:.4f}; {elapsed:.1f}s")


def test_04_explicit_upper_bound_unconditional():
    # the bound carries content for ell >= 2 (at ell = 1 it degenerates
    # below the trivial column norm sqrt(N+1), see the decisions ledger)
    rng = random.Random(1234)
    violations = 0
    worst = mpf(0)
    for _ in range(200):
        inst = random_clustered_config(rng, ell_range=(2, 4),
                                       clusters_range=(1, 3),
                                       delta_exp_range=(4.0, 8.0),
                                       n_range=(60, 300), theta=1)
        bits = required_bits(inst.cluster.ell, inst.N, inst.cluster.delta)
        sv = singular_values(VandermondeSpec(inst.N, inst.nodes), bits)
        with mp.workprec(bits):
            ub = upper_bound_explicit(inst.N, inst.cluster.delta,
                                      inst.cluster.ell, inst.cluster.tau)
            ratio = sv.min_value / ub
            worst = max(worst, ratio)
            if sv.min_value > ub:
                violations += 1
    _report(4, "explicit upper bound on 200 instances", violations == 0,
            f"violations {violations}, max sigma/bound {mp.nstr(worst, 4)}")


def test_05_half_factor_cluster_decoupling():
    rng = random.Random(777)
    violations = 0
    worst = mpf("inf")
    for _ in range(50):
        inst = random_clustered_config(rng, ell_range=(2, 3),
                                       clusters_range=(2, 3),
                                       delta_exp_range=(4.0, 7.0),
                                       n_range=(60, 320), theta=2,
                                       n_per_s=25)
        with mp.workprec(192):
            assert inst.N * inst.cluster.theta >= 50 * inst.cluster.s
            assert inst.N * inst.cluster.tau * inst.cluster.delta <= 1
        part = validate_config(inst.nodes, inst.cluster)
        bits = required_bits(inst.cluster.ell, inst.N, inst.cluster.delta)
        full = singular_values(VandermondeSpec(inst.N, inst.nodes), bits)
        merged = []
        for cluster_idx in part.clusters:
            sub = NodeSet(tuple(inst.nodes.nodes[i] for i in cluster_idx))
            merged.extend(singular_values(VandermondeSpec(inst.N, sub),
                                          bits=bits).values)
        merged.sort(reverse=True)
        with mp.workprec(bits):
            for sig, tilde in zip(full.values, merged):
                worst = min(worst, sig / tilde)
                if sig < tilde / 2:
                    violations += 1
    _report(5, "half-factor decoupling on 50 instances", violations == 0,
            f"violations {violations}, min sigma/tilde {mp.nstr(worst, 4)}")


def test_06_gram_closed_form_vs_direct_summation():
    rng = random.Random(4242)
    ok = True
    worst = mpf(0)
    for i in range(100):
        bits = 192 if i % 3 else 256
        with mp.workprec(bits):
            s = rng.randint(2, 10)
            N = rng.randint(s, 200)
            if rng.random() < 0.5:
                xs = set()
                while len(xs) < s:
                    xs.add(mpf(rng.uniform(-3.1, 3.1)))
                nodes = NodeSet(tuple(sorted(xs)))
            else:
                base = mpf(rng.uniform(-1, 1))
                gap = mpf(10) ** mpf(-rng.uniform(2, 6))
                nodes = NodeSet(tuple(base + k * gap for k in range(s)))
            # the kernel the program solves, K = U G U^H: at (j, m) the
            # sum of e^(i k d), d = x_m - x_j, under the phase e^(-i N d/2)
            K = build_dirichlet_kernel(VandermondeSpec(N, nodes), bits)
            tol = mpf(2) ** -(bits - 16)
            for j in range(s):
                for m in range(s):
                    with mp.workprec(2 * bits):
                        d = nodes.nodes[m] - nodes.nodes[j]
                    direct = gram_entry_direct(d, N, bits)
                    with mp.workprec(2 * bits):
                        want = mp.expj(-N * d / 2) * direct
                    scale = max(abs(want), abs(K[j][m]))
                    if scale == 0:
                        continue
                    rel = abs(K[j][m] - want) / scale
                    worst = max(worst, rel / tol)
                    if rel > tol:
                        ok = False
    _report(6, "program's kernel U G U^H vs direct summation", ok,
            f"worst rel/tol {mp.nstr(worst, 3)} over 100 instances")


def test_07_prolate_limit():
    nodes = NodeSet((mpf(0), mpf("0.5")), LINE)
    _, out, _ = prolate_limit_check(nodes, [10, 50, 250], bits=256)
    gaps = [g for _, g in out]
    with mp.workprec(256):
        lam_g = hermitian_eigenvalues(build_prolate(nodes, 256),
                                      256).min_value
        ok = gaps[0] > gaps[1] > gaps[2]
        ok = ok and gaps[2] <= mpf("0.01") * lam_g
    _report(7, "prolate limit convergence", ok,
            f"gap(250)/lambda = {mp.nstr(gaps[2] / lam_g, 4)}")


def test_08_inequality_suites():
    turan = ALL_SUITES["turan"](instances=500, seed=20240601)
    nik = ALL_SUITES["nikolskii"](instances=500, seed=20240601)
    cor = ALL_SUITES["cor-turan"](instances=500, seed=20240601)
    riemann = ALL_SUITES["riemann"](instances=500, seed=20240601)
    salem = ALL_SUITES["salem"](instances=500, seed=20240601)
    ok = (turan.all_hold and nik.all_hold and cor.all_hold
          and riemann.all_hold and salem.all_hold)
    minima = [mpf(x) for x in salem.summary["minima"]]
    spread = mpf(salem.summary["relative_spread"])
    ok = ok and min(minima) > 0 and spread <= mpf("0.2")
    _report(8, "inequality suites (500 instances each)", ok,
            f"salem min {mp.nstr(min(minima), 6)}, spread "
            f"{mp.nstr(spread, 3)}")


def test_09_level_counting_matches_q():
    rng = random.Random(2024)
    data = []
    for _ in range(20):
        ell = rng.randint(2, 4)
        inst = random_clustered_config(
            rng, ell_range=(ell, ell), clusters_range=(2, 3),
            delta_exp_range=(ell + 3.5, ell + 5.0), n_range=(60, 300),
            theta=1, require_distinct_mults=True)
        part = validate_config(inst.nodes, inst.cluster)
        bits = required_bits(inst.cluster.ell, inst.N, inst.cluster.delta)
        sv = singular_values(VandermondeSpec(inst.N, inst.nodes), bits)
        data.append((sv.values, part.q, inst.N, inst.cluster.delta))
    fit = fit_level_constant(data)
    ok = fit.nonempty
    mismatches = 0
    if ok:
        for sigma, q, N, delta in data:
            counts = level_counts(sigma, q, N, delta, fit.c1)
            if counts != list(q):
                mismatches += 1
        ok = mismatches == 0
    _report(9, "per-level spectral counting", ok,
            f"fitted c1 {mp.nstr(fit.c1, 4)} in "
            f"({mp.nstr(fit.lo, 3)}, {mp.nstr(fit.hi, 3)}], "
            f"mismatches {mismatches}/20")


def test_10_sweep_determinism(tmp_path):
    manifest_obj = {
        "experiment_id": "accept-determinism",
        "kind": "sweep",
        "grid": {
            "ell": [1, 2, 3],
            "N": [80],
            "delta": ["1e-6"],
            "layout": ["random"],
            "seed": [31415],
        },
    }

    def run(dirname):
        out = tmp_path / dirname
        run_sweep(ExperimentManifest.from_json_dict(manifest_obj), out)
        with open(out / "results.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        # runtime_ms is wall-clock timing, the one excluded column
        for row in rows:
            row["runtime_ms"] = ""
        with open(out / "results.json", encoding="utf-8") as fh:
            payload = json.load(fh)
        for row in payload["rows"]:
            row["runtime_ms"] = ""
        return rows, payload

    rows_a, json_a = run("first")
    rows_b, json_b = run("second")
    ok = rows_a == rows_b and json_a == json_b and len(rows_a) == 3
    _report(10, "manifest + seed determinism", ok,
            f"{len(rows_a)} identical rows")
