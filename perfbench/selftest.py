"""Self-test of the output checks: each must reject a corrupted output.

    python3 perfbench/run.py --selftest

Runs a few seconds of every command kind (the ``selftest`` plan), shows
that the untouched outputs pass their checks, then feeds each check a
copy with one value corrupted -- a perturbed sigma_min, a flipped
verdict, a scaled norm, ... -- and shows that the check rejects it.
Prints one PASS or FAIL line per case; exits 0 only if all pass.
"""

from __future__ import annotations

import copy
import json
import shutil

from mpmath import mp, mpf

import checks


def _scaled(text, factor):
    with mp.workprec(4096):
        return mp.nstr(mpf(text) * mpf(factor), 200)


def _perturb(values, index, factor, power):
    """values[index] scaled by factor, values[0] moved so that the sum of
    value**power (the trace the checks also test) stays the same."""
    out = list(values)
    with mp.workprec(4096):
        old, new = mpf(values[index]), mpf(values[index]) * mpf(factor)
        top = (mpf(values[0]) ** power + old ** power - new ** power) ** (mpf(1) / power)
        out[index], out[0] = mp.nstr(new, 300), mp.nstr(top, 300)
    return out


def _load(out, op_id, name):
    with open(out / op_id / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _sweep_cases(out):
    rows = _load(out, "sweep", "results.json")["rows"]
    details = _load(out, "sweep", "details.json")["details"]
    row, det = rows[0], details[0]  # row 0 gets the value-by-value check

    def case(edit):
        r, d = copy.deepcopy(row), copy.deepcopy(det)
        edit(r, d)
        return checks.sweep_row_problems(r, d)

    def sigma_min(r, d):
        values = _perturb(d["spectrum"]["values"], -1, "1.000000000001", 2)
        d["spectrum"]["values"] = values
        r["sigma_min"] = values[-1]

    def middle_value(r, d):
        d["spectrum"]["values"] = _perturb(d["spectrum"]["values"], 1, "1.0000000001", 2)

    def lam(r, d):
        r["lambda"] = _scaled(r["lambda"], "1.000001")

    def upper(r, d):
        r["upper_explicit"] = _scaled(r["sigma_min"], "0.5")

    def status(r, d):
        r["status"], d["reason"] = "failed", "injected"

    def node(r, d):
        d["nodes"]["nodes"][0] = _scaled(d["nodes"]["nodes"][0], "1.0000001")

    return {
        "sweep row untouched passes": (checks.sweep_row_problems(row, det), False),
        "sweep row: sigma_min perturbed by 1e-12": (case(sigma_min), True),
        "sweep row: a middle singular value perturbed": (case(middle_value), True),
        "sweep row: lambda scaled": (case(lam), True),
        "sweep row: upper_explicit below sigma_min": (case(upper), True),
        "sweep row: status failed": (case(status), True),
        "sweep row: a node moved": (case(node), True),
    }


def _single_cases(out):
    spec = _load(out, "spectrum", "spectrum.json")
    bounds = _load(out, "bounds", "bounds.json")
    prolate = _load(out, "prolate-3-1e-3", "prolate.json")
    prolate2 = _load(out, "prolate-2-1e-3", "prolate.json")
    limit = _load(out, "limit-check-2-0.5", "limit_check.json")
    n_list = [g["N"] for g in limit["gaps"]]

    spec_sigma = copy.deepcopy(spec)
    spec_sigma["spectrum"]["values"] = _perturb(spec["spectrum"]["values"], -1,
                                                "0.999999999999", 2)
    spec_sigma["sigma_min"] = spec_sigma["spectrum"]["values"][-1]
    spec_shape = copy.deepcopy(spec)
    spec_shape["bounds"]["lower_shape"] = _scaled(spec["bounds"]["lower_shape"], "1.001")
    bounds_window = copy.deepcopy(bounds)
    bounds_window["bounds"]["window_ok"] = not bounds["bounds"]["window_ok"]
    bounds_upper = copy.deepcopy(bounds)
    bounds_upper["bounds"]["upper_explicit"] = _scaled(bounds["bounds"]["upper_explicit"], "2")
    prolate_min = copy.deepcopy(prolate)
    prolate_min["spectrum"]["values"] = _perturb(prolate["spectrum"]["values"], -1,
                                                 "1.00000000001", 1)
    prolate_min["lambda_min"] = prolate_min["spectrum"]["values"][-1]
    prolate_ratio = copy.deepcopy(prolate)
    prolate_ratio["slepian_ratio"] = _scaled(prolate["slepian_ratio"], "1.05")
    prolate_two = copy.deepcopy(prolate2)
    prolate_two["spectrum"]["values"] = _perturb(prolate2["spectrum"]["values"], -1,
                                                 "1.0000001", 1)
    prolate_two["lambda_min"] = prolate_two["spectrum"]["values"][-1]
    limit_gaps = copy.deepcopy(limit)
    limit_gaps["gaps"][1]["gap"], limit_gaps["gaps"][2]["gap"] = \
        limit["gaps"][2]["gap"], limit["gaps"][1]["gap"]
    limit_lam = copy.deepcopy(limit)
    limit_lam["lambda_min"] = _scaled(limit["lambda_min"], "-1")
    return {
        "spectrum untouched passes": (checks.spectrum_doc_problems(spec), False),
        "spectrum: sigma_min perturbed": (checks.spectrum_doc_problems(spec_sigma), True),
        "spectrum: lower_shape scaled": (checks.spectrum_doc_problems(spec_shape), True),
        "bounds untouched passes": (checks.bounds_doc_problems(bounds), False),
        "bounds: window_ok flipped": (checks.bounds_doc_problems(bounds_window), True),
        "bounds: upper_explicit doubled": (checks.bounds_doc_problems(bounds_upper), True),
        "prolate untouched passes": (checks.prolate_doc_problems(prolate, "1e-3"), False),
        "prolate: lambda_min perturbed": (checks.prolate_doc_problems(prolate_min, "1e-3"), True),
        "prolate: Slepian ratio off by 5%": (checks.prolate_doc_problems(prolate_ratio, "1e-3"), True),
        "prolate 2x2: off the closed form": (checks.prolate_doc_problems(prolate_two, "1e-3"), True),
        "limit-check untouched passes": (checks.limit_doc_problems(limit, n_list), False),
        "limit-check: gaps out of order": (checks.limit_doc_problems(limit_gaps, n_list), True),
        "limit-check: lambda_min negated": (checks.limit_doc_problems(limit_lam, n_list), True),
    }


def _suite_cases(out, spec):
    doc = _load(out, "inequalities", "inequalities.json")
    by_name = {r["name"]: i for i, r in enumerate(doc)}

    def rejected(name, edit):
        d = copy.deepcopy(doc)
        edit(d[by_name[name]])
        got = checks.suites_problems(d, spec["seed"], spec["instances"], [name],
                                     spec["stride"])[name]
        if got is None:
            return ["suite rejected as malformed"]
        return [f"instance {i}: {p}" for i, ps in got.items() for p in ps]

    def flip(result):
        result["records"][1]["holds"] = False

    def scale(key, index, factor):
        def edit(result):
            rec = result["records"][index]
            rec[key] = _scaled(rec[key], factor)
        return edit

    def salem_zero(result):
        result["records"][0]["lhs"] = "0.0"

    def salem_high(result):
        result["records"][1]["lhs"] = _scaled(result["records"][1]["lhs"], "1e6")

    untouched = checks.suites_problems(doc, spec["seed"], spec["instances"],
                                       spec["checks"], spec["stride"])
    return {
        "suites untouched pass": (
            [f"{k}: {v}" for k, v in untouched.items() if v is None or v], False),
        "turan: verdict flipped": (rejected("turan", flip), True),
        "turan: grid maximum above sum |c_j|": (rejected("turan", scale("lhs", 0, "10")), True),
        "nikolskii: L2 norm scaled": (rejected("nikolskii", scale("rhs", 3, "1.001")), True),
        "nikolskii: grid maximum below |P| at the ends": (
            rejected("nikolskii", scale("lhs", 0, "0.01")), True),
        "cor-turan: L2(0,N) norm scaled": (rejected("cor-turan", scale("lhs", 0, "1.0001")), True),
        "riemann: discrete norm scaled": (rejected("riemann", scale("lhs", 3, "1.0001")), True),
        "riemann: verdict flipped": (rejected("riemann", flip), True),
        "salem: minimum zero": (rejected("salem", salem_zero), True),
        "salem: minimum above a sampled ratio": (rejected("salem", salem_high), True),
    }


def main(run) -> int:
    """run is run.run, passed in so that its errors stay those of the
    running script."""
    result = run("selftest", 7, 0, False, keep=True)
    work = result["work"]
    try:
        out = work / "round-0"
        spec = next(op["check"] for op in result["plan"]["ops"]
                    if op["id"] == "inequalities")
        round_problems = [f"{op['id']}[{k}]: {p[0]}"
                          for op, k, p in result["rounds"][0]["verdicts"] if p]
        cases = {"every operation of the round passes": (round_problems, False)}
        cases.update(_sweep_cases(out))
        cases.update(_single_cases(out))
        cases.update(_suite_cases(out, spec))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = 0
    for name, (problems, should_reject) in cases.items():
        ok = bool(problems) == should_reject
        failures += not ok
        detail = problems[0] if problems else "no problem found"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}"[:300])
    print(f"{len(cases) - failures} of {len(cases)} self-test cases pass")
    return 0 if failures == 0 else 1
