"""Mutation run: each one-line mutant below must fail the tests listed
with it.

Run from the root of a source checkout:

    python tests/mutants.py

The run copies src/, tests/, pyproject.toml and README.md to a temporary
directory and first runs every listed test there unmutated: they must
pass.  Then, one mutant at a time, it replaces the old line of the
mutant's file in the copy with the new one, runs only the mutant's tests
with -x, and puts the line back.  A mutant is killed when pytest reports
a failed test (exit code 1); a clean pass, an import error or no tests
collected leaves it alive.  The run exits 1 when an old line does not
match exactly once or a mutant survives, and prints one line per mutant.
Pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPSUMS = "src/vandelab/expsums.py"
PRESCREEN = "tests/test_expsums.py::TestGridMaxPrescreen::"
SPECTRA = "src/vandelab/spectra.py"
BOUNDS = "src/vandelab/bounds.py"
JACOBI = "tests/test_spectra.py::TestJacobi::"

#: (file, old line, new line, the tests that must fail)
MUTANTS = [
    # _float_moduli's constant term of E, 12u S, as 2u S
    (EXPSUMS,
     "        12 * _U + gamma + math.ldexp(r_max + n + 4, 2 - p)))",
     "        2 * _U + gamma + math.ldexp(r_max + n + 4, 2 - p)))",
     [PRESCREEN + "test_float_moduli_constant_term_of_the_bound"]),
    # the Lipschitz reach of a run halved
    (EXPSUMS,
     "    reach = 2 * E + _RUN / 2 * abs(H) * lam \\",
     "    reach = 2 * E + _RUN / 4 * abs(H) * lam \\",
     [PRESCREEN + "test_run_around_a_sharp_peak_is_evaluated"]),
    # the last point of ks left out of the coarse points
    (EXPSUMS,
     "    coarse = [*ks[:-1:_RUN], ks[-1]]",
     "    coarse = [*ks[:-1:_RUN]]",
     [PRESCREEN + "test_float_moduli_within_stated_bound",
      PRESCREEN + "test_random_sums_match_full_grid"]),
    # _float_salem's E times 2^-30
    (EXPSUMS,
     "    E = (1 + 2.0 ** -20) * (err / c2 + 10 * _U * abs(R) + 2 * _U * abs(r)",
     "    E = 2.0 ** -30 * (err / c2 + 10 * _U * abs(R) + 2 * _U * abs(r)",
     ["tests/test_expsums.py::TestSalem::test_float_ratio_within_stated_bound"]),
    # random_expsum's binary64 draw margin 2^-50 dropped
    ("src/vandelab/suites.py",
     "    far = m * (1 + 2.0 ** -50) \\",
     "    far = m \\",
     ["tests/test_suites.py::TestRandomExpsumSeparation"
      "::test_gap_below_binary64_resolution"]),
    # _require_separated's binary64 margin dropped: T = fl(delta_sep)
    (EXPSUMS,
     "            * (1 + 2.0 ** -50) + 2.0 ** -46",
     "            * 1.0",
     ["tests/test_expsums.py::TestSeparationBoundary"]),
    # decimal_str reading its value at the ambient precision, not at bits
    ("src/vandelab/hp.py",
     "    x = mpf(x, prec=p)",
     "    x = mpf(x)",
     ["tests/test_hp.py::TestDecimalStrOfValueAndBits"
      "::test_matches_reading_under_workprec"]),
    # the eigensolver's finiteness check on its raw entries dropped
    (SPECTRA,
     "    if any(not man and exp for row in a for _, man, exp, _ in row):",
     "    if False:",
     [JACOBI + "test_rejects_non_finite_entry"]),
    # the eigensolver's symmetry check on its raw entries dropped
    (SPECTRA,
     "    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):",
     "    if False:",
     [JACOBI + "test_rejects_asymmetric_entry"]),
    # the sup enclosure 1/(1 - h B/2) as 1/(1 - h B/4)
    (EXPSUMS,
     "    upper = lower / (1 - h * B / 2)",
     "    upper = lower / (1 - h * B / 4)",
     ["tests/test_expsums.py::TestCertifiedSup"
      "::test_upper_is_lower_over_one_minus_half_hb"]),
    # the prolate lower-bound shape's 16 pi e as 8 pi e
    (BOUNDS,
     "    return (as_mpf(delta) / pi_e(16)) ** (2 * (ell - 1))",
     "    return (as_mpf(delta) / pi_e(8)) ** (2 * (ell - 1))",
     ["tests/test_bounds.py::TestProlateLowerShape"
      "::test_constant_sixteen_pi_e"]),
    # the cor-Turan constant 16 pi e as 32 pi e
    (EXPSUMS,
     "    rhs = 2 / (mp.pi * ell) * (N * delta / pi_e(16)) ** (ell - 1) * big",
     "    rhs = 2 / (mp.pi * ell) * (N * delta / pi_e(32)) ** (ell - 1) * big",
     ["tests/test_expsums.py::TestCorTuran"
      "::test_equispaced_pair_rhs_written_out"]),
    # the Nikolskii constant pi ell / 2 as pi ell
    (EXPSUMS,
     "    rhs = mp.pi * P.degree / 2 * l2_norm_exact(P, 0, 1)",
     "    rhs = mp.pi * P.degree * l2_norm_exact(P, 0, 1)",
     ["tests/test_expsums.py::TestNikolskii"
      "::test_one_term_rhs_is_half_pi_times_l2"]),
]


def pytest(copy: Path, tests) -> int:
    # no bytecode is cached, so a mutant never runs from a stale .pyc
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def main() -> int:
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=skip)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, copy / name)
        where = subprocess.run(
            [sys.executable, "-c", "import vandelab; print(vandelab.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(copy / "src")),
            capture_output=True, text=True, check=True).stdout.strip()
        if not Path(where).resolve().is_relative_to(copy.resolve()):
            print(f"the copy imports vandelab from {where}, not the copy")
            return 1
        tests = list(dict.fromkeys(t for *_, ts in MUTANTS for t in ts))
        code = pytest(copy, tests)
        if code != 0:
            print(f"the listed tests exit {code} unmutated, not 0")
            return 1
        for path, old, new, tests in MUTANTS:
            target = copy / path
            text = target.read_text(encoding="utf-8")
            lines = text.split("\n")
            hits = [i for i, line in enumerate(lines) if line == old]
            if len(hits) != 1:
                bad.append(f"{path}: {len(hits)} lines equal {old.strip()!r}")
                print(bad[-1])
                continue
            lines[hits[0]] = new
            target.write_text("\n".join(lines), encoding="utf-8")
            try:
                code = pytest(copy, tests)
            finally:
                target.write_text(text, encoding="utf-8")
            verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
            print(f"{verdict}: {path}: {old.strip()!r} -> {new.strip()!r}")
            if code != 1:
                bad.append(verdict)
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
