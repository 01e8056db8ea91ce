"""The three workloads, as plans of vandelab command lines.

A plan is built from the workload name and the seed alone.  It lists
the set-up commands (run before timing) and the operations (timed), each
as the argument list of ``vandelab.cli.main`` without ``--out``, which
the round adds.  Manifests and configs are written here as JSON with
decimal strings, so no input passes through the program before it is
measured, except the one ``gen-config`` call that the desk session
makes in set-up.

``units`` is the number of operations a command stands for: one per
sweep row, one per single-instance command, one per suite instance.
``known_fault`` names a fault an operation runs into on every seed; the
operation is counted as failed, and ``correct`` stays true, while that
fault lasts.
"""

from __future__ import annotations

import json
import random
from decimal import Decimal
from pathlib import Path

DEFAULT_SEED = 20240601
WORKLOADS = ("sweep-desk", "sweep-heavy", "suites")

DESK_RANDOM_SEEDS = 40
DESK_GRID = {"ell": [2, 3, 4, 5, 6], "N": [100], "delta": ["1e-6", "1e-10"]}
#: tau = 8 leaves every ell <= 6 room for random gaps in
#: [delta, 8*delta/(ell-1)]; with tau = ell - 1 the random layout can
#: only place gaps of exactly delta and every seed gives the same row
DESK_RANDOM_TAU = "8"
PROLATE_CLUSTERS = [(s, d) for s in (2, 3, 4) for d in ("1e-2", "1e-3", "1e-4")]
LIMIT_N_LIST = (10, 50, 250)

#: (ell, s, delta, N); the last point exhausts the Jacobi sweep budget
HEAVY_POINTS = [
    (6, 6, "1e-10", 100),
    (12, 12, "1e-25", 144),
    (4, 16, "1e-10", 192),
    (6, 24, "1e-10", 288),
    (4, 24, "1e-10", 288),
]

SUITE_CHECKS = ("turan", "nikolskii", "cor-turan", "salem", "riemann")
SUITE_INSTANCES = 500
#: run_salem_suite draws its instances once per separation 1e-2, 1e-4, 1e-6
SALEM_SEPARATIONS = 3

FAULT_JACOBI_BUDGET = (
    "spectra.hermitian_eigenvalues raises ConvergenceError: the budget of "
    "15 + 2*ceil(log2 n) Jacobi sweeps runs out on clusters of equal "
    "multiplicity")
FAULT_PARSE_BITS = (
    "load_config parses a config without precision_bits at 192 bits, then "
    "run_prolate validates it at the policy's higher precision, whose "
    "boundary slack is too small for the 192-bit rounding of the nodes: "
    "an exact-boundary equispaced cluster is rejected (exit 2)")
#: (s, delta) of the prolate configs that run into FAULT_PARSE_BITS
PARSE_BITS_FAILURES = {(4, "1e-2"), (4, "1e-3")}
FAULT_LIMIT_BITS = (
    "run_limit_check recomputes lambda_min at 192 bits instead of the bits "
    "prolate_limit_check chose, and reports -2.2e-58 for 1.142857e-123")


def _write(path: Path, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
    return str(path)


def _op(op_id, args, units=1, known_fault=None, **check):
    return {"id": op_id, "args": args, "units": units,
            "known_fault": known_fault, "check": check}


def _manifest(experiment_id, grid):
    return {"experiment_id": experiment_id, "kind": "sweep", "grid": grid,
            "precision_override": None}


def _line_config(nodes, delta):
    s = len(nodes)
    return {"nodes": {"domain": "line", "nodes": nodes},
            "cluster": {"delta": delta, "theta": "1", "s": s, "ell": s,
                        "tau": str(s - 1)}}


def equispaced_line_nodes(s: int, delta: str) -> list:
    """(k - (s-1)/2) * delta for k = 0..s-1, as exact decimal strings."""
    d = Decimal(delta)
    return [str((Decimal(2 * k - (s - 1)) / 2 * d).normalize()) for k in range(s)]


def _sweep_op(op_id, path, units, known_fault=None):
    return _op(op_id, ["sweep", "--manifest", path, "--workers", "1"], units,
               known_fault, kind="sweep")


def desk_plan(seed: int, d: Path) -> dict:
    rng = random.Random(seed)
    seeds = [rng.randrange(2 ** 31) for _ in range(DESK_RANDOM_SEEDS)]
    rows = len(DESK_GRID["ell"]) * len(DESK_GRID["delta"])
    random_grid = dict(DESK_GRID, tau=[DESK_RANDOM_TAU], layout=["random"],
                       seed=seeds)
    equi_grid = dict(DESK_GRID, tau=["auto"], layout=["equispaced"], seed=[seed])
    ops = [
        _sweep_op("sweep-random", _write(d / "random.json",
                                         _manifest("desk-random", random_grid)),
                  rows * DESK_RANDOM_SEEDS),
        _sweep_op("sweep-equispaced", _write(d / "equispaced.json",
                                             _manifest("desk-equispaced", equi_grid)),
                  rows),
    ]
    cfg_dir = d / "gen"
    setup = [["gen-config", "--delta", "1e-6", "--s", "4", "--ell", "2",
              "--tau", "3", "--theta", "1", "--layout", "random",
              "--seed", str(seed), "--N", "100", "--out", str(cfg_dir)]]
    config = str(cfg_dir / "config.json")
    ops.append(_op("spectrum", ["spectrum", "--config", config, "--c1", "1"],
                   kind="spectrum"))
    ops.append(_op("bounds", ["bounds", "--config", config, "--c1", "1"],
                   kind="bounds"))
    for s, delta in PROLATE_CLUSTERS + [(2, "0.1")]:
        path = _write(d / f"prolate-{s}-{delta}.json",
                      _line_config(equispaced_line_nodes(s, delta), delta))
        fault = FAULT_PARSE_BITS if (s, delta) in PARSE_BITS_FAILURES else None
        ops.append(_op(f"prolate-{s}-{delta}",
                       ["prolate", "--config", path, "--c1", "1"],
                       known_fault=fault, kind="prolate", delta=delta))
    n_list = ",".join(str(n) for n in LIMIT_N_LIST)
    for s, delta, fault in ((2, "0.5", None), (4, "1e-20", FAULT_LIMIT_BITS)):
        path = _write(d / f"limit-{s}-{delta}.json",
                      _line_config(equispaced_line_nodes(s, delta), delta))
        ops.append(_op(f"limit-check-{s}-{delta}",
                       ["limit-check", "--config", path, "--N-list", n_list],
                       known_fault=fault, kind="limit-check",
                       n_list=list(LIMIT_N_LIST)))
    return {"setup": setup, "ops": ops}


def heavy_plan(seed: int, d: Path) -> dict:
    ops = []
    for ell, s, delta, N in HEAVY_POINTS:
        grid = {"ell": [ell], "s": [s], "delta": [delta], "N": [N],
                "tau": ["auto"], "layout": ["equispaced"], "seed": [seed]}
        name = f"heavy-{ell}-{s}-{delta}-{N}"
        path = _write(d / f"{name}.json", _manifest(name, grid))
        fault = FAULT_JACOBI_BUDGET if (ell, s) == (4, 24) else None
        ops.append(_sweep_op(name, path, 1, fault))
    return {"setup": [], "ops": ops}


def _suites_op(seed, instances, **check):
    args = ["inequalities", "--checks", ",".join(SUITE_CHECKS),
            "--instances", str(instances), "--seed", str(seed)]
    units = instances * (len(SUITE_CHECKS) - 1 + SALEM_SEPARATIONS)
    return _op("inequalities", args, units, kind="inequalities", seed=seed,
               instances=instances, checks=list(SUITE_CHECKS), **check)


def suites_plan(seed: int, d: Path) -> dict:
    return {"setup": [], "ops": [_suites_op(seed, SUITE_INSTANCES)]}


def selftest_plan(seed: int, d: Path) -> dict:
    """A few seconds of every command kind, for the check self-test."""
    grid = {"ell": [3, 4], "N": [100], "delta": ["1e-6"],
            "tau": [DESK_RANDOM_TAU], "layout": ["random"], "seed": [seed]}
    desk = desk_plan(seed, d)
    keep = {"spectrum", "bounds", "prolate-2-1e-3", "prolate-3-1e-3",
            "limit-check-2-0.5"}
    ops = [_sweep_op("sweep", _write(d / "selftest.json",
                                     _manifest("selftest", grid)), 2)]
    ops += [op for op in desk["ops"] if op["id"] in keep]
    ops.append(_suites_op(seed, 6, stride=3))
    return {"setup": desk["setup"], "ops": ops}


PLANS = {"sweep-desk": desk_plan, "sweep-heavy": heavy_plan, "suites": suites_plan,
         "selftest": selftest_plan}


def write_plan(workload: str, seed: int, d: Path) -> dict:
    """Write the workload's inputs into d and return its plan."""
    d.mkdir(parents=True, exist_ok=True)
    plan = dict(PLANS[workload](seed, d), workload=workload, seed=seed)
    _write(d / "plan.json", plan)
    return plan
