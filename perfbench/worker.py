"""Child process of the benchmark: one set-up or one timed round.

    python3 perfbench/worker.py setup --workload W --seed S --dir D
    python3 perfbench/worker.py round --dir D --out O --trace 0|1

``setup`` imports vandelab and writes the workload's inputs into D; the
parent times the whole process.  ``round`` runs the plan's operations
through ``vandelab.cli.main`` in this process, writes the outputs under
O, and records in O/round.json the wall time from the first operation
to the last, the same time rescaled by a speed probe (probe.py), its
peak resident memory and, when traced, the per-layer figures.  vandelab comes from the ``src`` directory next to this
one, never from an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import probe  # noqa: E402
import workloads  # noqa: E402


def _cli_main():
    from vandelab.cli import main

    return main


def _run_command(main, argv, log) -> dict:
    """One command; an exception is an outcome here, not a crash."""
    try:
        with contextlib.redirect_stdout(log):
            return {"rc": main(argv), "error": None}
    except SystemExit as exc:  # argparse rejects a command line this way
        return {"rc": exc.code, "error": None}
    except Exception as exc:  # noqa: BLE001 - recorded, the round goes on
        return {"rc": None, "error": "".join(
            traceback.format_exception_only(type(exc), exc)).strip()}


def setup(args) -> int:
    """Writes the inputs, and D/speed.json with the calibration time
    read at the start and the end, and the time those readings took."""
    t0 = time.perf_counter()
    before = probe.quickest()
    probe_s = time.perf_counter() - t0
    main = _cli_main()
    d = Path(args.dir)
    plan = workloads.write_plan(args.workload, args.seed, d)
    with open(d / "setup.log", "w", encoding="utf-8") as log:
        for argv in plan["setup"]:
            outcome = _run_command(main, argv, log)
            if outcome["rc"] != 0:
                print(f"set-up command {argv[0]} failed: {outcome}",
                      file=sys.stderr)
                return 1
    t0 = time.perf_counter()
    after = probe.quickest()
    probe_s += time.perf_counter() - t0
    (d / "speed.json").write_text(json.dumps(
        {"calibration_s": (before + after) / 2, "probe_s": probe_s}), "utf-8")
    return 0


def run_round(args) -> int:
    main = _cli_main()
    import mpmath

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    plan = json.loads((Path(args.dir) / "plan.json").read_text("utf-8"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outcomes = []
    with open(out / "stdout.log", "w", encoding="utf-8") as log, \
            probe.SpeedProbe() as speed:
        t0 = time.perf_counter()
        for op in plan["ops"]:
            argv = op["args"] + ["--out", str(out / op["id"])]
            outcomes.append(dict(_run_command(main, argv, log), id=op["id"]))
        wall = time.perf_counter() - t0
    record = {
        "wall_s": wall,
        "rescaled_s": speed.rescaled_s(),
        "probe_samples": len(speed.samples),
        "probe_median_s": speed.median_s(),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outcomes": outcomes,
        "facts": {
            "mpmath_backend": mpmath.libmp.BACKEND,
            "numpy_imported_by_program": "numpy" in sys.modules,
        },
        "layers": tracer.metrics() if tracer else None,
    }
    (out / "round.json").write_text(json.dumps(record), "utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", choices=sorted(workloads.PLANS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p = sub.add_parser("round")
    p.add_argument("--dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return setup(args) if args.mode == "setup" else run_round(args)


if __name__ == "__main__":
    sys.exit(main())
