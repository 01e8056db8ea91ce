"""Layered benchmark of vandelab: desk sweep, heavy sweep, inequality suites.

    python3 perfbench/run.py --workload sweep-desk --seed 20240601 --seconds 5 --trace 0
    python3 perfbench/run.py --workload suites --trace 1      # per-layer figures
    python3 perfbench/run.py --workload all                   # the three in turn
    python3 perfbench/run.py --selftest                       # checks reject corrupted outputs

Run from the root of a source checkout; vandelab is imported from its
``src`` directory.  One run sets the workload up several times (each in
a fresh interpreter, timed whole), then runs whole rounds of the
workload, each in its own process, until the rounds have measured
``--seconds``.  After each round, outside the timed region, every
output is checked against computations made here (perfbench/checks.py).
With ``--trace 1`` one more round runs with every layer wrapped, and
the per-layer figures are reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
#: a child process still running this long after the run started is
#: killed, and the run ends without a result
RUN_DEADLINE_S = 170
WORK_DIR = ROOT / ".perfbench_work"


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _child_env():
    # explicit flags carry every setting; no VANDELAB_* variable may add one
    return {k: v for k, v in os.environ.items() if not k.startswith("VANDELAB_")}


def _child(args, log: Path, deadline: float):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    with open(log, "w", encoding="utf-8") as fh:
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                env=_child_env())
        # a blocking wait returns the moment the child exits; wait(timeout)
        # would poll in steps of up to 50 ms and round the set-up times
        watchdog = threading.Timer(remaining, proc.kill)
        watchdog.start()
        try:
            returncode = proc.wait()
        finally:
            watchdog.cancel()
    if time.monotonic() >= deadline:
        raise BenchError(f"{args[0]} did not finish in time")
    if returncode != 0:
        tail = log.read_text("utf-8", errors="replace")[-2000:]
        raise BenchError(f"{args[0]} exited with {returncode}:\n{tail}")


def _load(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def judge(op, outcome, out: Path) -> list:
    """Problems of each operation a command stands for (one list per unit)."""
    units = op["units"]
    kind = op["check"]["kind"]
    if outcome["error"] is not None or outcome["rc"] not in (0, 1):
        return [[f"command failed: {outcome['error'] or 'exit ' + str(outcome['rc'])}"]] * units
    if kind != "sweep" and kind != "inequalities" and outcome["rc"] != 0:
        return [[f"exit code {outcome['rc']}"]]
    try:
        if kind == "sweep":
            rows = _load(out / "results.json")["rows"]
            details = _load(out / "details.json")["details"]
            if len(rows) != units or len(details) != units:
                return [[f"{len(rows)} rows written, {units} expected"]] * units
            return [checks.sweep_row_problems(r, d) for r, d in zip(rows, details)]
        if kind == "spectrum":
            return [checks.spectrum_doc_problems(_load(out / "spectrum.json"))]
        if kind == "bounds":
            return [checks.bounds_doc_problems(_load(out / "bounds.json"))]
        if kind == "prolate":
            return [checks.prolate_doc_problems(_load(out / "prolate.json"),
                                                op["check"]["delta"])]
        if kind == "limit-check":
            return [checks.limit_doc_problems(_load(out / "limit_check.json"),
                                              op["check"]["n_list"])]
        if kind == "inequalities":
            return _judge_suites(op["check"], _load(out / "inequalities.json"))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [[f"output unreadable: {type(exc).__name__}: {exc}"]] * units
    raise BenchError(f"no check for {kind}")


def _judge_suites(spec, doc) -> list:
    instances = spec["instances"]
    failed = checks.suites_problems(doc, spec["seed"], instances, spec["checks"],
                                    spec.get("stride", checks.SUITE_SAMPLE_STRIDE))
    per_unit = []
    for name in spec["checks"]:
        draws = instances * (len(checks.SALEM_DELTAS) if name == "salem" else 1)
        bad = failed[name]
        if bad is None:
            per_unit += [[f"{name}: suite missing or malformed"]] * draws
        elif name == "salem":
            for r in range(len(checks.SALEM_DELTAS)):
                per_unit += [bad.get(r, [])] * instances
        else:
            per_unit += [bad.get(i, []) for i in range(instances)]
    return per_unit


def machine_facts(round_facts) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath_backend": round_facts["mpmath_backend"],
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
        "numpy_imported_by_program": round_facts["numpy_imported_by_program"],
    }


def run(workload: str, seed: int, seconds: int, trace: bool,
        keep: bool = False) -> dict:
    """Set up, run and check the workload; keep=True leaves its outputs
    under .perfbench_work/ for the caller to remove."""
    if not (ROOT / "src" / "vandelab" / "__init__.py").is_file():
        raise BenchError(f"no vandelab sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_times, rounds = [], []

    def set_up():
        d = work / f"setup-{len(setup_times)}"
        t0 = time.perf_counter()
        _child(["setup", "--workload", workload, "--seed", str(seed),
                "--dir", str(d)], work / f"setup-{len(setup_times)}.log", deadline)
        raw = time.perf_counter() - t0
        speed = _load(d / "speed.json")
        setup_times.append((raw, (raw - speed["probe_s"]) * probe.REFERENCE_S
                            / speed["calibration_s"]))
        return d

    def one_round(d, traced):
        out = work / f"round-{len(rounds)}"
        _child(["round", "--dir", str(d), "--out", str(out),
                "--trace", "1" if traced else "0"],
               work / f"round-{len(rounds)}.log", deadline)
        record = _load(out / "round.json")
        t0 = time.perf_counter()
        record["verdicts"] = [
            (op, k, problems)
            for op, outcome in zip(plan["ops"], record["outcomes"])
            for k, problems in enumerate(judge(op, outcome, out / op["id"]))]
        record["check_s"] = time.perf_counter() - t0
        record["traced"] = traced
        rounds.append(record)
        return record

    try:
        # half the set-ups run before the rounds and half after, so that
        # their median samples the machine's speed at two moments far apart
        for _ in range(SETUP_REPEATS // 2 + 1):
            d = set_up()
        plan = _load(d / "plan.json")
        measured = 0.0
        while measured < seconds or not rounds:
            measured += one_round(d, False)["wall_s"]
        if trace:
            one_round(d, True)
        while len(setup_times) < SETUP_REPEATS:
            set_up()
    finally:
        if not keep:
            shutil.rmtree(work, ignore_errors=True)
    return {"setup_times": setup_times, "rounds": rounds, "plan": plan,
            "work": work}


def summarize(result, trace: bool):
    """Text lines for a reader, then the result object."""
    lines = []
    attempted = failed = 0
    unexpected, faults = [], {}
    for rec in result["rounds"]:
        rec["passed"] = 0
        for op, k, problems in rec["verdicts"]:
            attempted += 1
            unit = op["id"] if op["units"] == 1 else f"{op['id']}[{k}]"
            if not problems:
                rec["passed"] += 1
                continue
            failed += 1
            if op["known_fault"]:
                faults[unit] = (op["known_fault"], problems[0])
            else:
                unexpected.append((unit, problems))
    untraced = [r for r in result["rounds"] if not r["traced"]]
    work = statistics.median(r["rescaled_s"] for r in untraced)
    if trace:
        traced = result["rounds"][-1]
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in traced["layers"].items()}
        metrics["trace.overhead_s"] = {"value": traced["rescaled_s"] - work,
                                       "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(
                rescaled for _, rescaled in result["setup_times"]), "unit": "s"},
            "work_s": {"value": work, "unit": "s"},
            "ops_per_min": {"value": statistics.median(
                60 * r["passed"] / r["rescaled_s"] for r in untraced),
                "unit": "1/min"},
            "peak_rss_mib": {"value": max(r["peak_rss_mib"] for r in untraced),
                             "unit": "MiB"},
        }
    lines.append("machine " + json.dumps(machine_facts(result["rounds"][0]["facts"])))
    check_s = sum(r["check_s"] for r in result["rounds"])
    lines.append(f"rounds {len(untraced)} untraced{' + 1 traced' if trace else ''}; "
                 f"checks {check_s:.1f} s")
    for r in result["rounds"]:
        lines.append(f"round wall {r['wall_s']:.3f} s, rescaled {r['rescaled_s']:.3f} s; "
                     f"{r['probe_samples']} calibrations, median "
                     f"{1e3 * r['probe_median_s']:.3f} ms (reference "
                     f"{1e3 * probe.REFERENCE_S:.3f} ms)")
    setups = ", ".join(f"{raw:.3f}/{rescaled:.3f}" for raw, rescaled in result["setup_times"])
    lines.append(f"set-ups raw/rescaled {setups} s")
    for unit, (fault, problem) in sorted(faults.items()):
        lines.append(f"known fault {unit}: {problem} -- {fault}")
    for unit, problems in unexpected[:20]:
        lines.append(f"FAILED {unit}: {'; '.join(problems)}")
    if len(unexpected) > 20:
        lines.append(f"... {len(unexpected) - 20} more unexpected failures")
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    final = {"correct": not unexpected, "attempted": attempted,
             "failed": failed, "metrics": metrics}
    return lines, final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Layered vandelab benchmark; see perfbench/README.md")
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",),
                        help="'all' runs the three in turn, each with its own result line")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=5,
                        help="measure whole rounds until they add up to this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="show that each check rejects corrupted outputs")
    args = parser.parse_args(argv)
    try:
        if args.selftest:
            import selftest

            return selftest.main(run)
        if args.workload is None:
            parser.error("--workload is required")
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            result = run(name, args.seed, args.seconds, bool(args.trace))
            lines, final = summarize(result, bool(args.trace))
            print(f"workload {name} seed {args.seed}")
            for line in lines:
                print(line)
            print(json.dumps(final), flush=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
