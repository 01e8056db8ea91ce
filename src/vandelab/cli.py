"""Command-line entry point.

Subcommands: gen-config, sweep, spectrum, bounds, prolate, inequalities,
limit-check.  Each takes --out; all but inequalities take
--precision-bits; spectrum, bounds and prolate take --c1; gen-config and
inequalities take --seed, and sweep --workers.  These five flags have
environment-variable overrides named VANDELAB_<FLAG> (dashes become
underscores, upper case); an explicit flag wins over the environment,
which wins over the default.  A command refuses a flag it does not read.

Exit codes: 0 on success with no failed rows, 1 if any row failed,
2 on usage or configuration errors.  A command prints to stdout only
after its result files are written; a reader that closes the pipe early
(``| head``) does not change the exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from mpmath import mp

from .errors import InvalidParameterError, VandelabError
from .experiments import (
    ExperimentManifest,
    resolve_point,
    run_config,
    run_sweep,
    write_config,
)
from .geometry import EQUISPACED, LINE, PERIODIC, RANDOM, generate_config
from .hp import parse_bits, parse_decimal, parse_int
from .suites import ALL_SUITES, DEFAULT_SUITE_SEED

ENV_PREFIX = "VANDELAB_"


def _env_name(name):
    return ENV_PREFIX + name.upper().replace("-", "_")


def _env(name, default=None):
    return os.environ.get(_env_name(name), default)


def _int_env(name, default=None):
    raw = _env(name)
    return parse_int(raw, _env_name(name)) if raw is not None else default


def _add_common(parser, precision_bits=True, c1=False):
    """--out, and --precision-bits and --c1 where the command reads them."""
    parser.add_argument("--out", default=_env("out", "."),
                        help="output directory (env VANDELAB_OUT)")
    if precision_bits:
        parser.add_argument("--precision-bits", type=int,
                            default=_int_env("precision_bits"),
                            help="override working precision "
                                 "(env VANDELAB_PRECISION_BITS)")
    if c1:
        parser.add_argument("--c1", default=_env("c1", "1"),
                            help="user-supplied absolute constant "
                                 "(env VANDELAB_C1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vandelab",
        description="High-precision Vandermonde / prolate spectrum laboratory")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-config", help="generate and store a node configuration")
    p.add_argument("--delta", required=True)
    p.add_argument("--theta", default=None,
                   help="default: pi for one cluster, 2*pi/M - 1 for M")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--tau", default=None)
    p.add_argument("--centers", default=None,
                   help="comma-separated cluster centers; default even spread")
    p.add_argument("--layout", choices=[EQUISPACED, RANDOM], default=EQUISPACED)
    p.add_argument("--domain", choices=[PERIODIC, LINE], default=PERIODIC)
    p.add_argument("--seed", type=int, default=_int_env("seed", DEFAULT_SUITE_SEED))
    p.add_argument("--N", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("sweep", help="run a manifest grid sweep")
    p.add_argument("--manifest", required=True)
    p.add_argument("--workers", type=int, default=_int_env("workers", 1),
                   help="worker processes (env VANDELAB_WORKERS)")
    _add_common(p)

    for name, help_text in (
            ("spectrum", "full singular spectrum of one configuration"),
            ("bounds", "bound formulas for one configuration"),
            ("prolate", "prolate matrix eigenvalues for a line configuration")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        _add_common(p, c1=True)

    p = sub.add_parser("inequalities", help="run the inequality suites")
    p.add_argument("--checks", default=",".join(ALL_SUITES),
                   help=f"comma-separated subset of {sorted(ALL_SUITES)}")
    p.add_argument("--instances", type=int, default=500)
    p.add_argument("--seed", type=int, default=_int_env("seed", DEFAULT_SUITE_SEED))
    _add_common(p, precision_bits=False)

    p = sub.add_parser("limit-check", help="prolate limit gaps over N")
    p.add_argument("--config", required=True)
    p.add_argument("--N-list", default="10,50,250")
    _add_common(p)
    return parser


def _cmd_gen_config(args) -> tuple[int, str]:
    spec, N, centers, bits = resolve_point({
        "ell": args.ell, "N": args.N, "delta": args.delta, "s": args.s,
        "tau": args.tau, "theta": args.theta,
        "precision_override": args.precision_bits})
    with mp.workprec(bits):
        if args.centers:
            centers = [parse_decimal(c, bits) for c in args.centers.split(",")]
        nodes, _ = generate_config(spec, args.layout, centers, args.seed,
                                   args.domain)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "config.json"
    write_config(path, nodes, spec, N=N, bits=bits)
    return 0, f"wrote {path}"


def _cmd_sweep(args) -> tuple[int, str]:
    manifest = ExperimentManifest.load(args.manifest)
    if args.precision_bits is not None:
        manifest = dataclasses.replace(manifest,
                                       precision_override=args.precision_bits)
    summary = run_sweep(manifest, args.out, workers=args.workers)
    return (0 if summary.failed == 0 else 1,
            json.dumps(summary.to_json_dict(), indent=2))


def _cmd_inequalities(args) -> tuple[int, str]:
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in checks if c not in ALL_SUITES]
    if unknown:
        raise InvalidParameterError(f"unknown checks: {unknown}")
    if not checks:
        raise InvalidParameterError("--checks names no suite")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = [ALL_SUITES[name](instances=args.instances, seed=args.seed)
               for name in checks]
    with open(out / "inequalities.json", "w", encoding="utf-8") as fh:
        json.dump([r.to_json_dict() for r in results], fh, indent=2)
    return (0 if all(r.all_hold for r in results) else 1, "\n".join(
        f"{r.name}: {'ok' if r.all_hold else 'FAILED'} "
        f"({len(r.records)} records)" for r in results))


def _cmd_config(args) -> tuple[int, str]:
    """spectrum, bounds, prolate or limit-check on one config file."""
    n_list = None
    if args.command == "limit-check":
        n_list = [parse_int(x, "--N-list") for x in args.N_list.split(",")
                  if x.strip()]
    result = run_config(args.command, args.config, out_dir=args.out,
                        bits_override=args.precision_bits,
                        user_c1=getattr(args, "c1", 1), N_list=n_list)
    return 0, json.dumps(result, indent=2)


#: each command returns its exit code and the text it prints, once its
#: result files are written; the config commands share _cmd_config
COMMANDS = {"gen-config": _cmd_gen_config, "sweep": _cmd_sweep,
            "inequalities": _cmd_inequalities}


def main(argv=None) -> int:
    try:  # the parser reads VANDELAB_* integers, which may be malformed
        args = build_parser().parse_args(argv)
        if hasattr(args, "precision_bits"):
            args.precision_bits = parse_bits(args.precision_bits,
                                             "--precision-bits")
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s")
        code, text = COMMANDS.get(args.command, _cmd_config)(args)
    except VandelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader is gone and the results are on disk; point stdout at
        # devnull so the interpreter's final flush has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
