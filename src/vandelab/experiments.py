"""Experiment runner: manifests, sweeps, single-instance runs, reports.

A sweep manifest declares a parameter grid; every grid point becomes one
result row.  Rows carry a fixed CSV column set (documented in the README)
and the same content is mirrored to results.json; richer per-row data
(full spectra, skip reasons, level counts) goes to details.json so the
CSV/JSON mirror stays exact.

Reproducibility contract: identical manifest plus seed produces identical
CSV bodies, except the runtime_ms column, which is wall-clock timing.
Row order, number formatting, and the random draws are all deterministic.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
import time
from dataclasses import dataclass
from pathlib import Path

from mpmath import mp, mpf

from . import __version__ as TOOL_VERSION
from .bounds import evaluate_all, slepian_constant
from .errors import (
    ConfigParseError,
    ConfigValidationError,
    InvalidParameterError,
    PrecisionError,
    VandelabError,
)
from .geometry import (
    EQUISPACED,
    LINE,
    PERIODIC,
    ClusterSpec,
    NodeSet,
    generate_config,
    validate_config,
)
from .hp import (
    DEFAULT_POLICY,
    FLOOR_BITS,
    GUARD_BITS,
    decimal_str,
    parse_bits,
    parse_decimal,
    parse_int,
    pi_e,
)
from .matrices import VandermondeSpec, build_prolate
from .spectra import (
    hermitian_eigenvalues,
    normalized_lambda,
    prolate_limit_check,
    require_resolved,
    singular_values,
)
from .suites import DEFAULT_SUITE_SEED, band_counts, count_bands, default_centers
from .svgplot import write_scatter_svg

log = logging.getLogger(__name__)

CSV_COLUMNS = [
    "experiment_id", "kind", "s", "ell", "tau", "N", "delta", "theta",
    "layout", "seed", "precision_bits", "sigma_min", "lambda",
    "log10_lambda", "lower_shape", "upper_explicit", "srf", "window_ok",
    "runtime_ms", "status",
]

STATUS_OK = "ok"
STATUS_SKIPPED = "skipped"
STATUS_FAILED = "failed"

#: desk-scale envelope; larger grids still run but get flagged in the log
DESK_MAX_ELL = 12
DESK_MAX_PRECISION = 16384

_GRID_KEYS = ("ell", "tau", "N", "delta", "s", "theta", "layout", "seed")
_GRID_DEFAULTS = {
    "tau": ["auto"],
    "s": [None],
    "theta": [None],
    "layout": [EQUISPACED],
    "seed": [DEFAULT_SUITE_SEED],
}


@dataclass(frozen=True)
class ExperimentManifest:
    experiment_id: str
    kind: str
    grid: dict
    precision_override: int | None = None
    created_at: str = ""
    tool_version: str = TOOL_VERSION

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ExperimentManifest":
        if not isinstance(obj, dict):
            raise ConfigParseError("manifest must be a JSON object")
        for key in ("experiment_id", "kind", "grid"):
            if key not in obj:
                raise ConfigParseError(f"manifest missing key {key!r}", key=key)
        if not isinstance(obj["grid"], dict):
            raise ConfigParseError("manifest grid must be a JSON object",
                                   key="grid")
        grid = dict(obj["grid"])
        for key in ("ell", "N", "delta"):
            if not grid.get(key):
                raise ConfigParseError(
                    f"manifest grid must list values for {key!r}", key=key)
        for key, default in _GRID_DEFAULTS.items():
            if not grid.get(key):
                grid[key] = list(default)
        unknown = set(grid) - set(_GRID_KEYS)
        if unknown:
            raise ConfigParseError(
                f"unknown grid keys {sorted(unknown)}", key=sorted(unknown)[0])
        for key, values in grid.items():
            if not isinstance(values, list):
                raise ConfigParseError(
                    f"manifest grid {key!r} must be a list", key=key)
        for key in ("ell", "N", "s", "seed"):  # checked; the grid keeps them as written
            for value in grid[key]:
                if not (key == "s" and value in (None, "auto")):
                    parse_int(value, key)
        return cls(
            experiment_id=str(obj["experiment_id"]),
            kind=str(obj["kind"]),
            grid=grid,
            precision_override=parse_bits(obj.get("precision_override"),
                                          "precision_override"),
            created_at=str(obj.get("created_at", "")),
            tool_version=str(obj.get("tool_version", TOOL_VERSION)),
        )

    @classmethod
    def load(cls, path) -> "ExperimentManifest":
        return cls.from_json_dict(_read_json(path, "manifest"))

    def to_json_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "kind": self.kind,
            "grid": self.grid,
            "precision_override": self.precision_override,
            "created_at": self.created_at,
            "tool_version": self.tool_version,
        }

    def points(self) -> list:
        """Cartesian product of the grid in fixed key order."""
        lists = [self.grid[k] for k in _GRID_KEYS]
        out = []
        for idx, combo in enumerate(itertools.product(*lists)):
            point = dict(zip(_GRID_KEYS, combo))
            point["index"] = idx
            point["experiment_id"] = self.experiment_id
            point["kind"] = self.kind
            point["precision_override"] = self.precision_override
            out.append(point)
        return out


@dataclass
class SweepSummary:
    ok: int
    skipped: int
    failed: int
    fitted_slope: float | None
    min_headroom_bits: int | None
    rows: list
    out_dir: str

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "skipped": self.skipped,
            "failed": self.failed,
            "fitted_slope": self.fitted_slope,
            "min_headroom_bits": self.min_headroom_bits,
            "rows": len(self.rows),
            "out_dir": self.out_dir,
        }


def _read_json(path, what: str):
    """The JSON document at path; an unreadable or malformed file is a
    ConfigParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigParseError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{what} is not valid JSON: {exc}") from exc


def _blank_row(point: dict) -> dict:
    row = {c: "" for c in CSV_COLUMNS}
    row["experiment_id"] = point["experiment_id"]
    row["kind"] = point["kind"]
    row["ell"] = str(point["ell"])
    row["N"] = str(point["N"])
    row["layout"] = str(point["layout"])
    row["seed"] = str(point["seed"])
    return row


def policy_bits(cluster: ClusterSpec, N: int | None = None) -> int:
    """The policy's working bits for a configuration.

    With N they are sized for the Vandermonde spectrum at cluster size
    ell; without N for the prolate matrix of all s nodes, whose
    line-domain delta already stands for the product N*delta.
    """
    if N is None:
        return DEFAULT_POLICY.required_bits(cluster.s, 1, cluster.delta)
    return DEFAULT_POLICY.required_bits(cluster.ell, N, cluster.delta)


def resolve_point(point: dict):
    """Grid values or gen-config flags -> (ClusterSpec, N, centers, bits).

    ``s``, ``tau`` and ``theta`` of None or "auto" mean s = ell, tau =
    ell - 1, and the widest theta the default centers allow: pi for one
    cluster, 2*pi/M - 1 for M clusters.  The spec is read at the policy
    floor, which checks the point and sizes its precision, then at the
    working bits: ``point["precision_override"]`` or ``policy_bits``.
    """
    ell = int(point["ell"])
    N = None if point["N"] is None else int(point["N"])
    s = point["s"]
    s = ell if s in (None, "auto") else int(s)

    def spec_at(bits):
        delta = parse_decimal(point["delta"], bits)
        tau_raw = point["tau"]
        if tau_raw in (None, "auto"):
            tau = mpf(max(ell - 1, 0))
        else:
            tau = parse_decimal(tau_raw, bits)
        n_clusters = max(1, math.ceil(s / ell))
        theta_raw = point["theta"]
        if theta_raw in (None, "auto"):
            theta = mp.pi if n_clusters == 1 else 2 * mp.pi / n_clusters - 1
            if theta <= 0:
                raise InvalidParameterError(
                    f"no room for {n_clusters} default cluster centers; "
                    "set theta explicitly")
        else:
            theta = parse_decimal(theta_raw, bits)
        spec = ClusterSpec(delta=delta, theta=theta, s=s, ell=ell, tau=tau)
        return spec, n_clusters

    probe, _ = spec_at(FLOOR_BITS)
    bits = point["precision_override"] or policy_bits(probe, N)
    with mp.workprec(bits):
        spec, n_clusters = spec_at(bits)
        return spec, N, default_centers(n_clusters), bits


def _at_target(attempt, bits: int | None):
    """The result of attempt(bits), which returns (result, the bits it ran
    at, their headroom_bits, or None if it solved nothing).  bits None
    leaves them to the policy; policy bits whose headroom falls short of
    GUARD_BITS are raised by the shortfall and tried once more, and
    PrecisionError if still short.  Explicit bits are used as given."""
    result, used, headroom = attempt(bits)
    if bits is not None or headroom is None or headroom >= GUARD_BITS:
        return result
    bits = used + GUARD_BITS - headroom
    log.debug("headroom %d bits short of %d; re-solving at %d bits",
              headroom, GUARD_BITS, bits)
    result, bits, headroom = attempt(bits)
    if headroom < GUARD_BITS:
        raise PrecisionError(
            f"headroom of {headroom} bits at {bits} bits falls short of the "
            f"{GUARD_BITS}-bit target; raise precision")
    return result


def _vandermonde_core(nodes: NodeSet, cluster: ClusterSpec, N: int, bits: int,
                      user_c1=1):
    """(spectrum, bound report, (lambda, log10 lambda)) of one validated
    configuration at the ambient ``bits``."""
    vspec = VandermondeSpec(N, nodes)
    spectrum = singular_values(vspec, bits=bits)
    report = evaluate_all(vspec, cluster, user_c1=user_c1, bits=bits)
    lam = normalized_lambda(spectrum.min_value, N, cluster.delta, cluster.ell)
    return spectrum, report, lam


def _fill_sweep_row(point: dict, row: dict, details: dict):
    """Fill row and details with one grid point at its resolved bits, as
    far as it gets; (None, bits, headroom) for _at_target."""
    row.update(_blank_row(point))
    details.clear()
    details["index"] = point["index"]
    spec, N, centers, bits = resolve_point(point)
    with mp.workprec(bits):
        row["s"] = str(spec.s)
        row["tau"] = decimal_str(spec.tau, bits)
        row["delta"] = decimal_str(spec.delta, bits)
        row["theta"] = decimal_str(spec.theta, bits)
        row["precision_bits"] = str(bits)
        nodes, partition = generate_config(spec, str(point["layout"]), centers,
                                           int(point["seed"]), PERIODIC)
        spectrum, report, (lam, log10_lam) = _vandermonde_core(
            nodes, spec, N, bits)
        row["sigma_min"] = decimal_str(spectrum.min_value, bits)
        row["lambda"] = decimal_str(lam, bits)
        row["log10_lambda"] = decimal_str(log10_lam, bits)
        row["lower_shape"] = decimal_str(report.lower_shape, bits)
        row["upper_explicit"] = decimal_str(report.upper_explicit, bits)
        row["srf"] = decimal_str(report.srf, bits)
        row["window_ok"] = "true" if report.window_ok else "false"
        details.update({
            "multiplicities": list(partition.multiplicities),
            "q": list(partition.q),
            "window_reason": report.window_reason,
            "spectrum": spectrum.to_json_dict(),
            "nodes": nodes.to_json_dict(bits),
        })
    return None, bits, spectrum.headroom_bits


def compute_sweep_point(point: dict) -> dict:
    """One grid point end to end; returns row + details, never raises."""
    t0 = time.perf_counter()
    row = _blank_row(point)
    details = {"index": point["index"]}
    try:
        _at_target(lambda bits: _fill_sweep_row(
            {**point, "precision_override": bits}, row, details),
            point["precision_override"])
        row["status"] = STATUS_OK
    except (InvalidParameterError, ConfigValidationError, ConfigParseError) as exc:
        row["status"] = STATUS_SKIPPED
        details["reason"] = str(exc)
    except VandelabError as exc:
        row["status"] = STATUS_FAILED
        details["reason"] = str(exc)
    except Exception as exc:  # pragma: no cover - defensive
        row["status"] = STATUS_FAILED
        details["reason"] = f"{type(exc).__name__}: {exc}"
    row["runtime_ms"] = str(int((time.perf_counter() - t0) * 1000))
    return {"index": point["index"], "row": row, "details": details}


def _fit_slope(rows) -> float | None:
    """Least-squares slope of log10(lambda) against (ell - 1)."""
    pts = [(int(r["ell"]) - 1, float(mpf(r["log10_lambda"])))
           for r in rows
           if r["status"] == STATUS_OK and int(r["ell"]) > 1 and r["log10_lambda"]]
    if len({x for x, _ in pts}) < 2:
        return None
    n = len(pts)
    sx = sum(x for x, _ in pts)
    sy = sum(y for _, y in pts)
    sxx = sum(x * x for x, _ in pts)
    sxy = sum(x * y for x, y in pts)
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def _write_outputs(out_dir: Path, manifest: ExperimentManifest, rows, details):
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "results.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    with open(out_dir / "results.json", "w", encoding="utf-8") as fh:
        json.dump({"columns": CSV_COLUMNS, "rows": rows}, fh, indent=2)
    with open(out_dir / "details.json", "w", encoding="utf-8") as fh:
        json.dump({"manifest": manifest.to_json_dict(), "details": details},
                  fh, indent=2)


def _write_figure(out_dir: Path, manifest: ExperimentManifest, rows):
    pts = [(float(r["ell"]), float(mpf(r["log10_lambda"])))
           for r in rows if r["status"] == STATUS_OK and r["log10_lambda"]]
    with mp.workprec(64):
        lower_slope = -float(mp.log10(pi_e(16)))
    taus = [float(mpf(r["tau"])) for r in rows
            if r["status"] == STATUS_OK and r["tau"]]
    tau_max = max(taus) if taus else 1.0
    upper_slope = math.log10(tau_max) if tau_max > 0 else 0.0
    lines = [
        (lower_slope, -lower_slope, "lower bracket"),
        (upper_slope, -upper_slope, "upper bracket"),
    ]
    write_scatter_svg(
        out_dir / "figure.svg", pts, lines,
        title=f"{manifest.experiment_id}: cluster size vs log10 of "
              f"normalized minimal singular value",
        xlabel="cluster size", ylabel="log10 lambda")


def run_sweep(manifest: ExperimentManifest, out_dir, workers: int = 1) -> SweepSummary:
    """Execute every grid point, write CSV/JSON/SVG, return counts.

    Per-point failures are recorded in their rows and never abort the
    sweep.  With workers > 1, points run in separate processes; output
    order is independent of scheduling.
    """
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    out_dir = Path(out_dir)
    points = manifest.points()
    if any(int(p["ell"]) > DESK_MAX_ELL for p in points) or \
            (manifest.precision_override or 0) > DESK_MAX_PRECISION:
        log.warning("grid exceeds the desk-scale envelope (ell <= %d, "
                    "precision <= %d); expect a long run",
                    DESK_MAX_ELL, DESK_MAX_PRECISION)
    if workers > 1:
        # imported here: loading it with multiprocessing slows the start-up
        # of every command, and only this path uses it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(compute_sweep_point, points))
    else:
        outcomes = [compute_sweep_point(p) for p in points]
    outcomes.sort(key=lambda o: o["index"])
    rows = [o["row"] for o in outcomes]
    details = [o["details"] for o in outcomes]
    _write_outputs(out_dir, manifest, rows, details)
    _write_figure(out_dir, manifest, rows)
    slope = _fit_slope(rows)
    counts = {s: sum(1 for r in rows if r["status"] == s)
              for s in (STATUS_OK, STATUS_SKIPPED, STATUS_FAILED)}
    headroom = [d["spectrum"]["headroom_bits"] for r, d in zip(rows, details)
                if r["status"] == STATUS_OK]
    summary = SweepSummary(ok=counts[STATUS_OK], skipped=counts[STATUS_SKIPPED],
                           failed=counts[STATUS_FAILED], fitted_slope=slope,
                           min_headroom_bits=min(headroom, default=None),
                           rows=rows, out_dir=str(out_dir))
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary.to_json_dict(), fh, indent=2)
    return summary


# ---------------------------------------------------------------- configs


def load_config(path) -> dict:
    """Read a single-instance config file (nodes + cluster + N).

    Its reals stay decimal strings until ``run_config`` reads them at the
    bits the command runs at.
    """
    obj = _read_json(path, "config")
    if not isinstance(obj, dict):
        raise ConfigParseError("config must be a JSON object")
    if "nodes" not in obj:
        raise ConfigParseError("config missing key 'nodes'", key="nodes")
    if "cluster" not in obj:
        raise ConfigParseError("config missing key 'cluster'", key="cluster")
    n_val = obj.get("N")
    return {
        "nodes": obj["nodes"],
        "cluster": obj["cluster"],
        "N": parse_int(n_val, "N") if n_val is not None else None,
        "precision_bits": parse_bits(obj.get("precision_bits"),
                                     "precision_bits"),
    }


def write_config(path, nodes: NodeSet, cluster: ClusterSpec,
                 N: int | None = None, bits: int | None = None):
    obj = {
        "nodes": nodes.to_json_dict(bits),
        "cluster": cluster.to_json_dict(bits),
    }
    if N is not None:
        obj["N"] = N
    if bits is not None:
        obj["precision_bits"] = bits
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)


def _ratio_if_equispaced(nodes: NodeSet, partition, cluster: ClusterSpec,
                         lam_min, bits: int):
    """Slepian comparison ratio, defined for a single equispaced cluster."""
    if partition.cluster_count != 1 or cluster.s != cluster.ell:
        return None
    xs = sorted(nodes.nodes)
    gaps = [xs[i + 1] - xs[i] for i in range(len(xs) - 1)]
    if gaps:
        slack = mpf(2) ** -(bits - 16)
        g0 = gaps[0]
        if any(abs(g - g0) > slack * abs(g0) for g in gaps):
            return None
    ceq = slepian_constant(cluster.s)
    return lam_min / (ceq * cluster.delta ** (2 * cluster.s - 2))




def _spectrum_body(nodes, cluster, N, bits, user_c1, N_list):
    """Full singular spectrum, bound report, and per-level counts."""
    partition = validate_config(nodes, cluster)
    spectrum, report, (lam, _) = _vandermonde_core(
        nodes, cluster, N, bits, user_c1)
    counts, thresholds = band_counts(
        spectrum.values, partition.q, N, cluster.delta, mpf(user_c1), bits)
    cumulative = [sum(1 for v in spectrum.values if v >= t)
                  for t in thresholds]
    return {
        "kind": "spectrum",
        "N": N,
        "precision_bits": bits,
        "cluster": cluster.to_json_dict(bits),
        "nodes": nodes.to_json_dict(bits),
        "multiplicities": list(partition.multiplicities),
        "q": list(partition.q),
        "spectrum": spectrum.to_json_dict(),
        "bounds": report.to_json_dict(),
        "sigma_min": decimal_str(spectrum.min_value, bits),
        "lambda": decimal_str(lam, bits),
        "level_thresholds": [decimal_str(t, bits) for t in thresholds],
        "level_counts": counts,
        "level_counts_match_q": counts == list(partition.q),
        "cumulative_counts": cumulative,
        "user_c1": decimal_str(mpf(user_c1), bits),
        "runtime_ms": None,
    }, spectrum.headroom_bits


def _prolate_body(nodes, cluster, N, bits, user_c1, N_list):
    """Eigenvalues of the generalized prolate matrix plus comparisons."""
    if nodes.domain != LINE:
        raise ConfigParseError("prolate runs need line-domain nodes",
                               key="nodes")
    partition = validate_config(nodes, cluster)
    spectrum = require_resolved(
        hermitian_eigenvalues(build_prolate(nodes, bits), bits))
    lam_min = spectrum.min_value
    ratio = _ratio_if_equispaced(nodes, partition, cluster, lam_min, bits)
    base = cluster.delta / pi_e(16)
    thresholds = [mpf(user_c1) * base ** (2 * (m - 1))
                  for m in range(1, cluster.ell + 1)]
    counts = count_bands(spectrum.values, thresholds)
    return {
        "kind": "prolate",
        "precision_bits": bits,
        "cluster": cluster.to_json_dict(bits),
        "nodes": nodes.to_json_dict(bits),
        "multiplicities": list(partition.multiplicities),
        "q": list(partition.q),
        "spectrum": spectrum.to_json_dict(),
        "lambda_min": decimal_str(lam_min, bits),
        "lower_shape": decimal_str(base ** (2 * (cluster.ell - 1)), bits),
        "slepian_ratio": decimal_str(ratio, bits) if ratio is not None else None,
        "level_thresholds": [decimal_str(t, bits) for t in thresholds],
        "level_counts": counts,
        "level_counts_match_q": counts == list(partition.q),
        "user_c1": decimal_str(mpf(user_c1), bits),
        "runtime_ms": None,
    }, spectrum.headroom_bits


def _bounds_body(nodes, cluster, N, bits, user_c1, N_list):
    """The bound formulas for one configuration, without its spectrum."""
    validate_config(nodes, cluster)
    report = evaluate_all(VandermondeSpec(N, nodes), cluster,
                          user_c1=user_c1, bits=bits)
    return {
        "kind": "bounds",
        "N": N,
        "precision_bits": bits,
        "cluster": cluster.to_json_dict(bits),
        "bounds": report.to_json_dict(),
    }, None


def _limit_check_body(nodes, cluster, N, bits, user_c1, N_list):
    """Prolate limit gaps over N_list, and lambda_min(G) at their bits."""
    if nodes.domain != LINE:
        raise ConfigParseError("limit check needs line-domain nodes",
                               key="nodes")
    lambda_min, gaps, headroom = prolate_limit_check(
        nodes, list(N_list or ()), bits)
    return {
        "kind": "limit-check",
        "nodes": nodes.to_json_dict(bits),
        "lambda_min": decimal_str(lambda_min, bits),
        "gaps": [{"N": n, "gap": decimal_str(g, bits)} for n, g in gaps],
    }, headroom


#: config command -> (whether it reads the config's N, its body).  A body
#: runs at the ambient bits and returns (result, headroom_bits), with None
#: for a body that solves nothing.
_CONFIG_BODIES = {
    "spectrum": (True, _spectrum_body),
    "prolate": (False, _prolate_body),
    "bounds": (True, _bounds_body),
    "limit-check": (False, _limit_check_body),
}


def run_config(command: str, config_path, out_dir=None,
               bits_override: int | None = None, user_c1=1,
               N_list=None) -> dict:
    """The result of a config command (spectrum, prolate, bounds or
    limit-check) on one config file, written to <command>.json under
    out_dir when one is given.

    The config is read once.  Its reals are parsed at bits_override, else
    at its precision_bits, else at policy_bits for the cluster read at
    FLOOR_BITS, and for N when the command reads one; _at_target may raise
    policy bits once for headroom.  spectrum and prolate record their
    runtime_ms.
    """
    t0 = time.perf_counter()
    with_N, body = _CONFIG_BODIES[command]
    cfg = load_config(config_path)
    N = cfg["N"] if with_N else None
    if with_N and N is None:
        raise ConfigParseError("config missing key 'N'", key="N")

    def attempt(bits):
        bits = bits or policy_bits(
            ClusterSpec.from_json_dict(cfg["cluster"], FLOOR_BITS), N)
        cluster = ClusterSpec.from_json_dict(cfg["cluster"], bits)
        nodes = NodeSet.from_json_dict(cfg["nodes"], bits)
        with mp.workprec(bits):
            result, headroom = body(nodes, cluster, N, bits, user_c1, N_list)
        return result, bits, headroom

    result = _at_target(attempt, bits_override or cfg["precision_bits"])
    if "runtime_ms" in result:
        result["runtime_ms"] = int((time.perf_counter() - t0) * 1000)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        name = command.replace("-", "_") + ".json"
        with open(out_dir / name, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
    return result
