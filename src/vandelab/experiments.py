"""Experiment runner: manifests, sweeps, single-instance runs, reports.

Every result starts with the config header of ``_header``.  A body
returns (fields, headroom_bits), the fields it computes and none of the
header.  A config command's document, {"kind", header, fields,
"runtime_ms"}, is itself a config.

A sweep manifest declares a parameter grid; every grid point becomes one
result row.  A point runs the Vandermonde body that the spectrum command
also runs, without its level fields.  Its row is a fixed projection of
that result: a fixed CSV column set (documented in the README), mirrored
exactly to results.json.  details.json holds the whole result with the
row's index, {"index", header, fields}, or the reason the row was
skipped or failed.

The rows of one grid cell (ell, tau, N, delta, s, theta) differ only in
their layout and seed.  A sweep builds each cell's ``Cell`` once and
hands it to its rows: the policy bits, the spec read at those bits, the
lambda scale, and the "cluster" and "bounds" fields of their results.

Sweep rows, gen-config and the config commands run at one precision
path: ``run_at_bits`` runs the work under ``mp.workprec`` at the bits
given and re-solves policy bits once on a headroom shortfall.

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
from dataclasses import asdict, dataclass
from pathlib import Path

from mpmath import mp, mpf

from . import __version__ as TOOL_VERSION
from .bounds import (count_bands, evaluate_all, lower_bound_shape,
                     prolate_lower_shape, slepian_constant)
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
    _distance_slack,
    default_theta,
    generate_config,
    validate_config,
)
from .hp import (
    FLOOR_BITS,
    GUARD_BITS,
    RESOLVE_MARGIN_BITS,
    decimal_str,
    parse_bits,
    parse_decimal,
    parse_int,
    pi_e,
    required_bits,
)
from .matrices import VandermondeSpec, build_prolate
from .spectra import (
    hermitian_eigenvalues,
    lambda_scale,
    normalized_lambda,
    prolate_limit_check,
    singular_values,
)
from .suites import DEFAULT_SUITE_SEED
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
    """A sweep manifest; its one kind, "sweep", is read and written but
    not stored."""

    experiment_id: str
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
        if obj["kind"] != "sweep":
            raise ConfigParseError(
                f"manifest kind must be 'sweep', got {obj['kind']!r}", key="kind")
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
        obj = asdict(self)
        return {"experiment_id": obj.pop("experiment_id"), "kind": "sweep",
                **obj}

    def points(self) -> list:
        """Cartesian product of the grid in fixed key order."""
        lists = [self.grid[k] for k in _GRID_KEYS]
        out = []
        for idx, combo in enumerate(itertools.product(*lists)):
            point = dict(zip(_GRID_KEYS, combo))
            point["index"] = idx
            point["experiment_id"] = self.experiment_id
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
        """The fields in order, with rows as their count."""
        return {**vars(self), "rows": len(self.rows)}


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


def _write_json(path, obj):
    """obj as JSON indented by 2 at path, creating its directory.  Streamed
    to the file: details.json runs to megabytes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)


#: the CSV columns a row copies from its grid point
_GRID_COLUMNS = ("experiment_id", "ell", "N", "layout", "seed")

#: the grid keys of a cell, whose rows differ only in layout and seed
_CELL_KEYS = ("ell", "tau", "N", "delta", "s", "theta")
#: JSON's scalar types; a grid value of another type puts its row in a
#: cell of its own
_SCALARS = (str, int, float, bool, type(None))


def _cell_key(point: dict):
    """The point's grid cell, each value paired with its type, so that
    1, 1.0 and True, which compare equal, name different cells; its
    index, a cell of its own, when a value is not a JSON scalar."""
    values = [point[k] for k in _CELL_KEYS]
    if not all(type(v) in _SCALARS for v in values):
        return point["index"]
    return tuple((type(v), v) for v in values)


def _row(point: dict, result: dict) -> dict:
    """The CSV row of a grid point: its grid columns, kind "sweep", and
    every other column found under its name in result, its "cluster" or
    its "bounds", a bool as "true" or "false"; the rest stay blank."""
    found = {**result.get("bounds", {}), **result.get("cluster", {}), **result,
             "kind": "sweep", **{c: point[c] for c in _GRID_COLUMNS}}
    row = {}
    for column in CSV_COLUMNS:
        value = found.get(column, "")
        row[column] = str(value).lower() if isinstance(value, bool) else str(value)
    return row


def point_spec(point: dict):
    """Grid values or gen-config flags -> (spec_at, N).

    ``spec_at(bits)`` is the ClusterSpec with the reals read and the
    default theta evaluated at ``bits``, so the same bits give the same
    spec at any ambient precision.  ``s``, ``tau`` and ``theta`` of None
    or "auto" mean s = ell, tau = ell - 1, and geometry.default_theta,
    the widest theta the default centers of generate_config allow.
    """
    ell = int(point["ell"])
    if ell < 1:
        raise InvalidParameterError(f"ell must be >= 1, got {ell}")
    N = None if point["N"] is None else int(point["N"])
    if N is not None and N < 1:
        raise InvalidParameterError(f"N must be >= 1, got {N}")
    s = point["s"]
    s = ell if s in (None, "auto") else int(s)

    def spec_at(bits):
        with mp.workprec(bits):
            delta = parse_decimal(point["delta"], bits)
            tau_raw = point["tau"]
            if tau_raw in (None, "auto"):
                tau = mpf(ell - 1)
            else:
                tau = parse_decimal(tau_raw, bits)
            theta_raw = point["theta"]
            if theta_raw in (None, "auto"):
                theta = default_theta(s, ell)
            else:
                theta = parse_decimal(theta_raw, bits)
            return ClusterSpec(delta=delta, theta=theta, s=s, ell=ell, tau=tau)

    return spec_at, N


def policy_bits(spec_at, N: int | None) -> int:
    """The policy bits of a spec, sized from spec_at(FLOOR_BITS): with N
    for the Vandermonde spectrum at cluster size ell, without N for the
    prolate matrix of all s nodes, whose line-domain delta already stands
    for N*delta."""
    probe = spec_at(FLOOR_BITS)
    return (required_bits(probe.s, 1, probe.delta) if N is None
            else required_bits(probe.ell, N, probe.delta))


def run_at_bits(at, bits: int, body, resolve: bool):
    """The result of ``body(at(b), b)`` run under ``mp.workprec(b)`` at
    b = bits; body returns (result, its headroom_bits, or None if it
    solved nothing).

    Without resolve the bits are used as given.  With it, a headroom
    short of GUARD_BITS, or a spectrum the solver refused with a
    PrecisionError naming its headroom_bits, raises them by the shortfall
    plus RESOLVE_MARGIN_BITS for one more try, PrecisionError if still short.
    """
    for retry in (False, True):
        try:
            with mp.workprec(bits):
                result, headroom = body(at(bits), bits)
        except PrecisionError as exc:
            if not resolve or retry or exc.headroom_bits is None:
                raise
            result, headroom = None, exc.headroom_bits
        if not resolve or headroom is None or headroom >= GUARD_BITS:
            return result
        if retry:
            raise PrecisionError(
                f"headroom of {headroom} bits at {bits} bits falls short of "
                f"the {GUARD_BITS}-bit target; raise precision")
        bits += GUARD_BITS - headroom + RESOLVE_MARGIN_BITS
        log.debug("headroom %d bits short of %d; re-solving at %d bits",
                  headroom, GUARD_BITS, bits)


def _header(nodes: NodeSet, cluster_json: dict, partition, N: int | None,
            bits: int) -> dict:
    """The fields of a config file, in its key order, that every result
    starts with: N (periodic only), precision_bits, cluster, nodes,
    multiplicities and q.  load_config reads them back, so a config
    command's document is itself a config."""
    return {**({} if N is None else {"N": N}), "precision_bits": bits,
            "cluster": cluster_json, "nodes": nodes.to_json_dict(bits),
            "multiplicities": list(partition.multiplicities),
            "q": list(partition.q)}


@dataclass(frozen=True)
class Cell:
    """N, a spec read at bits, and what their Vandermonde results share:
    the lambda scale sqrt(N) (N delta)^(ell-1) and the "cluster" and
    "bounds" fields.  The rows of a sweep's grid cell share one."""

    N: int
    bits: int
    spec: ClusterSpec
    scale: object
    cluster: dict
    bounds: dict

    @classmethod
    def at(cls, N: int, spec: ClusterSpec, bits: int, user_c1=1) -> "Cell":
        """The cell of N and spec read at bits, its bounds for c1."""
        with mp.workprec(bits):
            scale = lambda_scale(N, spec.delta, spec.ell)
        return cls(N, bits, spec, scale, spec.to_json_dict(bits),
                   evaluate_all(N, spec, bits, user_c1))


def point_cell(point: dict):
    """The Cell of a grid point, at the manifest's precision_override or
    else at policy bits; or the exception building it raised, which each
    row of the cell reports."""
    try:
        spec_at, N = point_spec(point)
        bits = point["precision_override"] or policy_bits(spec_at, N)
        return Cell.at(N, spec_at(bits), bits)
    except Exception as exc:
        return exc


def _vandermonde_body(nodes: NodeSet, cell: Cell):
    """(fields, spectrum) of one validated configuration of cell's spec
    at the ambient cell.bits: what both a sweep row and ``spectrum``
    report below the header.  Its "bounds" and lambda scale are the
    cell's; sigma_min is the spectrum's last value."""
    spectrum = singular_values(VandermondeSpec(cell.N, nodes), bits=cell.bits)
    lam, log10_lam = normalized_lambda(spectrum.min_value, cell.scale)
    spectrum_json = spectrum.to_json_dict()
    return {
        "spectrum": spectrum_json,
        "bounds": cell.bounds,
        "sigma_min": spectrum_json["values"][-1],
        "lambda": decimal_str(lam, cell.bits),
        "log10_lambda": decimal_str(log10_lam, cell.bits),
    }, spectrum


def compute_sweep_point(point: dict, cell) -> dict:
    """One grid point end to end at its point_cell; returns row + details,
    never raises.

    The row projects the point's Vandermonde result, the config header
    and the body's fields, which details holds with the row's index.  A
    cell that is an exception skips or fails the row; a re-solve builds
    the row's own Cell.  A failed or skipped row keeps what its last
    attempt filled in: the spec columns once its spec reads, the rest
    once its spectrum is solved."""
    t0 = time.perf_counter()
    row = _row(point, {})
    details = {"index": point["index"]}

    def fill(attempt, bits):
        details.clear()
        details["index"] = point["index"]
        try:
            nodes, partition = generate_config(
                attempt.spec, str(point["layout"]), None, int(point["seed"]),
                PERIODIC)
            fields, spectrum = _vandermonde_body(nodes, attempt)
        except Exception:
            row.update(_row(point, {"precision_bits": bits,
                                    "cluster": attempt.cluster}))
            raise
        details.update({**_header(nodes, attempt.cluster, partition,
                                  attempt.N, bits), **fields})
        row.update(_row(point, details))
        return None, spectrum.headroom_bits

    def cell_at(bits):
        if bits == cell.bits:
            return cell
        spec_at, N = point_spec(point)
        return Cell.at(N, spec_at(bits), bits)

    try:
        if isinstance(cell, Exception):  # shared by the cell's rows
            raise cell.with_traceback(None)
        run_at_bits(cell_at, cell.bits, fill,
                    point["precision_override"] is None)
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
    pts = [(int(r["ell"]) - 1, float(r["log10_lambda"]))
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
    _write_json(out_dir / "results.json", {"columns": CSV_COLUMNS, "rows": rows})
    _write_json(out_dir / "details.json",
                {"manifest": manifest.to_json_dict(), "details": details})
    with open(out_dir / "results.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def _write_figure(out_dir: Path, manifest: ExperimentManifest, rows):
    # float() reads decimals of any length, where mpf() refuses more
    # than 4300 digits
    pts = [(float(r["ell"]), float(r["log10_lambda"]))
           for r in rows if r["status"] == STATUS_OK and r["log10_lambda"]]
    with mp.workprec(64):
        lower_slope = -float(mp.log10(pi_e(16)))
    taus = [float(r["tau"]) for r in rows
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

    Each grid cell is built once, here, and each point runs as
    compute_sweep_point(point, its cell).  Per-point failures are
    recorded in their rows and never abort the sweep.  With workers > 1,
    points run in separate processes; output order is independent of
    scheduling.
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
    # one Cell per key, in grid order, built from the cell's last point:
    # every point of a cell reads the same grid values
    keys = [_cell_key(p) for p in points]
    built = {key: point_cell(p) for key, p in dict(zip(keys, points)).items()}
    cells = [built[key] for key in keys]
    if workers > 1:
        # imported here: loading it with multiprocessing slows the
        # start-up of every command, and only this path uses it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(compute_sweep_point, points, cells))
    else:
        outcomes = list(map(compute_sweep_point, points, cells))
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
    _write_json(out_dir / "summary.json", summary.to_json_dict())
    return summary


# ---------------------------------------------------------------- configs


def load_config(path) -> dict:
    """Read a single-instance config file (nodes + cluster + N); other
    keys, such as those of a result document, are ignored.

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
    """Store a config whose reals read back at bits to the values given,
    so a command on it solves the very nodes its writer held."""
    obj = {
        "nodes": nodes.to_json_dict(bits, exact=True),
        "cluster": cluster.to_json_dict(bits, exact=True),
    }
    if N is not None:
        obj["N"] = N
    if bits is not None:
        obj["precision_bits"] = bits
    _write_json(path, obj)


def _ratio_if_equispaced(nodes: NodeSet, partition, cluster: ClusterSpec,
                         lam_min):
    """lambda_min / (C(s) delta^(2s-2)) for a single cluster equispaced at
    delta, else None: validation put each of its s-1 arcs at delta - tol
    or more, so a span within (s-1) tol of (s-1) delta is equispaced."""
    s, xs = cluster.s, nodes.nodes
    tol = _distance_slack(nodes, cluster.delta)
    if partition.cluster_count != 1 or s != cluster.ell or \
            abs(max(xs) - min(xs) - (s - 1) * cluster.delta) > (s - 1) * tol:
        return None
    return lam_min / (slepian_constant(s) * cluster.delta ** (2 * s - 2))


def _levels(values, partition, cluster: ClusterSpec, shape, user_c1, bits):
    """The level fields: the thresholds c1 * shape(m), m = 1..ell, the
    count of values in each band between them, whether that is q, the
    running counts, and c1."""
    thresholds = [user_c1 * shape(m) for m in range(1, cluster.ell + 1)]
    counts = count_bands(values, thresholds)
    return {"level_thresholds": [decimal_str(t, bits) for t in thresholds],
            "level_counts": counts,
            "level_counts_match_q": counts == list(partition.q),
            "cumulative_counts": list(itertools.accumulate(counts)),
            "user_c1": decimal_str(user_c1, bits)}


def _spectrum_body(nodes, cluster, partition, N, bits, user_c1, N_list):
    """The Vandermonde fields plus their per-level counts."""
    fields, spectrum = _vandermonde_body(nodes, Cell.at(N, cluster, bits, user_c1))
    levels = _levels(spectrum.values, partition, cluster,
                     lambda m: lower_bound_shape(N, cluster.delta, m),
                     user_c1, bits)
    return {**fields, **levels}, spectrum.headroom_bits


def _prolate_body(nodes, cluster, partition, N, bits, user_c1, N_list):
    """Eigenvalues of the generalized prolate matrix plus comparisons."""
    spectrum = hermitian_eigenvalues(build_prolate(nodes, bits), bits)
    lam_min = spectrum.min_value
    ratio = _ratio_if_equispaced(nodes, partition, cluster, lam_min)
    return {
        "spectrum": spectrum.to_json_dict(),
        "lambda_min": decimal_str(lam_min, bits),
        "lower_shape": decimal_str(
            prolate_lower_shape(cluster.delta, cluster.ell), bits),
        "slepian_ratio": decimal_str(ratio, bits) if ratio is not None else None,
        **_levels(spectrum.values, partition, cluster,
                  lambda m: prolate_lower_shape(cluster.delta, m), user_c1,
                  bits),
    }, spectrum.headroom_bits


def _bounds_body(nodes, cluster, partition, N, bits, user_c1, N_list):
    """The bound formulas for one configuration, without its spectrum."""
    VandermondeSpec(N, nodes)  # refuses N < s - 1, as spectrum does
    return {"bounds": evaluate_all(N, cluster, bits, user_c1)}, None


def _limit_check_body(nodes, cluster, partition, N, bits, user_c1, N_list):
    """Prolate limit gaps over N_list, and lambda_min(G) at their bits."""
    lambda_min, gaps, headroom = prolate_limit_check(
        nodes, list(N_list or ()), bits)
    return {
        "lambda_min": decimal_str(lambda_min, bits),
        "gaps": [{"N": n, "gap": decimal_str(g, bits)} for n, g in gaps],
    }, headroom


#: config command -> (the domain of its nodes, its body).  The periodic
#: commands are the Vandermonde ones, which read the config's N.  A body
#: runs at the ambient bits on validated nodes and their partition, takes
#: c1 as an mpf and returns (fields, headroom_bits), with None for a body
#: that solves nothing; its fields follow the config header.
_CONFIG_BODIES = {
    "spectrum": (PERIODIC, _spectrum_body),
    "prolate": (LINE, _prolate_body),
    "bounds": (PERIODIC, _bounds_body),
    "limit-check": (LINE, _limit_check_body),
}


def run_config(command: str, config_path, out_dir=None,
               bits_override: int | None = None, user_c1=1,
               N_list=None) -> dict:
    """The result of a config command (spectrum, prolate, bounds or
    limit-check) on one config file, written to <command>.json under
    out_dir when one is given.

    The config is read once.  run_at_bits runs it at bits_override, else
    at its precision_bits, else at policy bits for N when the command
    reads one, and re-solves policy bits on a shortfall.  Each attempt
    parses the config's reals and user_c1, which must be above 0, at its
    own bits, refuses nodes of the other domain with a ConfigParseError
    on "nodes", and validates the nodes once for the body.  The document
    is {"kind", the config header, the body's fields, "runtime_ms"}.
    """
    t0 = time.perf_counter()
    domain, body = _CONFIG_BODIES[command]
    cfg = load_config(config_path)
    N = cfg["N"] if domain == PERIODIC else None
    if domain == PERIODIC and N is None:
        raise ConfigParseError("config missing key 'N'", key="N")

    def read_and_run(cluster, bits):
        nodes = NodeSet.from_json_dict(cfg["nodes"], bits)
        c1 = parse_decimal(user_c1, bits)
        if not c1 > 0:
            raise InvalidParameterError(f"c1 must be > 0, got {user_c1!r}")
        if nodes.domain != domain:
            raise ConfigParseError(f"{command} runs need {domain}-domain "
                                   "nodes", key="nodes")
        partition = validate_config(nodes, cluster)
        fields, headroom = body(nodes, cluster, partition, N, bits, c1, N_list)
        return {"kind": command, **_header(nodes, cluster.to_json_dict(bits),
                                           partition, N, bits),
                **fields}, headroom

    def spec_at(bits):
        return ClusterSpec.from_json_dict(cfg["cluster"], bits)

    bits = bits_override or cfg["precision_bits"]
    result = run_at_bits(spec_at, bits or policy_bits(spec_at, N),
                         read_and_run, bits is None)
    result["runtime_ms"] = int((time.perf_counter() - t0) * 1000)
    if out_dir is not None:
        _write_json(Path(out_dir) / (command.replace("-", "_") + ".json"),
                    result)
    return result
