import copy
import csv
import dataclasses
import json
import math
import xml.etree.ElementTree as ET
from collections import Counter

import pytest
from mpmath import mp, mpf

from vandelab import experiments, geometry
from vandelab.cli import main
from vandelab.errors import (ConfigParseError, InvalidParameterError,
                             PrecisionError)
from vandelab.experiments import (
    CSV_COLUMNS,
    ExperimentManifest,
    compute_sweep_point,
    load_config,
    point_cell,
    run_config,
    run_sweep,
    write_config,
)
from vandelab.geometry import (
    LINE,
    PERIODIC,
    ClusterSpec,
    NodeSet,
    generate_config,
)
from vandelab.hp import GUARD_BITS, RESOLVE_MARGIN_BITS


def manifest_dict(**overrides):
    base = {
        "experiment_id": "unit",
        "kind": "sweep",
        "grid": {
            "ell": [1],
            "N": [100],
            "delta": ["1e-6"],
        },
    }
    base.update(overrides)
    return base


def read_rows(out_dir):
    with open(out_dir / "results.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestManifest:
    def test_missing_keys(self):
        with pytest.raises(ConfigParseError) as err:
            ExperimentManifest.from_json_dict({"experiment_id": "x"})
        assert err.value.key == "kind"
        with pytest.raises(ConfigParseError) as err:
            ExperimentManifest.from_json_dict(
                {"experiment_id": "x", "kind": "sweep", "grid": {"ell": [1]}})
        assert err.value.key in ("N", "delta")

    def test_kind_other_than_sweep_refused(self):
        with pytest.raises(ConfigParseError) as err:
            ExperimentManifest.from_json_dict(manifest_dict(kind="prolate"))
        assert err.value.key == "kind"

    def test_kind_is_echoed_not_stored(self):
        # the one kind is written back in its place, and the echo loads
        m = ExperimentManifest.from_json_dict(manifest_dict())
        assert "kind" not in {f.name for f in dataclasses.fields(m)}
        assert "kind" not in m.points()[0]
        echo = m.to_json_dict()
        assert list(echo) == ["experiment_id", "kind", "grid",
                              "precision_override", "created_at",
                              "tool_version"]
        assert echo["kind"] == "sweep"
        assert ExperimentManifest.from_json_dict(echo) == m

    def test_unknown_grid_key(self):
        m = manifest_dict()
        m["grid"]["bogus"] = [1]
        with pytest.raises(ConfigParseError):
            ExperimentManifest.from_json_dict(m)

    def test_defaults_filled(self):
        m = ExperimentManifest.from_json_dict(manifest_dict())
        assert m.grid["tau"] == ["auto"]
        assert m.grid["layout"] == ["equispaced"]
        pts = m.points()
        assert len(pts) == 1
        assert pts[0]["index"] == 0


class TestSweep:
    def test_single_node_row(self, tmp_path):
        m = ExperimentManifest.from_json_dict(manifest_dict())
        summary = run_sweep(m, tmp_path)
        assert (summary.ok, summary.skipped, summary.failed) == (1, 0, 0)
        assert summary.fitted_slope is None
        rows = read_rows(tmp_path)
        assert len(rows) == 1
        row = rows[0]
        assert row["status"] == "ok"
        with mp.workprec(192):
            lam = mpf(row["lambda"])
            assert abs(lam - mp.sqrt(101) / 10) < mpf(10) ** -40
        for name in ("results.json", "details.json", "summary.json",
                     "figure.svg"):
            assert (tmp_path / name).exists()

    def test_figure_is_well_formed_for_any_id(self, tmp_path):
        m = ExperimentManifest.from_json_dict(
            manifest_dict(experiment_id="R&D <bracket>"))
        run_sweep(m, tmp_path)
        root = ET.parse(tmp_path / "figure.svg").getroot()
        titles = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert titles[0].startswith("R&D <bracket>: ")

    def test_csv_json_mirror(self, tmp_path):
        m = ExperimentManifest.from_json_dict(manifest_dict(
            grid={"ell": [1, 2], "N": [50], "delta": ["1e-5"]}))
        run_sweep(m, tmp_path)
        rows = read_rows(tmp_path)
        with open(tmp_path / "results.json", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["columns"] == CSV_COLUMNS
        assert payload["rows"] == rows

    def test_ell_below_one_skips_its_row(self, tmp_path):
        m = ExperimentManifest.from_json_dict(manifest_dict(
            grid={"ell": [0, 2], "N": [50], "delta": ["1e-5"]}))
        summary = run_sweep(m, tmp_path)
        assert (summary.ok, summary.skipped, summary.failed) == (1, 1, 0)
        rows = read_rows(tmp_path)
        details = json.loads((tmp_path / "details.json").read_text())["details"]
        assert [r["status"] for r in rows] == ["skipped", "ok"]
        assert details[0]["reason"] == "ell must be >= 1, got 0"

    def test_unknown_layout_skips_every_row(self, tmp_path):
        # a one-node cluster lays out no gaps, but its layout is still read
        m = ExperimentManifest.from_json_dict(manifest_dict(
            grid={"ell": [1, 2], "N": [50], "delta": ["1e-5"],
                  "layout": ["foo"]}))
        summary = run_sweep(m, tmp_path)
        assert (summary.ok, summary.skipped, summary.failed) == (0, 2, 0)
        details = json.loads((tmp_path / "details.json").read_text())["details"]
        assert [d["reason"] for d in details] == ["unknown layout 'foo'"] * 2
        # the spec was read before the layout, and its columns stay
        pi = "3.14159265358979323846264338327950288419716939937510582097"
        keep = ("s", "tau", "delta", "theta", "precision_bits")
        assert [[r[c] for c in keep] for r in read_rows(tmp_path)] == [
            ["1", "0.0", "0.00001", pi, "192"],
            ["2", "1.0", "0.00001", pi, "192"]]

    def test_N_below_one_skips_its_row(self, tmp_path):
        # at explicit bits too, with the policy path's reason and no bits
        m = ExperimentManifest.from_json_dict(manifest_dict(
            grid={"ell": [2], "N": [0, 50], "delta": ["1e-5"]},
            precision_override=256))
        summary = run_sweep(m, tmp_path)
        assert (summary.ok, summary.skipped, summary.failed) == (1, 1, 0)
        rows = read_rows(tmp_path)
        details = json.loads((tmp_path / "details.json").read_text())["details"]
        assert [r["status"] for r in rows] == ["skipped", "ok"]
        assert [r["precision_bits"] for r in rows] == ["", "256"]
        assert details[0]["reason"] == "N must be >= 1, got 0"

    def test_N_below_s_minus_one_skips_its_row(self, tmp_path):
        # six nodes need N >= 5; the spec is read and sized, so the row
        # keeps its spec columns and bits
        m = ExperimentManifest.from_json_dict(manifest_dict(
            grid={"ell": [2], "s": [6], "N": [3], "delta": ["1e-6"]}))
        summary = run_sweep(m, tmp_path)
        assert (summary.ok, summary.skipped, summary.failed) == (0, 1, 0)
        [row] = read_rows(tmp_path)
        details = json.loads((tmp_path / "details.json").read_text())["details"]
        assert details == [{"index": 0,
                            "reason": "need N >= s-1, got N=3, s=6"}]
        assert [row[c] for c in ("s", "tau", "N", "precision_bits",
                                 "sigma_min")] == ["6", "1.0", "3", "192", ""]

    def test_no_room_for_default_centers_skips_its_row(self, tmp_path):
        m = ExperimentManifest.from_json_dict(manifest_dict(
            grid={"ell": [2], "s": [400], "theta": [None], "N": [50],
                  "delta": ["1e-5"]}))
        summary = run_sweep(m, tmp_path)
        assert (summary.ok, summary.skipped, summary.failed) == (0, 1, 0)
        details = json.loads((tmp_path / "details.json").read_text())["details"]
        assert details[0]["reason"] == (
            "no room for 200 default cluster centers; set theta explicitly")

    @pytest.mark.parametrize("grid", [
        {"ell": [3], "N": [100], "delta": ["1e-6"]},
        {"ell": [2], "N": [100], "delta": ["1e-6"], "s": [5],
         "layout": ["random"], "seed": [7]},
    ], ids=["equispaced-one-cluster", "random-three-clusters"])
    def test_row_is_the_spectrum_of_its_gen_config(self, tmp_path, grid):
        # a row's details are what spectrum reports on the config gen-config
        # writes for the same point, less the fields only spectrum adds
        m = ExperimentManifest.from_json_dict(manifest_dict(grid=grid))
        run_sweep(m, tmp_path)
        [row] = read_rows(tmp_path)
        [detail] = json.loads((tmp_path / "details.json").read_text())["details"]
        point = m.points()[0]
        assert main(["gen-config", "--delta", point["delta"],
                     "--ell", str(point["ell"]),
                     "--s", str(point["s"] or point["ell"]),
                     "--N", str(point["N"]), "--layout", point["layout"],
                     "--seed", str(point["seed"]),
                     "--out", str(tmp_path / "gen")]) == 0
        doc = run_config("spectrum", tmp_path / "gen" / "config.json")
        only_spectrum = ("kind", "runtime_ms", "user_c1", "level_thresholds",
                         "level_counts", "level_counts_match_q",
                         "cumulative_counts")
        assert detail.pop("index") == 0
        assert detail == {k: v for k, v in doc.items()
                          if k not in only_spectrum}
        assert row["status"] == "ok"
        for column in ("sigma_min", "lambda", "log10_lambda",
                       "precision_bits"):
            assert row[column] == str(doc[column])
        for column in ("lower_shape", "upper_explicit", "srf"):
            assert row[column] == doc["bounds"][column]
        assert row["window_ok"] == str(doc["bounds"]["window_ok"]).lower()

    def test_desk_slope_bracket(self, tmp_path):
        # fitted slope of log10 Lambda against (ell - 1) for the desk grid
        m = ExperimentManifest.from_json_dict(manifest_dict(
            experiment_id="desk",
            grid={"ell": [2, 3, 4, 5, 6], "N": [100], "delta": ["1e-8"]}))
        summary = run_sweep(m, tmp_path)
        assert summary.ok == 5
        assert -2.2 <= summary.fitted_slope <= math.log10(5)

    def test_slopes_agree_across_precision(self, tmp_path):
        grid = {"ell": [2, 3, 4], "N": [100], "delta": ["1e-8"]}
        a = run_sweep(ExperimentManifest.from_json_dict(
            manifest_dict(grid=dict(grid))), tmp_path / "a")
        b = run_sweep(ExperimentManifest.from_json_dict(
            manifest_dict(grid=dict(grid), precision_override=1024)),
            tmp_path / "b")
        assert abs(a.fitted_slope - b.fitted_slope) < 5e-4 * abs(a.fitted_slope)

    def test_infeasible_point_skipped_with_reason(self, tmp_path):
        # tau below ell-1 violates the cluster-spec invariant
        m = ExperimentManifest.from_json_dict(manifest_dict(
            grid={"ell": [3], "tau": ["1"], "N": [100], "delta": ["1e-6"]}))
        summary = run_sweep(m, tmp_path)
        assert summary.skipped == 1 and summary.ok == 0
        with open(tmp_path / "details.json", encoding="utf-8") as fh:
            details = json.load(fh)["details"]
        assert "tau" in details[0]["reason"]

    def test_non_finite_decimal_skipped_with_reason(self, tmp_path):
        m = ExperimentManifest.from_json_dict(manifest_dict(
            grid={"ell": [3], "N": [100], "delta": ["inf", "nan"]}))
        summary = run_sweep(m, tmp_path)
        assert (summary.ok, summary.skipped, summary.failed) == (0, 2, 0)
        with open(tmp_path / "details.json", encoding="utf-8") as fh:
            details = json.load(fh)["details"]
        assert all("not a finite decimal" in d["reason"] for d in details)

    def test_multi_cluster_point(self, tmp_path):
        m = ExperimentManifest.from_json_dict(manifest_dict(
            grid={"ell": [2], "s": [3], "N": [100], "delta": ["1e-6"],
                  "theta": ["1.5"]}))
        summary = run_sweep(m, tmp_path)
        assert summary.ok == 1
        with open(tmp_path / "details.json", encoding="utf-8") as fh:
            details = json.load(fh)["details"]
        assert sorted(details[0]["multiplicities"]) == [1, 2]
        assert details[0]["q"] == [2, 1]

    def test_determinism_modulo_runtime(self, tmp_path):
        grid = {"ell": [1, 2], "N": [60], "delta": ["1e-5"],
                "layout": ["random"], "seed": [42]}
        run_sweep(ExperimentManifest.from_json_dict(
            manifest_dict(grid=dict(grid))), tmp_path / "r1")
        run_sweep(ExperimentManifest.from_json_dict(
            manifest_dict(grid=dict(grid))), tmp_path / "r2")

        def masked(path):
            rows = read_rows(path)
            for r in rows:
                r["runtime_ms"] = "X"
            return rows

        assert masked(tmp_path / "r1") == masked(tmp_path / "r2")

    def test_workers_match_serial(self, tmp_path):
        # three seeds per cell, with room for random gaps: the rows of a
        # cell are handed the one cell the sweep built, in whichever
        # process runs them, and each row is also what a sweep of that
        # row alone gives
        grid = {"ell": [2, 3], "N": [60, 80], "delta": ["1e-5"], "tau": ["4"],
                "layout": ["random"], "seed": [1, 2, 3]}
        run_sweep(ExperimentManifest.from_json_dict(
            manifest_dict(grid=dict(grid))), tmp_path / "serial", workers=1)
        run_sweep(ExperimentManifest.from_json_dict(
            manifest_dict(grid=dict(grid))), tmp_path / "par", workers=2)
        run_sweep(ExperimentManifest.from_json_dict(
            manifest_dict(grid=dict(grid, seed=[3]))), tmp_path / "alone")

        def masked(path):
            rows = read_rows(path)
            for r in rows:
                r["runtime_ms"] = "X"
            return rows

        def details(path):
            return json.loads((path / "details.json").read_text())["details"]

        serial = masked(tmp_path / "serial")
        assert len({r["sigma_min"] for r in serial}) == 12
        assert serial == masked(tmp_path / "par")
        assert details(tmp_path / "serial") == details(tmp_path / "par")
        alone = details(tmp_path / "alone")
        for one, shared in zip(alone, details(tmp_path / "serial")[2::3]):
            assert {**one, "index": 0} == {**shared, "index": 0}

    #: ok cells beside cells that fail: ell 0, delta "x", tau past
    #: pi/delta (or wider than the centers allow) and s = 6 with N = 3
    FAILING_GRID = {"ell": [0, 2], "N": [3, 100], "delta": ["1e-10", "x"],
                    "tau": ["auto", "1e11"], "s": [None, 6],
                    "layout": ["random"], "seed": [1, 2]}

    @pytest.mark.parametrize("bits, reasons", [
        (None, {"ell must be >= 1, got 0": 32,
                "not a decimal number: 'x'": 16,
                "periodic domain requires tau <= pi/delta": 4,
                "cluster centers 0,1 closer than theta + tau*delta": 4,
                "need N >= s-1, got N=3, s=6": 2, None: 6}),
        (64, {"ell must be >= 1, got 0": 32,
              "not a decimal number: 'x'": 16,
              "periodic domain requires tau <= pi/delta": 4,
              "cluster centers 0,1 closer than theta + tau*delta": 4,
              "need N >= s-1, got N=3, s=6": 2,
              "Cholesky pivot 2 of 2 is 0.0: the matrix is not positive "
              "definite at 64 bits; raise precision": 2,
              "smallest Gram eigenvalue 4.258992721663452378e-16 does not "
              "clear its error bound 5.283465985943689812e-16 at 64 bits; "
              "raise precision": 2, None: 2}),
    ], ids=["policy", "64-bits"])
    def test_failing_cells_match_across_workers(self, tmp_path, bits,
                                                reasons):
        # a row of a cell that cannot be read, sized or laid out reports
        # the same status and reason whichever process runs it
        m = ExperimentManifest.from_json_dict(manifest_dict(
            grid=self.FAILING_GRID, precision_override=bits))
        run_sweep(m, tmp_path / "serial", workers=1)
        run_sweep(m, tmp_path / "par", workers=2)
        serial, par = (read_rows(tmp_path / d) for d in ("serial", "par"))
        for r in serial + par:
            r["runtime_ms"] = "X"
        assert serial == par
        assert (tmp_path / "serial" / "details.json").read_bytes() == (
            tmp_path / "par" / "details.json").read_bytes()
        details = json.loads(
            (tmp_path / "serial" / "details.json").read_text())["details"]
        assert Counter(d.get("reason") for d in details) == reasons
        statuses = [r["status"] for r in serial]
        assert statuses.count("failed") == (0 if bits is None else 4)

    #: two cells of three random-layout rows each
    SHARED_GRID = {"ell": [2, 4], "N": [100], "delta": ["1e-6"],
                   "tau": ["8"], "layout": ["random"], "seed": [1, 2, 3]}

    def test_rows_shared_in_a_sweep_equal_rows_run_alone(self, tmp_path):
        # a row that took its cell's spec, policy bits, lambda scale and
        # bound report from the sweep equals the row computed afresh
        m = ExperimentManifest.from_json_dict(
            manifest_dict(grid=self.SHARED_GRID))
        run_sweep(m, tmp_path)
        rows = read_rows(tmp_path)
        details = json.loads((tmp_path / "details.json").read_text())["details"]
        assert len(rows) == 6 and len({r["sigma_min"] for r in rows}) == 6
        for point, row, detail in zip(m.points(), rows, details):
            alone = compute_sweep_point(point, point_cell(point))
            assert alone["details"] == detail
            assert {**alone["row"], "runtime_ms": ""} == {**row,
                                                          "runtime_ms": ""}

    def test_policy_bits_and_lambda_scale_once_per_cell(self, tmp_path,
                                                        monkeypatch):
        # each sweep sizes, scales and bounds each of its two cells once,
        # a later sweep of the same cells again, with whatever the
        # functions are by then, and gives the same rows
        names = ("required_bits", "lambda_scale", "evaluate_all")
        real = {name: getattr(experiments, name) for name in names}
        calls = []

        def counted(tag):
            for name in names:
                def count(*args, name=name):
                    calls.append((tag, name))
                    return real[name](*args)
                monkeypatch.setattr(experiments, name, count)

        m = ExperimentManifest.from_json_dict(
            manifest_dict(grid=self.SHARED_GRID))
        for tag in ("one", "two"):
            counted(tag)
            assert run_sweep(m, tmp_path / tag).ok == 6
        assert Counter(calls) == {(tag, name): 2 for tag in ("one", "two")
                                  for name in names}
        for a, b in zip(read_rows(tmp_path / "one"),
                        read_rows(tmp_path / "two"), strict=True):
            assert {**a, "runtime_ms": ""} == {**b, "runtime_ms": ""}
        # a row run on its own sizes, scales and bounds its own cell
        calls.clear()
        for point in m.points():
            out = compute_sweep_point(point, point_cell(point))
            assert out["row"]["status"] == "ok"
        assert Counter(calls) == {("two", name): 6 for name in names}

    def test_no_module_global_changes_during_a_sweep(self, tmp_path,
                                                     monkeypatch):
        # a row's result depends on its point and its cell alone: no
        # name in experiments is rebound or mutated while rows run
        real, seen = experiments.compute_sweep_point, []

        def state():
            return {name: (id(value), copy.deepcopy(value)
                           if isinstance(value, (dict, list, set)) else None)
                    for name, value in vars(experiments).items()
                    if not name.startswith("__")}

        def checked(point, cell):
            seen.append(state() == before)
            return real(point, cell)

        monkeypatch.setattr(experiments, "compute_sweep_point", checked)
        before = state()
        m = ExperimentManifest.from_json_dict(manifest_dict(
            grid=dict(self.SHARED_GRID, delta=["1e-6", "x"])))
        summary = run_sweep(m, tmp_path)
        assert (summary.ok, summary.skipped) == (6, 6)
        assert seen == [True] * 12
        assert state() == before

    def test_float_grid_values_skip_their_rows(self, tmp_path):
        # 1, 1.0 and True compare equal, but only the int and the bool
        # are decimals a row reads; every row holding a float is skipped
        m = ExperimentManifest.from_json_dict(manifest_dict(
            grid={"ell": [2], "N": [10], "delta": [1, 1.0],
                  "tau": [1, 1.0, True]}))
        summary = run_sweep(m, tmp_path)
        assert (summary.ok, summary.skipped, summary.failed) == (2, 4, 0)
        rows = read_rows(tmp_path)
        details = json.loads((tmp_path / "details.json").read_text())["details"]
        assert [(r["tau"], r["delta"], r["status"]) for r in rows] == [
            ("1.0", "1.0", "ok"), ("", "", "skipped"), ("", "", "skipped"),
            ("", "", "skipped"), ("1.0", "1.0", "ok"), ("", "", "skipped")]
        assert [d.get("reason") for d in details] == [None] + [
            "pass decimal values as str or int, not float"] * 3 + [
            None, "pass decimal values as str or int, not float"]

    @pytest.mark.parametrize("key", ["delta", "tau", "theta"])
    def test_non_scalar_grid_values_skip_their_rows(self, tmp_path, key):
        grid = {"ell": [2], "N": [100], "delta": ["1e-6"],
                key: [["1"], ["1"], {"a": 1}]}
        summary = run_sweep(ExperimentManifest.from_json_dict(
            manifest_dict(grid=grid)), tmp_path)
        assert (summary.ok, summary.skipped, summary.failed) == (0, 3, 0)
        details = json.loads((tmp_path / "details.json").read_text())["details"]
        assert [d["reason"] for d in details] == [
            "not a decimal number: ['1']", "not a decimal number: ['1']",
            "not a decimal number: {'a': 1}"]

    def test_figure_and_fit_read_long_decimals(self, tmp_path):
        # a row at the envelope corner (12, 40, 1e-222, 100) runs at
        # 16,341 bits and prints 4919 digits, past the 4300 digits that
        # int() reads
        tail = "1" * 4918
        rows = [{"status": "ok", "ell": str(ell), "tau": f"{ell - 1}.{tail}",
                 "log10_lambda": f"-{ell}.{tail}"} for ell in (2, 3)]
        assert len(rows[0]["log10_lambda"].strip("-").replace(".", "")) == 4919
        experiments._write_figure(tmp_path, ExperimentManifest.from_json_dict(
            manifest_dict()), rows)
        ET.parse(tmp_path / "figure.svg")
        assert experiments._fit_slope(rows) == pytest.approx(-1.0)

    @pytest.mark.parametrize("bits", [192, 256])
    def test_under_resolved_row_is_not_ok(self, tmp_path, bits):
        # the policy picks 431 bits for this point; pinned far below it,
        # the spectrum is rounding noise and the row must not pass as ok
        m = ExperimentManifest.from_json_dict(manifest_dict(
            grid={"ell": [6], "N": [100], "delta": ["1e-10"]},
            precision_override=bits))
        run_sweep(m, tmp_path)
        assert read_rows(tmp_path)[0]["status"] != "ok"

    def test_each_row_validates_once(self, tmp_path, monkeypatch):
        # generate_config validates the nodes it builds; the row reuses
        # that partition instead of validating them again
        real, calls = geometry.validate_config, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        for module in (geometry, experiments):
            monkeypatch.setattr(module, "validate_config", counted)
        m = ExperimentManifest.from_json_dict(manifest_dict(
            grid={"ell": [2, 3], "N": [100], "delta": ["1e-6"],
                  "layout": ["random"], "seed": [1, 2]}))
        assert run_sweep(m, tmp_path).ok == 4
        assert len(calls) == 4

    def test_row_revalidates(self, tmp_path):
        # re-running a row's recorded coordinates reproduces sigma_min
        m = ExperimentManifest.from_json_dict(manifest_dict(
            grid={"ell": [2], "N": [80], "delta": ["1e-6"],
                  "layout": ["random"], "seed": [9]}))
        run_sweep(m, tmp_path / "one")
        row = read_rows(tmp_path / "one")[0]
        m2 = ExperimentManifest.from_json_dict(manifest_dict(grid={
            "ell": [int(row["ell"])], "N": [int(row["N"])],
            "delta": [row["delta"]], "tau": [row["tau"]],
            "theta": [row["theta"]], "s": [int(row["s"])],
            "layout": [row["layout"]], "seed": [int(row["seed"])]}))
        run_sweep(m2, tmp_path / "two")
        row2 = read_rows(tmp_path / "two")[0]
        assert row2["sigma_min"] == row["sigma_min"]

    # equal multiplicities: every level holds ell nearly equal singular
    # values, which kept two-sided Jacobi past the sweep budget
    @pytest.mark.parametrize("ell, s, delta, N", [
        (4, 24, "1e-10", 288), (8, 40, "1e-10", 480)])
    def test_equal_multiplicity_clusters_converge(self, ell, s, delta, N):
        m = ExperimentManifest.from_json_dict(manifest_dict(grid={
            "ell": [ell], "s": [s], "delta": [delta], "N": [N],
            "tau": ["auto"], "layout": ["equispaced"], "seed": [20240601]}))
        point = m.points()[0]
        out = compute_sweep_point(point, point_cell(point))
        assert out["row"]["status"] == "ok", out["details"].get("reason")
        assert out["details"]["spectrum"]["sweeps_used"] <= 12


def _count_reads(monkeypatch):
    """Record the ``what`` of every experiments._read_json call."""
    real, reads = experiments._read_json, []

    def counted(path, what):
        reads.append(what)
        return real(path, what)

    monkeypatch.setattr(experiments, "_read_json", counted)
    return reads


class TestHeadroom:
    """Every spectrum records headroom_bits = floor(log2(lambda_min /
    error_bound)); policy bits must reach GUARD_BITS of it."""

    GRID = {"ell": [4], "N": [100], "delta": ["1e-6"]}

    @staticmethod
    def _fixed_headroom(monkeypatch, headroom):
        """Make every singular-value solve report ``headroom`` bits, at any
        precision, by widening its error bound; counts the solves."""
        solves = []
        real = experiments.singular_values

        def widened(spec, bits):
            sv = real(spec, bits)
            solves.append(bits)
            with mp.workprec(bits):
                bound = sv.min_value ** 2 * mpf(2) ** -headroom / mpf("1.5")
            return dataclasses.replace(sv, error_bound=bound)

        monkeypatch.setattr(experiments, "singular_values", widened)
        return solves

    def test_recorded_in_details_and_summary(self, tmp_path):
        m = ExperimentManifest.from_json_dict(manifest_dict(
            grid={"ell": [2, 4], "N": [100], "delta": ["1e-6", "nan"]}))
        summary = run_sweep(m, tmp_path)
        details = json.loads((tmp_path / "details.json").read_text())["details"]
        rows = read_rows(tmp_path)
        ok = [d["spectrum"]["headroom_bits"] for r, d in zip(rows, details)
              if r["status"] == "ok"]
        assert summary.ok == len(ok) == 2 and summary.skipped == 2
        assert all(h >= GUARD_BITS for h in ok)
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert on_disk["min_headroom_bits"] == summary.min_headroom_bits == min(ok)

    def test_recorded_in_spectrum_and_prolate(self, tmp_path):
        with mp.workprec(192):
            spec = ClusterSpec(delta="1e-3", theta="1", s=3, ell=3, tau=2)
            nodes = NodeSet(tuple(k * mpf("1e-3") for k in range(3)), LINE)
        path = tmp_path / "c.json"
        write_config(path, nodes, spec)
        run_config("prolate", path, out_dir=tmp_path)
        doc = json.loads((tmp_path / "prolate.json").read_text())
        assert doc["spectrum"]["headroom_bits"] >= GUARD_BITS
        with mp.workprec(192):
            nodes = NodeSet(tuple(k * mpf("1e-3") for k in range(3)))
        write_config(path, nodes, spec, N=100)
        run_config("spectrum", path, out_dir=tmp_path)
        doc = json.loads((tmp_path / "spectrum.json").read_text())
        assert doc["spectrum"]["headroom_bits"] >= GUARD_BITS

    def test_undersized_policy_bits_are_re_solved(self, tmp_path, monkeypatch):
        real, undersized = experiments.required_bits, []

        def smaller(*args):
            undersized.append(real(*args) - 100)
            return undersized[-1]

        monkeypatch.setattr(experiments, "required_bits", smaller)
        # one row, and two cells of three rows: every row of a cell
        # re-solves at its own bits, above its cell's, and is the row
        # computed on its own
        for grid in (self.GRID, TestSweep.SHARED_GRID):
            undersized.clear()
            m = ExperimentManifest.from_json_dict(manifest_dict(grid=grid))
            summary = run_sweep(m, tmp_path / str(len(grid)))
            rows = read_rows(tmp_path / str(len(grid)))
            details = json.loads((tmp_path / str(len(grid)) /
                                  "details.json").read_text())["details"]
            sized = dict(zip(dict.fromkeys(r["ell"] for r in rows),
                             undersized, strict=True))
            for point, row, detail in zip(m.points(), rows, details):
                assert row["status"] == "ok"
                assert detail["spectrum"]["precision_bits"] == int(
                    row["precision_bits"]) > sized[row["ell"]]
                alone = compute_sweep_point(point, point_cell(point))
                assert alone["details"] == detail
                assert {**alone["row"], "runtime_ms": ""} == {
                    **row, "runtime_ms": ""}
            assert summary.min_headroom_bits >= GUARD_BITS

        # the spectrum command re-solves the same way, reading its config
        # once for both solves
        with mp.workprec(256):
            spec = ClusterSpec(delta="1e-6", theta="1", s=4, ell=4, tau=3)
            nodes, _ = generate_config(spec, "equispaced", [mpf(0)], seed=1)
        path = tmp_path / "c.json"
        write_config(path, nodes, spec, N=100)
        reads = _count_reads(monkeypatch)
        doc = run_config("spectrum", path)
        assert doc["precision_bits"] > undersized[-1]
        assert doc["spectrum"]["headroom_bits"] >= GUARD_BITS
        assert reads == ["config"]

    def test_unresolved_policy_solve_is_re_solved(self, tmp_path,
                                                  monkeypatch):
        # 116 bits under the policy, the solver refuses this row's spectrum
        # as unresolved; its PrecisionError names the shortfall, and the
        # row is re-solved by it like a short headroom
        real, refused = experiments.required_bits, []
        monkeypatch.setattr(experiments, "required_bits",
                            lambda *args: real(*args) - 116)
        real_sv = experiments.singular_values

        def recorded(spec, bits):
            try:
                return real_sv(spec, bits)
            except PrecisionError as exc:
                refused.append((bits, exc))
                raise

        monkeypatch.setattr(experiments, "singular_values", recorded)
        m = ExperimentManifest.from_json_dict(manifest_dict(grid=self.GRID))
        summary = run_sweep(m, tmp_path)
        row = read_rows(tmp_path)[0]
        assert row["status"] == "ok"
        [(bits, exc)] = refused
        assert "does not clear its error bound" in str(exc)
        assert exc.headroom_bits <= 0
        assert int(row["precision_bits"]) == (
            bits + GUARD_BITS - exc.headroom_bits + RESOLVE_MARGIN_BITS)
        assert summary.min_headroom_bits >= GUARD_BITS

        # explicit bits are never re-solved
        refused.clear()
        m = ExperimentManifest.from_json_dict(manifest_dict(
            grid=self.GRID, precision_override=bits))
        summary = run_sweep(m, tmp_path / "explicit")
        assert [b for b, _ in refused] == [bits]
        assert summary.failed == 1

    @pytest.mark.parametrize("command", ["prolate", "limit-check"])
    def test_re_solve_clears_the_target_with_a_margin(self, tmp_path,
                                                      monkeypatch, command):
        # 100 bits under the policy this line config is re-solved; at the
        # shortfall alone it came out at 63 bits of headroom at 199 bits
        real = experiments.required_bits
        monkeypatch.setattr(experiments, "required_bits",
                            lambda *args: real(*args) - 100)
        with mp.workprec(256):
            spec = ClusterSpec(delta="1e-6", theta="1", s=4, ell=4, tau=3)
            nodes, _ = generate_config(spec, "equispaced", [mpf(0)], seed=1,
                                       domain=LINE)
        path = tmp_path / "c.json"
        write_config(path, nodes, spec)
        doc = run_config(command, path, N_list=[10])
        if command == "prolate":
            assert doc["spectrum"]["headroom_bits"] >= GUARD_BITS

    def test_refusal_without_headroom_fails_at_once(self):
        # a Cholesky pivot that is not positive names no shortfall
        calls = []

        def body(spec, bits):
            calls.append(bits)
            raise PrecisionError("Cholesky pivot 2 of 2 is -0.25")

        spec_at, N = experiments.point_spec(
            {"ell": 4, "N": 100, "delta": "1e-6", "s": None, "tau": None,
             "theta": None})
        with pytest.raises(PrecisionError, match="pivot"):
            experiments.run_at_bits(
                spec_at, experiments.policy_bits(spec_at, N), body, True)
        assert len(calls) == 1

    def test_still_short_after_the_re_solve_fails(self, tmp_path, monkeypatch):
        solves = self._fixed_headroom(monkeypatch, 10)
        m = ExperimentManifest.from_json_dict(manifest_dict(grid=self.GRID))
        summary = run_sweep(m, tmp_path)
        details = json.loads((tmp_path / "details.json").read_text())["details"]
        assert read_rows(tmp_path)[0]["status"] == "failed"
        assert summary.failed == 1 and summary.min_headroom_bits is None
        assert solves[1] == solves[0] + GUARD_BITS - 10 + RESOLVE_MARGIN_BITS
        assert details[0]["reason"] == (
            f"headroom of 10 bits at {solves[1]} bits falls short of the "
            f"{GUARD_BITS}-bit target; raise precision")
        # the failed row keeps the numbers of its last attempt
        row = read_rows(tmp_path)[0]
        assert row["precision_bits"] == str(solves[1])
        assert details[0]["spectrum"]["precision_bits"] == solves[1]
        assert row["sigma_min"] == details[0]["sigma_min"] == (
            details[0]["spectrum"]["values"][-1])

    def test_explicit_precision_is_never_re_solved(self, tmp_path, monkeypatch):
        solves = self._fixed_headroom(monkeypatch, 10)
        m = ExperimentManifest.from_json_dict(manifest_dict(
            grid=self.GRID, precision_override=256))
        summary = run_sweep(m, tmp_path / "sweep")
        assert read_rows(tmp_path / "sweep")[0]["status"] == "ok"
        assert summary.min_headroom_bits == 10
        with mp.workprec(256):
            spec = ClusterSpec(delta="1e-6", theta="1", s=4, ell=4, tau=3)
            nodes, _ = generate_config(spec, "equispaced", [mpf(0)], seed=1)
        path = tmp_path / "c.json"
        write_config(path, nodes, spec, N=100, bits=256)
        run_config("spectrum", path)
        write_config(path, nodes, spec, N=100)
        run_config("spectrum", path, bits_override=256)
        assert solves == [256, 256, 256]


class TestSingleRuns:
    def _config(self, tmp_path, domain="periodic", with_n=True):
        bits = 192
        with mp.workprec(bits):
            spec = ClusterSpec(delta="1e-3", theta="1", s=2, ell=2, tau=1)
            nodes, _ = generate_config(spec, "equispaced", [mpf(0)], seed=1,
                                       domain=domain)
        path = tmp_path / "config.json"
        write_config(path, nodes, spec, N=100 if with_n else None, bits=bits)
        return path

    @pytest.mark.parametrize("command",
                             ["spectrum", "prolate", "bounds", "limit-check"])
    def test_reads_its_config_once(self, tmp_path, monkeypatch, command):
        domain = LINE if command in ("prolate", "limit-check") else "periodic"
        with mp.workprec(192):
            spec = ClusterSpec(delta="1e-3", theta="1", s=2, ell=2, tau=1)
            nodes, _ = generate_config(spec, "equispaced", [mpf(0)], seed=1,
                                       domain=domain)
        path = tmp_path / "c.json"
        write_config(path, nodes, spec, N=100)  # no precision_bits: policy
        reads = _count_reads(monkeypatch)
        run_config(command, path, N_list=[10])
        assert reads == ["config"]

    @pytest.mark.parametrize("command, domain", [
        ("spectrum", LINE), ("bounds", LINE),
        ("prolate", PERIODIC), ("limit-check", PERIODIC)])
    def test_refuses_nodes_of_the_other_domain(self, tmp_path, command,
                                               domain):
        path = self._config(tmp_path, domain=domain)
        with pytest.raises(ConfigParseError) as err:
            run_config(command, path, N_list=[10])
        assert err.value.key == "nodes"

    @pytest.mark.parametrize("command",
                             ["spectrum", "prolate", "bounds", "limit-check"])
    def test_validates_once_per_attempt(self, tmp_path, monkeypatch, command):
        domain = LINE if command in ("prolate", "limit-check") else PERIODIC
        with mp.workprec(256):
            spec = ClusterSpec(delta="1e-6", theta="1", s=4, ell=4, tau=3)
            nodes, _ = generate_config(spec, "equispaced", [mpf(0)], seed=1,
                                       domain=domain)
        path = tmp_path / "c.json"
        real, calls = experiments.validate_config, []

        def counted(*args):
            calls.append(mp.prec)
            return real(*args)

        monkeypatch.setattr(experiments, "validate_config", counted)
        write_config(path, nodes, spec, N=100, bits=256)  # one attempt
        run_config(command, path, N_list=[10])
        assert calls == [256]
        if command != "bounds":
            # 100 bits under the policy it re-solves once: two attempts
            real_bits = experiments.required_bits
            monkeypatch.setattr(experiments, "required_bits",
                                lambda *args: real_bits(*args) - 100)
            write_config(path, nodes, spec, N=100)
            calls.clear()
            run_config(command, path, N_list=[10])
            assert len(calls) == len(set(calls)) == 2

    def test_load_config_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigParseError):
            load_config(bad)
        missing = tmp_path / "missing.json"
        missing.write_text(json.dumps({"nodes": {"domain": "periodic",
                                                 "nodes": ["0"]}}))
        with pytest.raises(ConfigParseError) as err:
            load_config(missing)
        assert err.value.key == "cluster"

    def test_spectrum_single_node(self, tmp_path):
        bits = 192
        with mp.workprec(bits):
            spec = ClusterSpec(delta="1e-3", theta="1", s=1, ell=1, tau=0)
            nodes = NodeSet((mpf(0),))
        path = tmp_path / "c.json"
        write_config(path, nodes, spec, N=100, bits=bits)
        result = run_config("spectrum", path, out_dir=tmp_path)
        assert result["q"] == [1]
        assert result["level_counts"] == [1]
        assert result["level_counts_match_q"]
        with mp.workprec(bits):
            assert abs(mpf(result["sigma_min"]) - mp.sqrt(101)) < mpf(10) ** -40
        assert (tmp_path / "spectrum.json").exists()

    def test_spectrum_missing_n(self, tmp_path):
        path = self._config(tmp_path, with_n=False)
        with pytest.raises(ConfigParseError) as err:
            run_config("spectrum", path)
        assert err.value.key == "N"

    def test_prolate_pair(self, tmp_path):
        path = self._config(tmp_path, domain="line", with_n=False)
        result = run_config("prolate", path, out_dir=tmp_path)
        with mp.workprec(256):
            delta = mpf("1e-3")
            expect = 1 - mp.sin(delta) / delta
            lam = mpf(result["lambda_min"])
            assert abs(lam - expect) <= expect * mpf(10) ** -20
            ratio = mpf(result["slepian_ratio"])
            assert abs(ratio - 1) < mpf("1e-4")
        assert result["q"] == [1, 1]

    def test_prolate_rejects_periodic(self, tmp_path):
        path = self._config(tmp_path, domain="periodic")
        with pytest.raises(ConfigParseError):
            run_config("prolate", path)

    def test_bounds_run(self, tmp_path):
        path = self._config(tmp_path)
        result = run_config("bounds", path, out_dir=tmp_path)
        assert result["bounds"]["window_ok"] is True
        assert (tmp_path / "bounds.json").exists()

    def test_bounds_refuses_N_below_s_minus_one(self, tmp_path, capsys):
        # bounds solves nothing, but six nodes still need N >= 5
        with mp.workprec(192):
            spec = ClusterSpec(delta="1e-6", theta="1", s=6, ell=2, tau=1)
            nodes, _ = generate_config(spec, "equispaced", None, seed=1)
        path = tmp_path / "c.json"
        write_config(path, nodes, spec, N=3, bits=192)
        with pytest.raises(InvalidParameterError) as err:
            run_config("bounds", path)
        assert str(err.value) == "need N >= s-1, got N=3, s=6"
        assert main(["bounds", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: need N >= s-1, got N=3, s=6\n")
        assert not (tmp_path / "out" / "bounds.json").exists()

    def test_spectrum_level_counts_with_fitted_c1(self, tmp_path):
        # two clusters of sizes {2,1}: q = [2,1]; with a fitted constant
        # the per-level counts reproduce q exactly
        import random

        from conftest import fit_level_constant, random_clustered_config
        from vandelab.geometry import validate_config
        from vandelab.hp import required_bits
        from vandelab.matrices import VandermondeSpec
        from vandelab.spectra import singular_values

        rng = random.Random(8)
        inst = random_clustered_config(
            rng, ell_range=(2, 2), clusters_range=(2, 2),
            delta_exp_range=(5.5, 6.5), require_distinct_mults=True)
        part = validate_config(inst.nodes, inst.cluster)
        assert list(part.q) == [2, 1]
        bits = required_bits(inst.cluster.ell, inst.N, inst.cluster.delta)
        sv = singular_values(VandermondeSpec(inst.N, inst.nodes), bits)
        fit = fit_level_constant([(sv.values, part.q, inst.N,
                                   inst.cluster.delta)])
        assert fit.nonempty
        path = tmp_path / "c.json"
        write_config(path, inst.nodes, inst.cluster, N=inst.N, bits=bits)
        from vandelab.hp import decimal_str

        result = run_config("spectrum", path,
                            user_c1=decimal_str(fit.c1, bits))
        assert result["q"] == [2, 1]
        assert result["level_counts"] == [2, 1]
        assert result["level_counts_match_q"]
        # below decreasing thresholds the running sums count the values
        # at or above each threshold
        with mp.workprec(bits):
            at_or_above = [sum(1 for v in result["spectrum"]["values"]
                               if mpf(v) >= mpf(t))
                           for t in result["level_thresholds"]]
        assert result["cumulative_counts"] == at_or_above == [2, 3]

    def test_prolate_three_node_slepian_ratio(self, tmp_path):
        # s = 3 equispaced at 1e-3: ratio to the asymptotic form within 2%
        bits = 256
        with mp.workprec(bits):
            delta = mpf("1e-3")
            spec = ClusterSpec(delta="1e-3", theta="1", s=3, ell=3, tau=2)
            nodes = NodeSet(tuple((k - 1) * delta for k in range(3)), LINE)
        path = tmp_path / "c.json"
        write_config(path, nodes, spec, bits=bits)
        result = run_config("prolate", path)
        with mp.workprec(bits):
            ratio = mpf(result["slepian_ratio"])
            assert abs(ratio - 1) < mpf("0.02")

    def test_prolate_pair_two_deltas_apart_has_no_slepian_ratio(self,
                                                                 tmp_path):
        # +-1e-3 at delta = 1e-3: one cluster, but spaced 2 delta, which
        # C(s) delta^(2s-2) does not describe
        bits = 192
        with mp.workprec(bits):
            spec = ClusterSpec(delta="1e-3", theta="1", s=2, ell=2, tau=2)
            nodes = NodeSet((mpf("-1e-3"), mpf("1e-3")), LINE)
        path = tmp_path / "c.json"
        write_config(path, nodes, spec, bits=bits)
        result = run_config("prolate", path)
        assert result["q"] == [1, 1]
        assert result["slepian_ratio"] is None

    def test_limit_check(self, tmp_path):
        bits = 192
        with mp.workprec(bits):
            spec = ClusterSpec(delta="0.5", theta="1", s=2, ell=2, tau=1)
            nodes = NodeSet((mpf(0), mpf("0.5")), LINE)
        path = tmp_path / "c.json"
        write_config(path, nodes, spec, bits=bits)
        result = run_config("limit-check", path, N_list=[10, 50],
                            out_dir=tmp_path)
        gaps = [mpf(g["gap"]) for g in result["gaps"]]
        assert gaps[0] > gaps[1] > 0
        assert (tmp_path / "limit_check.json").exists()
