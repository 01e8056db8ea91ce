import csv
import dataclasses
import json
import math

import pytest
from mpmath import mp, mpf

from vandelab import experiments, geometry
from vandelab.errors import ConfigParseError
from vandelab.experiments import (
    CSV_COLUMNS,
    ExperimentManifest,
    compute_sweep_point,
    load_config,
    run_config,
    run_sweep,
    write_config,
)
from vandelab.geometry import LINE, ClusterSpec, NodeSet, generate_config
from vandelab.hp import GUARD_BITS


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

    def test_csv_json_mirror(self, tmp_path):
        m = ExperimentManifest.from_json_dict(manifest_dict(
            grid={"ell": [1, 2], "N": [50], "delta": ["1e-5"]}))
        run_sweep(m, tmp_path)
        rows = read_rows(tmp_path)
        with open(tmp_path / "results.json", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["columns"] == CSV_COLUMNS
        assert payload["rows"] == rows

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
        grid = {"ell": [1, 2], "N": [60, 80], "delta": ["1e-5"]}
        run_sweep(ExperimentManifest.from_json_dict(
            manifest_dict(grid=dict(grid))), tmp_path / "serial", workers=1)
        run_sweep(ExperimentManifest.from_json_dict(
            manifest_dict(grid=dict(grid))), tmp_path / "par", workers=2)

        def masked(path):
            rows = read_rows(path)
            for r in rows:
                r["runtime_ms"] = "X"
            return rows

        assert masked(tmp_path / "serial") == masked(tmp_path / "par")

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
        out = compute_sweep_point(m.points()[0])
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
        real, undersized = experiments.policy_bits, []

        def smaller(*args):
            undersized.append(real(*args) - 100)
            return undersized[-1]

        monkeypatch.setattr(experiments, "policy_bits", smaller)
        m = ExperimentManifest.from_json_dict(manifest_dict(grid=self.GRID))
        summary = run_sweep(m, tmp_path)
        row = read_rows(tmp_path)[0]
        details = json.loads((tmp_path / "details.json").read_text())["details"]
        assert row["status"] == "ok"
        assert details[0]["spectrum"]["precision_bits"] == int(row["precision_bits"])
        assert int(row["precision_bits"]) > undersized[0]
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

    def test_still_short_after_the_re_solve_fails(self, tmp_path, monkeypatch):
        solves = self._fixed_headroom(monkeypatch, 10)
        m = ExperimentManifest.from_json_dict(manifest_dict(grid=self.GRID))
        summary = run_sweep(m, tmp_path)
        details = json.loads((tmp_path / "details.json").read_text())["details"]
        assert read_rows(tmp_path)[0]["status"] == "failed"
        assert summary.failed == 1 and summary.min_headroom_bits is None
        assert solves[1] == solves[0] + GUARD_BITS - 10
        assert details[0]["reason"] == (
            f"headroom of 10 bits at {solves[1]} bits falls short of the "
            f"{GUARD_BITS}-bit target; raise precision")

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

    def test_limit_check(self, tmp_path):
        bits = 192
        with mp.workprec(bits):
            spec = ClusterSpec(delta="0.5", theta="1", s=2, ell=1, tau=1)
            nodes = NodeSet((mpf(0), mpf("0.5")), LINE)
        path = tmp_path / "c.json"
        write_config(path, nodes, spec, bits=bits)
        result = run_config("limit-check", path, N_list=[10, 50],
                            out_dir=tmp_path)
        gaps = [mpf(g["gap"]) for g in result["gaps"]]
        assert gaps[0] > gaps[1] > 0
        assert (tmp_path / "limit_check.json").exists()
