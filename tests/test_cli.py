import json
import logging
import subprocess
import sys

import pytest
from mpmath import mp, mpf

from vandelab import cli, experiments
from vandelab.cli import main
from vandelab.experiments import write_config
from vandelab.geometry import ClusterSpec, NodeSet, generate_config


def make_manifest(tmp_path, **grid):
    g = {"ell": [1], "N": [50], "delta": ["1e-5"]}
    g.update(grid)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "experiment_id": "cli-test", "kind": "sweep", "grid": g}))
    return path


def test_sweep_exit_zero(tmp_path, capsys):
    manifest = make_manifest(tmp_path)
    code = main(["sweep", "--manifest", str(manifest),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "results.csv").exists()
    summary = json.loads(capsys.readouterr().out)
    assert summary["ok"] == 1


def test_gen_config_then_spectrum(tmp_path, capsys):
    code = main(["gen-config", "--delta", "1e-4", "--s", "2", "--ell", "2",
                 "--tau", "1", "--seed", "5", "--N", "80",
                 "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    code = main(["spectrum", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["kind"] == "spectrum"
    assert len(result["spectrum"]["values"]) == 2


def test_prolate_command(tmp_path, capsys):
    with mp.workprec(192):
        spec = ClusterSpec(delta="1e-3", theta="1", s=2, ell=2, tau=1)
        nodes, _ = generate_config(spec, "equispaced", [mpf(0)], seed=1,
                                   domain="line")
    cfg = tmp_path / "line.json"
    write_config(cfg, nodes, spec, bits=192)
    code = main(["prolate", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["slepian_ratio"] is not None


def test_inequalities_subset(tmp_path, capsys):
    code = main(["inequalities", "--checks", "cor-turan", "--instances", "5",
                 "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "inequalities.json").read_text())
    assert payload[0]["name"] == "cor-turan"
    assert payload[0]["all_hold"]


def test_limit_check_command(tmp_path, capsys):
    with mp.workprec(192):
        spec = ClusterSpec(delta="0.5", theta="1", s=2, ell=2, tau=1)
        nodes = NodeSet((mpf(0), mpf("0.5")), "line")
    cfg = tmp_path / "line.json"
    write_config(cfg, nodes, spec, bits=192)
    code = main(["limit-check", "--config", str(cfg), "--N-list", "5,25",
                 "--out", str(tmp_path)])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert [g["N"] for g in result["gaps"]] == [5, 25]


def test_bad_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code = main(["spectrum", "--config", str(bad)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_inequalities_without_instances_exits_two(tmp_path, capsys, instances):
    code = main(["inequalities", "--checks", "turan,salem",
                 "--instances", instances, "--out", str(tmp_path)])
    assert code == 2
    assert "error: instances must be >= 1" in capsys.readouterr().err


def test_unknown_check_exits_two(tmp_path, capsys):
    code = main(["inequalities", "--checks", "nonsense",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "error: unknown checks: ['nonsense']" in capsys.readouterr().err
    assert not (tmp_path / "inequalities.json").exists()


@pytest.mark.parametrize("name,value", [
    ("VANDELAB_SEED", "99"), ("VANDELAB_PRECISION_BITS", "512"),
    ("VANDELAB_SEED", "x"), ("VANDELAB_PRECISION_BITS", "many"),
    ("VANDELAB_PRECISION_BITS", "0"), ("VANDELAB_WORKERS", "two"),
    ("VANDELAB_C1", "inf"),
], ids=["seed", "precision-bits", "env-seed", "env-precision-bits",
        "env-precision-bits-0", "env-workers", "env-c1-inf"])
def test_environment_changes_no_output_byte(tmp_path, monkeypatch, name,
                                            value):
    # the command line is the whole input: a random layout depends on the
    # seed and a spectrum on the bits, yet no variable, well-formed or
    # not, moves a byte
    def outputs(dirname, *flags):
        out = tmp_path / dirname
        assert main(["gen-config", "--delta", "1e-6", "--s", "4", "--ell", "2",
                     "--tau", "3", "--theta", "1", "--N", "100",
                     "--layout", "random", "--out", str(out), *flags]) == 0
        assert main(["spectrum", "--config", str(out / "config.json"),
                     "--out", str(out)]) == 0
        spectrum = json.loads((out / "spectrum.json").read_text())
        spectrum["runtime_ms"] = None
        return (out / "config.json").read_bytes(), spectrum

    clean = outputs("clean")
    assert outputs("flags", "--seed", "99", "--precision-bits", "512") != clean
    monkeypatch.setenv(name, value)
    assert outputs("env") == clean


@pytest.mark.parametrize("argv", [
    ["inequalities", "--instances", "1", "--precision-bits", "512"],
    ["inequalities", "--instances", "1", "--c1", "7"],
    ["sweep", "--manifest", "m.json", "--c1", "7"],
    ["gen-config", "--delta", "1e-4", "--s", "2", "--ell", "2", "--c1", "7"],
    ["limit-check", "--config", "c.json", "--c1", "7"],
], ids=["inequalities-precision-bits", "inequalities-c1", "sweep-c1",
        "gen-config-c1", "limit-check-c1"])
def test_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys,
                                                         argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "inequalities.json").exists()


def test_installed_entry_point(tmp_path):
    manifest = make_manifest(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "vandelab.cli", "sweep",
         "--manifest", str(manifest), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_the_process_pool_out():
    # only sweep --workers > 1 needs it, and its import costs every
    # command's start-up
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, vandelab.cli; "
         "print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_parser_is_built_once_per_process(tmp_path, capsys):
    cli.build_parser.cache_clear()
    for _ in range(3):
        assert main(["inequalities", "--checks", "turan", "--instances", "2",
                     "--out", str(tmp_path)]) == 0
    assert cli.build_parser.cache_info().misses == 1
    capsys.readouterr()


def test_verbose_flag_holds_on_every_call(tmp_path, capsys, caplog,
                                          monkeypatch):
    # basicConfig sets no level once the root logger has a handler, so
    # each call sets it: a -v call after a plain one logs the re-solve's
    # debug line, and the plain call after it is back at INFO
    real = experiments.required_bits
    monkeypatch.setattr(experiments, "required_bits",
                        lambda *args: real(*args) - 100)
    with mp.workprec(256):
        spec = ClusterSpec(delta="1e-6", theta="1", s=4, ell=4, tau=3)
        nodes, _ = generate_config(spec, "equispaced", [mpf(0)], seed=1)
    path = tmp_path / "c.json"
    write_config(path, nodes, spec, N=100)
    root = logging.getLogger()
    level = root.level
    try:
        for verbose in (False, True, False):
            caplog.clear()
            assert main(["-v"] * verbose + [
                "spectrum", "--config", str(path), "--out", str(tmp_path)]) == 0
            assert root.level == (logging.DEBUG if verbose else logging.INFO)
            assert sum("re-solving" in r.getMessage()
                       for r in caplog.records) == verbose
    finally:
        root.setLevel(level)
    capsys.readouterr()

def _line_config(path, nodes, delta):
    s = len(nodes)
    path.write_text(json.dumps({
        "nodes": {"domain": "line", "nodes": nodes},
        "cluster": {"delta": delta, "theta": "1", "s": s, "ell": s,
                    "tau": str(s - 1)}}))
    return path


def _sinc_lambda_min(nodes, dps):
    """Smallest eigenvalue of the sinc matrix, by mpmath's eigsy."""
    with mp.workdps(dps):
        xs = [mpf(x) for x in nodes]
        G = mp.matrix([[mp.sinc(a - b) for b in xs] for a in xs])
        return min(mp.eigsy(G, eigvals_only=True))


def _rel_diff(a, b):
    with mp.workdps(60):
        a, b = mpf(a), mpf(b)
        return abs(a - b) / abs(b)


def test_limit_check_lambda_min_at_chosen_bits(tmp_path, capsys):
    nodes = ["-1.5e-20", "-5e-21", "5e-21", "1.5e-20"]
    cfg = _line_config(tmp_path / "line.json", nodes, "1e-20")
    code = main(["limit-check", "--config", str(cfg), "--N-list", "10,50,250",
                 "--out", str(tmp_path)])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    expect = _sinc_lambda_min(nodes, 200)
    assert mp.nstr(expect, 7) == "1.142857e-123"
    assert _rel_diff(result["lambda_min"], expect) < mpf("1e-6")


def test_unresolved_lambda_min_exits_two(tmp_path, capsys):
    # at 192 bits the 1e-20 cluster's lambda_min ~ 1.1e-123 is far below
    # rounding: a Cholesky pivot comes out negative, and the solve used to
    # print -2.2e-58 as its value
    nodes = ["-1.5e-20", "-5e-21", "5e-21", "1.5e-20"]
    cfg = _line_config(tmp_path / "line.json", nodes, "1e-20")
    for argv in (["prolate"], ["limit-check", "--N-list", "10"]):
        code = main(argv + ["--config", str(cfg), "--precision-bits", "192",
                            "--out", str(tmp_path)])
        assert code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not positive definite" in captured.err
        assert "at 192 bits; raise precision" in captured.err


def test_unresolved_spectrum_exits_two(tmp_path, capsys):
    # sigma_min^2 of the 1e-6 cluster at N = 100 is about 2e-27: at 96
    # bits it sits under the solver's error bound, at 64 bits a Cholesky
    # pivot is already negative
    assert main(["gen-config", "--delta", "1e-6", "--s", "4", "--ell", "4",
                 "--N", "100", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for bits, text in (("96", "does not clear its error bound"),
                       ("64", "not positive definite")):
        code = main(["spectrum", "--config", str(tmp_path / "config.json"),
                     "--precision-bits", bits, "--out", str(tmp_path)])
        assert code == 2, bits
        captured = capsys.readouterr()
        assert captured.out == ""
        assert text in captured.err
        assert f"at {bits} bits; raise precision" in captured.err


def test_rising_level_thresholds_exit_two(tmp_path, capsys):
    # N*delta = 300 >= 32*pi*e: the level shape of m = 2 is above that of
    # m = 1, so there are no bands to count the spectrum into
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "nodes": {"domain": "periodic", "nodes": ["-1.5", "1.5"]},
        "cluster": {"delta": "3", "theta": "3", "s": 2, "ell": 2, "tau": "1"},
        "N": 100}))
    code = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "N*delta >= 32*pi*e" in captured.err


def test_prolate_without_precision_bits(tmp_path, capsys):
    for delta, nodes in (("1e-2", ["-0.015", "-0.005", "0.005", "0.015"]),
                         ("1e-3", ["-0.0015", "-0.0005", "0.0005", "0.0015"])):
        cfg = _line_config(tmp_path / f"line-{delta}.json", nodes, delta)
        code = main(["prolate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0, delta
        result = json.loads(capsys.readouterr().out)
        expect = _sinc_lambda_min(nodes, 80)
        assert _rel_diff(result["lambda_min"], expect) < mpf("1e-15"), delta


def test_gen_config_runs_at_sweep_bits(tmp_path, capsys):
    point = {"ell": [6], "s": [6], "N": [100], "delta": ["1e-10"],
             "theta": ["1"]}
    manifest = make_manifest(tmp_path, **point)
    assert main(["sweep", "--manifest", str(manifest),
                 "--out", str(tmp_path / "sweep")]) == 0
    payload = json.loads((tmp_path / "sweep" / "results.json").read_text())
    row = payload["rows"][0]
    assert main(["gen-config", "--delta", "1e-10", "--s", "6", "--ell", "6",
                 "--N", "100", "--theta", "1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["spectrum", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["precision_bits"] == int(row["precision_bits"]) == 431
    assert _rel_diff(result["lambda"], row["lambda"]) < mpf("1e-40")


def test_gen_config_centers(tmp_path):
    # --centers moves the clusters and leaves the policy's bits alone
    def config(name, *flags):
        assert main(["gen-config", "--delta", "1e-4", "--s", "6", "--ell", "3",
                     "--N", "200", "--out", str(tmp_path / name), *flags]) == 0
        return json.loads((tmp_path / name / "config.json").read_text())

    default = config("default")
    moved = config("centers", "--centers=-1,1.5")
    assert moved["precision_bits"] == default["precision_bits"]
    with mp.workprec(moved["precision_bits"]):
        xs = [mpf(x) for x in moved["nodes"]["nodes"]]
        for center in (-1, mpf("1.5")):
            assert sum(1 for x in xs if abs(x - center) < mpf("1e-3")) == 3


def _manifest_with(tmp_path, **changes):
    obj = json.loads(make_manifest(tmp_path).read_text())
    obj.update(changes)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(obj))
    return ["sweep", "--manifest", str(path)]


def _json_file(tmp_path, obj):
    path = tmp_path / "document.json"
    path.write_text(json.dumps(obj))
    return path


def _config_with(tmp_path, command, **changes):
    path = _line_config(tmp_path / "line.json", ["0", "0.5"], "0.5")
    obj = json.loads(path.read_text())
    obj.update(changes)
    path.write_text(json.dumps(obj))
    return [command, "--config", str(path)]


def _nodes_config(tmp_path, command, nodes):
    argv = _config_with(tmp_path, command)
    obj = json.loads((tmp_path / "line.json").read_text())
    obj["nodes"]["nodes"] = nodes
    (tmp_path / "line.json").write_text(json.dumps(obj))
    return argv


def _cluster_config(tmp_path, command, **changes):
    argv = _config_with(tmp_path, command)
    obj = json.loads((tmp_path / "line.json").read_text())
    obj["cluster"].update(changes)
    (tmp_path / "line.json").write_text(json.dumps(obj))
    return argv


@pytest.mark.parametrize("argv", [
    lambda t: _manifest_with(t, grid=[{"ell": [1], "N": [50],
                                       "delta": ["1e-5"]}]),
    lambda t: _manifest_with(t, grid={"ell": 3, "N": [50], "delta": ["1e-5"]}),
    lambda t: _manifest_with(t, precision_override="abc"),
    lambda t: _config_with(t, "bounds", N="abc"),
    lambda t: _config_with(t, "prolate", precision_bits="x"),
    lambda t: _config_with(t, "limit-check") + ["--N-list", "10,x"],
    lambda t: ["bounds", "--config", str(_json_file(t, 3))],
    lambda t: ["prolate", "--config", str(t / "missing.json")],
    lambda t: ["sweep", "--manifest", str(t / "missing.json")],
    lambda t: _manifest_with(t, grid={"ell": ["x"], "N": [50],
                                      "delta": ["1e-5"]}),
    lambda t: _manifest_with(t, grid={"ell": [1], "N": ["abc"],
                                      "delta": ["1e-5"]}),
    lambda t: _cluster_config(t, "prolate", s="x"),
    lambda t: _cluster_config(t, "prolate", ell="x"),
    lambda t: _nodes_config(t, "prolate", 3),
    lambda t: _nodes_config(t, "limit-check", []),
    lambda t: _config_with(t, "prolate") + ["--precision-bits", "0"],
    lambda t: _config_with(t, "prolate", precision_bits=0),
    lambda t: _manifest_with(t, precision_override=0),
    lambda t: _manifest_with(t) + ["--precision-bits", "10"],
    lambda t: _manifest_with(t) + ["--workers", "0"],
    lambda t: _manifest_with(t) + ["--workers", "-2"],
    lambda t: ["inequalities", "--checks", ",", "--instances", "1"],
    lambda t: _config_with(t, "limit-check") + ["--N-list", ""],
    lambda t: ["gen-config", "--delta=inf", "--s", "3", "--ell", "3",
               "--theta", "1", "--N", "100"],
    lambda t: ["gen-config", "--delta", "1e-3", "--s", "3", "--ell", "3",
               "--theta=inf", "--N", "100"],
    lambda t: ["bounds", "--config", str(_json_file(t, {
        "nodes": {"domain": "periodic", "nodes": ["-0.001", "0", "0.001"]},
        "cluster": {"delta": "0.001", "theta": "inf", "s": 3, "ell": 3,
                    "tau": "2"},
        "N": 100}))],
    lambda t: ["gen-config", "--delta", "1e-3", "--s", "3", "--ell", "0",
               "--N", "100"],
    lambda t: ["gen-config", "--delta", "1e-4", "--s", "2", "--ell", "2",
               "--N", "-1", "--precision-bits", "256"],
    lambda t: _config_with(t, "prolate") + ["--c1", "abc"],
    lambda t: _config_with(t, "prolate") + ["--c1", "nan"],
    lambda t: _config_with(t, "prolate") + ["--c1", "0"],
    lambda t: _nodes_config(t, "limit-check", ["0", "0.5", "1"]),
], ids=["grid-list", "grid-scalar", "precision-override", "config-N",
        "config-precision-bits", "N-list", "config-not-object",
        "missing-config", "missing-manifest", "grid-ell", "grid-N",
        "cluster-s", "cluster-ell", "nodes-not-list", "limit-check-no-nodes",
        "precision-bits-0", "config-precision-bits-0",
        "precision-override-0", "sweep-precision-bits-10", "workers-0",
        "workers-negative", "checks-empty", "N-list-empty", "delta-inf",
        "theta-inf", "config-theta-inf", "gen-config-ell-0",
        "gen-config-N-negative", "c1-abc",
        "c1-nan", "c1-0", "limit-check-count-mismatch"])
def test_malformed_input_exits_two(tmp_path, capsys, argv):
    argv = argv(tmp_path)
    code = main(argv + ["--out", str(tmp_path / "out")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_null_precision_means_the_policy(tmp_path, capsys):
    # null, like an absent key, leaves the bits to the policy
    assert main(_config_with(tmp_path, "prolate", precision_bits=None)
                + ["--out", str(tmp_path / "out")]) == 0
    assert json.loads(capsys.readouterr().out)["precision_bits"] == 192
    assert main(_manifest_with(tmp_path, precision_override=None)
                + ["--out", str(tmp_path / "out")]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] == 1


@pytest.mark.parametrize("argv, code", [
    (lambda t: ["sweep", "--manifest", str(make_manifest(t))], 0),
    (lambda t: ["sweep", "--manifest", str(make_manifest(
        t, ell=[6], N=[100], delta=["1e-10"])), "--precision-bits", "192"], 1),
    (lambda t: _config_with(t, "prolate"), 0),
    (lambda t: ["inequalities", "--checks", "turan", "--instances", "2"], 0),
], ids=["sweep", "sweep-failed-row", "prolate", "inequalities"])
def test_closed_stdout_keeps_the_exit_code(tmp_path, argv, code):
    # the reader is gone before the first write, as with `| head -0`
    with subprocess.Popen(
            [sys.executable, "-m", "vandelab.cli", *argv(tmp_path),
             "--out", str(tmp_path / "out")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=300) == code, err
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert any((tmp_path / "out").iterdir())


def test_envelope_corner_config_reads_back(tmp_path, capsys):
    # the corner (12, 40, 1e-222, 100) runs at 16,341 bits, and its
    # config's decimals of 4919 digits must read back for bounds
    assert main(["gen-config", "--delta", "1e-222", "--s", "40", "--ell", "12",
                 "--N", "100", "--out", str(tmp_path)]) == 0
    config = json.loads((tmp_path / "config.json").read_text())
    assert config["precision_bits"] == 16341
    assert max(len(x) for x in config["nodes"]["nodes"]) > 4300
    assert main(["bounds", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
