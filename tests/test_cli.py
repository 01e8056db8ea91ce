import json
import subprocess
import sys

import pytest
from mpmath import mp, mpf

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
        spec = ClusterSpec(delta="0.5", theta="1", s=2, ell=1, tau=1)
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


def test_env_override(tmp_path, capsys, monkeypatch):
    # a random layout depends on the seed: VANDELAB_SEED=99 must act
    # exactly as --seed 99 and unlike the default seed
    def random_config(name, *flags):
        argv = ["gen-config", "--delta", "1e-6", "--s", "4", "--ell", "2",
                "--tau", "3", "--theta", "1", "--N", "100", "--layout", "random",
                "--out", str(tmp_path / name), *flags]
        assert main(argv) == 0
        return (tmp_path / name / "config.json").read_text()

    default = random_config("default")
    flag = random_config("flag", "--seed", "99")
    monkeypatch.setenv("VANDELAB_SEED", "99")
    assert random_config("env") == flag != default


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


# leading NAME=value words set the environment, as in a shell
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
    lambda t: ["VANDELAB_WORKERS=two"] + _config_with(t, "prolate"),
    lambda t: ["VANDELAB_SEED=x"] + _config_with(t, "prolate"),
    lambda t: ["VANDELAB_PRECISION_BITS=many"] + _config_with(t, "prolate"),
    lambda t: _config_with(t, "prolate") + ["--precision-bits", "0"],
    lambda t: ["VANDELAB_PRECISION_BITS=0"] + _config_with(t, "prolate"),
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
], ids=["grid-list", "grid-scalar", "precision-override", "config-N",
        "config-precision-bits", "N-list", "config-not-object",
        "missing-config", "missing-manifest", "grid-ell", "grid-N",
        "cluster-s", "cluster-ell", "nodes-not-list", "limit-check-no-nodes",
        "env-workers", "env-seed", "env-precision-bits", "precision-bits-0",
        "env-precision-bits-0", "config-precision-bits-0",
        "precision-override-0", "sweep-precision-bits-10", "workers-0",
        "workers-negative", "checks-empty", "N-list-empty", "delta-inf",
        "theta-inf", "config-theta-inf"])
def test_malformed_input_exits_two(tmp_path, capsys, monkeypatch, argv):
    argv = argv(tmp_path)
    while "=" in argv[0]:
        name, value = argv.pop(0).split("=", 1)
        monkeypatch.setenv(name, value)
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
