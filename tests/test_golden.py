"""Byte guards: outputs a refactor must leave unchanged.

Each case runs one command through the CLI and compares its output file,
with the wall-clock ``runtime_ms`` masked, to the copy in golden/:

- ``results.csv`` of a sweep over the README manifest
- ``prolate.json`` of the 4-node equispaced line cluster at delta 1e-3
- ``inequalities.json`` of the five suites at 20 instances
- ``limit_check.json`` of the 2-node line pair at delta 0.5, N 10, 50, 250
- ``spectrum.json`` of a two-cluster periodic config at delta 1e-3, N 100
- ``results.csv`` of the heavy sweep points, s up to 40 at up to 1932
  bits, one single-point sweep each (a grid is a Cartesian product),
  joined under one header
- ``results.csv`` and ``details.json`` of a random-layout sweep, two
  seeds in each of six cells, the path most desk rows take

Each config command's document, fed back as its --config, gives the same
document again.

An output that is meant to change is re-recorded with
``PYTHONPATH=src python tests/test_golden.py``, and the change log says
which bytes moved and why.

CI also guards ``inequalities.json`` of the five suites at 500 instances,
seeds 20240601, 7 and 11, by its SHA-256 in golden/inequalities_500.sha256,
on every Python version of its matrix, since the suites decide much in
binary64; the three runs take seconds, too long for tier-1.  To re-record the
digests, install the package, run this in a scratch directory and
replace the file's three lines with the three its last command prints::

    for seed in 20240601 7 11; do
        vandelab inequalities --instances 500 --seed $seed --out ineq500-$seed
    done
    sha256sum ineq500-*/inequalities.json
"""

import csv
import io
import json
import re
import sys
from pathlib import Path

import pytest

from conftest import HEAVY_POINTS
from vandelab.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

LINE_CONFIG = {
    "nodes": {"domain": "line",
              "nodes": ["-0.0015", "-0.0005", "0.0005", "0.0015"]},
    "cluster": {"delta": "1e-3", "theta": "1", "s": 4, "ell": 4, "tau": "3"},
}

PAIR_CONFIG = {
    "nodes": {"domain": "line", "nodes": ["-0.25", "0.25"]},
    "cluster": {"delta": "0.5", "theta": "1", "s": 2, "ell": 2, "tau": "1"},
}

PERIODIC_CONFIG = {
    "nodes": {"domain": "periodic", "nodes": ["-0.001", "0", "0.001", "2"]},
    "cluster": {"delta": "1e-3", "theta": "1", "s": 4, "ell": 3, "tau": "2"},
    "N": 100,
}


def heavy_manifest(ell, s, delta, N):
    """The one-point sweep manifest of a heavy point, equispaced with tau
    auto."""
    return {"experiment_id": "heavy", "kind": "sweep",
            "grid": {"ell": [ell], "s": [s], "delta": [delta], "N": [N],
                     "tau": ["auto"], "layout": ["equispaced"],
                     "seed": [20240601]},
            "precision_override": None}


#: a random layout at three cluster sizes and two deltas, two seeds a cell
RANDOM_MANIFEST = {"experiment_id": "random", "kind": "sweep",
                   "grid": {"ell": [2, 4, 6], "N": [100],
                            "delta": ["1e-6", "1e-10"], "tau": ["8"],
                            "layout": ["random"], "seed": [1, 2]}}


def _readme_manifest():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", text, re.S)
    return next(m for m in map(json.loads, blocks) if m.get("kind") == "sweep")


def _masked_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index("runtime_ms")
    for row in rows[1:]:
        row[col] = ""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _masked_json(text):
    def mask(obj):
        if isinstance(obj, dict):
            return {k: None if k == "runtime_ms" else mask(v)
                    for k, v in obj.items()}
        if isinstance(obj, list):
            return [mask(v) for v in obj]
        return obj
    return json.dumps(mask(json.loads(text)), indent=2) + "\n"


def _sweep(tmp):
    (tmp / "manifest.json").write_text(json.dumps(_readme_manifest()))
    argv = ["sweep", "--manifest", str(tmp / "manifest.json"), "--workers", "1"]
    return [argv], "results.csv"


def _heavy_sweep(tmp):
    argvs = []
    for i, point in enumerate(HEAVY_POINTS):
        path = tmp / f"heavy-{i}.json"
        path.write_text(json.dumps(heavy_manifest(*point)))
        argvs.append(["sweep", "--manifest", str(path), "--workers", "1"])
    return argvs, "results.csv"


def _random_sweep(name):
    """The case of the random-layout sweep's output file name."""
    def case(tmp):
        (tmp / "random.json").write_text(json.dumps(RANDOM_MANIFEST))
        return ([["sweep", "--manifest", str(tmp / "random.json"),
                  "--workers", "1"]], name)
    return case


def _prolate(tmp):
    (tmp / "line_config.json").write_text(json.dumps(LINE_CONFIG))
    return [["prolate", "--config", str(tmp / "line_config.json")]], "prolate.json"


def _inequalities(tmp):
    return ([["inequalities", "--checks",
              "turan,nikolskii,cor-turan,salem,riemann", "--instances", "20"]],
            "inequalities.json")


def _limit_check(tmp):
    (tmp / "pair_config.json").write_text(json.dumps(PAIR_CONFIG))
    return ([["limit-check", "--config", str(tmp / "pair_config.json"),
              "--N-list", "10,50,250"]], "limit_check.json")


def _spectrum(tmp):
    (tmp / "periodic_config.json").write_text(json.dumps(PERIODIC_CONFIG))
    return ([["spectrum", "--config", str(tmp / "periodic_config.json")]],
            "spectrum.json")


CASES = {"readme_results.csv": _sweep, "heavy_results.csv": _heavy_sweep,
         "random_results.csv": _random_sweep("results.csv"),
         "random_details.json": _random_sweep("details.json"),
         "prolate_s4_1e-3.json": _prolate,
         "inequalities_20.json": _inequalities,
         "limit_check_s2_0.5.json": _limit_check,
         "spectrum_s4_1e-3.json": _spectrum}


def _run(golden, tmp):
    """The masked output of the case's commands; the CSV bodies of several
    sweeps are joined under the first one's header."""
    argvs, name = CASES[golden](tmp)
    texts = []
    for i, argv in enumerate(argvs):
        out = tmp / "out" / str(i)
        assert main(argv + ["--out", str(out)]) == 0
        texts.append((out / name).read_text(encoding="utf-8"))
    if name.endswith(".csv"):
        return _masked_csv(texts[0] + "".join(t.split("\n", 1)[1]
                                              for t in texts[1:]))
    (text,) = texts
    return _masked_json(text)


@pytest.mark.parametrize("golden", sorted(CASES))
def test_output_matches_golden(golden, tmp_path, capsys):
    got = _run(golden, tmp_path)
    capsys.readouterr()
    assert got == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("golden", ["spectrum_s4_1e-3.json",
                                    "prolate_s4_1e-3.json"])
def test_last_level_threshold_is_the_lower_shape(golden, tmp_path, capsys):
    # at c1 = 1 the level-ell threshold is the bound shape itself
    doc = json.loads(_run(golden, tmp_path))
    capsys.readouterr()
    shape = doc.get("bounds", doc)["lower_shape"]
    assert doc["level_thresholds"][-1] == shape


#: config command -> (its config, its extra flags, its document's name)
REPLAYS = {
    "spectrum": (PERIODIC_CONFIG, [], "spectrum.json"),
    "bounds": (PERIODIC_CONFIG, [], "bounds.json"),
    "prolate": (LINE_CONFIG, [], "prolate.json"),
    "limit-check": (PAIR_CONFIG, ["--N-list", "10,50,250"], "limit_check.json"),
}


@pytest.mark.parametrize("command", sorted(REPLAYS))
def test_document_replays_as_its_own_config(command, tmp_path, capsys):
    # every document starts with the config header, so fed back as
    # --config it gives the same document
    config, flags, name = REPLAYS[command]
    (tmp_path / "config.json").write_text(json.dumps(config))
    docs = []
    for run, source in (("first", tmp_path / "config.json"),
                        ("replay", tmp_path / "first" / name)):
        assert main([command, "--config", str(source), *flags,
                     "--out", str(tmp_path / run)]) == 0
        docs.append(_masked_json((tmp_path / run / name).read_text()))
    capsys.readouterr()
    first, replay = docs
    assert replay == first
    assert json.loads(first)["runtime_ms"] is None


if __name__ == "__main__":
    import tempfile

    names = sys.argv[1:] or sorted(CASES)
    GOLDEN.mkdir(exist_ok=True)
    for golden in names:
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / golden).write_text(_run(golden, Path(tmp)),
                                         encoding="utf-8")
