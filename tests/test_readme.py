"""Every line of the README's "Command line" block runs and exits 0.

The lines run as written, in a temporary directory, on the README's own
manifest and config examples; only --instances and --workers are cut to
keep the run short.  prolate and limit-check get the config example
with "domain": "line", which is what line_config.json stands for.
"""

import json
import re
import shlex
from pathlib import Path

from vandelab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(text, lang):
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def test_readme_command_lines(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    lines = _blocks(section, "text")[0].strip().splitlines()
    examples = [json.loads(b) for b in _blocks(section, "json")]
    manifest = next(e for e in examples if e.get("kind") == "sweep")
    config = next(e for e in examples if "nodes" in e)
    config["nodes"]["domain"] = "line"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "line_config.json").write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    assert len(lines) == 7
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "vandelab"
        argv = argv[1:]
        for flag, value in (("--instances", "10"), ("--workers", "2")):
            if flag in argv:
                argv[argv.index(flag) + 1] = value
        assert main(argv) == 0, line
        capsys.readouterr()
