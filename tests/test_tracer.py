"""The benchmark's layer tracer wraps functions by name; every name it
wraps must exist, or a traced run fails where an untraced one passes.

perfbench/layers.py is loaded from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from vandelab import suites

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(layers):
    for module_name, attr, layer in layers.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr, layer)


def test_suite_layers_name_known_suites(layers):
    assert set(layers.SUITE_LAYERS) <= set(suites.ALL_SUITES)
