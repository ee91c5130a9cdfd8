"""Every name the benchmark's tracer wraps still exists in the package.

``perfbench/tracing.py`` rebinds functions and ``ChartOracle`` methods by
name; a rename or deletion in the package would otherwise surface only as a
failed traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from linkmorse.oracle import ChartOracle

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("span", sorted(tracing.FUNCTIONS))
def test_traced_function_resolves(span):
    module, attr = tracing.FUNCTIONS[span]
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("attr", sorted(set(tracing.METHODS.values()) | {"multipliers"}))
def test_traced_method_exists(attr):
    assert callable(getattr(ChartOracle, attr, None))
