"""The names that the benchmark's per-layer trace wraps exist in the package.

`perfbench/tracing.py` patches every (module, attribute path) of its
`TARGETS` table when a traced run starts, so a renamed or deleted name
would otherwise show only then.  The table is loaded here by file path,
without installing the tracer, and each entry is resolved the way the
tracer resolves it.  This checks that each name exists, not that the
pipeline calls it: a stage the code reaches under another name would
resolve here and never be timed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from contact_index import forms

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, path) for module_name, path, *_ in module.TARGETS]


@pytest.mark.parametrize("module_name,path", _targets(),
                         ids=lambda value: value)
def test_traced_name_resolves(module_name, path):
    owner = importlib.import_module(f"contact_index.{module_name}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(owner.__dict__[attr])


@pytest.mark.parametrize("name", ["todd", "dc_inverse", "j_form"])
def test_observed_forms_take_jet_order(name):
    # the trace's jet-order observer reads this argument by name
    assert "jet_order" in inspect.signature(getattr(forms, name)).parameters
