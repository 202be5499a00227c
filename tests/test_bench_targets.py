"""The names that the benchmark's per-layer trace wraps exist and are reached.

`perfbench/tracing.py` patches every (module, attribute path) of its
`TARGETS` table when a traced run starts, so a renamed or deleted name
would otherwise show only then.  The table is loaded here by file path and
each entry is resolved the way the tracer resolves it.  The tracer is then
installed and one short run of every pipeline stage must record each span
at least once: a stage the code reaches under another name, such as a
function object held in a table, would resolve and never be timed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from contact_index import catalog, engine, forms, oracle
from contact_index.scalars import CyclotomicNumber

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PRESETS = [("circle", ()), ("hopf", (1,)), ("weighted-s3", (2, 3)), ("prequantum-cpn", (1,))]


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return [(module_name, path) for module_name, path, *_ in _tracing().TARGETS]


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


def test_every_traced_span_is_reached(tmp_path):
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.recording():
            for name, params in PRESETS:
                before = tracer.stats["catalog.build"]["calls"]
                engine.build_preset(name, params)
                assert tracer.stats["catalog.build"]["calls"] == before + 1, name
            ws3 = engine.build_preset("weighted-s3", (2, 3))
            engine.character_document(engine.assemble_character(ws3, 6))
            engine.dh_fourier(engine.build_preset("hopf", (1,)))
            engine.corollary_expand(engine.build_preset("prequantum-cpn", (1,)), 2, 2)
            engine.calibrate_conventions()
            catalog.dump_model(ws3, tmp_path / "ws3.json")
            catalog.load_model(tmp_path / "ws3.json")
            oracle.oracle_character("weighted-s3", (2, 3), 5)
            # no stage divides cyclotomic numbers (the normal factors are in closed
            # form), so the scalar division is reached by one direct call
            CyclotomicNumber.root_of_unity(1, 3).inverse()
    finally:
        tracer.uninstall()
    spans = {name for _, _, name, *_ in tracing.TARGETS}
    assert {name for name in spans if tracer.stats[name]["calls"] < 1} == set()
