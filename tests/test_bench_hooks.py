"""The names perfbench/tracer.py wraps by lookup must exist in the package.

The traced benchmark run looks each of them up with getattr, so a
renamed or deleted function breaks it with an AttributeError; this
test catches that in the ordinary suite.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _tracer_module()
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module(f"holobundle.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"holobundle.{layer}.{name}"
    minvariant = importlib.import_module("holobundle.minvariant")
    assert callable(minvariant.round_half_toward_zero)
    lattice = importlib.import_module("holobundle.lattice")
    for name in tracer.CACHED:
        getattr(lattice, name).cache_info()
