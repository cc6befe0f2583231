"""Every callable the benchmark tracer wraps still exists where it looks.

`bench/tracer.py` wraps functions found in their owner's own namespace and
refuses to run otherwise; this checks the same lookup without installing
anything, so a refactor that deletes, renames or inherits one of them fails
here and not only in the long traced benchmark run.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("lieweyl_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped_callables():
    targets = [
        (mod, cls, attr)
        for _layer, _kind, mod, cls, attrs, _counts in _load_tracer().LAYERS
        for attr in attrs
    ]
    for mod, cls, attr in [*targets, ("star", None, "make_context")]:
        yield pytest.param(mod, cls, attr, id=".".join(filter(None, (mod, cls, attr))))


@pytest.mark.parametrize("mod,cls,attr", _wrapped_callables())
def test_traced_callable_is_own_function(mod, cls, attr):
    module = importlib.import_module(f"lieweyl.{mod}")
    owner = getattr(module, cls) if cls else module
    assert isinstance(vars(owner).get(attr), types.FunctionType)
