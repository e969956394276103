"""Repository tooling that imports the package from outside it.

The benchmark's tracer (``perfbench/spans.py``) patches tangentgp
functions and methods by name. A rename in the package would make every
traced benchmark run fail; this test fails first instead. It only reads
the tracer's instrument table and patches nothing.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def instruments():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.INSTRUMENTS


def entry_id(entry):
    return ".".join(entry[1:4] if entry[0] == "method" else entry[1:3])


@pytest.mark.parametrize("entry", instruments(), ids=entry_id)
def test_every_traced_name_resolves(entry):
    kind, module_name = entry[0], entry[1]
    module = importlib.import_module(module_name)
    if kind == "method":
        cls = getattr(module, entry[2])
        assert callable(cls.__dict__[entry[3]])
    else:
        assert kind == "function"
        assert callable(getattr(module, entry[2]))
