"""Every function the benchmark tracer wraps still exists.

perfbench/spans.py names each traced function by module and attribute path;
a rename or deletion there would otherwise show only in a traced benchmark
run. The tracer module is read with runpy, so nothing is written under
perfbench/.
"""

import importlib
import runpy
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
TARGETS = runpy.run_path(str(SPANS))["TARGETS"]


@pytest.mark.parametrize("name, module, path", [t[:3] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_traced_target_resolves_to_a_callable(name, module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name
