"""Every finsite name the benchmark's span recorder looks up resolves.

`perfbench/spans.py` wraps finsite functions by (module, name) when a traced
run starts, so renaming or deleting one breaks every traced run.  The table
is read here from the file itself; nothing is installed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_finsite_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


spans = _load_spans()
NAMES = [entry[:2] for entry in spans.WRAPPED + spans.COUNTED] + [
    ("topology", "count_candidate_assignments"),
]


@pytest.mark.parametrize("module, name", NAMES, ids=[".".join(n) for n in NAMES])
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module("finsite." + module), name))


def test_traced_lattice_constructor_resolves():
    from finsite.topology import TopologyLattice

    assert "__init__" in vars(TopologyLattice)
