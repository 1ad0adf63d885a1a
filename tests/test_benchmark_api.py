"""The library names that the benchmark harness under benchmarks/ uses.

The harness is not part of the tier-1 run and changes only together with
the benchmark, so a library change that drops or renames one of these
names would break it without failing a test; these tests fail instead.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from midlayer.construct import ConstructionState, state_for_prefix

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
MODULES = {
    "midlayer": "midlayer",
    "analysis": "midlayer.analysis",
    "construct": "midlayer.construct",
    "lattice": "midlayer.lattice",
    "search": "midlayer.search",
}


def _harness_names() -> set[tuple[str, str, str]]:
    """(file, module, name) for every module attribute the harness reads
    and every name it imports from the package."""
    names = set()
    for path in sorted(BENCHMARKS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in MODULES
            ):
                names.add((path.name, MODULES[node.value.id], node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "midlayer":
                names.update((path.name, node.module, a.name) for a in node.names)
    return names


def test_every_library_name_the_harness_uses_exists():
    names = _harness_names()
    assert ("layers.py", "midlayer.construct", "state_for_prefix") in names
    assert ("workloads.py", "midlayer.search", "iter_exhaustive_parallel") in names
    missing = [
        (file, module, name)
        for file, module, name in names
        if not hasattr(importlib.import_module(module), name)
        and importlib.util.find_spec(f"{module}.{name}") is None
    ]
    assert sorted(missing) == []


def test_the_harness_keeps_its_state_interface():
    # benchmarks/layers.py calls state_for_prefix(prefix, k_cap=n) and
    # reads state.families, neither of which a module attribute scan sees
    assert "k_cap" in inspect.signature(state_for_prefix).parameters
    assert isinstance(inspect.getattr_static(ConstructionState, "families"), property)
