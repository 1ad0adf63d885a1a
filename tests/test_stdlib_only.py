import ast
import sys
from pathlib import Path

import midlayer


def test_package_imports_only_the_standard_library():
    # the package declares no run-time dependencies, so an import of a
    # third-party module that happens to be installed must not slip in
    allowed = set(sys.stdlib_module_names) | {"midlayer"}
    sources = sorted(Path(midlayer.__file__).parent.glob("*.py"))
    assert sources
    found = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update((path.name, a.name.split(".")[0]) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.split(".")[0]))
    assert sorted((f, m) for f, m in found if m not in allowed) == []
