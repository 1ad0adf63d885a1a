import ast
import sys
from pathlib import Path

import midlayer

SOURCES = [
    (path, ast.parse(path.read_text(encoding="utf-8")))
    for path in sorted(Path(midlayer.__file__).parent.glob("*.py"))
]


def test_package_imports_only_the_standard_library():
    # the package declares no run-time dependencies, so an import of a
    # third-party module that happens to be installed must not slip in
    allowed = set(sys.stdlib_module_names) | {"midlayer"}
    assert SOURCES
    found = set()
    for path, tree in SOURCES:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update((path.name, a.name.split(".")[0]) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.split(".")[0]))
    assert sorted((f, m) for f, m in found if m not in allowed) == []


def test_every_imported_name_is_used():
    # __init__.py imports to re-export; elsewhere an import that nothing
    # reads is dead code
    unused = []
    for path, tree in SOURCES:
        if path.name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, line, name) for name, line in imported.items() if name not in used]
    assert sorted(unused) == []
