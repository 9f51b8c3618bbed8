import ast
import sys
from pathlib import Path

import commprob

PACKAGE = Path(commprob.__file__).parent


def imported_roots(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one module."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 5
    for path in modules:
        outside = imported_roots(path) - set(sys.stdlib_module_names) - {"commprob"}
        assert not outside, f"{path.name} imports {sorted(outside)}"
