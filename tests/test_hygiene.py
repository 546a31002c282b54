"""Source hygiene checks that need no linter: an ast scan of the package."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "configeo").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import statement of tree and never read in it."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    # __init__.py imports names to re-export them
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("import math\nimport numpy as np\nfrom os import path, sep\nprint(np.pi, sep)\n")
    assert _unused_imports(tree) == ["math (line 1)", "path (line 3)"]
