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


def _format_float_users(tree: ast.Module) -> set[str]:
    """Where tree mentions format_float: 'import' for an import of it, else
    the top-level function or class that reads it, or '<module>'."""
    users = set()
    for top in tree.body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                users |= {"import" for alias in node.names if alias.name == "format_float"}
            elif (isinstance(node, ast.Name) and node.id == "format_float"
                  or isinstance(node, ast.Attribute) and node.attr == "format_float"):
                users.add(where)
    return users


def test_report_values_are_formatted_in_one_place():
    # pointgen writes the point-set file format; every report value goes
    # through cli._fmt, so no other module knows how a float is written
    users = {p.name: _format_float_users(ast.parse(p.read_text(), filename=str(p)))
             for p in SOURCES if p.name != "pointgen.py"}
    assert {name: u for name, u in users.items() if u} == {"cli.py": {"import", "_fmt"}}


def test_the_scan_finds_format_float_users():
    tree = ast.parse("from .pointgen import format_float\nimport pointgen\n"
                     "def f(x):\n    return pointgen.format_float(x)\n"
                     "class C:\n    g = format_float\ny = format_float(1.0)\n")
    assert _format_float_users(tree) == {"import", "f", "C", "<module>"}


def _custom_mentions(tree: ast.Module) -> set[str]:
    """Where tree holds the string "custom": the top-level function or class
    it is in, or '<module>', with ' ==' where a comparison reads it."""
    found = set()
    for top in tree.body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        compared = {id(operand) for node in ast.walk(top) if isinstance(node, ast.Compare)
                    for operand in (node.left, *node.comparators)}
        found |= {where + " ==" * (id(node) in compared) for node in ast.walk(top)
                  if isinstance(node, ast.Constant) and node.value == "custom"}
    return found


def test_custom_is_compared_only_in_family_row():
    # a custom map is one more Family row: family_row alone compares a family
    # name with "custom" and builds the row, which carries it as its name;
    # count_phi names it as the family of the query it counts
    found = {p.name: _custom_mentions(ast.parse(p.read_text(), filename=str(p))) for p in SOURCES}
    assert {name: f for name, f in found.items() if f} == {
        "configcount.py": {"family_row ==", "_phi_row", "count_phi"}}


def test_the_scan_finds_custom_mentions():
    tree = ast.parse('x = "custom"\ndef f(a):\n    return a == "custom" or a in ("custom",)\n'
                     'class C:\n    y = "custom" != x\n')
    assert _custom_mentions(tree) == {"<module>", "f ==", "f", "C =="}


def _callers(tree: ast.Module, names: set[str]) -> dict[str, set[str]]:
    """For each of names, the top-level functions or classes of tree, or
    '<module>', that call it by its bare name."""
    found = {name: set() for name in names}
    for top in tree.body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names:
                found[node.func.id].add(where)
    return found


def test_one_set_kernel_splits_and_rechecks():
    # volume, area2 and angle supply views, bands, orders and a map; one
    # driver holds the apex and block loop, the band split and the recheck
    path = next(p for p in SOURCES if p.name == "configcount.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _callers(tree, {"_band_split", "_recheck"}) == {"_band_split": {"_set_kernel"},
                                                            "_recheck": {"_set_kernel"}}


def test_the_scan_finds_callers():
    tree = ast.parse("def f(x):\n    def g():\n        return h(x)\n    return g\n"
                     "class C:\n    y = h(1) + k(2)\nz = h(0)\nm.h(3)\n")
    assert _callers(tree, {"h", "k", "q"}) == {"h": {"f", "C", "<module>"}, "k": {"C"}, "q": set()}
