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


def _environment_reads(tree: ast.Module) -> list[str]:
    """Where tree reads the process environment: each os.environ, os.getenv
    or os.environb attribute, or an import of one of them, as 'name (line n)'."""
    names = {"environ", "environb", "getenv", "getenvb"}
    found = [(node.lineno, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in names]
    found += [(node.lineno, alias.name) for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "os"
              for alias in node.names if alias.name in names]
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_no_source_module_reads_the_environment():
    # a run's inputs are its command line and its config file: the seed is
    # --seed, else the seed key, else 0, and no setting comes from the shell
    found = {p.name: _environment_reads(ast.parse(p.read_text(), filename=str(p))) for p in SOURCES}
    assert {name: f for name, f in found.items() if f} == {}


def test_the_scan_finds_environment_reads():
    tree = ast.parse("import os\nfrom os import getenv as g, sep\nx = os.environ['A']\n"
                     "def f():\n    return os.getenv('B'), os.environ.get('C'), os.path.sep\n")
    assert _environment_reads(tree) == ["getenv (line 2)", "environ (line 3)", "environ (line 5)",
                                        "getenv (line 5)"]


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


def _called_name(func: ast.expr) -> str | None:
    """The name a call reads its callee by: 'f' for f(...), 'm.f' for m.f(...)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return None


def _callers(tree: ast.Module, names: set[str]) -> dict[str, set[str]]:
    """For each of names, the top-level functions or classes of tree, or
    '<module>', that call it by that name, bare or as 'module.name'."""
    found = {name: set() for name in names}
    for top in tree.body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and _called_name(node.func) in names:
                found[_called_name(node.func)].add(where)
    return found


def test_one_set_kernel_splits_and_rechecks():
    # volume, area2 and angle supply views, bands, a map and the columns their orderings fix; one
    # driver holds the apex and block loop, the band split and the recheck
    path = next(p for p in SOURCES if p.name == "configcount.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _callers(tree, {"_band_split", "_recheck"}) == {"_band_split": {"_set_kernel"},
                                                            "_recheck": {"_set_kernel"}}


def test_one_volume_rule_and_one_budget_check():
    # the volume map and the kernel's normals take every determinant from _minors, at
    # every d, with no LU; every exhaustive count takes its orderings from one table,
    # accepts by one closed rule and checks one enumeration budget; the class count
    # takes its relabelings from that table and checks that budget too
    path = next(p for p in SOURCES if p.name == "configcount.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _callers(tree, {"_minors", "_orders", "_accepted", "_enumeration_budget"}) == {
        "_minors": {"_volume_views", "_volume_values"},
        "_orders": {"_oracle", "_set_kernel", "distinct_classes"},
        "_accepted": {"_oracle", "_recheck"},
        "_enumeration_budget": {"_oracle", "_set_kernel", "_simplex_brute", "distinct_classes"}}
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "det"] == []


def test_one_subset_stream_and_one_permutation_table():
    # the oracle and the class count take their subsets from one chunked stream and
    # their orderings from _orders alone; the n x n distance matrix is the simplex
    # oracle's only, and stacks the rows its k = 1 count reads one at a time; the
    # other combinations are of columns, in _minors and the volume views' row table
    path = next(p for p in SOURCES if p.name == "configcount.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _callers(tree, {"_subsets", "_pair_distance_matrix", "_pair_distance_rows",
                           "itertools.permutations", "itertools.combinations"}) == {
        "_subsets": {"_oracle", "distinct_classes"}, "_pair_distance_matrix": {"_simplex_brute"},
        "_pair_distance_rows": {"_pair_distance_matrix", "_simplex_brute"},
        "itertools.permutations": {"_orders"},
        "itertools.combinations": {"_subsets", "_minors", "_volume_views"}}


def test_one_blocked_distance_kernel():
    # the simplex band rows and the energy take every blocked distance from one generator
    callers = {f"{p.stem}.{where}" for p in SOURCES
               for where in _callers(ast.parse(p.read_text(), filename=str(p)),
                                     {"_distance_blocks"})["_distance_blocks"]}
    assert callers == {"configcount._band_rows", "energy.discrete_energy"}


def test_only_the_distance_blocks_set_the_ufunc_buffer():
    # the small ufunc buffer is scoped to each distance block, and nothing else
    # changes the buffer or the error state
    names = {"np.setbufsize", "np.errstate"}
    found = {name: set() for name in names}
    for p in SOURCES:
        for name, where in _callers(ast.parse(p.read_text(), filename=str(p)), names).items():
            found[name] |= {f"{p.stem}.{w}" for w in where}
    assert found == {name: {"configcount._distance_blocks"} for name in names}


def test_one_radial_rule_for_every_closed_form():
    # ft_sphere alone takes the norms of a stack of frequencies and calls the
    # radial transform; the triangle's closed form goes through it
    path = next(p for p in SOURCES if p.name == "fourierlab.py")
    found = _callers(ast.parse(path.read_text(), filename=str(path)),
                     {"ft_sphere_radial", "np.vecdot", "ft_sphere"})
    assert found["ft_sphere_radial"] == found["np.vecdot"] == {"ft_sphere"}
    assert "ft_triangle" in found["ft_sphere"]


def test_the_scan_finds_callers():
    tree = ast.parse("def f(x):\n    def g():\n        return h(x)\n    return g\n"
                     "class C:\n    y = h(1) + k(2)\nz = h(0)\nm.h(3)\ndef e():\n    return a.m.h(4)\n")
    assert _callers(tree, {"h", "k", "q", "m.h"}) == {"h": {"f", "C", "<module>"}, "k": {"C"}, "q": set(),
                                                      "m.h": {"<module>"}}


def _curvature_maps(tree: ast.Module) -> set[str]:
    """What each call of level_set_curvatures in tree takes its map from: the
    owner of every `.config_map` its first argument reads, unparsed, or
    '<no config_map>' for a call whose map reads none."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called_name(node.func) == "level_set_curvatures":
            found |= {ast.unparse(sub.value) for sub in ast.walk(node.args[0])
                      if isinstance(sub, ast.Attribute) and sub.attr == "config_map"} or {"<no config_map>"}
    return found


def test_curvature_certifies_only_the_family_maps():
    # the curvature command certifies the maps the workbench counts: every
    # level set is a FAMILIES row's config_map, and no hand-typed form is left
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    callers = {f"{module}.{where}" for module, tree in trees.items()
               for where in _callers(tree, {"level_set_curvatures"})["level_set_curvatures"]}
    assert callers == {"cli._family_items"}
    assert set().union(*map(_curvature_maps, trees.values())) == {"family_row(name)"}
    assert not any(isinstance(node, (ast.Name, ast.Attribute, ast.FunctionDef, ast.alias))
                   and "rotated_block_form" in (getattr(node, "id", None), getattr(node, "attr", None),
                                                getattr(node, "name", None))
                   for tree in trees.values() for node in ast.walk(tree))


def test_the_scan_finds_curvature_maps():
    tree = ast.parse("def f(d):\n    F, x0 = form(d)\n    return level_set_curvatures(F, 1.0, x0)\n"
                     "def g(name):\n    return level_set_curvatures(lambda x: row(name).config_map(x), 1.0, x0)\n")
    assert _curvature_maps(tree) == {"<no config_map>", "row(name)"}


def _unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """The module-level private names of each tree (one leading underscore)
    that no statement of any tree reads, as a bare name or an attribute,
    besides the top-level statement that binds them; as 'module.name'."""
    reads = {}  # (module, index of its top-level statement) -> the names it reads
    bound = []  # (module, index of the binding statement, name)
    for module, tree in trees.items():
        for index, top in enumerate(tree.body):
            reads[module, index] = {node.id if isinstance(node, ast.Name) else node.attr
                                    for node in ast.walk(top)
                                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                                    or isinstance(node, ast.Attribute)}
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names = [top.name]
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                names = [node.id for target in targets for node in ast.walk(target)
                         if isinstance(node, ast.Name)]
            else:
                names = []
            bound += [(module, index, name) for name in names
                      if name.startswith("_") and not name.startswith("__")]
    return [f"{module}.{name}" for module, index, name in bound
            if not any(name in names for where, names in reads.items() if where != (module, index))]


def test_every_private_name_is_read_in_the_package():
    # a private helper that only the tests call is dead code kept alive by them
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    assert _unread_private_names(trees) == []


def test_the_scan_finds_unread_private_names():
    a = ast.parse("_A = 1\n_B = 2\n_C, d = 3, 4\n__all__ = []\ndef _f():\n    return _f() + _A\n"
                  "class _K:\n    pass\n")
    b = ast.parse("from a import _K\nimport a\nx = a._B\n")  # an import alone reads nothing
    assert _unread_private_names({"a": a, "b": b}) == ["a._C", "a._f", "a._K"]
