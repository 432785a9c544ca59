import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import fanshear

PACKAGE = Path(fanshear.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def package_imports(tree):
    """The package modules a module's relative imports name, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.split(".")[0]
            else:  # from . import a, b
                yield from (alias.name for alias in node.names)


def test_package_import_graph_is_acyclic():
    graph = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[path.stem] = set(package_imports(tree))
    assert graph["divisor"] >= {"fan"} and "divisor" in graph["cli"]
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None


def test_no_module_has_a_type_checking_block():
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        assert "TYPE_CHECKING" not in names, path.name


def test_no_module_generates_code_or_imports_json_or_re():
    # each of these costs import time: compiling generated source, and the
    # json and re modules (re is also loaded by typing, but compiles nothing)
    for path in [*MODULES, PACKAGE / "__init__.py"]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names
        } | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        called = {
            node.func.id for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert not imported & {"json", "re"}, path.name
        assert not called & {"exec", "eval", "compile"}, path.name
