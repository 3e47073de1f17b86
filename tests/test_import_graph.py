"""The modules of ``shancap`` import each other at the top only, and
without a cycle: no relative import sits inside a function, and the graph
of relative imports is acyclic, so each module can be read and imported
after the ones it names."""

import ast
from pathlib import Path

import shancap

PACKAGE = Path(shancap.__file__).parent
MODULES = {p.stem: ast.parse(p.read_text(), str(p))
           for p in sorted(PACKAGE.glob("*.py"))}


def _relative_imports(tree):
    """(import node, names of the shancap modules it imports)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            yield node, ([node.module] if node.module else
                         [alias.name for alias in node.names])


def _imports_in_functions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner, _ in _relative_imports(node):
                yield node.name, inner.lineno


def test_the_scan_sees_every_module_and_its_imports():
    assert {"graphs", "kings", "report", "cli"} <= set(MODULES)
    imported = {name for _, names in _relative_imports(MODULES["cli"])
                for name in names}
    assert {"graphio", "graphs", "report", "kings"} <= imported


def test_no_relative_import_sits_inside_a_function():
    found = {name: list(_imports_in_functions(tree))
             for name, tree in MODULES.items()}
    assert {name: at for name, at in found.items() if at} == {}


def _cycle(edges):
    """A list of modules that closes an import cycle in ``edges`` (module
    -> modules it imports), or None."""
    done, path = set(), []

    def visit(name):  # depth first; a module met again on the path closes one
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return None
        path.append(name)
        found = next(filter(None, map(visit, edges.get(name, ()))), None)
        path.pop()
        done.add(name)
        return found

    return next(filter(None, map(visit, sorted(edges))), None)


def test_the_import_graph_has_no_cycle():
    edges = {name: sorted({m for _, names in _relative_imports(tree)
                           for m in names})
             for name, tree in MODULES.items()}
    assert edges["kings"] and edges["report"]
    assert _cycle(edges) is None


def test_the_checks_see_an_import_in_a_function_and_a_cycle():
    tree = ast.parse("def f():\n    from .report import x\n")
    assert list(_imports_in_functions(tree)) == [("f", 2)]
    assert _cycle({"a": ["b"], "b": ["c"], "c": ["b"]}) == ["b", "c", "b"]
