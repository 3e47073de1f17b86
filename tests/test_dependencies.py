"""The package imports nothing at run time beyond the standard library,
numpy and itself (scipy, networkx and sympy may be installed, but a
user of shancap must not need them)."""

import ast
import sys
from pathlib import Path

import pytest

import shancap

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "shancap"}
SOURCES = sorted(Path(shancap.__file__).parent.glob("*.py"))


def _top_level_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"solvers.py", "report.py", "cli.py"}


def _package_imports(path):
    """The shancap modules ``path`` imports, relative or absolute."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "shancap":
                    yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and (
                node.level > 0 or node.module.split(".")[0] == "shancap"):
            yield node.lineno, "." * node.level + (node.module or "")


def test_graphs_imports_no_other_shancap_module():
    # the witness check independent_in_power lives in graphs.py, so it
    # can share no code with a solver
    path = Path(shancap.__file__).parent / "graphs.py"
    assert list(_package_imports(path)) == []


@pytest.mark.parametrize("name", ["umbrella.py", "haemers.py"])
def test_certificate_checks_import_no_other_shancap_module(name):
    # the umbrella, theta and fitting-matrix checks share no code with a
    # solver (solvers, theta, fractional, kings)
    path = Path(shancap.__file__).parent / name
    assert list(_package_imports(path)) == []


def test_the_package_import_scan_sees_relative_imports():
    path = Path(shancap.__file__).parent / "report.py"
    assert any(name == ".graphs" for _, name in _package_imports(path))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_itself(path):
    stray = [(line, name) for line, name in _top_level_imports(path)
             if name not in ALLOWED]
    assert not stray, f"{path.name} imports {stray}"
