"""Every top-level import of a package module is read by that module."""

import ast
import pathlib

import pytest

import rstsim

MODULES = sorted(pathlib.Path(rstsim.__file__).parent.glob("*.py"))


def _unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in bound.items()
            if name not in read]


def test_the_scan_sees_an_unread_import():
    assert _unread_imports("import os\nfrom dataclasses import field\n"
                           "os.getcwd()\n") == ["line 2: field"]


# __init__ imports the public names for __all__, which reads them through
# globals(), not by name
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert _unread_imports(path.read_text()) == []
