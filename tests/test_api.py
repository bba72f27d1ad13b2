"""Every name the package exports has a caller inside the package.

A public name that only tests use is a proof device or dead code: it should
either serve the package or go.  The check scans the package's modules other
than ``__init__.py`` and counts a name as used when it appears as a ``Name``
or an ``Attribute`` outside its own top-level definition.
"""

import ast
from pathlib import Path

import twoscale

PACKAGE = Path(twoscale.__file__).parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def exported_names() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def used_names() -> set:
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = stmt.name if isinstance(stmt, DEFINITIONS) else None
            names = (
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if isinstance(node, (ast.Name, ast.Attribute))
            )
            used.update(name for name in names if name != own)
    return used


def test_every_exported_name_is_used_inside_the_package():
    assert sorted(exported_names() - used_names()) == []
