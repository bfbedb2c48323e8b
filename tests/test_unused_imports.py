"""Every name a package module imports is used in that module, and every
module-level private name of the package is referenced somewhere in it.

No linter ships with the test dependencies, so this reads each module's
syntax tree with the standard library.  For imports, `__init__.py` is
skipped (its imports are re-exports) and so are `from __future__` imports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "matchprice"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_checker_sees_unused_and_used_names():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b as c, d\nsys.exit(d)\n"
    assert unused_imports(source) == ["line 3: c", "line 2: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level names starting with one underscore (dunders excluded)
    that no source reads as a Name, an Attribute or an import alias.  A
    function or class that only names itself counts as unreferenced."""
    defined, referenced = [], set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [top.name]
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                nodes = top.targets if isinstance(top, ast.Assign) else [top.target]
                targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                targets = []
            defined += [(module, name) for name in targets
                        if name.startswith("_") and not name.startswith("__")]
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != getattr(top, "name", None):
                    referenced.add(name)
    return [f"{module}: {name}" for module, name in defined if name not in referenced]


def test_private_checker_sees_unreferenced_names():
    sources = {
        "a.py": "_A = 1\n_B, _C = 2, 3\n__D__ = 4\ndef _f():\n    return _A\n"
                "def _g(n):\n    return _g(n - 1)\nclass _K:\n    pass\n",
        "b.py": "from a import _f\nimport a\n_H: int = a._B\n",
    }
    assert unreferenced_private_names(sources) == ["a.py: _C", "a.py: _g", "a.py: _K", "b.py: _H"]


def test_package_references_every_private_name():
    sources = {str(p.relative_to(PACKAGE)): p.read_text() for p in SOURCES}
    assert unreferenced_private_names(sources) == []
