"""Every name a package module imports is used in that module, and every
module-level private name of the package is referenced somewhere in it.
Only caps.py constructs CapExceeded, every caps.require call names a
declared cap as a string literal, no assert statement remains, only
errors.Record, Graph and BipartiteGraph define __eq__ or __hash__, no
except clause names KeyError, the public functions of ratlp are exactly
maximize and maximize_subsets, verify builds random.Random in one
place, its driver, and `__init__.py` holds only relative `from .x import`
statements, the `__version__` assignment and an `__all__` computed from
the names they bind.

No linter ships with the test dependencies, so this reads each module's
syntax tree with the standard library.  For imports, `__init__.py` is
skipped (its imports are re-exports) and so are `from __future__` imports.
"""

import ast
from pathlib import Path
from types import ModuleType

import pytest

import matchprice
from matchprice import caps, verify

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


def cap_exceeded_calls(source: str) -> list[str]:
    """Lines that construct CapExceeded, by name or as an attribute."""
    return [
        f"line {node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CapExceeded"
    ]


def test_cap_exceeded_checker_sees_both_spellings():
    source = "raise CapExceeded('x', bound='A')\nraise errors.CapExceeded('y')\nCapExceeded\n"
    assert cap_exceeded_calls(source) == ["line 1", "line 2"]


def test_only_caps_constructs_cap_exceeded():
    found = {p.name: cap_exceeded_calls(p.read_text()) for p in SOURCES}
    assert {name for name, lines in found.items() if lines} == {"caps.py"}


def bad_require_calls(source: str, cap_names) -> list[str]:
    """caps.require calls whose first argument is not a literal cap name."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "require"
            and getattr(node.func.value, "id", None) == "caps"
        ):
            first = node.args[0] if node.args else None
            if not (isinstance(first, ast.Constant) and first.value in cap_names):
                bad.append(f"line {node.lineno}")
    return bad


def test_require_checker_sees_unknown_and_computed_names():
    source = (
        "caps.require('MAX_A', n, 'm')\ncaps.require('MAX_B', n, 'm')\n"
        "caps.require(name, n, 'm')\nother.require(name)\n"
    )
    assert bad_require_calls(source, {"MAX_A"}) == ["line 2", "line 3"]


def test_every_require_names_a_declared_cap():
    for path in SOURCES:
        assert bad_require_calls(path.read_text(), caps._DEFAULTS) == [], path.name


def assert_statements(source: str) -> list[str]:
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_assert_checker_sees_nested_asserts():
    source = "def f(x):\n    if x:\n        assert x > 0\n    return x\nassert f(1)\n"
    assert assert_statements(source) == ["line 5", "line 3"]


def test_package_has_no_assert_statements():
    """Post-conditions raise InvariantViolation, which python -O keeps."""
    found = {p.name: assert_statements(p.read_text()) for p in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def equality_classes(source: str) -> list[str]:
    """Classes whose body defines or assigns __eq__ or __hash__."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            names = set()
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
                elif isinstance(item, ast.Assign):
                    names.update(t.id for t in item.targets if isinstance(t, ast.Name))
            if names & {"__eq__", "__hash__"}:
                found.append(node.name)
    return found


def test_equality_checker_sees_methods_and_assignments():
    source = (
        "class A:\n    def __eq__(self, o):\n        return True\n"
        "class B:\n    __hash__ = None\n"
        "class C:\n    def __repr__(self):\n        return 'C'\n"
    )
    assert equality_classes(source) == ["A", "B"]


def test_only_the_value_bases_define_equality():
    """errors.Record decides equality and hashing for every value class;
    Graph and BipartiteGraph compare masks their constructors do not take."""
    found = {(p.name, name) for p in SOURCES for name in equality_classes(p.read_text())}
    assert found == {("errors.py", "Record"), ("graphs.py", "Graph"),
                     ("graphs.py", "BipartiteGraph")}


def key_error_handlers(source: str) -> list[str]:
    """except clauses that name KeyError, alone, in a tuple or as an attribute."""
    return [
        f"line {node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and any(getattr(n, "id", getattr(n, "attr", None)) == "KeyError"
                for n in ast.walk(node.type))
    ]


def test_key_error_checker_sees_every_spelling():
    source = (
        "try:\n    f()\nexcept KeyError:\n    pass\n"
        "try:\n    f()\nexcept (TypeError, KeyError) as e:\n    pass\n"
        "try:\n    f()\nexcept builtins.KeyError:\n    pass\n"
        "try:\n    f()\nexcept (TypeError, ValueError):\n    pass\nexcept:\n    pass\n"
    )
    assert key_error_handlers(source) == ["line 3", "line 7", "line 11"]


def test_no_module_catches_key_error():
    """Loaders read keys through errors.fields, which tests membership and
    names a missing key; catching KeyError would bypass it."""
    found = {p.name: key_error_handlers(p.read_text()) for p in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def public_functions(source: str) -> list[str]:
    """Module-level functions whose names do not start with an underscore."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")]


def test_public_function_checker_skips_private_and_nested_names():
    source = "def a():\n    def b():\n        pass\ndef _c():\n    pass\nclass D:\n    def e(self):\n        pass\n"
    assert public_functions(source) == ["a"]


def test_ratlp_is_one_engine():
    """maximize_subsets is the engine; maximize checks and scales one program
    for it.  No other entry point, such as a one-program int kernel."""
    assert public_functions((PACKAGE / "ratlp.py").read_text()) == ["maximize", "maximize_subsets"]


def random_constructions(source: str) -> list[str]:
    """Lines that call random.Random or a bare Random."""
    return [
        f"line {node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Random"
    ]


def test_random_checker_sees_both_spellings():
    source = "rng = random.Random(seed)\nr = Random(1)\nrandom.random()\nRandom\n"
    assert random_constructions(source) == ["line 1", "line 2"]


def test_verify_has_one_driver():
    """Every check runs through the one seeded driver: a second loop over a
    generator of its own would need a second random.Random."""
    assert len(random_constructions((PACKAGE / "verify.py").read_text())) == 1
    assert verify.CLAIMS.keys() == verify.CHECKS.keys()


def init_statements_out_of_shape(source: str) -> list[str]:
    """Top-level statements other than the docstring, relative `from .x
    import` statements, `__version__` set to a string and `__all__` set to
    anything but a hand-written list or tuple."""
    bad = []
    for index, node in enumerate(ast.parse(source).body):
        target = getattr(node, "targets", [None])[0]
        name = getattr(target, "id", None) if isinstance(node, ast.Assign) else None
        value = getattr(node, "value", None)
        if not (
            (index == 0 and isinstance(node, ast.Expr) and isinstance(value, ast.Constant))
            or (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module)
            or (name == "__version__" and isinstance(value, ast.Constant)
                and isinstance(value.value, str))
            or (name == "__all__" and not isinstance(value, (ast.List, ast.Tuple)))
        ):
            bad.append(f"line {node.lineno}")
    return bad


def test_init_checker_sees_every_other_statement():
    source = (
        '"""doc"""\n__version__ = "1"\nfrom .a import b\nfrom a import c\nimport os\n'
        'from . import d\nx = 1\n__version__ = 2\n__all__ = ["b"]\n__all__ = sorted(globals())\n'
        '"""not a docstring"""\n'
    )
    assert init_statements_out_of_shape(source) == [
        "line 4", "line 5", "line 6", "line 7", "line 8", "line 9", "line 11"]


def test_init_only_imports_and_computes_its_names():
    """No hand list of names to drift from the imports, and no stdlib or
    helper name bound in the package namespace."""
    assert init_statements_out_of_shape((PACKAGE / "__init__.py").read_text()) == []


def test_package_exports_every_import_and_no_module():
    names = matchprice.__all__
    assert names == sorted(set(names))
    assert [name for name in names if isinstance(getattr(matchprice, name), ModuleType)] == []
    assert "random_graph" in names
    star = {}
    exec("from matchprice import *", star)
    assert star.keys() - {"__builtins__"} == set(names)
