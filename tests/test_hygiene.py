"""Source hygiene of the package, checked with the standard library's ``ast``.

No ``assert`` statements (they vanish under ``python -O``, so a check that
matters raises instead), no unused imports, and export lists that name only
what exists: every name in a module's ``__all__`` is defined there, by the
module itself and not imported from another, and the package's ``__all__`` is
exactly what its ``__init__`` imports, so a deleted name cannot linger in one
list. Every exception class in ``errors`` is raised by name somewhere in the
package, so an error nothing raises is deleted. Input documents have one reader:
``json.load`` and ``json.loads`` are called only in ``instance.read_json``,
so no other reader can grow its own rules. Every module-level private
function or class (``_name``) is read somewhere in the package outside its
own definition, so a helper its last caller dropped is deleted with it, and
so is every method of such a class, unless it overrides a base class's. The
README's package layout table names each module of the package but
``__init__``, and nothing else. No module reads a numpy name that numpy 1.24,
the oldest ``pyproject.toml`` allows, lacks, and every ``.py`` file under
``src``, ``tests`` and ``perfbench`` parses with the grammar of Python 3.10,
the oldest it allows (a check of syntax, not of library names). The matching
engine imports nothing from the swap search, which sits above it. The
package ``__init__`` imports to re-export, and ``__future__`` imports are
directives, so both are exempt from the import check. A name counts as
used where the code reads it; quoted annotations are not parsed, and with
``from __future__ import annotations`` none needs quoting.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nswfair"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(tree: ast.Module):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements on lines {lines}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not unused, f"{path.name}: unused imports (line, name) {unused}"


def test_the_import_check_sees_an_unused_import():
    tree = ast.parse("import os.path\nfrom typing import Dict, List as L\n\ndef f(x: L[int]) -> None:\n    pass\n")
    assert unused_imports(tree) == [(1, "os"), (2, "Dict")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_exists(path):
    name = "nswfair" if path.stem == "__init__" else f"nswfair.{path.stem}"
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"{path.name}: __all__ names {missing} that the module does not define"


def foreign_exports(tree: ast.Module):
    """Names in the module's ``__all__`` that no top-level def, class or assignment of it binds."""
    defined, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    defined.add(target.id)
                    if target.id == "__all__":
                        exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in defined]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_module_exports_only_what_it_defines(path):
    foreign = foreign_exports(ast.parse(path.read_text(encoding="utf-8")))
    assert not foreign, f"{path.name}: __all__ names {foreign}, which the module imports rather than defines"


def test_the_export_check_sees_an_imported_name():
    tree = ast.parse("from x import A\nB = 1\nC: int = 2\n\ndef f():\n    pass\n\n__all__ = ['A', 'B', 'C', 'f']\n")
    assert foreign_exports(tree) == ["A"]


def unraised_errors(errors: ast.Module, trees):
    """Exception classes defined in ``errors`` that no ``raise`` in ``trees`` names."""
    raised = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return [node.name for node in errors.body if isinstance(node, ast.ClassDef) and node.name not in raised]


def test_every_error_class_is_raised():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    unraised = unraised_errors(ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8")), trees)
    assert not unraised, f"errors.py: {unraised} raised nowhere in the package"


def test_the_error_check_sees_an_unraised_class():
    errors = ast.parse("class A(ValueError):\n    pass\n\nclass B(Exception):\n    pass\n\nclass C(Exception):\n    pass\n")
    user = ast.parse("def f():\n    raise A('x')\n\ndef g():\n    raise C\n")
    assert unraised_errors(errors, [user]) == ["B"]


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(importlib.import_module("nswfair").__all__) == imported


def json_load_calls(tree: ast.Module):
    """(enclosing function, line) of each call of ``json.load`` or ``json.loads``; None outside a function."""
    calls = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            func = getattr(child, "func", None)
            if isinstance(child, ast.Call) and isinstance(func, ast.Attribute) and func.attr in ("load", "loads"):
                if isinstance(func.value, ast.Name) and func.value.id == "json":
                    calls.append((function, child.lineno))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(tree, None)
    return calls


def test_every_input_file_is_parsed_by_read_json_alone():
    readers = sorted(
        (path.stem, function)
        for path in MODULES
        for function, _ in json_load_calls(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert readers == [("instance", "read_json")], f"json.load or json.loads called in {readers}"
    imports = [
        path.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "json"
    ]
    assert not imports, f"{imports}: json imported by name, so a call would not read as json.load"


def test_the_reader_check_sees_every_call():
    tree = ast.parse("import json\nx = json.loads('1')\n\ndef f(p):\n    def g():\n        return json.load(p)\n    return g\n")
    assert json_load_calls(tree) == [(None, 2), ("g", 6)]


def names_read(statement):
    """Every name, attribute and imported name the statement reads."""
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def unreferenced_private(trees, namespaces):
    """Module-level ``_name`` functions and classes of ``trees`` (module name -> tree) that no
    other top-level statement of any tree reads, as (module, name); a self-reference does not count.
    Then each method of such a class, as (module, "Class.method"), that no statement outside it
    reads, a statement in a class body counting on its own, unless it overrides a method of a base
    of the class, looked up in ``namespaces`` (module name -> its globals). Dunders are exempt."""
    read = {statement: set(names_read(statement)) for tree in trees.values() for statement in tree.body}
    read.update(
        (statement, set(names_read(statement)))
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for statement in node.body
    )
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) or not private(node.name):
                continue
            if not any(node.name in names for statement, names in read.items() if statement is not node):
                unused.append((module, node.name))
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) or method.name.startswith("__"):
                    continue
                bases = namespaces[module][node.name].__mro__[1:]
                if not any(hasattr(base, method.name) for base in bases) and not any(
                    method.name in names for statement, names in read.items() if statement not in (node, method)
                ):
                    unused.append((module, f"{node.name}.{method.name}"))
    return unused


def private(name):
    return name.startswith("_") and not name.startswith("__")


def test_every_private_function_and_class_is_used():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    namespaces = {m: vars(importlib.import_module("nswfair" if m == "__init__" else f"nswfair.{m}")) for m in trees}
    unused = unreferenced_private(trees, namespaces)
    assert not unused, f"private functions, classes or their methods nothing in the package reads: {unused}"


def test_the_private_check_sees_an_unused_helper():
    trees = {
        "a": ast.parse("def _used():\n    pass\n\ndef _dead(n):\n    return _dead(n - 1)\n\nclass _Idle:\n    pass\n"),
        "b": ast.parse("from .a import _used\n\ndef f():\n    return _used()\n"),
    }
    assert unreferenced_private(trees, {}) == [("a", "_dead"), ("a", "_Idle")]


def test_the_private_check_sees_an_unused_method():
    source = (
        "import argparse\n\n"
        "class _Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n        raise SystemExit(message)\n\n"
        "    def helper(self):\n        return self.spare()\n\n"
        "    def spare(self):\n        return 1\n\n"
        "    def dead(self):\n        return self.dead()\n\n"
        "    def __repr__(self):\n        return 'p'\n\n"
        "class Public:\n    def idle(self):\n        pass\n\n"
        "def parse():\n    return _Parser().helper()\n"
    )
    namespace = {}
    exec(compile(source, "a", "exec"), namespace)
    assert unreferenced_private({"a": ast.parse(source)}, {"a": namespace}) == [("a", "_Parser.dead")]


def layout_modules(readme):
    """The modules the ``## Package layout`` table of ``readme`` names, one per row, in order."""
    section = readme.split("\n## Package layout\n", 1)[1].split("\n## ", 1)[0]
    return [
        line.split("`nswfair.", 1)[1].split("`", 1)[0]
        for line in section.splitlines()
        if line.startswith("| `nswfair.")
    ]


def test_readme_layout_names_every_module():
    named = layout_modules((ROOT / "README.md").read_text(encoding="utf-8"))
    assert len(named) == len(set(named)), f"README package layout repeats a module: {named}"
    assert sorted(named) == sorted(p.stem for p in MODULES if p.stem != "__init__")


def test_the_layout_check_reads_only_its_section():
    readme = "# x\n\n## Package layout\n\n| module | contents |\n| --- | --- |\n| `nswfair.cli` | c |\n\n## Next\n| `nswfair.errors` | e |\n"
    assert layout_modules(readme) == ["cli"]  # a row outside the section does not count


# Names numpy has only from 2.0 on; pyproject.toml allows numpy >= 1.24.
NUMPY_2_ONLY = frozenset(
    {
        "bitwise_count",
        "unique_values",
        "unique_inverse",
        "unique_counts",
        "unique_all",
        "isdtype",
        "concat",
        "permute_dims",
        "vecdot",
    }
)


def numpy_2_names(tree: ast.Module):
    """(line, name) of each :data:`NUMPY_2_ONLY` name the module reads from numpy: imported from
    it, or an attribute of a name an ``import numpy`` binds, submodules such as ``np.linalg`` included."""
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or "numpy" for a in node.names if a.name.split(".")[0] == "numpy")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found += [(node.lineno, a.name) for a in node.names if a.name in NUMPY_2_ONLY]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in NUMPY_2_ONLY:
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in aliases:
                found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numpy_2_only_names(path):
    found = numpy_2_names(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"{path.name}: numpy-2-only names (line, name) {found}; numpy 1.24 lacks them"


def test_the_numpy_check_sees_every_form():
    tree = ast.parse(
        "import numpy as np\nfrom numpy import isdtype, unique\nx = np.unique_values(a)\n"
        "y = np.unique(a, return_inverse=True)\nz = np.linalg.vecdot(a, b)\nw = frame.concat(a)\n"
        "import numpy.linalg\nv = numpy.linalg.vecdot(a, b)\n"
    )
    assert numpy_2_names(tree) == [(2, "isdtype"), (3, "unique_values"), (5, "vecdot"), (8, "vecdot")]


SOURCES = sorted(path for folder in ("src", "tests", "perfbench") for path in (ROOT / folder).rglob("*.py"))


def newer_than_3_10(source: str):
    """Where and why ``source`` does not parse with Python 3.10's grammar, or None if it does."""
    try:
        ast.parse(source, feature_version=(3, 10))
    except SyntaxError as exc:
        return f"line {exc.lineno}: {exc.msg}"
    return None


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_source_parses_as_python_3_10(path):
    problem = newer_than_3_10(path.read_text(encoding="utf-8"))
    assert problem is None, f"{path.relative_to(ROOT)}: {problem}; pyproject.toml allows Python 3.10"


def test_the_version_check_sees_an_except_star():
    assert newer_than_3_10("try:\n    pass\nexcept ValueError:\n    pass\n") is None
    assert "3.11" in newer_than_3_10("try:\n    pass\nexcept* ValueError:\n    pass\n")


def package_imports(tree: ast.Module):
    """The modules of the package the module imports from, relatively or by full name, sorted."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["nswfair", node.module])) if node.level else node.module or ""
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return sorted({name.split(".")[1] for name in names if name.startswith("nswfair.")})


def test_matching_imports_nothing_from_search():
    imported = package_imports(ast.parse((PACKAGE / "matching.py").read_text(encoding="utf-8")))
    assert "search" not in imported, f"matching.py imports from {imported}"


def test_the_package_import_check_sees_every_form():
    tree = ast.parse(
        "from . import search\nfrom .instance import NEG_INF\nimport nswfair.oracle\n"
        "from nswfair.pipeline import solve_nsw\nfrom nswfair import cli\nimport numpy\nfrom math import log\n"
    )
    assert package_imports(tree) == ["cli", "instance", "oracle", "pipeline", "search"]
