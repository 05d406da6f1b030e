"""Every name a package module imports is used in that module, every
module-level private function is used somewhere in the package, and no
package module reads the environment.

Only the standard library's ast is used.  The package __init__ is exempt
from the import check: its imports are the public re-exports.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "banachlim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements in source and never loaded."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def unreferenced_private_defs(sources):
    """(module, name) of each module-level private function in sources (a
    mapping of module name to source text) that no top-level statement
    other than its own definition names, as a name, an attribute or an
    imported name."""
    defs, refs = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            if own and own.startswith("_") and not own.startswith("__"):
                defs.append((module, own))
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            refs.append((own, names))
    return sorted((module, name) for module, name in defs
                  if not any(name in names and own != name
                             for own, names in refs))


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        [(1, "os"), (2, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unreferenced_private_function():
    sources = {"a": "def _loop():\n    _loop()\n\n\ndef _used():\n    pass\n",
               "b": "from a import _used\n\n\ndef _dead():\n    pass\n"}
    assert unreferenced_private_defs(sources) == [("a", "_loop"),
                                                  ("b", "_dead")]


def test_every_private_function_is_used():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_defs(sources) == []


_ENVIRONMENT = ("environ", "getenv")


def environment_reads(source):
    """Lines of source that read os.environ or os.getenv, as an attribute
    of os or imported from it."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT \
                and isinstance(node.value, ast.Name) and node.value.id == "os":
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and \
                any(alias.name in _ENVIRONMENT for alias in node.names):
            lines.add(node.lineno)
    return sorted(lines)


def test_checker_flags_an_environment_read():
    source = ("import os\nos.environ.get('A')\nfrom os import getenv\n"
              "os.getenv('B')\nos.path.join('c', 'd')\nenviron = {}\n")
    assert environment_reads(source) == [2, 3, 4]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_reads_no_environment(path):
    assert environment_reads(path.read_text()) == []
