"""No package module or script imports a name it never reads, and no
private package name is kept alive for tests alone.

No linter ships with the project, so this reads every src/zzsched/*.py and
scripts/*.py file with ast: each name an import binds must be read
somewhere in that module (an attribute chain reads its root name). A
`from __future__` import binds nothing and is skipped. Each module-level
_name a package module defines must be read by package code outside its
own definition.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "zzsched").glob("*.py"))
FILES = sorted([*PACKAGE, *(ROOT / "scripts").glob("*.py")])


def unused_imports(source):
    """(name, line) per imported name the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((name, line) for name, line in bound.items() if name not in read)


def test_files_found():
    assert len(FILES) > 5


def test_checker_sees_dead_and_live_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "@dataclass\nclass A:\n    x: int = np.int64(os.sep)\n")
    assert unused_imports(source) == [("field", 4)]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_dead_imports(path):
    assert unused_imports(path.read_text()) == [], f"{path.name} imports names it never reads"


def _defined(node):
    """Names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)}


def unread_private_names(sources):
    """(module, name) per module-level _name that no module reads outside
    the statement defining it; sources maps module name to source."""
    private, read = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = _defined(node)
            private += [(module, name) for name in sorted(own)
                        if name.startswith("_") and not name.startswith("__")]
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name not in own:
                    read.add(name)
    return [(module, name) for module, name in private if name not in read]


def test_checker_sees_unread_private_names():
    sources = {"a": "_CAP = 3\ndef _walk(n):\n    return _walk(n - 1)\ndef _used():\n    pass\n",
               "b": "from a import _CAP\nimport a\nx = _CAP + a._used()\n"}
    assert unread_private_names(sources) == [("a", "_walk")]


def test_no_private_name_only_tests_read():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert unread_private_names(sources) == [], "private names no package code reads"
