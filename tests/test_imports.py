"""No package module or script imports a name it never reads.

No linter ships with the project, so this reads every src/zzsched/*.py and
scripts/*.py file with ast: each name an import binds must be read
somewhere in that module (an attribute chain reads its root name). A
`from __future__` import binds nothing and is skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "zzsched").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


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
