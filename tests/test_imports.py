"""No module imports a name it never uses.

A stdlib ``ast`` scan of every ``src/peerlab/*.py`` and ``tests/*.py`` file:
each name an ``import`` binds must be read somewhere in the same file.
``__init__.py`` files are skipped (their imports are re-exports), and so are
``from __future__`` imports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for path in [*ROOT.glob("src/peerlab/*.py"), *ROOT.glob("tests/*.py")]
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by imports in ``source`` that no other node reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.relative_to(ROOT)} imports unused names: {', '.join(unused)}"


def test_scan_sees_unused_and_used_names():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nnp.zeros(e)\n"
    assert unused_imports(source) == ["c", "os"]
