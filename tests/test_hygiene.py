"""Every name a module of ``src/lexspec`` imports is used in that module.

No linter runs on this project, so an import left behind by a refactor is
caught here: each module is parsed with ``ast``, and every name its import
statements bind must appear as a ``Name`` node (the base of an attribute,
``json.dumps``, is one).  ``__init__.py`` imports to re-export and is skipped,
as are ``__future__`` imports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lexspec"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source``'s import statements bind and it never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_modules_found():
    assert {"charpoints.py", "lexalg.py", "spectral.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_named():
    source = "import json, os.path\nfrom .lexalg import LexElement, group_add as add\n"
    assert unused_imports(source + "x: LexElement = json.loads(os.path.sep)\n") == ["add"]
