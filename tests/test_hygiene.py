"""Every name a module of ``src/lexspec`` imports is used in that module,
and every ``lexspec`` name the CI workflow's scripts use exists.

No linter runs on this project, so an import left behind by a refactor is
caught here: each module is parsed with ``ast``, and every name its import
statements bind must appear as a ``Name`` node (the base of an attribute,
``json.dumps``, is one).  ``__init__.py`` imports to re-export and is skipped,
as are ``__future__`` imports.  The workflow's ``package`` job runs only in
CI, so a name renamed in ``src`` would break it unseen; its imports and
``patch.object`` targets are resolved here instead.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lexspec"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CI = SRC.parents[1] / ".github" / "workflows" / "ci.yml"


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


def ci_names(text: str) -> list[tuple[str, str]]:
    """(module, name) for each name that ``text`` imports with ``from
    lexspec[.mod] import a, b`` or ``import lexspec.mod``, or patches with
    ``patch.object(mod, "name")``, where ``mod`` is imported from ``lexspec``."""
    names = [("lexspec", name) for name in re.findall(r"\bimport lexspec\.(\w+)", text)]
    for module, listed in re.findall(r"from (lexspec(?:\.\w+)?) import ([\w ,]*)", text):
        names += [(module, name.strip()) for name in listed.split(",")]
    modules = {name: f"lexspec.{name}" for module, name in names if module == "lexspec"}
    for target, name in re.findall(r'patch\.object\((\w+), "(\w+)"', text):
        if target in modules:
            names.append((modules[target], name))
    return names


def missing_names(names: list[tuple[str, str]]) -> list[str]:
    """The ``module.name`` of each pair whose module neither has the name nor
    is a package with such a submodule."""
    missing = []
    for module, name in names:
        mod = importlib.import_module(module)
        if not hasattr(mod, name) and not (
            hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}")
        ):
            missing.append(f"{module}.{name}")
    return missing


def test_ci_names_exist():
    names = ci_names(CI.read_text(encoding="utf-8"))
    assert len(names) >= 30 and ("lexspec", "charpoints") in names
    assert missing_names(names) == []


def test_a_missing_ci_name_is_named():
    text = (
        'python -c "from lexspec.cli import main, _gone; from lexspec import render"\n'
        "from lexspec import boxgeom\nimport lexspec.gone\n"
        'patch.object(boxgeom, "order_key", f); patch.object(boxgeom, "_gone", f)\n'
        'patch.object(module, "order_key", f)\n'
    )
    assert missing_names(ci_names(text)) == [
        "lexspec.gone", "lexspec.cli._gone", "lexspec.boxgeom._gone",
    ]
