"""Every name a module of the package imports is read somewhere in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "allocsim"

# imported names no code of their module reads, each with the reason it stays
ALLOWED_UNREAD = {
    # bench/tracer.py wraps coordination.observation_hash to time the
    # observation render; the benchmark change that retires that span
    # deletes this import and this entry together
    ("coordination", "observation_hash"),
}


def unread_imports(source: str) -> set[str]:
    """The names the source imports and never loads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


# __init__.py imports the package's public names for its users, not for itself
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_name_it_imports(module):
    unread = unread_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert unread == {name for owner, name in ALLOWED_UNREAD if owner == module}


def test_the_check_sees_an_unread_import():
    source = "import os\nimport a.b\nfrom x import y as z, w\nfrom __future__ import annotations\nw(os)\n"
    assert unread_imports(source) == {"a", "z"}
