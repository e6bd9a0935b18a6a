"""Source hygiene: no dead imports in the package, no dangling exports."""

import ast
from pathlib import Path

import pytest

import orthokernel

PACKAGE_DIR = Path(orthokernel.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_detected():
    source = "import os\nfrom math import gcd, lcm\nlcm(1)\n"
    assert _unused_imports(source) == ["gcd", "os"]


def test_every_export_resolves():
    missing = [name for name in orthokernel.__all__ if not hasattr(orthokernel, name)]
    assert missing == []
