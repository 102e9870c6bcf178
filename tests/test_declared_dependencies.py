"""Every third-party module the package imports is a declared dependency.

An import that only the development environment happens to provide breaks
``pip install`` users at import time (or, worse, switches a code path off).
This test reads every module under ``src/`` and checks each absolute import
that is neither the standard library nor ``repro`` itself against
``[project] dependencies`` in ``pyproject.toml``.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

pytestmark = pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"), reason="needs sys.stdlib_module_names (3.10+)"
)


def declared_dependencies() -> set:
    """Import names of the ``[project] dependencies`` requirement strings."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    match = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.MULTILINE | re.DOTALL)
    assert match, "pyproject.toml has no [project] dependencies list"
    requirements = re.findall(r"[\"']([^\"']+)[\"']", match.group(1))
    names = {re.split(r"[\s<>=!~;\[]", requirement, 1)[0] for requirement in requirements}
    return {name.lower().replace("-", "_") for name in names}


def imported_top_level_modules() -> dict:
    """Top-level module name -> first ``src/`` file importing it (absolute imports)."""
    modules = {}
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                modules.setdefault(name.split(".")[0], path.relative_to(ROOT))
    return modules


def test_third_party_imports_are_declared():
    stdlib = set(sys.stdlib_module_names) | {"__future__"}
    third_party = {
        name: path
        for name, path in imported_top_level_modules().items()
        if name not in stdlib and name != "repro"
    }
    assert "numpy" in third_party  # the scan sees the columnar core's import
    undeclared = {
        name: str(path)
        for name, path in third_party.items()
        if name.lower() not in declared_dependencies()
    }
    assert not undeclared, f"imported but not in pyproject.toml dependencies: {undeclared}"
