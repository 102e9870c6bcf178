"""Every library module is reachable from something that runs.

A module that only its own tests import is surface no user reaches: it
describes the model a second time, costs lines and drifts from the code
that does run.  These tests build a static import graph with :mod:`ast`
and fail, naming the module, when any ``src/repro`` module other than a
package ``__init__`` cannot be reached from a root:

* the command line, ``repro.cli`` and ``repro.__main__``;
* every script under ``examples/``, ``tools/``, ``benchmarks/`` and
  ``perfbench/`` (perfbench's own tests excepted).

Edges are the ``import`` statements a file executes, at any depth,
including imports inside functions.  Imports under ``if TYPE_CHECKING:``
never run and do not count.  Neither do the packages' lazy export tables
(``_lazy_exports(__name__, {...})``): a table lists names, it imports
nothing.  A name looked up through a table does count, as an import of the
module the table maps it to: ``from repro import PdnSpot`` reaches
``repro.analysis.pdnspot``, and so does ``repro.PdnSpot`` after
``import repro``.
"""

import ast
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Set

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Library modules run by the command line.
ROOT_MODULES = ("repro.cli", "repro.__main__")

#: Directories whose every script is a root.
SCRIPT_DIRS = ("examples", "tools", "benchmarks", "perfbench")

#: Directories under :data:`SCRIPT_DIRS` that test a root rather than run it.
EXCLUDED_DIRS = ("perfbench/tests",)


def module_name(path: Path, src: Path) -> str:
    """The dotted name of the module at ``path`` under ``src``."""
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def library_modules(src: Path) -> Dict[str, Path]:
    """Every module under ``src``, by dotted name."""
    return {module_name(path, src): path for path in sorted(src.rglob("*.py"))}


def root_scripts(root: Path) -> List[Path]:
    """The scripts under :data:`SCRIPT_DIRS`, less :data:`EXCLUDED_DIRS`."""
    excluded = [root / name for name in EXCLUDED_DIRS]
    return [
        path
        for directory in SCRIPT_DIRS
        for path in sorted((root / directory).rglob("*.py"))
        if not any(path.is_relative_to(skip) for skip in excluded)
    ]


def is_type_checking(node: ast.AST) -> bool:
    """Whether ``node`` is ``if TYPE_CHECKING:`` (bare or ``typing.`` qualified)."""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def executed_nodes(tree: ast.AST) -> Iterator[ast.AST]:
    """Every node of ``tree`` except those under ``if TYPE_CHECKING:``."""
    pending = [tree]
    while pending:
        node = pending.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if is_type_checking(child):
                pending.extend(child.orelse)
            else:
                pending.append(child)


def lazy_table(tree: ast.AST) -> Dict[str, str]:
    """The ``name -> module`` map of a package's ``_lazy_exports`` call."""
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_lazy_exports"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Dict)
        ):
            for key, value in zip(node.args[1].keys, node.args[1].values):
                for name in ast.literal_eval(value):
                    table[name] = ast.literal_eval(key)
    return table


class ImportGraph:
    """The modules each file under ``src`` or a root executes an import of."""

    def __init__(self, src: Path) -> None:
        self.modules = library_modules(src)
        self.trees = {name: ast.parse(path.read_text()) for name, path in self.modules.items()}
        self.tables = {name: lazy_table(tree) for name, tree in self.trees.items()}

    def resolve(self, package: str, name: str) -> str:
        """The module that ``name`` looked up on ``package`` comes from."""
        submodule = f"{package}.{name}"
        if submodule in self.modules:
            return submodule
        return self.tables.get(package, {}).get(name, package)

    def imports(self, tree: ast.AST, package: str) -> Set[str]:
        """The library modules ``tree`` imports; ``package`` anchors relative imports."""
        found: Set[str] = set()
        bound: Dict[str, str] = {}  # local name -> package it is bound to
        nodes = list(executed_nodes(tree))
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    found.add(alias.name)
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    bound[alias.asname or target] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                    base = ".".join(anchor + ([base] if base else []))
                found.add(base)
                for alias in node.names:
                    target = self.resolve(base, alias.name)
                    found.add(target)
                    bound[alias.asname or alias.name] = target
        for node in nodes:  # ``repro.PdnSpot`` after ``import repro``
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                package_name = bound.get(node.value.id)
                if package_name in self.modules:
                    found.add(self.resolve(package_name, node.attr))
        return {name for name in found if name in self.modules}

    def reached(self, roots: Iterable[str], scripts: Iterable[Path]) -> Set[str]:
        """Every module an import from ``roots`` or ``scripts`` runs, transitively."""
        pending = list(roots)
        for path in scripts:
            pending.extend(self.imports(ast.parse(path.read_text()), ""))
        reached: Set[str] = set()
        while pending:
            name = pending.pop()
            if name in reached:
                continue
            reached.add(name)
            parts = name.split(".")
            pending.extend(".".join(parts[:depth]) for depth in range(1, len(parts)))
            is_package = self.modules[name].name == "__init__.py"
            pending.extend(self.imports(self.trees[name], name if is_package else ".".join(parts[:-1])))
        return reached

    def unreachable(self, roots: Iterable[str], scripts: Iterable[Path]) -> List[str]:
        """The modules, package ``__init__`` files aside, no root reaches."""
        reached = self.reached(roots, scripts)
        return sorted(
            name for name, path in self.modules.items()
            if name not in reached and path.name != "__init__.py"
        )


def test_every_library_module_is_reachable_from_a_root():
    unreachable = ImportGraph(SRC).unreachable(ROOT_MODULES, root_scripts(ROOT))
    assert not unreachable, "no command, example, tool or benchmark imports " + ", ".join(unreachable)


def write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


@pytest.fixture
def toy(tmp_path):
    """A package whose lazy table names ``used`` and ``unused``; ``main`` imports one."""
    src = tmp_path / "src"
    write(src / "pkg" / "__init__.py", (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from pkg.unused import Unused\n"
        "__getattr__, __dir__ = _lazy_exports(__name__, {\n"
        "    'pkg.used': ('Used',), 'pkg.unused': ('Unused',),\n"
        "})\n"
    ))
    write(src / "pkg" / "used.py", "from .helper import helper\nclass Used: pass\n")
    write(src / "pkg" / "helper.py", "def helper(): pass\n")
    write(src / "pkg" / "unused.py", "class Unused: pass\n")
    write(src / "pkg" / "main.py", "def main():\n    from pkg import Used\n")
    write(src / "pkg" / "other.py", "import pkg\npkg.Unused\n")
    return src


def test_lazy_tables_and_type_checking_imports_reach_nothing(toy):
    assert ImportGraph(toy).unreachable(["pkg.main"], []) == ["pkg.other", "pkg.unused"]


def test_a_name_looked_up_on_a_package_reaches_its_module(toy):
    assert ImportGraph(toy).unreachable(["pkg.main", "pkg.other"], []) == []
