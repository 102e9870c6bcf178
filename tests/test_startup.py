"""Start-up contracts, each checked in a fresh interpreter.

Packages import their public names on first use (PEP 562), so what a
command loads is what it runs.  These tests pin that down through
``sys.modules``: bare ``import repro`` loads none of its modules, a sweep
loads neither the simulator, the optimizer nor the daemon, and every name
a package lists in ``__all__`` still resolves.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Every package of the library, each with its own lazy ``__init__``.
PACKAGES = ["repro"] + sorted(
    f"repro.{path.parent.name}" for path in (SRC / "repro").glob("*/__init__.py")
)

#: Appended to a child's code: print the names of the loaded modules.
_REPORT = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"

#: A CLI command run in the child with its output discarded.
_CLI = (
    "import contextlib, io\n"
    "from repro.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert main({argv!r}) == 0\n"
)

#: What a sweep does before its first evaluation (perfbench's set-up probe).
SWEEP_SETUP = (
    "import repro\n"
    "from repro.serve.protocol import build_sweep_study\n"
    "build_sweep_study([4.0, 18.0])\n"
    "repro.PdnSpot().pdn('FlexWatts').predictor\n"
)

#: Modules no sweep may load: the disk store, the daemon, the optimizer and
#: the simulator.
SWEEP_EXCLUDED = (
    "asyncio", "repro.cache", "repro.serve.server", "repro.optimize", "repro.sim",
)


def run_child(body: str) -> str:
    """Run ``body`` in a fresh interpreter and return its stdout."""
    environment = dict(os.environ)
    existing = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = f"{SRC}{os.pathsep}{existing}" if existing else str(SRC)
    completed = subprocess.run(
        [sys.executable, "-c", body], env=environment, capture_output=True,
        text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def loaded_modules(body: str) -> set:
    """The names in ``sys.modules`` after ``body`` ran in a fresh interpreter."""
    return set(json.loads(run_child(body + _REPORT).splitlines()[-1]))


def loaded_from(modules: set, excluded) -> list:
    """The loaded modules that are, or live under, an excluded name."""
    return sorted(
        name for name in modules
        if any(name == prefix or name.startswith(prefix + ".") for prefix in excluded)
    )


def test_bare_import_loads_no_submodule():
    modules = loaded_modules("import repro")
    assert "numpy" not in modules
    assert "asyncio" not in modules
    assert sorted(name for name in modules if name.startswith("repro")) == ["repro"]


def test_sweep_setup_loads_neither_daemon_optimizer_nor_simulator():
    modules = loaded_modules(SWEEP_SETUP)
    assert "repro.analysis.pdnspot" in modules  # the probe did run
    assert loaded_from(modules, SWEEP_EXCLUDED) == []


def test_sweep_command_loads_neither_daemon_optimizer_nor_simulator():
    argv = ["sweep", "--tdps", "4", "18", "--ars", "0.4", "0.6", "--format", "json"]
    modules = loaded_modules(_CLI.format(argv=argv))
    assert loaded_from(modules, SWEEP_EXCLUDED) == []


def test_etee_command_loads_neither_optimizer_nor_simulator():
    modules = loaded_modules(_CLI.format(argv=["etee", "--tdp", "18", "--json"]))
    assert loaded_from(modules, ("asyncio", "repro.optimize", "repro.sim")) == []


@pytest.mark.parametrize("package", PACKAGES)
def test_public_names_resolve(package):
    """Every ``__all__`` name resolves on first use and shows in ``dir()``."""
    report = run_child(
        f"import importlib, json\n"
        f"package = importlib.import_module({package!r})\n"
        f"lazy = '__getattr__' in vars(package)\n"
        f"missing = [name for name in package.__all__ if not hasattr(package, name)]\n"
        f"hidden = sorted(set(package.__all__) - set(dir(package)))\n"
        f"print(json.dumps([lazy, missing, hidden, len(package.__all__)]))\n"
    )
    lazy, missing, hidden, count = json.loads(report.splitlines()[-1])
    assert lazy
    assert missing == []
    assert hidden == []
    assert count > 0


def test_resolved_names_are_cached_and_unknown_names_raise():
    import repro.analysis as analysis
    from repro.analysis.pdnspot import PdnSpot

    assert analysis.PdnSpot is PdnSpot
    assert vars(analysis)["PdnSpot"] is PdnSpot
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        getattr(analysis, "not_a_name")


def test_submodules_resolve_as_attributes():
    import repro.experiments as experiments
    from repro.experiments import fig8_evaluation

    assert experiments.fig8_evaluation is fig8_evaluation
    assert "fig8_evaluation" in dir(experiments)
