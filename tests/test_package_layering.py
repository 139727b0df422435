"""The package layering and the exports, pinned by parsing the source.

Every module under ``src/repro`` is parsed, and every import it makes is
collected, inside functions and ``TYPE_CHECKING`` blocks as well as at
module level.  The summary layers (``core``, ``ml``, ``schemes``) import
nothing from the engines or the drivers above them, the per-node
network and protocols import nothing from the arena, the sweeps, the
experiments or the deployment tier, and every ``__all__`` entry of
every importable module names something that exists.  Importing the
arena does not import ``scipy.optimize``, which only the analysis
functions that solve an assignment or a transport problem call.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Each layer, and the packages no module of it may import from.
FORBIDDEN = [
    (
        ("repro.core", "repro.ml", "repro.schemes"),
        (
            "repro.network",
            "repro.protocols",
            "repro.mega",
            "repro.sweep",
            "repro.experiments",
            "repro.deploy",
        ),
    ),
    (
        ("repro.network", "repro.protocols"),
        ("repro.mega", "repro.sweep", "repro.experiments", "repro.deploy"),
    ),
]


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


MODULES = {_module_name(path): path for path in sorted((SRC / "repro").rglob("*.py"))}


def _within(name: str, packages: tuple[str, ...]) -> bool:
    return any(name == package or name.startswith(package + ".") for package in packages)


def _imports(name: str) -> set[str]:
    """Every module ``name`` imports, at any depth of its body; for
    ``from package import name`` both the package and ``package.name``.
    The source uses absolute imports only, which this relies on."""
    path = MODULES[name]
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{name}: relative import on line {node.lineno}"
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def test_the_parser_sees_function_level_imports():
    assert len(MODULES) > 80
    assert "repro.schemes.gaussian" in _imports("repro.core.serialization")
    assert "repro.ml.reduction" in _imports("repro.core.fingerprint")
    assert "repro.network.kernel" in _imports("repro.network.schedulers")


def test_lower_layers_import_nothing_from_the_layers_above():
    violations = [
        f"{name} imports {imported}"
        for layer, forbidden in FORBIDDEN
        for name in MODULES
        if _within(name, layer)
        for imported in sorted(_imports(name))
        if _within(imported, forbidden)
    ]
    assert violations == []


def test_every_export_resolves():
    checked = 0
    missing = []
    for name in MODULES:
        if name.rpartition(".")[2] == "__main__":
            continue  # running it is what importing it does
        module = importlib.import_module(name)
        for entry in getattr(module, "__all__", ()):
            checked += 1
            if hasattr(module, entry):
                continue
            try:
                importlib.import_module(f"{name}.{entry}")
            except ImportError:
                missing.append(f"{name}.{entry}")
    assert checked > 0
    assert missing == []


def test_importing_the_arena_leaves_scipy_optimize_unimported():
    probe = "import sys, repro.mega; print('scipy.optimize' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
