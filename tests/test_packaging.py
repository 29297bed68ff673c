"""The package stands alone: no runtime dependencies and bounded caches."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qde

ROOT = Path(__file__).parent.parent


def test_importing_qde_and_building_the_cli_loads_no_numpy():
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c",
         "import qde, qde.cli, sys; qde.cli._build_parser(); print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_pyproject_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def test_every_cache_has_a_size_limit():
    caches = {}
    for info in pkgutil.iter_modules(qde.__path__):
        module = importlib.import_module(f"qde.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                caches[f"{module.__name__}.{name}"] = obj.cache_info().maxsize
    assert set(caches) == {
        "qde.classgroup._class_data",
        "qde.quadratic.fundamental_unit",
        "qde.quadratic.squarefree_decompose",
    }, caches
    unbounded = [name for name, maxsize in caches.items() if maxsize is None]
    assert not unbounded
