"""The package stands alone: no runtime dependencies, bounded caches, pinned public names."""

import ast
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
         "import qde, qde.cli, sys; qde.cli._build_parser(); "
         "print('numpy' in sys.modules, 'fractions' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False False"


def test_every_import_is_used():
    # a stand-in for a linter's unused-import check (none is a dependency)
    unused = []
    for path in sorted((ROOT / "src" / "qde").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused


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


PUBLIC_NAMES = {
    "AbelianGroupStructure", "BinaryQuadraticForm", "ContinuedFraction", "CurveDataError",
    "CurveRecord", "DEFAULT_MAX_DISC", "DiscriminantBoundError", "FieldMismatchError",
    "InvariantError", "KTheoryDescriptor", "ParseError", "Prediction", "QdeError",
    "QuadraticInteger", "QuadraticIrrational", "QuadraticOrder", "RationalValueError",
    "ValidationReport", "cf_expand", "cf_value", "class_group_structure",
    "class_number_maximal", "class_number_order", "companion_tori", "compose",
    "crossed_product_k0", "endomorphism_ring", "fundamental_unit", "gl2z_equivalent",
    "kronecker", "parse_curves", "parse_theta", "predict", "reduce_cycle", "sha_doubling",
    "squarefree_decompose", "unit_index", "validate",
}


def test_public_names_are_pinned_and_defined():
    # adding or removing a public name must change this set and be listed in CHANGES.md
    assert len(qde.__all__) == len(set(qde.__all__))
    assert set(qde.__all__) == PUBLIC_NAMES
    modules = [qde] + [
        importlib.import_module(f"qde.{info.name}") for info in pkgutil.iter_modules(qde.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing
