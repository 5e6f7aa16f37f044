"""The exported names: every name in a module's ``__all__`` resolves, and
the package namespace holds only ``__version__``."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import prk

MODULES = ["analysis", "decomposition", "harness", "spatial", "stepper", "tableau", "weno"]


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(f"prk.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_the_package_imports_nothing():
    tree = ast.parse(Path(prk.__file__).read_text())
    assert [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))] == []
    # beside the submodules the import system binds on first import
    assert [name for name, value in vars(prk).items() if not name.startswith("__")
            and not isinstance(value, types.ModuleType)] == []
