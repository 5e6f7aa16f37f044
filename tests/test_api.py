"""The exported names: every name in a module's ``__all__`` and every name
the package imports at its top level resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import prk

MODULES = ["analysis", "decomposition", "harness", "spatial", "stepper", "tableau", "weno"]


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(f"prk.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_every_package_import_resolves():
    tree = ast.parse(Path(prk.__file__).read_text())
    names = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
             for alias in node.names if node.level == 1]
    assert names, "prk/__init__.py imports nothing from its modules"
    assert [name for name in names if not hasattr(prk, name)] == []
