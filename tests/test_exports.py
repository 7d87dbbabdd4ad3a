"""Every exported or traced name resolves, so a deletion cannot leave one behind."""

import ast
import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import glg

MODULES = [m.name for m in pkgutil.iter_modules(glg.__path__)]
ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"glg.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(pathlib.Path(glg.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    module_attr = [(m, n) for m, n in imported
                   if not hasattr(importlib.import_module(f"glg.{m}"), n)]
    package_attr = [n for _, n in imported if not hasattr(glg, n)]
    assert module_attr == [] and package_attr == []


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(m, attr) for m, attr, _ in tracing.PATCHES
               if not hasattr(importlib.import_module(f"glg.{m}"), attr)]
    assert tracing.PATCHES and missing == []
