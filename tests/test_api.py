"""The public surface: every exported name exists, so deleting code cannot
silently drop part of it."""

import ast
import importlib
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import hodgejump

PACKAGE = pathlib.Path(hodgejump.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(hodgejump.__path__))


def _tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text())


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"hodgejump.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_exist():
    imported = [
        (node.module, alias.name)
        for node in ast.walk(_tree("__init__"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(imported) > 30
    for module, name in imported:
        source = importlib.import_module(f"hodgejump.{module}")
        assert hasattr(source, name), (module, name)
        assert name in source.__all__, (module, name)
        assert getattr(hodgejump, name) is getattr(source, name)


@pytest.mark.parametrize("name", MODULES)
def test_cross_module_calls_are_exported(name):
    # `from . import linalg` then `linalg.f(...)`: f must be in linalg.__all__
    tree = _tree(name)
    siblings = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }
    missing = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and not node.attr.startswith("_")):
            module = importlib.import_module(f"hodgejump.{node.value.id}")
            if node.attr not in module.__all__:
                missing.add(f"{node.value.id}.{node.attr}")
    assert sorted(missing) == []


@pytest.mark.parametrize("name", MODULES)
def test_modules_import_only_what_they_use(name):
    # catches an import a deletion left behind; MODULES leaves out
    # ``__init__``, whose imports are the package's re-exports
    tree = _tree(name)
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_cold_import_loads_no_heavy_modules():
    # every CLI call pays the package import: `dataclasses` (with `inspect`,
    # `ast`, `dis` and `tokenize`) and `importlib.resources` each cost
    # milliseconds, so neither is used; -S keeps `site` from loading them
    heavy = ["dataclasses", "inspect", "ast", "importlib.resources"]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hodgejump, hodgejump.cli; "
            "print([m for m in sys.argv[2:] if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(PACKAGE.parent), *heavy],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")
