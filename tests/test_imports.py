"""Package hygiene: no private cross-module imports, no unused private names,
and nothing built at import time."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "eprod"


def _private_imports(path: pathlib.Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "eprod":
            continue  # outside the package
        source = "." * node.level + (node.module or "")
        for alias in node.names:
            if alias.name.startswith("_"):
                yield f"{path.name}:{node.lineno}: from {source} import {alias.name}"


def test_no_private_cross_module_imports():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    found = [hit for path in paths for hit in _private_imports(path)]
    assert not found, "private names imported across modules:\n" + "\n".join(found)


def _private_definitions(tree: ast.Module):
    """Top-level private functions, classes and constants of one module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_no_unreferenced_private_names():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    orphans = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in used
    ]
    assert not orphans, "private names defined but never used:\n" + "\n".join(orphans)


def test_import_builds_no_tables():
    # tables and caches fill on first use; import time stays the start-up cost
    code = (
        "import eprod\n"
        "from eprod import branches, distributions, quadrature\n"
        "print(len(branches._ladder_tables), len(distributions._sequence_cache),"
        " quadrature.gauss_hermite_rule.cache_info().currsize)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.split() == ["0", "0", "0"]
