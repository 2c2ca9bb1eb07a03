"""Package hygiene: no module imports another module's private names."""

import ast
import pathlib

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
