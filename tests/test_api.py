"""The package's public names are exactly those listed in `evoinf.__all__`,
and no module imports a name it does not use."""

import ast
import types
from pathlib import Path

import pytest

import evoinf

MODULES = sorted(Path(evoinf.__file__).parent.glob("*.py"))


def test_all_lists_exactly_the_public_names():
    for name in evoinf.__all__:
        assert hasattr(evoinf, name), name
    public = {name for name, value in vars(evoinf).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == set(evoinf.__all__)
    assert len(evoinf.__all__) == len(public)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":  # re-exports
        used |= set(evoinf.__all__)
    unused = {name: line for name, line in imported.items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"
