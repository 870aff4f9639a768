"""Every name a package module imports is used there or listed in its
__all__.  No linter runs on this repository, so this is what catches an
import left behind when the code that used it is deleted."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "choicerev"


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
)
def test_module_uses_its_imports(module):
    tree = ast.parse((SRC / module).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and "__all__" in {
            getattr(t, "id", None) for t in node.targets
        }:
            used |= set(ast.literal_eval(node.value))
    assert [name for name in imported if name not in used] == []
