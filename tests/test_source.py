"""Static checks of the package source: no module imports a name it never
uses (no linter is a dependency, so the rule is checked here with `ast`)."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "smectic"
#: imports kept for their side effect, by module and bound name
SIDE_EFFECT = {("fields.py", "numpy")}  # `import numpy.fft`: perfbench's tracer wraps it


def imported_names(tree: ast.Module) -> set[str]:
    """The names the module's imports bind, `from __future__` left out."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    """The names the module reads."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def exported_names(tree: ast.Module) -> set[str]:
    """The names listed in the module's `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


MODULES = sorted(p.name for p in SOURCE.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    """A module uses each name it imports; `__init__` instead exports it."""
    tree = ast.parse((SOURCE / module).read_text(), module)
    imported = imported_names(tree) - {name for m, name in SIDE_EFFECT if m == module}
    if module == "__init__.py":
        assert imported - exported_names(tree) == set()
    else:
        assert imported - used_names(tree) == set()


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os\nimport numpy.fft as f\n"
                     "from .fields import kept, keep\n"
                     "def g(x: np.ndarray) -> None:\n    keep(x)\n")
    assert imported_names(tree) - used_names(tree) == {"os", "f", "kept"}
