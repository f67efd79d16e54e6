"""Static checks of the package source: no module imports a name it never
uses, and no module-level name is left that nothing reads (no linter is a
dependency, so the rules are checked here with `ast`)."""

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


def definitions(tree: ast.Module) -> dict[str, range]:
    """The module-level functions, classes and constants (dunder names left
    out), each with the lines of the statement that defines it."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                defined[name] = range(node.lineno, node.end_lineno + 1)
    return defined


def reads(tree: ast.Module, module: str) -> set[tuple[str, int]]:
    """(name, line) of each read: a loaded name, an attribute, and an
    imported name, except in `__init__`, whose imports are the exports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.add((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom) and module != "__init__.py":
            found.update((a.name, node.lineno) for a in node.names)
    return found


def unread(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) of each module-level name that no line of the package
    reads outside the statement defining it, and `__init__` does not export."""
    trees = {m: ast.parse(text, m) for m, text in sources.items()}
    exported = exported_names(trees["__init__.py"]) if "__init__.py" in trees else set()
    read = {m: reads(tree, m) for m, tree in trees.items()}
    return {(m, name) for m, tree in trees.items()
            for name, lines in definitions(tree).items()
            if name not in exported
            and not any(n == name and (other != m or line not in lines)
                        for other in trees for n, line in read[other])}


def test_every_module_level_name_is_read_or_exported():
    assert unread({m: (SOURCE / m).read_text() for m in MODULES}) == set()


def test_the_check_sees_a_leftover_name():
    """A helper that only calls itself, a name that only `__init__` imports
    and does not export, and, once the helper is gone, the constant that
    only the helper read."""
    helper = "def _erf(t):\n    return _erf(t - 1.0) if t < SATURATION else 1.0\n"
    a = ("SATURATION = 6.0\n" + helper
         + "def lone():\n    return 0.0\ndef shown():\n    return 1.0\n")
    sources = {"__init__.py": "from .a import lone, shown\n__all__ = ['shown']\n", "a.py": a}
    assert unread(sources) == {("a.py", "_erf"), ("a.py", "lone")}
    sources["a.py"] = a.replace(helper, "")
    assert unread(sources) == {("a.py", "SATURATION"), ("a.py", "lone")}


#: the product kernel and the padded samples it multiplies, behind the one
#: entry operators._dealiased_product
KERNEL = {"_padded_product", "padded_samples"}


def kernel_readers(sources: dict[str, str]) -> set[str]:
    """The modules, operators.py aside, that import or read a KERNEL name."""
    found = set()
    for m, text in sources.items():
        tree = ast.parse(text, m)
        if m != "operators.py" and KERNEL & ({n for n, _ in reads(tree, m)} | imported_names(tree)):
            found.add(m)
    return found


def test_only_operators_reads_the_product_kernel():
    assert kernel_readers({m: (SOURCE / m).read_text() for m in MODULES}) == set()


def test_the_check_sees_a_kernel_reader():
    sources = {"operators.py": "def padded_samples():\n    return _padded_product()\n",
               "__init__.py": "from .operators import _padded_product\n",
               "energy.py": "from . import operators\nx = operators.padded_samples\n",
               "minimize.py": "from .operators import _dealiased_product\n"}
    assert kernel_readers(sources) == {"__init__.py", "energy.py"}
