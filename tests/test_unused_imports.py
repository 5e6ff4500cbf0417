"""Every name a package module imports is used in that module, and every
name it defines is referenced somewhere in the package.

A small stand-in for a linter's unused-import and dead-code checks, on the
standard library's ``ast``.  An imported name counts as used when it
appears as a name anywhere in the module, in a string annotation, or in
``__all__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "deflated_newton"

# Imported and never used, on purpose: bench/trace_layers.py patches these
# names on obstacle1d to trace its layers, so the module must define them.
BENCH_HOOKS = {
    ("obstacle1d", "deflated_search_callables"),
    ("obstacle1d", "polish_root"),
    ("obstacle1d", "solve"),
}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module's imports bind, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            yield from (arg.annotation for arg in every if arg is not None and arg.annotation)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    # a name is used where it is read, not where it is assigned
    used = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used |= {element.value for element in node.value.elts}
    return used


MODULES = sorted(PACKAGE.glob("*.py"))

# Defined and referenced nowhere else in the package, on purpose:
# bench/trace_layers.py patches deflation.deflation_gradient to time a
# gradient layer.  It goes when the bench reads the solver's own counters
# (ROADMAP item 1b).
UNREFERENCED = {("deflation", "deflation_gradient")}


def _defined(tree: ast.Module) -> dict[str, int]:
    """Each module-level function, class and constant but the dunders, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return {name: line for name, line in names.items() if not name.startswith("__")}


def _referenced(tree: ast.Module) -> set[str]:
    """The names a module uses (see :func:`_used`), reads as an attribute or
    imports by name; the import check holds each import to a use."""
    names = _used(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def _unreferenced(trees: dict[str, ast.Module]) -> list[str]:
    referenced = set().union(*map(_referenced, trees.values()))
    return [
        f"{stem}.py:{line} {name}"
        for stem, tree in trees.items()
        for name, line in _defined(tree).items()
        if name not in referenced and (stem, name) not in UNREFERENCED
    ]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    used = _used(tree)
    unused = [
        f"{path.name}:{line} {name}"
        for name, line in sorted(_imported(tree).items(), key=lambda item: item[1])
        if name not in used and (path.stem, name) not in BENCH_HOOKS
    ]
    assert unused == []


def test_bench_hooks_are_still_imported_and_unused():
    # a hook that became used, or is no longer imported, leaves the list
    tree = ast.parse((PACKAGE / "obstacle1d.py").read_text())
    imported, used = _imported(tree), _used(tree)
    assert {("obstacle1d", name) for name in imported if name not in used} == BENCH_HOOKS


def test_the_check_finds_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Optional\n"
        "from .deflation import EUCLIDEAN, NormSpec\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return os.path.join(x)\n"
    )
    used = _used(tree)
    assert sorted(name for name in _imported(tree) if name not in used) == [
        "EUCLIDEAN", "NormSpec"
    ]


def _package_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in MODULES}


def test_package_references_every_name_it_defines():
    assert _unreferenced(_package_trees()) == []


def test_unreferenced_names_are_still_defined_and_unreferenced():
    # a name that became referenced, or is no longer defined, leaves the list
    trees = _package_trees()
    referenced = set().union(*map(_referenced, trees.values()))
    assert {
        (stem, name) for stem, tree in trees.items() for name in _defined(tree)
        if name not in referenced
    } == UNREFERENCED


def test_the_check_finds_a_name_only_its_definition_mentions():
    trees = {
        "a": ast.parse(
            "import math\n"
            "LIMIT = 2.0\n"
            "EUCLIDEAN = None\n"
            "SCALE: float = 3.0\n"
            "__all__ = ['f']\n"
            "def f(x: 'Shape') -> float:\n"
            "    return math.hypot(x, LIMIT)\n"
        ),
        "b": ast.parse(
            "from . import a\n"
            "from .a import SCALE\n"
            "class Shape: pass\n"
            "y = a.f(SCALE)\n"
        ),
    }
    assert _unreferenced(trees) == ["a.py:3 EUCLIDEAN", "b.py:4 y"]
