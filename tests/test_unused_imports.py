"""Every name a package module imports is used in that module.

A small stand-in for a linter's unused-import check, on the standard
library's ``ast``.  A name counts as used when it appears as a name
anywhere in the module, in a string annotation, or in ``__all__``.
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
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
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
