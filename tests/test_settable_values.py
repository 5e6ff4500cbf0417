"""The number of values a caller of the package can set is pinned.

A settable value is a parameter with a default (of a function, method or
lambda) or a dataclass field that has a default and is an ``__init__``
argument; required parameters and fields are not counted.  Each is one more
setting to document, validate and keep consistent with the others, so the
count only moves on purpose: a change that moves it updates
:data:`SETTABLE_VALUES` and gives the reason in CHANGES.md.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "deflated_newton"

SETTABLE_VALUES = 76


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _not_in_init(value: ast.expr) -> bool:
    """Whether ``value`` is a ``field(..., init=False, ...)`` call."""
    return (
        isinstance(value, ast.Call)
        and getattr(value.func, "id", None) == "field"
        and any(
            kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
            for kw in value.keywords
        )
    )


def settable_values(tree: ast.Module) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(
                isinstance(s, ast.AnnAssign) and s.value is not None and not _not_in_init(s.value)
                for s in node.body
            )
    return count


def test_the_package_has_the_pinned_number_of_settable_values():
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))]
    assert sum(map(settable_values, trees)) == SETTABLE_VALUES


def test_the_count_takes_defaults_and_init_fields_only():
    tree = ast.parse(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *args, c, d=2, **kw):\n"
        "    return lambda x, y=3: x\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    n: int\n"
        "    m: int = 1\n"
        "    k: list = field(default_factory=list)\n"
        "    s: int = field(init=False, repr=False)\n"
        "    def g(self, z=None): pass\n"
        "class B:\n"
        "    t: int = 1\n"
    )
    # b, d, y; m, k; z
    assert settable_values(tree) == 6
