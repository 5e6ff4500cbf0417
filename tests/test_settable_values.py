"""The values a caller of the package can set are pinned, by name.

A settable value is a parameter with a default (of a function, method or
lambda) or a dataclass field that has a default and is an ``__init__``
argument; required parameters and fields are not counted.  Each is one more
setting to document, validate and keep consistent with the others, so the
set only moves on purpose: a change that moves it updates
:data:`SETTABLE_VALUES` and gives the reason in CHANGES.md.  Each is named
``module.Owner.name``, so a failure lists what was added and what was
removed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "deflated_newton"

SETTABLE_VALUES = {
    "cli._build_parser.command",
    "cli.main.argv",
    "continuation.ContinuationPlan.config",
    "continuation.Event.branch",
    "continuation.Event.detail",
    "continuation.Event.iterations",
    "continuation.Event.parameter",
    "continuation.Event.status",
    "continuation.Event.step",
    "continuation.SolutionSet.__init__.deflation",
    "continuation.continue_parameter.config",
    "continuation.continue_parameter.deflation",
    "continuation.continue_parameter.events",
    "continuation.continue_parameter.max_roots",
    "continuation.continue_parameter.ncp",
    "continuation.deflated_search.config",
    "continuation.deflated_search.deflation",
    "continuation.deflated_search.events",
    "continuation.deflated_search.max_roots",
    "continuation.deflated_search.ncp",
    "continuation.deflated_search_callables.events",
    "continuation.deflated_search_callables.max_roots",
    "continuation.deflated_search_callables.parameter",
    "continuation.deflated_search_callables.step",
    "deflation.DeflationState.add_root.distinct_from",
    "deflation.DeflationState.norm",
    "deflation.DeflationState.power",
    "deflation.DeflationState.roots",
    "deflation.DeflationState.shift",
    "deflation.NormSpec.weight",
    "linalg.LuFactorization.banded",
    "linalg.LuFactorization.hbw",
    "obstacle1d.BeamDiscretization._add_blocks.elements",
    "obstacle1d.BeamProblem.bending_stiffness",
    "obstacle1d.BeamProblem.half_width",
    "obstacle1d.BeamProblem.load",
    "obstacle1d.BeamProblem.weight",
    "obstacle1d.HermiteMesh1D.length",
    "obstacle1d.beam_solver_config.base",
    "obstacle1d.gamma_schedule.q",
    "obstacle1d.path_follow.config",
    "obstacle1d.path_follow.deflation",
    "obstacle1d.path_follow.events",
    "obstacle1d.path_follow.gamma0",
    "obstacle1d.path_follow.gamma_max",
    "obstacle1d.path_follow.guesses",
    "obstacle1d.path_follow.initial_mesh",
    "obstacle1d.path_follow.max_roots",
    "obstacle1d.path_follow.q",
    "problems.Benchmark.config",
    "problems.Benchmark.lower",
    "problems.Benchmark.ncp",
    "problems.Benchmark.parameterized",
    "problems.Benchmark.power",
    "problems.build.mu",
    "reformulate.MixedComplementarityProblem.derivative",
    "reformulate.MixedComplementarityProblem.lower",
    "reformulate.MixedComplementarityProblem.parameter",
    "reformulate.MixedComplementarityProblem.upper",
    "reformulate._forward_difference_jacobian.base",
    "reformulate.assemble_newton_derivative.kind",
    "reformulate.assemble_newton_derivative.value",
    "reformulate.assemble_residual.kind",
    "reformulate.assemble_residual.value",
    "reformulate.jacobian.value",
    "solver.SolveResult.residual_history",
    "solver.SolverConfig.atol",
    "solver.SolverConfig.divergence_tol",
    "solver.SolverConfig.least_squares_fallback",
    "solver.SolverConfig.line_search",
    "solver.SolverConfig.max_iter",
    "solver.SolverConfig.stall_window",
    "solver.solve.config",
}


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


def settable_names(tree: ast.Module, module: str = "") -> list[str]:
    """``module.Owner.name`` of each settable value in ``tree``, where
    ``Owner`` is the dotted path of the classes, functions and lambdas
    (``<lambda>``) that define it, in source order."""
    names = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                path = f"{owner}.{getattr(child, 'name', '<lambda>')}"
                args = child.args
                positional = args.posonlyargs + args.args
                with_default = positional[len(positional) - len(args.defaults):]
                names.extend(f"{path}.{arg.arg}" for arg in with_default)
                names.extend(
                    f"{path}.{arg.arg}"
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None
                )
            elif isinstance(child, ast.ClassDef):
                path = f"{owner}.{child.name}"
                if _is_dataclass(child):
                    names.extend(
                        f"{path}.{s.target.id}"
                        for s in child.body
                        if isinstance(s, ast.AnnAssign)
                        and s.value is not None
                        and not _not_in_init(s.value)
                    )
            else:
                path = owner
            visit(child, path)

    visit(tree, module)
    return names


def settable_values(tree: ast.Module) -> int:
    return len(settable_names(tree))


def package_settable_names() -> list[str]:
    return [
        name
        for path in sorted(PACKAGE.glob("*.py"))
        for name in settable_names(ast.parse(path.read_text(), str(path)), path.stem)
    ]


def test_the_package_has_the_pinned_number_of_settable_values():
    names = package_settable_names()
    added, removed = set(names) - SETTABLE_VALUES, SETTABLE_VALUES - set(names)
    assert not added and not removed, f"added {sorted(added)}, removed {sorted(removed)}"
    assert len(names) == len(SETTABLE_VALUES)  # and no name twice


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


def test_each_value_is_named_by_its_owners():
    tree = ast.parse(
        "def f(a, b=1, *, c=2):\n"
        "    return lambda y=3: y\n"
        "@dataclass\n"
        "class A:\n"
        "    m: int = 1\n"
        "    def g(self, z=None): pass\n"
    )
    assert settable_names(tree, "mod") == [
        "mod.f.b", "mod.f.c", "mod.f.<lambda>.y", "mod.A.m", "mod.A.g.z"
    ]
