"""Per-layer spans recorded from outside the package.

For the duration of a ``patched`` block every traced name is replaced, at
the place its caller looks it up, by a function that records one span per
call: the layer name, the call count, the total time and the self time.
Self time is the total minus the time of traced calls made inside it, so
spans nest through a stack and each second is owned by exactly one layer.
The package itself is not modified: names are set on its modules and
classes and restored on exit, also when the traced code raises.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    """Span totals and counts of one traced pass."""

    def __init__(self):
        self.stack: list[list] = []  # [layer, seconds of traced children]
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.solve_by_size: defaultdict = defaultdict(lambda: [0.0, 0])  # n -> [s, iters]

    def wrap(self, layer, fn, after=None):
        """Return ``fn`` recording a span named ``layer`` per call.

        ``layer`` is a string or a function of the positional arguments;
        ``after(result, args, seconds, parent)`` sees each returned value.
        """
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(args)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(result, args, elapsed, parent)
            return result

        return traced

    def wrap_solve(self, solve):
        """Trace ``solver.solve`` and count the residual evaluations it makes."""

        def counted_solve(residual, *rest, **kwargs):
            def counted(z):
                self.counts["solver.residual_evals"] += 1
                return residual(z)

            return solve(counted, *rest, **kwargs)

        return self.wrap("solver.solve", counted_solve, after=self._after_solve)

    def _after_solve(self, result, args, seconds, parent):
        iters = result.iterations
        self.counts["solver.solves"] += 1
        self.counts["solver.iters"] += iters
        self.counts[f"solver.exit.{result.status.value}"] += 1
        if not result.converged:
            self.counts["solver.iters_failed"] += iters
        if parent == "continuation.polish":
            self.counts["continuation.polish.iters"] += iters
        elif parent == "continuation.deflated_search":
            self.counts["continuation.deflated_solves"] += 1
            self.counts["continuation.deflated_iters"] += iters
        size = self.solve_by_size[len(args[2])]
        size[0] += seconds
        size[1] += iters

    def _after_lu(self, result, args, seconds, parent):
        self.counts["linalg.lu_singular"] += int(result.singular)

    def wrap_build(self, build):
        """Trace ``problems.build`` by wrapping F and its Jacobian on the result."""

        @functools.wraps(build)
        def traced_build(*args, **kwargs):
            problem = build(*args, **kwargs)
            jac = problem.derivative
            return dataclasses.replace(
                problem,
                residual=self.wrap("problems.F", problem.residual),
                derivative=None if jac is None else self.wrap("problems.jac", jac),
            )

        return traced_build


def targets(tracer: Tracer, pkg) -> list[tuple]:
    """``(owner, attribute, replacement factory)`` for every traced name.

    ``pkg`` maps module names to the imported modules of the package.
    """
    cli, cont, obst, solver = pkg["cli"], pkg["continuation"], pkg["obstacle1d"], pkg["solver"]
    linalg, deflation, problems = pkg["linalg"], pkg["deflation"], pkg["problems"]

    def span(layer, after=None):
        return lambda fn: tracer.wrap(layer, fn, after)

    def lu_layer(args):
        banded = isinstance(args[0], linalg.BandedMatrix)
        return "linalg.lu_factor.banded" if banded else "linalg.lu_factor.dense"

    return [
        (cli, "deflated_search", span("cli.deflated_search")),
        (cli, "continue_parameter", span("cli.continue_parameter")),
        (cli, "path_follow", span("cli.path_follow")),
        (cli, "assemble_residual", span("reformulate.residual")),
        (cli, "_discretization", span("obstacle1d.discretization")),
        (problems, "build", tracer.wrap_build),
        (cont, "deflated_search_callables", span("continuation.deflated_search")),
        (obst, "deflated_search_callables", span("continuation.deflated_search")),
        (cont, "polish_root", span("continuation.polish")),
        (obst, "polish_root", span("continuation.polish")),
        (cont, "solve", tracer.wrap_solve),
        (obst, "solve", tracer.wrap_solve),
        (cont, "assemble_residual", span("reformulate.residual")),
        (cont, "assemble_newton_derivative", span("reformulate.derivative")),
        (solver, "lu_factor", span(lu_layer, tracer._after_lu)),
        (solver, "solve_rank_one_update", span("linalg.rank_one_solve")),
        (linalg.LuFactorization, "solve", span("linalg.lu_solve")),
        (linalg.BandedMatrix, "matvec", span("linalg.banded_matvec")),
        (deflation, "deflation_factor", span("deflation.factor")),
        (deflation, "deflation_gradient", span("deflation.gradient")),
        (deflation.NormSpec, "norm", span("deflation.norm")),
        (obst.BeamDiscretization, "residual", span("obstacle1d.residual")),
        (obst.BeamDiscretization, "derivative", span("obstacle1d.derivative")),
        (obst, "prolong", span("obstacle1d.prolong")),
        (obst, "_discretization", span("obstacle1d.discretization")),
    ]


@contextmanager
def patched(replacements: list[tuple], missing: list):
    """Set each ``owner.attr`` to ``factory(original)``, restoring all on exit.

    ``replacements`` holds ``(owner, attribute, factory)`` as from
    :func:`targets`.  A name the package no longer defines is skipped and
    appended to ``missing``, so its layer reads zero instead of the run
    failing.
    """
    saved = []
    try:
        for owner, attr, factory in replacements:
            original = vars(owner).get(attr)
            if original is None:
                missing.append(f"{owner.__name__}.{attr}")
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
