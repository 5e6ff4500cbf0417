"""Command-line front end.

Commands: ``list`` the benchmark registry, ``solve`` a benchmark with a
deflated search, ``continue`` the parameterized game across its parameter
range, and ``beam`` for the obstacle-constrained beam path-following.
Results are emitted as JSON with numbers at 17 significant digits so output
is reproducible byte for byte under ``--deterministic``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from itertools import chain, compress, repeat
from operator import is_
from typing import Optional

import numpy as np

from . import problems
from .continuation import (
    AllBranchesLost,
    ContinuationPlan,
    Event,
    SolutionSet,
    continue_parameter,
    deflated_search,
)
from .deflation import DeflationState
from .obstacle1d import BeamProblem, HermiteMesh1D, _discretization, path_follow
from .reformulate import NcpFunction, assemble_residual
from .solver import SolverConfig

EXIT_OK = 0
EXIT_NO_ROOTS = 1


def _format_number(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    out = format(float(x), ".17g")
    # keep integral floats recognizably floating point
    if "e" not in out and "." not in out and "n" not in out:
        out += ".0"
    return out


def _json_string(text) -> str:
    # json.dumps escapes quotes, backslashes and control characters as
    # RFC 8259 requires; ensure_ascii=False keeps other characters as they
    # are, so printable ASCII without either of the two is only quoted
    text = str(text)
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    return json.dumps(text, ensure_ascii=False)


def _format_floats(values: list) -> list[str]:
    """Each float of ``values`` as :func:`_format_number` writes it, from one
    ``%`` call.

    For a finite value :func:`_format_number` gives ``%.17g``, plus ".0"
    when that shows no point and no exponent, which happens exactly for
    integral values below 1e17; those ``%.1f`` writes with the same digits.
    A non-finite value prints as "nan" or "inf", and then every value goes
    through :func:`_format_number`.  No number holds a comma.
    """
    specs = ["%.17g"] * len(values)
    for i in compress(range(len(values)), map(float.is_integer, values)):
        if abs(values[i]) < 1e17:
            specs[i] = "%.1f"
    text = ",".join(specs) % tuple(values)
    if "n" in text:
        return list(map(_format_number, values))
    return text.split(",")


def _float_text(obj, pad: str, table: bool, texts: dict) -> str:
    """A non-empty list of floats, or with ``table`` of float lists, as
    :func:`_write_json` lays it out at ``pad``.

    ``texts`` maps each float value formatted so far in the document to its
    text; the values not in it yet are formatted by one
    :func:`_format_floats` call and added.  Equal floats print alike, except
    0.0 and -0.0, so zeros are never kept; a NaN, equal to no other float,
    is found only as the same object.
    """
    inner, end = pad + "  ", "\n" + pad + "]"
    if table:
        row, sep, close = "[\n" + inner + "  ", ",\n" + inner + "  ", "\n" + inner + "]"
        first = "[\n" + inner + row
        row_end = (close + ",\n" + inner + row,)
        values = list(chain.from_iterable(obj))
        seps = list(chain.from_iterable((sep,) * (len(r) - 1) + row_end for r in obj))
        seps[-1] = close + end
    else:
        first, values = "[\n" + inner, obj
        seps = [",\n" + inner] * (len(obj) - 1) + [end]
    strs = list(map(texts.get, values))
    if None in strs:
        fresh = list(compress(values, map(is_, strs, repeat(None))))
        new = _format_floats(fresh)
        texts.update(zip(fresh, new))
        texts.pop(0.0, None)  # 0.0 and -0.0 are one key, but two texts
        if len(fresh) == len(values):
            strs = new
        else:
            new = iter(new)
            strs = [next(new) if text is None else text for text in strs]
    return first + "".join(chain.from_iterable(zip(strs, seps)))


def _all_floats(values) -> bool:
    return all(map(isinstance, values, repeat(float)))


def _write_json(obj, out) -> None:
    """Write ``obj`` to ``out`` as JSON; a nonzero float that the document's
    float lists hold more than once is formatted once."""
    _write_value(obj, out, 0, {})


def _write_value(obj, out, indent: int, texts: dict) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.write(f"{pad}  {_json_string(key)}: ")
            _write_value(value, out, indent + 1, texts)
            out.write(",\n" if i + 1 < len(obj) else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.write("[]")
            return
        # solution vectors and node tables: one write per list or table
        if _all_floats(obj):
            out.write(_float_text(obj, pad, table=False, texts=texts))
            return
        rows = all(map(isinstance, obj, repeat((list, tuple)))) and all(obj)
        if rows and _all_floats(chain.from_iterable(obj)):
            out.write(_float_text(obj, pad, table=True, texts=texts))
            return
        out.write("[\n")
        for i, value in enumerate(obj):
            out.write(pad + "  ")
            _write_value(value, out, indent + 1, texts)
            out.write(",\n" if i + 1 < len(obj) else "\n")
        out.write(pad + "]")
    elif isinstance(obj, str):
        out.write(_json_string(obj))
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif obj is None:
        out.write("null")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    else:
        out.write(_format_number(float(obj)))


@contextmanager
def _output(path: Optional[str], option: str):
    """``open(path, "w")``, or stdout when ``path`` is None; a failed open,
    write, flush or close is a ValueError naming ``option``."""
    try:
        with nullcontext(sys.stdout) if path is None else open(path, "w") as handle:
            yield handle
            handle.flush()
    except OSError as err:
        if path is None:
            # the interpreter flushes stdout once more as it exits: let that
            # write go nowhere instead of failing with a second error
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        where = option if path is None else f"{option} {path}"
        raise ValueError(f"cannot write {where}: {err.strerror or err}") from None


def _document(problem: str, settings: dict, solutions: SolutionSet, residual_norm, events) -> dict:
    """The JSON document of a run: each root with ``residual_norm`` of its ``z``,
    and each event's fields but ``None`` and an empty detail, in field order."""
    return {
        "problem": problem,
        "settings": settings,
        "roots": [
            {
                "z": rec.z.tolist(),
                "iterations": rec.iterations,
                "residual_norm": residual_norm(rec.z),
                "discovered_at_parameter": rec.parameter,
            }
            for rec in solutions
        ],
        "events": [
            {key: value for key, value in vars(ev).items() if value is not None and value != ""}
            for ev in events
        ],
    }


def _list_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="write JSON here instead of stdout")
    parser.add_argument("--deterministic", action="store_true",
                        help="omit the timestamp so identical runs produce identical bytes")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--atol", type=float, default=None, help="absolute residual tolerance")
    parser.add_argument("--max-iter", type=int, default=None, help="Newton iteration cap")
    parser.add_argument("--max-roots", type=int, default=None, help="stop after this many roots")
    _list_arguments(parser)


def _solve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("benchmark", help="benchmark name, see `list`")
    parser.add_argument("--ncp", choices=["fb", "mp"], default=None,
                        help="NCP function (default: benchmark recommendation)")
    parser.add_argument("--p", type=float, default=None, help="deflation power")
    parser.add_argument("--shift", type=float, default=None, choices=[0.0, 1.0],
                        help="deflation shift")
    ls_group = parser.add_mutually_exclusive_group()
    ls_group.add_argument("--line-search", dest="line_search", action="store_true", default=None)
    ls_group.add_argument("--no-line-search", dest="line_search", action="store_false")
    parser.add_argument("--mu", type=float, default=None,
                        help="parameter value (parameterized benchmarks only)")
    _add_common_flags(parser)


def _continue_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("benchmark", nargs="?", default="aggarwal",
                        help="parameterized benchmark (default: aggarwal)")
    parser.add_argument("--mu-start", type=float, default=1e-3)
    parser.add_argument("--mu-end", type=float, default=1.0)
    parser.add_argument("--mu-steps", type=int, default=50)
    parser.add_argument("--p", type=float, default=None, help="deflation power")
    parser.add_argument("--shift", type=float, default=None, choices=[0.0, 1.0])
    _add_common_flags(parser)


def _beam_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gamma0", type=float, default=10.0, help="initial penalty")
    parser.add_argument("--gamma-max", type=float, default=1e6, help="final penalty")
    parser.add_argument("--q", type=float, default=None, help="penalty growth ratio")
    parser.add_argument("--mesh", type=int, default=64,
                        help="initial element count, the mesh of every search")
    parser.add_argument("--p", type=float, default=2.0, help="deflation power")
    parser.add_argument("--shift", type=float, default=1.0, choices=[0.0, 1.0])
    parser.add_argument("--load", type=float, default=10.4, help="compressive load")
    parser.add_argument("--alpha", type=float, default=0.4, help="channel half-width")
    parser.add_argument("--dump", default=None,
                        help="prefix for plain-text (x, value, slope) solution dumps")
    _add_common_flags(parser)


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI parser; with ``command``, only that subcommand is registered.

    The trimmed parser's metavar then lists all four subcommands, as the
    full parser's usage line does, so usage lines and errors read the same,
    and a command line that starts with ``command`` parses to the same
    namespace.  Building subparsers is most of the parser's cost, paid in
    every CLI process.
    """
    parser = argparse.ArgumentParser(
        prog="deflated-newton",
        description="Find distinct solutions of complementarity problems by deflation.",
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_line, add_arguments, _) in _COMMANDS.items():
        if command is None or command == name:
            add_arguments(sub.add_parser(name, help=help_line))
    return parser


def _given(**values) -> dict:
    """The keyword arguments that are not None: the flags a command line gives."""
    return {name: value for name, value in values.items() if value is not None}


def _registry_settings(args):
    """Registry record and deflation of a `solve` or `continue` command line:
    --p over the registry's power, --shift over the library's default."""
    rec = problems.get(args.benchmark)
    deflation = replace(DeflationState(power=rec.power), **_given(power=args.p, shift=args.shift))
    return rec, deflation


def _finish(doc: dict, args, n_roots: int) -> int:
    """Write ``doc`` to ``--out`` or stdout; the exit code for ``n_roots`` roots."""
    if not args.deterministic:
        doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    with _output(args.out, "stdout" if args.out is None else "--out") as handle:
        _write_json(doc, handle)
        handle.write("\n")
    return EXIT_OK if n_roots > 0 else EXIT_NO_ROOTS


def _run_list(args) -> int:
    entries = [
        {
            "name": rec.name,
            "dimension": rec.guess.size,
            "ncp": rec.ncp.value,
            "p": rec.power,
            "shift": DeflationState().shift,
            "line_search": rec.config.line_search,
            "parameterized": rec.parameterized,
        }
        for rec in problems.REGISTRY.values()
    ]
    return _finish({"problem": "registry", "benchmarks": entries}, args, len(entries))


def _run_solve(args) -> int:
    rec, deflation = _registry_settings(args)
    kind = NcpFunction(args.ncp) if args.ncp else rec.ncp
    config = replace(rec.config, **_given(atol=args.atol, max_iter=args.max_iter,
                                          line_search=args.line_search))
    problem = problems.build(rec.name, mu=args.mu)
    events: list = []
    solutions = deflated_search(
        problem,
        guesses=[rec.guess],
        ncp=kind,
        deflation=deflation,
        config=config,
        max_roots=args.max_roots,
        events=events,
    )
    settings = {
        "ncp": kind.value,
        "p": deflation.power,
        "shift": deflation.shift,
        "line_search": config.line_search,
        "atol": config.atol,
        "max_iter": config.max_iter,
        "mu": problem.parameter,
    }
    doc = _document(
        rec.name, settings, solutions,
        lambda z: float(np.linalg.norm(assemble_residual(problem, z, kind))), events,
    )
    return _finish(doc, args, len(solutions))


def _run_continue(args) -> int:
    rec, deflation = _registry_settings(args)
    if not rec.parameterized:
        raise ValueError(f"{rec.name} has no continuation parameter")
    flags = _given(atol=args.atol, max_iter=args.max_iter)
    # later steps solve with the solver defaults and the registry's fallback
    plan = ContinuationPlan(args.mu_start, args.mu_end, args.mu_steps, SolverConfig(
        least_squares_fallback=rec.config.least_squares_fallback, **flags))

    events: list = []
    # step 0 is the search at mu_start, with the registry's settings;
    # residuals are reported where the returned set lives: mu_end after a
    # full continuation, the last step that kept a branch when all are lost
    try:
        final = continue_parameter(
            lambda mu: problems.build(rec.name, mu=mu), plan, [rec.guess],
            ncp=rec.ncp, deflation=deflation, config=replace(rec.config, **flags),
            max_roots=args.max_roots, events=events,
        )
        mu_final = args.mu_end
    except AllBranchesLost as err:
        events.append(Event(kind="all-branches-lost", detail=str(err)))
        final, mu_final = err.solutions, err.parameter
    last = problems.build(rec.name, mu=mu_final)
    settings = {
        "ncp": rec.ncp.value,
        "p": deflation.power,
        "shift": deflation.shift,
        "mu_start": args.mu_start,
        "mu_end": args.mu_end,
        "mu_steps": args.mu_steps,
        "atol": plan.config.atol,
    }
    doc = _document(
        rec.name, settings, final,
        lambda z: float(np.linalg.norm(assemble_residual(last, z, rec.ncp))), events,
    )
    return _finish(doc, args, len(final))


def _run_beam(args) -> int:
    events: list = []
    try:
        problem = BeamProblem(load=args.load, half_width=args.alpha)
        state = path_follow(
            problem,
            gamma0=args.gamma0,
            gamma_max=args.gamma_max,
            q=args.q,
            initial_mesh=HermiteMesh1D(args.mesh),
            deflation=DeflationState(power=args.p, shift=args.shift),
            config=SolverConfig(**_given(atol=args.atol, max_iter=args.max_iter)),
            max_roots=args.max_roots,
            events=events,
        )
    except AllBranchesLost as err:
        print(f"no solutions: {err}", file=sys.stderr)
        raise SystemExit(EXIT_NO_ROOTS) from None
    disc = _discretization(problem, state.mesh)
    settings = {
        "gamma0": args.gamma0,
        "gamma_max": args.gamma_max,
        "q": args.q,
        "mesh": args.mesh,
        "final_elements": state.mesh.elements,
        "p": args.p,
        "shift": args.shift,
        "load": args.load,
        "alpha": args.alpha,
    }
    doc = _document(
        "beam", settings, state.solutions,
        lambda z: float(np.linalg.norm(disc.residual(state.gamma, z)[0])), events,
    )
    # node tables from the float objects of each "z" and one shared x
    # column, so the writer formats each of them once
    xs = state.mesh.nodes().tolist()
    for entry, rec in zip(doc["roots"], state.solutions):
        values, slopes = state.mesh.node_columns(entry["z"])
        entry.update(gamma=state.gamma, active_fraction=disc.active_fraction(rec.z),
                     nodes=list(map(list, zip(xs, values, slopes))))
    if args.dump is not None:
        for i, entry in enumerate(doc["roots"]):
            with _output(f"{args.dump}{i}.txt", "--dump") as handle:
                rows = entry["nodes"]
                text = "%.17g %.17g %.17g\n" * len(rows) % tuple(chain.from_iterable(rows))
                handle.write("# x value slope\n" + text)
    return _finish(doc, args, len(state.solutions))


# command -> (help line, function adding its arguments, function running it)
_COMMANDS = {
    "list": ("list available benchmark problems", _list_arguments, _run_list),
    "solve": ("deflated search on one benchmark", _solve_arguments, _run_solve),
    "continue": ("parameter continuation with deflation", _continue_arguments, _run_continue),
    "beam": ("obstacle-constrained beam path-following", _beam_arguments, _run_beam),
}


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command line and return its exit code; a ValueError raised while
    it runs (a refused value, a failed write) ends it as a usage error, exit 2."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # --help, no command and an unknown command get the full parser
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    _, _, run = _COMMANDS[args.command]
    try:
        return run(args)
    except ValueError as err:
        parser.error(str(err))


if __name__ == "__main__":
    sys.exit(main())
