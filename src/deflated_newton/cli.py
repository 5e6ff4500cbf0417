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
import sys
import time
from dataclasses import replace
from itertools import chain, compress, repeat
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
from .obstacle1d import BeamProblem, _discretization, path_follow
from .reformulate import NcpFunction, assemble_residual
from .solver import (
    LINE_SEARCH_BACKTRACKING,
    LINE_SEARCH_NONE,
    SolverConfig,
)

EXIT_OK = 0
EXIT_NO_ROOTS = 1
EXIT_USAGE = 2


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
    # RFC 8259 requires; ensure_ascii=False keeps other characters as they are
    return json.dumps(str(text), ensure_ascii=False)


# Values formatted per ``%`` call: one call per number costs a Python call
# each, one call per document holds the whole text twice in memory.
_FLOAT_CHUNK = 512


def _float_text(obj, pad: str, table: bool) -> str:
    """The items of a list of floats, or with ``table`` of float lists, as
    :func:`_write_json` lays them out at ``pad``, from one ``%`` call.

    For a finite value :func:`_format_number` gives ``%.17g``, plus ".0"
    when that shows no point and no exponent, which happens exactly for
    integral values below 1e17; those ``%.1f`` writes with the same digits.
    A non-finite value prints as "nan" or "inf", and then every value goes
    through :func:`_format_number`.
    """
    if table:
        inner = pad + "  "
        first, sep, close = "[\n" + inner + "  ", ",\n" + inner + "  ", "\n" + inner + "]"
        row_end = (close + ",\n" + pad + "  " + first,)
        values = list(chain.from_iterable(obj))
        seps = list(chain.from_iterable((sep,) * (len(row) - 1) + row_end for row in obj))
        seps[-1] = close
    else:
        first, values = "", obj
        seps = [",\n" + pad + "  "] * (len(obj) - 1) + [""]
    specs = ["%.17g"] * len(values)
    for i in compress(range(len(values)), map(float.is_integer, values)):
        if abs(values[i]) < 1e17:
            specs[i] = "%.1f"
    text = (first + "".join(chain.from_iterable(zip(specs, seps)))) % tuple(values)
    if "n" in text:
        template = first + "".join(chain.from_iterable(zip(repeat("%s"), seps)))
        text = template % tuple(map(_format_number, values))
    return text


def _write_floats(obj, out, pad: str, table: bool) -> None:
    """Write a non-empty list of floats, or with ``table`` of float lists."""
    step = max(1, _FLOAT_CHUNK // len(obj[0])) if table else _FLOAT_CHUNK
    out.write("[\n" + pad + "  ")
    for start in range(0, len(obj), step):
        if start:
            out.write(",\n" + pad + "  ")
        out.write(_float_text(obj[start : start + step], pad, table))
    out.write("\n" + pad + "]")


def _all_floats(values) -> bool:
    return all(map(isinstance, values, repeat(float)))


def _write_json(obj, out, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.write(f"{pad}  {_json_string(key)}: ")
            _write_json(value, out, indent + 1)
            out.write(",\n" if i + 1 < len(obj) else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.write("[]")
            return
        # solution vectors and node tables: one write per list or table
        if _all_floats(obj):
            _write_floats(obj, out, pad, table=False)
            return
        rows = all(map(isinstance, obj, repeat((list, tuple)))) and all(obj)
        if rows and _all_floats(chain.from_iterable(obj)):
            _write_floats(obj, out, pad, table=True)
            return
        out.write("[\n")
        for i, value in enumerate(obj):
            out.write(pad + "  ")
            _write_json(value, out, indent + 1)
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


def _open_output(path: str, option: str, parser: argparse.ArgumentParser):
    """``open(path, "w")``, or a usage error naming ``option`` if that fails."""
    try:
        return open(path, "w")
    except OSError as err:
        parser.error(f"cannot write {option} {path}: {err.strerror or err}")


def _emit_document(doc: dict, path: Optional[str], parser: argparse.ArgumentParser) -> None:
    if path is None:
        _write_json(doc, sys.stdout)
        sys.stdout.write("\n")
        return
    with _open_output(path, "--out", parser) as handle:
        _write_json(doc, handle)
        handle.write("\n")


def _event_dicts(events) -> list[dict]:
    out = []
    for ev in events:
        entry = {"kind": ev.kind}
        for key in ("step", "parameter", "branch", "status", "iterations"):
            value = getattr(ev, key)
            if value is not None:
                entry[key] = value
        if ev.detail:
            entry["detail"] = ev.detail
        out.append(entry)
    return out


def _root_entries(solutions: SolutionSet, residual_norm) -> list[dict]:
    entries = []
    for rec in solutions:
        entries.append(
            {
                "z": rec.z.tolist(),
                "iterations": rec.iterations,
                "residual_norm": residual_norm(rec.z),
                "discovered_at_parameter": rec.parameter,
            }
        )
    return entries


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--atol", type=float, default=None, help="absolute residual tolerance")
    parser.add_argument("--max-iter", type=int, default=None, help="Newton iteration cap")
    parser.add_argument("--max-roots", type=int, default=None, help="stop after this many roots")
    parser.add_argument("--out", default=None, help="write JSON here instead of stdout")
    parser.add_argument(
        "--deterministic", action="store_true",
        help="omit the timestamp so identical runs produce identical bytes",
    )


def _list_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="write JSON here instead of stdout")
    parser.add_argument("--deterministic", action="store_true",
                        help="omit the timestamp so identical runs produce identical bytes")


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
    parser.add_argument("--mesh", type=int, default=64, help="initial element count")
    parser.add_argument("--p", type=float, default=2.0, help="deflation power")
    parser.add_argument("--shift", type=float, default=1.0, choices=[0.0, 1.0])
    parser.add_argument("--load", type=float, default=10.4, help="compressive load")
    parser.add_argument("--alpha", type=float, default=0.4, help="channel half-width")
    parser.add_argument("--dump", default=None,
                        help="prefix for plain-text (x, value, slope) solution dumps")
    _add_common_flags(parser)


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI parser; with ``command``, only that subcommand gets arguments.

    Every subcommand is registered either way, so usage lines and errors
    read the same, and a command line that starts with ``command`` parses
    to the same namespace.  Adding arguments is most of the parser's cost,
    paid in every CLI process.
    """
    parser = argparse.ArgumentParser(
        prog="deflated-newton",
        description="Find distinct solutions of complementarity problems by deflation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, _) in _COMMANDS.items():
        command_parser = sub.add_parser(name, help=help_line)
        if command is None or command == name:
            add_arguments(command_parser)
    return parser


def _solver_config(args) -> SolverConfig:
    changes = {}
    if args.atol is not None:
        changes["atol"] = args.atol
    if args.max_iter is not None:
        changes["max_iter"] = args.max_iter
    return SolverConfig(**changes)


def _finish(doc: dict, args, parser, n_roots: int) -> int:
    if not args.deterministic:
        doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    _emit_document(doc, args.out, parser)
    return EXIT_OK if n_roots > 0 else EXIT_NO_ROOTS


def _run_list(args, parser) -> int:
    entries = []
    for name in problems.list_benchmarks():
        rec = problems.defaults(name)
        entries.append(
            {
                "name": name,
                "dimension": problems.dimension(name),
                "ncp": rec.ncp.value,
                "p": rec.power,
                "shift": rec.shift,
                "line_search": rec.line_search,
                "parameterized": rec.parameterized,
            }
        )
    return _finish({"problem": "registry", "benchmarks": entries}, args, parser, len(entries))


def _run_solve(args, parser) -> int:
    try:
        bench = problems.resolve(args.benchmark)
    except problems.UnknownBenchmark as err:
        parser.error(str(err))
    rec = problems.defaults(bench)
    kind = NcpFunction(args.ncp) if args.ncp else rec.ncp
    power = args.p if args.p is not None else rec.power
    shift = args.shift if args.shift is not None else rec.shift
    line_search = rec.line_search if args.line_search is None else args.line_search
    try:
        problem = problems.build(bench, mu=args.mu)
        config = replace(
            _solver_config(args),
            line_search=LINE_SEARCH_BACKTRACKING if line_search else LINE_SEARCH_NONE,
            singular_action=rec.singular_action,
        )
        if args.max_iter is None and rec.max_iter != config.max_iter:
            config = replace(config, max_iter=rec.max_iter)
        deflation = DeflationState(power=power, shift=shift)
    except ValueError as err:
        parser.error(str(err))
    events: list = []
    solutions = deflated_search(
        problem,
        guesses=[problems.initial_guess(bench)],
        ncp=kind,
        deflation=deflation,
        config=config,
        max_roots=args.max_roots,
        events=events,
    )
    doc = {
        "problem": bench.value,
        "settings": {
            "ncp": kind.value,
            "p": power,
            "shift": shift,
            "line_search": line_search,
            "atol": config.atol,
            "max_iter": config.max_iter,
            "mu": problem.parameter,
        },
        "roots": _root_entries(
            solutions, lambda z: float(np.linalg.norm(assemble_residual(problem, z, kind)))
        ),
        "events": _event_dicts(events),
    }
    return _finish(doc, args, parser, len(solutions))


def _run_continue(args, parser) -> int:
    try:
        bench = problems.resolve(args.benchmark)
    except problems.UnknownBenchmark as err:
        parser.error(str(err))
    rec = problems.defaults(bench)
    if not rec.parameterized:
        parser.error(f"{bench.value} has no continuation parameter")
    kind = rec.ncp
    power = args.p if args.p is not None else rec.power
    shift = args.shift if args.shift is not None else rec.shift
    try:
        config = replace(_solver_config(args), singular_action=rec.singular_action)
        search_config = replace(config, max_iter=rec.max_iter) if args.max_iter is None else config
        deflation = DeflationState(power=power, shift=shift)
        plan = ContinuationPlan(
            start=args.mu_start, end=args.mu_end, steps=args.mu_steps, config=config
        )
    except ValueError as err:
        parser.error(str(err))

    events: list = []
    # step 0 is the search at mu_start, with the registry's iteration cap;
    # residuals are reported where the returned set lives: mu_end after a
    # full continuation, the last step that kept a branch when all are lost
    try:
        final = continue_parameter(
            lambda mu: problems.build(bench, mu=mu), plan, [problems.initial_guess(bench)],
            ncp=kind, deflation=deflation, config=search_config, max_roots=args.max_roots,
            events=events,
        )
        mu_final = args.mu_end
    except AllBranchesLost as err:
        events.append(Event(kind="all-branches-lost", detail=str(err)))
        final, mu_final = err.solutions, err.parameter
    last = problems.build(bench, mu=mu_final)
    doc = {
        "problem": bench.value,
        "settings": {
            "ncp": kind.value,
            "p": power,
            "shift": shift,
            "mu_start": args.mu_start,
            "mu_end": args.mu_end,
            "mu_steps": args.mu_steps,
            "atol": config.atol,
        },
        "roots": _root_entries(
            final, lambda z: float(np.linalg.norm(assemble_residual(last, z, kind)))
        ),
        "events": _event_dicts(events),
    }
    return _finish(doc, args, parser, len(final))


def _run_beam(args, parser) -> int:
    events: list = []
    try:
        problem = BeamProblem(load=args.load, half_width=args.alpha)
        state = path_follow(
            problem,
            gamma0=args.gamma0,
            gamma_max=args.gamma_max,
            q=args.q,
            initial_elements=args.mesh,
            power=args.p,
            shift=args.shift,
            config=_solver_config(args),
            max_roots=args.max_roots,
            events=events,
        )
    except AllBranchesLost as err:
        parser.exit(EXIT_NO_ROOTS, f"no solutions: {err}\n")
    except ValueError as err:
        # bad beam data, schedule, mesh or deflation values, found before any
        # solve, or beam data that overflow a mesh's assembled operator
        parser.error(str(err))
    disc = _discretization(problem, state.mesh)
    roots = _root_entries(
        state.solutions, lambda z: float(np.linalg.norm(disc.residual(state.gamma, z)))
    )
    for entry, rec in zip(roots, state.solutions):
        entry.update(gamma=state.gamma, active_fraction=disc.active_fraction(rec.z),
                     nodes=disc.node_table(rec.z).tolist())
    if args.dump is not None:
        for i, entry in enumerate(roots):
            with _open_output(f"{args.dump}{i}.txt", "--dump", parser) as handle:
                handle.write("# x value slope\n")
                for x, value, slope in entry["nodes"]:
                    handle.write(f"{x:.17g} {value:.17g} {slope:.17g}\n")
    doc = {
        "problem": "beam",
        "settings": {
            "gamma0": args.gamma0,
            "gamma_max": args.gamma_max,
            "q": args.q,
            "mesh": args.mesh,
            "final_elements": state.mesh.elements,
            "p": args.p,
            "shift": args.shift,
            "load": args.load,
            "alpha": args.alpha,
        },
        "roots": roots,
        "events": _event_dicts(events),
    }
    return _finish(doc, args, parser, len(state.solutions))


# command -> (help line, function adding its arguments, function running it)
_COMMANDS = {
    "list": ("list available benchmark problems", _list_arguments, _run_list),
    "solve": ("deflated search on one benchmark", _solve_arguments, _run_solve),
    "continue": ("parameter continuation with deflation", _continue_arguments, _run_continue),
    "beam": ("obstacle-constrained beam path-following", _beam_arguments, _run_beam),
}


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # --help, no command and an unknown command get the full parser
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    if getattr(args, "max_roots", None) is not None and args.max_roots < 1:
        parser.error(f"--max-roots must be at least 1, got {args.max_roots}")
    _, _, run = _COMMANDS[args.command]
    return run(args, parser)


if __name__ == "__main__":
    sys.exit(main())
