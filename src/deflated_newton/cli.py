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
from .obstacle1d import (
    BeamProblem,
    HermiteMesh1D,
    _discretization,
    final_elements,
    gamma_schedule,
    path_follow,
)
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
        if all(isinstance(value, float) for value in obj):
            # solution vectors and node tables: one write per list
            sep = ",\n" + pad + "  "
            out.write("[\n" + pad + "  " + sep.join(map(_format_number, obj)) + "\n" + pad + "]")
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


def _emit_document(doc: dict, path: Optional[str]) -> None:
    if path is None:
        _write_json(doc, sys.stdout)
        sys.stdout.write("\n")
    else:
        with open(path, "w") as handle:
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
                "z": list(rec.z),
                "iterations": rec.iterations,
                "residual_norm": residual_norm(rec.z),
                "discovered_at_parameter": rec.parameter,
            }
        )
    return entries


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--atol", type=float, default=None, help="absolute residual tolerance")
    parser.add_argument("--rtol", type=float, default=None, help="relative residual tolerance")
    parser.add_argument("--max-iter", type=int, default=None, help="Newton iteration cap")
    parser.add_argument("--max-roots", type=int, default=None, help="stop after this many roots")
    parser.add_argument("--out", default=None, help="write JSON here instead of stdout")
    parser.add_argument(
        "--deterministic", action="store_true",
        help="omit the timestamp so identical runs produce identical bytes",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deflated-newton",
        description="Find distinct solutions of complementarity problems by deflation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list", help="list available benchmark problems")
    list_p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    list_p.add_argument("--deterministic", action="store_true",
                        help="omit the timestamp so identical runs produce identical bytes")

    solve_p = sub.add_parser("solve", help="deflated search on one benchmark")
    solve_p.add_argument("benchmark", help="benchmark name, see `list`")
    solve_p.add_argument("--ncp", choices=["fb", "mp"], default=None,
                         help="NCP function (default: benchmark recommendation)")
    solve_p.add_argument("--p", type=float, default=None, help="deflation power")
    solve_p.add_argument("--shift", type=float, default=None, choices=[0.0, 1.0],
                         help="deflation shift")
    ls_group = solve_p.add_mutually_exclusive_group()
    ls_group.add_argument("--line-search", dest="line_search", action="store_true", default=None)
    ls_group.add_argument("--no-line-search", dest="line_search", action="store_false")
    solve_p.add_argument("--mu", type=float, default=None,
                         help="parameter value (parameterized benchmarks only)")
    _add_common_flags(solve_p)

    cont_p = sub.add_parser("continue", help="parameter continuation with deflation")
    cont_p.add_argument("benchmark", nargs="?", default="aggarwal",
                        help="parameterized benchmark (default: aggarwal)")
    cont_p.add_argument("--mu-start", type=float, default=1e-3)
    cont_p.add_argument("--mu-end", type=float, default=1.0)
    cont_p.add_argument("--mu-steps", type=int, default=50)
    cont_p.add_argument("--p", type=float, default=None, help="deflation power")
    cont_p.add_argument("--shift", type=float, default=None, choices=[0.0, 1.0])
    _add_common_flags(cont_p)

    beam_p = sub.add_parser("beam", help="obstacle-constrained beam path-following")
    beam_p.add_argument("--gamma0", type=float, default=10.0, help="initial penalty")
    beam_p.add_argument("--gamma-max", type=float, default=1e6, help="final penalty")
    beam_p.add_argument("--q", type=float, default=None, help="penalty growth ratio")
    beam_p.add_argument("--mesh", type=int, default=64, help="initial element count")
    beam_p.add_argument("--p", type=float, default=2.0, help="deflation power")
    beam_p.add_argument("--shift", type=float, default=1.0, choices=[0.0, 1.0])
    beam_p.add_argument("--load", type=float, default=10.4, help="compressive load")
    beam_p.add_argument("--alpha", type=float, default=0.4, help="channel half-width")
    beam_p.add_argument("--dump", default=None,
                        help="prefix for plain-text (x, value, slope) solution dumps")
    _add_common_flags(beam_p)
    return parser


def _solver_config(args, defaults: Optional[SolverConfig] = None) -> SolverConfig:
    cfg = defaults or SolverConfig()
    changes = {}
    if args.atol is not None:
        changes["atol"] = args.atol
    if args.rtol is not None:
        changes["rtol"] = args.rtol
    if args.max_iter is not None:
        changes["max_iter"] = args.max_iter
    return cfg.with_(**changes) if changes else cfg


def _finish(doc: dict, args, n_roots: int) -> int:
    if not args.deterministic:
        doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    _emit_document(doc, args.out)
    return EXIT_OK if n_roots > 0 else EXIT_NO_ROOTS


def _run_list(args) -> int:
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
    doc = {"problem": "registry", "benchmarks": entries}
    if not args.deterministic:
        doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    _emit_document(doc, args.out)
    return EXIT_OK


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
        config = _solver_config(args).with_(
            line_search=LINE_SEARCH_BACKTRACKING if line_search else LINE_SEARCH_NONE,
            singular_action=rec.singular_action,
        )
        if args.max_iter is None and rec.max_iter != config.max_iter:
            config = config.with_(max_iter=rec.max_iter)
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
            "rtol": config.rtol,
            "max_iter": config.max_iter,
            "mu": problem.parameter,
        },
        "roots": _root_entries(
            solutions, lambda z: float(np.linalg.norm(assemble_residual(problem, z, kind)))
        ),
        "events": _event_dicts(events),
    }
    return _finish(doc, args, len(solutions))


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
        config = _solver_config(args).with_(singular_action=rec.singular_action)
        search_config = config if args.max_iter is not None else config.with_(max_iter=rec.max_iter)
        deflation = DeflationState(power=power, shift=shift)
        plan = ContinuationPlan(
            start=args.mu_start, end=args.mu_end, steps=args.mu_steps,
            config=config, ncp=kind, power=power, shift=shift,
        )
    except ValueError as err:
        parser.error(str(err))

    events: list = []
    first = problems.build(bench, mu=args.mu_start)
    initial = deflated_search(
        first,
        guesses=[problems.initial_guess(bench)],
        ncp=kind,
        deflation=deflation,
        config=search_config,
        max_roots=args.max_roots,
        events=events,
    )
    final = initial
    if len(initial) > 0:
        try:
            final = continue_parameter(
                lambda mu: problems.build(bench, mu=mu), plan, initial, events=events
            )
        except AllBranchesLost as err:
            events.append(Event(kind="all-branches-lost", detail=str(err)))
    last = problems.build(bench, mu=args.mu_end)
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
            "rtol": config.rtol,
        },
        "roots": _root_entries(
            final, lambda z: float(np.linalg.norm(assemble_residual(last, z, kind)))
        ),
        "events": _event_dicts(events),
    }
    return _finish(doc, args, len(final))


def _run_beam(args, parser) -> int:
    try:
        problem = BeamProblem(load=args.load, half_width=args.alpha)
        config = _solver_config(args)
        # built here only so that bad values fail before any solve
        mesh = HermiteMesh1D(args.mesh, problem.length)
        gamma_schedule(args.gamma0, args.gamma_max, args.q)
        final_elements(mesh, args.gamma0, args.gamma_max)
        DeflationState(power=args.p, shift=args.shift)
    except ValueError as err:
        parser.error(str(err))
    events: list = []
    try:
        state = path_follow(
            problem,
            gamma0=args.gamma0,
            gamma_max=args.gamma_max,
            q=args.q,
            initial_elements=args.mesh,
            power=args.p,
            shift=args.shift,
            config=config,
            max_roots=args.max_roots,
            events=events,
        )
    except AllBranchesLost as err:
        parser.exit(EXIT_NO_ROOTS, f"no solutions: {err}\n")
    disc = _discretization(problem, state.mesh)
    roots = []
    for rec in state.solutions:
        table = disc.node_table(rec.z)
        roots.append(
            {
                "z": list(rec.z),
                "iterations": rec.iterations,
                "residual_norm": float(np.linalg.norm(disc.residual(state.gamma, rec.z))),
                "discovered_at_parameter": rec.parameter,
                "gamma": state.gamma,
                "active_fraction": disc.active_fraction(rec.z),
                "nodes": [list(row) for row in table],
            }
        )
    if args.dump is not None:
        for i, rec in enumerate(state.solutions):
            table = disc.node_table(rec.z)
            with open(f"{args.dump}{i}.txt", "w") as handle:
                handle.write("# x value slope\n")
                for x, value, slope in table:
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
    return _finish(doc, args, len(state.solutions))


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _run_list(args)
    if args.command == "solve":
        return _run_solve(args, parser)
    if args.command == "continue":
        return _run_continue(args, parser)
    if args.command == "beam":
        return _run_beam(args, parser)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
