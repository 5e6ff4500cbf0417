"""Workloads, one pass of each through the CLI, and the root-set checker.

A pass runs the workload's CLI commands back to back in this process
through ``deflated_newton.cli.main`` with ``--deterministic --out FILE``,
reads every JSON document back and checks it against the stored reference
roots.  Only the time spent inside ``main`` is timed.
"""

from __future__ import annotations

import json
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# The paper's fixed problems; see README.md for why each workload is here.
WORKLOADS: dict[str, list[list[str]]] = {
    "mcp-search": [["solve", "kojima-shindoh"], ["solve", "gould"], ["solve", "gerard"]],
    "aggarwal-continuation": [["continue", "aggarwal"]],
    "beam-path": [["beam"]],
}

# Same radius as the package's SolutionSet: tol * (1 + ||z||).
DISTINCTNESS_TOL = 1e-6
BEAM_FINAL_ELEMENTS = 1024


class CountDrift(Exception):
    """A count that must repeat exactly differed between passes."""


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


@dataclass
class PassResult:
    """Outcome of one pass: timing, the documents read back and the verdict."""

    seconds: float
    codes: list
    docs: list
    json_bytes: int
    problems: list[str] = field(default_factory=list)
    roots: int = 0
    events: Counter = field(default_factory=Counter)

    @property
    def ok(self) -> bool:
        return not self.problems


def clear_caches(pkg) -> None:
    """Empty every functools cache of the package, as in a fresh CLI process."""
    for module in pkg.values():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def call_main(main, argv: list[str]):
    """Exit code of ``main(argv)``; a raised exception reads as ``"exception"``."""
    try:
        return main(argv)
    except SystemExit as stop:
        return stop.code
    except Exception:  # a crash is one failed pass, not the end of the run
        traceback.print_exc()
        return "exception"


class QuietClock:
    """Fastest time of every step of a pass, taken over all passes of a run.

    Each command is cut into segments at every call of the wrapped function
    (the LU factorization that starts a Newton step).  A pass does the same
    steps in the same order every time, so segment ``j`` of a command is the
    same work in every pass, and ``total()`` sums the fastest time each
    segment took in any pass: the time of one pass on a host that never
    slowed it down.  On a shared host whose speed switches within a second,
    this repeats far better than any statistic of whole-pass times.
    """

    def __init__(self):
        self.marks: list[float] = []
        self.fastest: dict[str, np.ndarray] = {}

    def marking(self, fn):
        marks = self.marks

        def marked(*args, **kwargs):
            marks.append(time.perf_counter())
            return fn(*args, **kwargs)

        return marked

    def add(self, key: str, start: float, end: float) -> None:
        """Close one command that ran from ``start`` to ``end``."""
        segments = np.diff(np.array([start, *self.marks, end]))
        self.marks.clear()
        best = self.fastest.setdefault(key, segments)
        if best.shape != segments.shape:
            raise CountDrift(f"{key}: {segments.size} segments, earlier passes had {best.size}")
        np.minimum(best, segments, out=best)

    def total(self) -> float:
        return float(sum(best.sum() for best in self.fastest.values()))


def run_pass(main, commands: list[list[str]], out_dir: Path, clock=None) -> PassResult:
    """Run ``commands`` through ``main`` and read back what each wrote."""
    seconds, codes, docs, size = 0.0, [], [], 0
    for i, argv in enumerate(commands):
        path = out_dir / f"out{i}.json"
        if path.exists():
            path.unlink()
        start = time.perf_counter()
        code = call_main(main, argv + ["--deterministic", "--out", str(path)])
        end = time.perf_counter()
        seconds += end - start
        if clock is not None:
            clock.add(command_key(argv), start, end)
        codes.append(code)
        if path.exists():
            size += path.stat().st_size
            try:
                docs.append(json.loads(path.read_text()))
            except ValueError:
                docs.append(None)
        else:
            docs.append(None)
    return PassResult(seconds, codes, docs, size)


class Checker:
    """Reference roots and the norms and tolerances each command is checked in."""

    def __init__(self, pkg, reference: dict):
        self.reference = reference
        obst = pkg["obstacle1d"]
        disc = obst.BeamDiscretization(
            obst.BeamProblem(), obst.HermiteMesh1D(BEAM_FINAL_ELEMENTS)
        )
        self.beam_norm = pkg["deflation"].NormSpec(disc.mass)  # the L2 norm the beam deflates in
        self.beam_atol = obst.beam_solver_config(disc).atol

    def norm(self, key: str, v: np.ndarray) -> float:
        return self.beam_norm.norm(v) if key == "beam" else float(np.linalg.norm(v))

    def check(self, commands: list[list[str]], result: PassResult) -> None:
        """Fill ``result.problems``, ``roots`` and ``events``, then drop the documents.

        Dropping them keeps the peak memory of a run independent of its
        number of passes.
        """
        for argv, code, doc in zip(commands, result.codes, result.docs):
            key = command_key(argv)
            result.roots += self._check_command(key, code, doc, result.problems)
        result.events = event_counts(result.docs)
        result.docs = []

    def _check_command(self, key: str, code, doc, problems: list[str]) -> int:
        if code != 0:
            problems.append(f"{key}: exit code {code!r}")
            return 0
        if doc is None:
            problems.append(f"{key}: no JSON document")
            return 0
        ref = [np.array(z) for z in self.reference[key]["roots"]]
        roots = doc["roots"]
        before = len(problems)
        if len(roots) != len(ref):
            problems.append(f"{key}: {len(roots)} roots, reference has {len(ref)}")
        if key == "beam":
            final = doc["settings"]["final_elements"]
            inactive = sum(1 for r in roots if r["active_fraction"] == 0.0)
            if final != BEAM_FINAL_ELEMENTS:
                problems.append(f"{key}: final mesh {final} elements, expected 1024")
                return 0
            if inactive != 1:
                problems.append(f"{key}: {inactive} inactive roots, expected exactly 1")
        atol = self.beam_atol if key == "beam" else doc["settings"]["atol"]
        unmatched = list(range(len(ref)))
        for i, root in enumerate(roots):
            if not root["residual_norm"] <= atol:
                residual = root["residual_norm"]
                problems.append(f"{key}: root {i} residual {residual!r} > atol {atol!r}")
            z = np.array(root["z"], dtype=float)
            match = next(
                (
                    j for j in unmatched
                    if z.shape == ref[j].shape
                    and self.norm(key, z - ref[j])
                    <= DISTINCTNESS_TOL * (1.0 + self.norm(key, ref[j]))
                ),
                None,
            )
            if match is None:
                problems.append(f"{key}: root {i} is not within the radius of a reference root")
            else:
                unmatched.remove(match)
        return len(roots) if len(problems) == before else 0


def event_counts(docs: list) -> Counter:
    """Counts taken from the CLI's event stream alone, without any wrapper."""
    counts: Counter = Counter()
    for doc in docs:
        for ev in (doc or {}).get("events", []):
            kind = ev["kind"]
            counts[f"events.{kind}"] += 1
            if kind == "deflated-solve":
                counts["events.deflated_iters"] += ev["iterations"]
                counts[f"events.deflated_exit.{ev['status']}"] += 1
    return counts


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())
