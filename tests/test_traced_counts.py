"""The traced Newton counts of the benchmark workloads, pinned.

A change that moves any of these counts changes how much Newton work the
package does, so it must say why and update the numbers here (and the table
in ROADMAP.md).  Each workload runs once through ``bench/run.py`` with
``--seconds 0 --trace 1``, which takes a few seconds.  The
aggarwal-continuation workload is not gated in ``BENCHMARK.json``, but its
counts are pinned all the same.  ``deflation.norm.calls`` counts the
single-vector norms, which only ``SolutionSet.add`` takes, one per
distinctness radius; every distance to a root comes from one stacked pass,
which ``SolutionSet.add`` takes once per root, and which applies no weight
to an empty stack.  ``linalg.banded_matvec.calls`` counts the banded
products: the beam's linear parts and the mass-norm distances.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run  # noqa: E402

PINNED = {
    "aggarwal-continuation": {
        "solver.solves": 304,
        "solver.iters": 9826,
        "solver.iters_failed": 8376,
        "reformulate.residual.calls": 10133,
        "reformulate.derivative.calls": 9892,
        "deflation.norm.calls": 102,
    },
    "mcp-search": {
        "solver.solves": 11,
        "solver.iters": 308,
        "solver.iters_failed": 230,
        "reformulate.residual.calls": 812,
        "reformulate.derivative.calls": 309,
        "deflation.norm.calls": 5,
    },
    "beam-path": {
        "solver.solves": 78,
        "solver.iters": 836,
        "solver.iters_failed": 750,
        "obstacle1d.residual.calls": 917,
        "obstacle1d.derivative.calls": 866,
        "deflation.norm.calls": 28,
        "linalg.banded_matvec.calls": 1781,
    },
}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_traced_counts(workload, capsys):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"]
    assert run.main(argv) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    counts = {name: line["metrics"][name]["value"] for name in PINNED[workload]}
    assert counts == PINNED[workload]
