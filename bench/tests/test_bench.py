"""Tests of the benchmark itself: patching, the root-set checker, the report.

    python -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from trace_layers import Tracer, patched, targets  # noqa: E402

PKG = run.import_package()
REFERENCE = workloads.load_reference()
CHECKER = workloads.Checker(PKG, REFERENCE)
MANIFEST = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("raises", [False, True])
def test_patched_restores_every_name(raises):
    tracer = Tracer()
    names = [(owner, attr) for owner, attr, _ in targets(tracer, PKG)]
    before = [vars(owner)[attr] for owner, attr in names]
    missing = []
    try:
        with patched(targets(tracer, PKG), missing):
            assert all(vars(o)[a] is not b for (o, a), b in zip(names, before))
            if raises:
                raise RuntimeError("traced code failed")
    except RuntimeError:
        assert raises
    assert missing == []
    assert all(vars(o)[a] is b for (o, a), b in zip(names, before))


def _doc(roots, final_elements=1024):
    """A CLI document holding ``roots``, a list of (z, extra root fields)."""
    entries = [{"z": list(z), "residual_norm": 0.0, **extra} for z, extra in roots]
    settings = {"atol": 1e-10, "final_elements": final_elements}
    return {"settings": settings, "roots": entries, "events": []}


def _mcp_pass(mutate=None):
    commands = workloads.WORKLOADS["mcp-search"]
    docs = []
    for argv in commands:
        key = workloads.command_key(argv)
        roots = [(np.array(z), {}) for z in REFERENCE[key]["roots"]]
        if mutate and key == "solve gould":
            roots = mutate(roots)
        docs.append(_doc(roots))
    result = workloads.PassResult(0.0, [0] * len(commands), docs, 0)
    CHECKER.check(commands, result)
    return result


def _shift(roots):
    z, extra = roots[1]
    return roots[:1] + [(z + 1e-3, extra)] + roots[2:]


def test_reference_root_set_passes():
    result = _mcp_pass()
    assert result.ok, result.problems
    assert result.roots == 8


@pytest.mark.parametrize(
    "mutate",
    [lambda roots: roots[:-1], _shift, lambda roots: roots + roots[:1]],
    ids=["dropped-root", "shifted-root", "duplicated-root"],
)
def test_wrong_root_set_fails_the_pass(mutate):
    result = _mcp_pass(mutate)
    assert not result.ok
    assert result.roots == 5


def test_residual_above_atol_and_exit_code_fail_the_pass():
    commands = workloads.WORKLOADS["mcp-search"][:1]
    key = workloads.command_key(commands[0])
    doc = _doc([(np.array(z), {}) for z in REFERENCE[key]["roots"]])
    doc["roots"][0]["residual_norm"] = 1e-9
    result = workloads.PassResult(0.0, [0], [doc], 0)
    CHECKER.check(commands, result)
    assert any("residual" in p for p in result.problems)
    result = workloads.PassResult(0.0, [1], [None], 0)
    CHECKER.check(commands, result)
    assert result.problems == [f"{key}: exit code 1"]


@pytest.mark.parametrize(
    "fractions, elements, ok",
    [((0.0, 0.2, 0.2), 1024, True), ((0.0, 0.0, 0.2), 1024, False), ((0.0, 0.2, 0.2), 512, False)],
)
def test_beam_signature(fractions, elements, ok):
    commands = workloads.WORKLOADS["beam-path"]
    refs = REFERENCE["beam"]["roots"]
    roots = [(np.array(z), {"active_fraction": f}) for z, f in zip(refs, fractions)]
    result = workloads.PassResult(0.0, [0], [_doc(roots, final_elements=elements)], 0)
    CHECKER.check(commands, result)
    assert result.ok is ok, result.problems


def test_quiet_clock_sums_the_fastest_segments():
    clock = workloads.QuietClock()
    for marks, end in (([1.0, 3.0], 4.0), ([1.5, 2.5], 3.0)):  # steps [1, 2, 1], [1.5, 1, 0.5]
        clock.marks.extend(marks)
        clock.add("solve gould", 0.0, end)
    assert clock.total() == 2.5
    clock.marks.append(1.0)
    with pytest.raises(workloads.CountDrift, match="2 segments, earlier passes had 3"):
        clock.add("solve gould", 0.0, 2.0)


def test_count_drift_is_an_error():
    with pytest.raises(workloads.CountDrift, match="solver.iters: 3 != 4"):
        run.require_equal("passes", {"solver.iters": 3}, {"solver.iters": 4})


def _last_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_traced_run_lists_every_per_layer_metric(capsys):
    argv = ["--workload", "mcp-search", "--seed", "0", "--seconds", "0", "--trace", "1"]
    assert run.main(argv) == 0
    line = _last_line(capsys)
    assert line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in MANIFEST["per_layer"]]
    layers = {name.split(".")[0] for name in line["metrics"]}
    assert set(run.MODULES) <= layers
    assert line["metrics"]["solver.exit.max-iterations"]["value"] > 0
    assert "trace.overhead_s" in line["metrics"]


def test_untraced_run_lists_every_end_to_end_metric(capsys):
    argv = ["--workload", "mcp-search", "--seed", "3", "--seconds", "0", "--trace", "0"]
    assert run.main(argv) == 0
    line = _last_line(capsys)
    assert line["correct"] and line["attempted"] == run.MIN_PASSES
    metrics = line["metrics"]
    assert list(metrics) == [m["name"] for m in MANIFEST["end_to_end"]]
    assert metrics["roots"]["value"] == 8
    assert all(m["value"] > 0 for m in metrics.values())


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mcp-search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
