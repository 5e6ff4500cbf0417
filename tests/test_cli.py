import argparse
import errno
import inspect
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from deflated_newton import cli
from deflated_newton.cli import _build_parser, _json_string, _write_json, main
from deflated_newton.deflation import DeflationState
from deflated_newton.obstacle1d import (
    BeamProblem,
    HermiteMesh1D,
    _discretization,
    beam_solver_config,
    path_follow,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_beam_flag_defaults_are_the_library_defaults():
    # the beam command passes every value itself, so the pinned bytes would
    # not show a library default that drifts from its flag's default
    args = _build_parser("beam").parse_args(["beam"])
    problem, deflation = BeamProblem(), DeflationState()
    defaults = {name: p.default for name, p in inspect.signature(path_follow).parameters.items()}
    assert (args.load, args.alpha) == (problem.load, problem.half_width)
    assert (args.p, args.shift) == (deflation.power, deflation.shift)
    assert (args.gamma0, args.gamma_max, args.q) == (
        defaults["gamma0"], defaults["gamma_max"], defaults["q"]
    )
    assert args.mesh == defaults["initial_mesh"].elements
    assert HermiteMesh1D(args.mesh) == defaults["initial_mesh"]


def test_list_command(capsys):
    code, out = run_cli(capsys, "list", "--deterministic")
    assert code == 0
    doc = json.loads(out)
    names = [b["name"] for b in doc["benchmarks"]]
    assert names == ["kojima-shindoh", "gould", "aggarwal", "gerard"]


def test_solve_kojima_schema_and_roots(capsys):
    code, out = run_cli(capsys, "solve", "kojima-shindoh", "--deterministic")
    assert code == 0
    doc = json.loads(out)
    assert doc["problem"] == "kojima-shindoh"
    assert set(doc) == {"problem", "settings", "roots", "events"}
    assert len(doc["roots"]) == 2
    first = doc["roots"][0]
    assert set(first) == {"z", "iterations", "residual_norm", "discovered_at_parameter"}
    np.testing.assert_allclose(first["z"], [1.0, 0.0, 3.0, 0.0], atol=1e-6)
    assert any(ev["kind"] == "root-found" for ev in doc["events"])


def test_solve_respects_max_roots(capsys):
    code, out = run_cli(capsys, "solve", "gould", "--max-roots", "1", "--deterministic")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["roots"]) == 1


def test_unshifted_solve_exit_code(capsys):
    code, out = run_cli(capsys, "solve", "kojima-shindoh", "--shift", "0", "--deterministic")
    assert code == 0  # one root is still found
    assert len(json.loads(out)["roots"]) == 1


def test_deterministic_output_is_byte_identical(capsys):
    _, first = run_cli(capsys, "solve", "gould", "--deterministic")
    _, second = run_cli(capsys, "solve", "gould", "--deterministic")
    assert first == second


def test_timestamp_present_without_deterministic(capsys):
    _, out = run_cli(capsys, "solve", "gould")
    assert "timestamp" in json.loads(out)


def test_seventeen_digit_round_trip(capsys):
    _, out = run_cli(capsys, "solve", "kojima-shindoh", "--deterministic")
    doc = json.loads(out)
    value = doc["roots"][1]["z"][0]
    # parsing the emitted text recovers the double exactly
    assert value == np.sqrt(6.0) / 2.0 or abs(value - np.sqrt(6.0) / 2.0) < 1e-15


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["solve", "not-a-benchmark"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
    # invalid option values end in a one-line usage error, not a traceback
    for argv in (
        ["beam", "--mesh", "0"],
        ["beam", "--q", "0.5"],
        ["beam", "--alpha", "-1"],
        ["beam", "--gamma0", "0"],
        ["beam", "--gamma0", "-1"],
        ["beam", "--gamma0", "nan"],
        ["beam", "--gamma-max", "inf"],
        ["beam", "--q", "nan"],
        ["beam", "--q", "1.00001"],
        ["beam", "--q", repr(math.nextafter(1.0, 2.0))],
        ["beam", "--gamma-max", "1e20"],
        ["beam", "--gamma-max", "1e300"],
        ["continue", "--mu-steps", "0"],
        ["solve", "kojima-shindoh", "--p", "0.5"],
        ["solve", "kojima-shindoh", "--max-iter", "0"],
        ["solve", "kojima-shindoh", "--atol", "-1"],
        ["solve", "kojima-shindoh", "--atol", "nan"],
        ["solve", "gould", "--p", "nan"],
        ["solve", "aggarwal", "--mu", "nan"],
        ["solve", "aggarwal", "--mu", "inf"],
        ["beam", "--p", "inf"],
        ["beam", "--alpha", "nan"],
        ["beam", "--load", "nan"],
        ["continue", "--mu-start", "nan"],
        ["continue", "--mu-end", "inf"],
        ["continue", "--mu-start=-1e308", "--mu-end", "1e308"],
        ["solve", "gould", "--max-roots", "0"],
        ["solve", "gould", "--max-roots", "-1"],
        ["continue", "--max-roots", "0"],
        ["beam", "--max-roots", "0"],
        ["continue", "not-a-benchmark"],
        ["continue", "gould"],  # no continuation parameter
        # element matrices beyond the double range
        ["beam", "--load", "1e308", "--gamma-max", "100"],
        # finite element matrices whose assembled sum is not
        ["beam", "--load", "1.5e306", "--gamma-max", "100"],
    ):
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("deflated-newton: error: "), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["list", "--out", "{missing}/x.json"],
        ["beam", "--gamma-max", "1e3", "--dump", "{missing}/sol"],
        # the open succeeds and the write or close fails
        pytest.param(["list", "--out", "/dev/full"], id="full",
                     marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                              reason="no /dev/full")),
    ],
    ids=["out", "dump", "full"],
)
def test_unwritable_output_is_a_usage_error(argv, tmp_path, capsys):
    missing = tmp_path / "missing"
    with pytest.raises(SystemExit) as err:
        main([arg.format(missing=missing) for arg in argv])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("deflated-newton: error: cannot write")
    assert not missing.exists()


def test_a_failed_dump_write_is_a_usage_error(tmp_path, monkeypatch, capsys):
    class FullFile(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "open", lambda *args: FullFile(), raising=False)
    prefix = tmp_path / "sol"
    with pytest.raises(SystemExit) as err:
        main(["beam", "--gamma-max", "1e3", "--dump", str(prefix), "--deterministic"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"deflated-newton: error: cannot write --dump {prefix}0.txt: {os.strerror(errno.ENOSPC)}"
    )


@pytest.mark.parametrize(
    "argv", [["solve", "gould"], ["beam", "--gamma-max", "100"], ["list"]],
    ids=["solve", "beam", "list"],
)
def test_a_closed_stdout_is_a_usage_error(argv):
    # the reader's end of the pipe is closed before the command starts
    read, write = os.pipe()
    os.close(read)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "deflated_newton.cli", *argv, "--deterministic"],
            stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=300,
        )
    finally:
        os.close(write)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == (
        f"deflated-newton: error: cannot write stdout: {os.strerror(errno.EPIPE)}"
    )


def test_beam_without_a_solution_exits_1_with_one_stderr_line(capsys):
    with pytest.raises(SystemExit) as err:
        main(["beam", "--max-iter", "1", "--alpha", "0.01", "--deterministic"])
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "no solutions: no solution found at the initial penalty 10.0\n"


COMMAND_LINES = [
    ["list", "--deterministic", "--out", "x.json"],
    ["solve", "gould", "--ncp", "mp", "--no-line-search", "--max-roots", "2"],
    ["solve", "aggarwal", "--mu", "0.5", "--p", "1", "--shift", "0"],
    ["continue", "--mu-steps", "3", "--max-iter", "50"],
    ["continue", "aggarwal", "--mu-start", "0.1", "--deterministic"],
    ["beam", "--mesh", "32", "--q", "4", "--dump", "prefix"],
    ["beam"],
]


def parse_outcome(parser, argv, capsys):
    """``(namespace or exit code, stdout, stderr)`` of one parse."""
    try:
        outcome = parser.parse_args(argv)
    except SystemExit as stop:
        outcome = stop.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.mark.parametrize("argv", COMMAND_LINES, ids=" ".join)
def test_command_parser_matches_the_full_parser(argv, capsys):
    command = argv[0]
    for line in (argv, [command, "--help"], [command, "--no-such-flag"], argv + ["extra"]):
        trimmed = parse_outcome(_build_parser(command), line, capsys)
        assert trimmed == parse_outcome(_build_parser(), line, capsys), line
    # usage errors still exit 2
    assert parse_outcome(_build_parser(command), [command, "--no-such-flag"], capsys)[0] == 2
    # and only the command on the line is built
    assert registered_commands(_build_parser(command)) == [command]
    assert registered_commands(_build_parser()) == ["list", "solve", "continue", "beam"]


def registered_commands(parser) -> list[str]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out = run_cli(capsys, "solve", "gould", "--deterministic", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert len(doc["roots"]) == 3


def test_beam_on_a_one_element_mesh(capsys):
    # two unknowns, fewer than the half bandwidth of 3: this used to end in a
    # ValueError traceback from BandedMatrix.infinity_norm
    code, out = run_cli(capsys, "beam", "--mesh", "1", "--gamma0", "1", "--gamma-max", "4",
                        "--deterministic")
    assert code in (0, 1)
    doc = json.loads(out)
    assert doc["settings"]["mesh"] == 1
    assert doc["settings"]["final_elements"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "kojima-shindoh", "--p", "1000"],
        ["solve", "kojima-shindoh", "--p", "1e308"],
        ["beam", "--p", "1000", "--gamma-max", "100"],
    ],
    ids=" ".join,
)
def test_overflowing_deflation_ends_the_solve_diverged(argv, capsys):
    # a deflation factor or gradient beyond the double range used to end in
    # an OverflowError traceback, or a numpy overflow warning
    code, out = run_cli(capsys, *argv, "--deterministic")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["roots"]) == 1
    statuses = [ev["status"] for ev in doc["events"] if ev["kind"] == "deflated-solve"]
    assert "diverged" in statuses


def test_an_overflowing_gradient_term_lets_the_search_step(capsys):
    # at p = 1000 the first root's d ** (p + 2) overflows at the second
    # search's start; its gradient term reads 0, so that search takes two
    # steps before it diverges, where it used to end at its first derivative
    code, out = run_cli(capsys, "solve", "kojima-shindoh", "--p", "1000", "--deterministic")
    assert code == 0
    solves = [ev for ev in json.loads(out)["events"] if ev["kind"] == "deflated-solve"]
    assert [(ev["status"], ev["iterations"]) for ev in solves] == [
        ("converged", 7), ("diverged", 2)
    ]


POWER_SHIFT_SWEEP = [
    ["solve", name, "--p", power, "--shift", shift]
    for name in ("kojima-shindoh", "gould", "aggarwal", "gerard")
    for power in ("1", "2", "1000", "1e5")
    for shift in ("0", "1")
] + [["continue", "aggarwal", "--p", power, "--shift", "0"] for power in ("1000", "1e5")]


@pytest.mark.parametrize("argv", POWER_SHIFT_SWEEP, ids=" ".join)
def test_every_power_and_shift_ends_in_a_document(argv, capsys):
    # unshifted at p = 1000 or 1e5, the factor underflows to 0 at the second
    # search's guess, where G = 0 converges at once; checking that solve's
    # undeflated residual used to divide by that 0 and end in a traceback
    code = main([*argv, "--deterministic"])
    out, err = capsys.readouterr()
    assert code in (0, 1)
    json.loads(out)
    assert "Traceback" not in err


def test_a_vanishing_deflation_factor_leaves_the_solve_unverified(capsys):
    code, out = run_cli(capsys, "solve", "kojima-shindoh", "--p", "1000", "--shift", "0",
                        "--deterministic")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["roots"]) == 1
    assert [(ev["kind"], ev.get("iterations")) for ev in doc["events"]][2:] == [
        ("deflated-solve", 0), ("rejected-unverified", None)
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "gerard", "--p", "200"],
        ["solve", "gerard", "--p", "500"],
        ["solve", "gould", "--p", "500"],
    ],
    ids=" ".join,
)
def test_overflowing_residual_norm_ends_without_a_warning(argv, capsys):
    # a finite deflated residual near 1e160 squares past the double range in
    # the line search's merit or the solver's norm; numpy used to warn there
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(capsys, *argv, "--deterministic")
    assert code == 0
    assert len(json.loads(out)["roots"]) >= 1


def test_beam_command_quick_path(tmp_path, capsys):
    dump = tmp_path / "beam"
    code, out = run_cli(
        capsys,
        "beam",
        "--gamma-max", "1e4",
        "--deterministic",
        "--dump", str(dump),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["problem"] == "beam"
    assert len(doc["roots"]) == 3
    fractions = sorted(r["active_fraction"] for r in doc["roots"])
    assert fractions[0] == 0.0 and fractions[1] > 0.0 and fractions[2] > 0.0
    root = doc["roots"][0]
    for key in ("z", "iterations", "residual_norm", "discovered_at_parameter",
                "gamma", "active_fraction", "nodes"):
        assert key in root
    x, value, slope = root["nodes"][0]
    assert x == 0.0 and value == 0.0
    assert slope == root["z"][0]
    # plain-text dumps, one per solution
    for i in range(3):
        lines = (tmp_path / f"beam{i}.txt").read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 1 + len(root["nodes"])


def test_continue_command_small(capsys):
    code, out = run_cli(
        capsys,
        "continue", "aggarwal",
        "--mu-start", "0.02", "--mu-end", "0.1", "--mu-steps", "4",
        "--max-iter", "2000",
        "--deterministic",
    )
    doc = json.loads(out)
    assert doc["problem"] == "aggarwal"
    assert code == 0
    assert len(doc["roots"]) >= 1
    assert set(doc) == {"problem", "settings", "roots", "events"}


def test_continue_reports_residuals_where_its_roots_live(capsys):
    # every branch is lost at the first step, so the mu_start roots are
    # reported, with their residuals at mu_start
    code, out = run_cli(
        capsys, "continue", "aggarwal", "--mu-end", "1e308", "--mu-steps", "2", "--deterministic"
    )
    assert code == 0
    doc = json.loads(out)
    assert [ev["kind"] for ev in doc["events"]].count("all-branches-lost") == 1
    assert len(doc["roots"]) == 3
    for root in doc["roots"]:
        assert root["residual_norm"] <= doc["settings"]["atol"]


@pytest.mark.parametrize(
    "argv",
    [["solve", "kojima-shindoh"], ["solve", "gould"], ["solve", "gerard"],
     ["continue", "aggarwal"], ["beam"]],
    ids=" ".join,
)
def test_shifted_runs_accept_every_converged_solve_as_a_root_at_atol(argv, capsys):
    # with shift 1 the deflation factor is at least 1, so a deflated solve
    # that converges at ||G|| <= atol ends at ||F|| <= atol too: no solve is
    # rejected as unverified, and every root's residual is within atol
    code, out = run_cli(capsys, *argv, "--deterministic")
    assert code == 0
    doc = json.loads(out)
    settings = doc["settings"]
    assert settings["shift"] == 1.0
    assert "rejected-unverified" not in [ev["kind"] for ev in doc["events"]]
    if argv[0] == "beam":
        mesh = HermiteMesh1D(settings["final_elements"])
        atol = beam_solver_config(_discretization(BeamProblem(), mesh)).atol
    else:
        atol = settings["atol"]
    assert doc["roots"]
    assert all(root["residual_norm"] <= atol for root in doc["roots"])


@pytest.mark.parametrize("cap", [1, 2])
def test_continue_max_roots_caps_every_step(capsys, cap):
    code, out = run_cli(
        capsys, "continue", "aggarwal", "--max-roots", str(cap), "--deterministic"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["roots"]) == cap
    # the roots come from step 0, and no later step adds one
    assert [root["discovered_at_parameter"] for root in doc["roots"]] == [1e-3] * cap
    found = [ev["step"] for ev in doc["events"] if ev["kind"] == "root-found"]
    assert found == [0] * cap


# Property test: the JSON writer against json.loads, and against the
# recursive writer it replaced, kept in reference_kernels as the reference.

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from reference_kernels import reference_write_json  # noqa: E402


floats = st.one_of(st.floats(), st.floats().map(np.float64))
scalars = st.one_of(floats, st.integers(-(2**70), 2**70), st.booleans(), st.none(), st.text())
documents = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(floats, max_size=8),  # all-float lists take the one-write path
        st.dictionaries(st.text(), children, max_size=5),
    ),
    max_leaves=40,
)


def expected(obj):
    """What json.loads must return for a written document."""
    if isinstance(obj, dict):
        return {key: expected(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [expected(value) for value in obj]
    if isinstance(obj, float):
        return ("Infinity" if obj > 0 else "-Infinity") if math.isinf(obj) else float(obj)
    return obj


def assert_same(parsed, want) -> None:
    assert type(parsed) is type(want), (parsed, want)
    if isinstance(want, dict):
        assert list(parsed) == list(want)
        for key in want:
            assert_same(parsed[key], want[key])
    elif isinstance(want, list):
        assert len(parsed) == len(want)
        for got, item in zip(parsed, want):
            assert_same(got, item)
    elif isinstance(want, float) and math.isnan(want):
        assert math.isnan(parsed)
    elif isinstance(want, float):
        assert parsed == want and math.copysign(1.0, parsed) == math.copysign(1.0, want)
    else:
        assert parsed == want


def old_writer_was_valid(obj) -> bool:
    """No control character anywhere, and no quote or backslash in a key:
    the documents the recursive writer already wrote as valid JSON."""
    if isinstance(obj, dict):
        return all(
            old_writer_was_valid(key) and not {'"', "\\"} & set(key) and old_writer_was_valid(value)
            for key, value in obj.items()
        )
    if isinstance(obj, (list, tuple)):
        return all(old_writer_was_valid(value) for value in obj)
    if isinstance(obj, str):
        return all(ord(ch) >= 0x20 for ch in obj)
    return True


@settings(max_examples=300, deadline=None)
@given(documents)
def test_json_writer_round_trips(doc):
    out = io.StringIO()
    _write_json(doc, out)
    assert_same(json.loads(out.getvalue()), expected(doc))
    if old_writer_was_valid(doc):
        reference = io.StringIO()
        reference_write_json(doc, reference)
        assert out.getvalue() == reference.getvalue()


def test_json_writer_formats_shared_float_objects_like_the_reference():
    # one float object in a list and in table rows, equal values held by
    # distinct objects, 0.0 and -0.0 as two objects, NaN and both infinities
    shared = [0.0, -0.0, 1.5, 1 / 3, 1e17, 2.0**53, math.nan, math.inf, -math.inf, 5e-324]
    copies = [float(repr(value)) for value in shared]
    assert not any(a is b for a, b in zip(shared, copies))
    rows = [[shared[i % 10], copies[3 * i % 10], shared[7 * i % 10]] for i in range(40)]
    doc = {
        "z": shared,
        "nodes": rows,
        "finite": [value for value in copies if math.isfinite(value)],
        "zeros": [-0.0, 0.0, -0.0],
        "again": copies[::-1],
        "roots": [{"z": copies, "nodes": rows[::-1]}, {"z": [-0.0, 1.5], "nodes": [[0.0, -0.0]]}],
    }
    out, want = io.StringIO(), io.StringIO()
    _write_json(doc, out)
    reference_write_json(doc, want)
    assert out.getvalue() == want.getvalue()


_special_characters = st.sampled_from(
    ['"', "\\", "\x00", "\n", "\x1f", " ", "~", "\x7f", "a", "\xe9", "\u2028", "\u2029", "\U0001f600"]
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.text(_special_characters)))
def test_json_string_is_json_dumps_property(text):
    assert _json_string(text) == json.dumps(text, ensure_ascii=False)


def test_json_writer_escapes_control_characters():
    out = io.StringIO()
    _write_json({"a\tb": ["line\nbreak", "\x00\x1f", 'q"\\']}, out)
    text = out.getvalue()
    assert all(ord(ch) >= 0x20 for ch in text.replace("\n", ""))
    assert json.loads(text) == {"a\tb": ["line\nbreak", "\x00\x1f", 'q"\\']}
