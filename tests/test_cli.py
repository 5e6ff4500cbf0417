import json

import numpy as np
import pytest

from deflated_newton.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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
        ["beam", "--gamma-max", "1e20"],
        ["beam", "--gamma-max", "1e300"],
        ["continue", "--mu-steps", "0"],
        ["solve", "kojima-shindoh", "--p", "0.5"],
        ["solve", "kojima-shindoh", "--max-iter", "0"],
        ["solve", "kojima-shindoh", "--atol", "-1"],
    ):
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("deflated-newton: error: "), argv


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out = run_cli(capsys, "solve", "gould", "--deterministic", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert len(doc["roots"]) == 3


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
