"""The Python examples of README.md run as written, and the flags it names exist."""

import argparse
import re
from pathlib import Path

from deflated_newton.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) >= 2
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_readme_names_only_flags_some_command_accepts():
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    accepted = set(parser._option_string_actions)
    for command_parser in commands.choices.values():
        accepted |= set(command_parser._option_string_actions)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README.read_text()))
    assert len(named) >= 10
    assert sorted(named - accepted) == []
