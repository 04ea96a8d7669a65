"""The package surface, and the CLI commands the CI workflow runs."""

from __future__ import annotations

import inspect
import re
import shlex
from pathlib import Path

import pytest

import famsplit
from famsplit import errors
from famsplit.cli import build_parser

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_all_names_every_error_class() -> None:
    classes = {name for name, obj in inspect.getmembers(errors, inspect.isclass)
               if issubclass(obj, errors.FamsplitError)}
    assert "ComparisonError" in classes
    assert classes <= set(famsplit.__all__)
    for name in classes:
        assert getattr(famsplit, name) is getattr(errors, name)


def workflow_commands() -> list[list[str]]:
    """Each `famsplit ...` command in the workflow, its `\\` continuations joined,
    cut at `||`, `&&`, `;` and `|`, with a placeholder for `$RUNNER_TEMP`."""
    text = WORKFLOW.read_text(encoding="utf-8").replace("\\\n", " ")
    commands = []
    for line in text.splitlines():
        for part in re.split(r"\|\||&&|;|\|", line):
            part = re.sub(r"^\s*(- )?(run:)?\s*", "", part)
            if part.startswith("famsplit "):
                commands.append(shlex.split(part.replace("$RUNNER_TEMP", "/runner-temp"))[1:])
    return commands


def test_every_workflow_command_parses() -> None:
    commands = workflow_commands()
    assert commands
    parser = build_parser()
    for argv in commands:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"workflow command does not parse: famsplit {shlex.join(argv)}")
        assert args.command == argv[0]
