"""The package surface, and the CLI commands the CI workflow runs."""

from __future__ import annotations

import inspect
import json
import os
import re
import shlex
import subprocess
import sys
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


def test_importing_the_cli_loads_no_hashlib() -> None:
    # hashlib loads OpenSSL, about 3.5 MB of memory, so famsplit imports it
    # only where it hashes. The modules numpy loads itself do not count.
    code = ("import json, sys, numpy; before = set(sys.modules); import famsplit.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    src = str(Path(famsplit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    added = json.loads(run.stdout)
    assert "famsplit.cli" in added
    assert not {"hashlib", "_hashlib"} & set(added)
