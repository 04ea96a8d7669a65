"""README's "Library use" example, run as written, so the docs track the API."""

from __future__ import annotations

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(capsys) -> None:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, f"{README.name} (Library use)", "exec"), {})
    assert capsys.readouterr().out.strip()
