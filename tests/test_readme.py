"""The README's examples run against the current API and CLI."""

import re
import shlex
from pathlib import Path

from snapstack.harness import main

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    return README.read_text().split(f"## {title}", 1)[1].split("\n## ", 1)[0]


def fenced(text: str, lang: str) -> str:
    block = re.search(rf"```{lang}\n(.*?)```", text, re.S)
    assert block, f"README section has no {lang} block"
    return block.group(1)


def quick_start() -> tuple[str, list[str]]:
    """The quick start's config JSON and its five snapstack commands, each backslash
    continuation joined into one line; the CI entry-point step runs them too."""
    text = section("Quick start (CLI)")
    commands = fenced(text, "sh").replace("\\\n", " ").splitlines()
    assert len(commands) == 5 and all(c.startswith("snapstack ") for c in commands)
    return fenced(text, "json"), commands


def test_library_use_example_runs(capsys):
    code = fenced(section("Library use"), "python")
    exec(compile(code, f"{README}:Library use", "exec"), {})
    assert capsys.readouterr().out.startswith("EvalMetrics(accuracy=")


def test_quick_start_commands_run(tmp_path, monkeypatch, capsys):
    config, commands = quick_start()
    (tmp_path / "config.json").write_text(config)
    monkeypatch.chdir(tmp_path)
    for line in commands:
        program, *argv = shlex.split(line)
        assert program == "snapstack"
        assert main(argv) == 0, line
    assert (tmp_path / "out" / "report.md").exists()
