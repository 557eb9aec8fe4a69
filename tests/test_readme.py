"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "README has no python block under '## Library use'"
    exec(compile(block.group(1), f"{README}:Library use", "exec"), {})
    assert capsys.readouterr().out.startswith("EvalMetrics(accuracy=")
