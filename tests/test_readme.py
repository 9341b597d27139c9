"""The README's library quickstart runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quickstart_runs(capsys):
    exec(compile(quickstart_block(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "True True"  # the paradox window, as the comment says
    assert lines[-1].endswith("NONLOCAL")
