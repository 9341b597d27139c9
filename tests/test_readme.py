"""The README's library quickstart runs against the current API, and its
CLI commands print what was recorded in tests/data/readme, byte for byte."""

import re
from pathlib import Path

import pytest

from rotbell import cli

README = Path(__file__).resolve().parents[1] / "README.md"
RECORDED = Path(__file__).resolve().parent / "data" / "readme"

#: Recorded stdout file -> README command; "IN" reads the recorded tensor document.
README_COMMANDS = {
    "tensor.json": ("tensor", "--ghz", "4", "--visibility", "0.34"),
    "tmax.json": ("tmax", "--in", "IN"),
    "check.json": ("check", "--in", "IN"),
    "scan.csv": (
        "scan", "--ghz", "4", "--v-min", "0.30", "--v-max", "0.40", "--steps", "101",
        "--format", "csv",
    ),
    "verify-bound.json": ("verify-bound", "--in", "IN", "--trials", "10000", "--seed", "0"),
}


def quickstart_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quickstart_runs(capsys):
    exec(compile(quickstart_block(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "True True"  # the paradox window, as the comment says
    assert lines[-1].endswith("NONLOCAL")


@pytest.mark.parametrize("name", README_COMMANDS)
def test_cli_output_matches_recording(name, capsys):
    argv = [str(RECORDED / "tensor.json") if arg == "IN" else arg for arg in README_COMMANDS[name]]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == (RECORDED / name).read_bytes()
