"""The README's library example and command-line walk-through run as written."""

import re
import shlex
from pathlib import Path

from randfrob.cli import run_command

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert "compared" in capsys.readouterr().out


def readme_cli_commands() -> list[list[str]]:
    """The `randfrob` commands of the README's "Command line" block, in order."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, flags=re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.strip()]


def test_readme_cli_block_runs(capsys, tmp_path, monkeypatch):
    # each command reads the files the ones before it wrote
    monkeypatch.chdir(tmp_path)
    commands = readme_cli_commands()
    assert len(commands) == 8
    for argv in commands:
        assert argv[0] == "randfrob"
        assert run_command(argv[1:]) == 0, shlex.join(argv)
    assert "max abs dev" in capsys.readouterr().out
