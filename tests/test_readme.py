"""README's command-line block and library example run as written."""

import re
import shlex
from pathlib import Path

from dicolor.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first fenced `lang` block after a level-2 heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_command_line_block_exits_as_its_comments_say(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # later lines read the files earlier lines write
    runs = []
    for line in _block("Command line", "sh").splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "dicolor", line
        stated = re.search(r"\bexit (\d)\b", comment)  # a line that names no code must exit 0
        runs.append((line, main(argv[1:]), int(stated.group(1)) if stated else 0))
    capsys.readouterr()
    assert len(runs) >= 10 and any(stated == 3 for _, _, stated in runs)
    assert [(line, code) for line, code, stated in runs if code != stated] == []


def test_library_example_runs():
    exec(compile(_block("Library example", "python"), "README.md", "exec"), {})
