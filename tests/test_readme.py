"""README.md examples still run and still print what the README shows.

Every fenced ``python`` block is executed.  Every ``$ meadows ...`` line that
is followed by output is replayed through ``cli.main`` and its stdout is
compared line by line; a shown output whose last line is ``...`` is compared
as a prefix.
"""

import re
import shlex
from pathlib import Path

import pytest

from meadows.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
PYTHON_BLOCKS = [body for lang, body in BLOCKS if lang == "python"]


def _shell_examples():
    examples = []
    for lang, body in BLOCKS:
        if lang != "text":
            continue
        command, shown = None, []
        for line in body.splitlines() + ["$"]:
            if line.startswith("$") or not line.strip():
                if command is not None and shown:
                    examples.append((command, shown))
                command, shown = None, []
                if line.startswith("$ meadows "):
                    command = line[len("$ meadows ") :]
            elif command is not None:
                shown.append(line)
    return examples


SHELL_EXAMPLES = _shell_examples()


def test_readme_has_examples():
    assert len(PYTHON_BLOCKS) >= 3
    assert len(SHELL_EXAMPLES) >= 9


@pytest.mark.parametrize("source", PYTHON_BLOCKS)
def test_python_block_runs(source):
    exec(compile(source, "README.md", "exec"), {})


@pytest.mark.parametrize("command,shown", SHELL_EXAMPLES, ids=[c for c, _ in SHELL_EXAMPLES])
def test_shell_example_output(capsys, command, shown):
    code = main(shlex.split(command, comments=True))
    out = capsys.readouterr().out.splitlines()
    assert code in (0, 1)
    if shown[-1] == "...":
        shown = shown[:-1]
        out = out[: len(shown)]
    assert out == shown
