"""Every command of README.md's CLI section runs and prints something."""

import pathlib
import shlex

import pytest

from entlink import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_lines():
    """The non-blank lines of the first sh block after "## CLI", with
    backslash continuations joined."""
    text = README.read_text().split("\n## CLI\n", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    return [" ".join(line.split()) for line in block.replace("\\\n", " ").splitlines()
            if line.strip()]


LINES = readme_cli_lines()


def test_readme_cli_block_holds_only_commands():
    assert LINES and all(line.startswith("entlink ") for line in LINES)


@pytest.mark.parametrize("command", LINES)
def test_readme_command_runs(command, capsys):
    argv = shlex.split(command)[1:]
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert capsys.readouterr().out.strip()
