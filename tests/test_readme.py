"""The README's shell examples name commands, subcommands and flags that exist."""

import re
from pathlib import Path

import pytest

from segshield import cli

README = Path(__file__).resolve().parents[1] / "README.md"
MAINS = {
    "segshield": cli.main_segshield,
    "shaper": cli.main_shaper,
    "tracesim": cli.main_tracesim,
    "attackeval": cli.main_attackeval,
}


def command_lines() -> list[str]:
    """Every line of a ``sh`` code block that runs one of the console commands."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    lines = (line.strip() for block in blocks for line in block.splitlines())
    return [line for line in lines if line.split(maxsplit=1)[:1] and line.split()[0] in MAINS]


COMMANDS = command_lines()


def test_every_command_has_an_example():
    assert {line.split()[0] for line in COMMANDS} == set(MAINS)


@pytest.mark.parametrize("line", COMMANDS, ids=["-".join(line.split()[:2]) for line in COMMANDS])
def test_example_runs_a_known_subcommand_with_known_flags(line, capsys):
    program, subcommand, *args = line.split()
    with pytest.raises(SystemExit) as done:
        MAINS[program]([subcommand, "--help"])
    assert done.value.code == 0
    usage = capsys.readouterr().out
    for flag in (arg for arg in args if arg.startswith("--")):
        assert re.search(re.escape(flag) + r"(?![\w-])", usage), f"{flag} is not a {program} flag"


def test_no_scripts_directory_is_named():
    assert "scripts/" not in README.read_text()
