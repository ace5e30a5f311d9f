"""The README's command line and config file examples stay valid."""
import re
import shlex
from pathlib import Path

import pytest

import toposample as ts
from toposample.cli import COMMAND_KEYS, build_parser, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


COMMANDS = [
    line.strip()
    for line in "\n".join(_blocks("sh")).replace("\\\n", " ").splitlines()
    if line.startswith("toposample ")
]


def test_readme_shows_every_command():
    assert {shlex.split(command)[1] for command in COMMANDS} == set(COMMAND_KEYS)


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_parses(command):
    argv = shlex.split(command)[1:]
    assert build_parser().parse_args(argv).command == argv[0]


@pytest.mark.parametrize("command", [c for c in COMMANDS if c.startswith("toposample orthant-check ")])
def test_readme_orthant_check_runs(command, capsys):
    assert main(shlex.split(command)[1:]) == 0
    assert "error" not in capsys.readouterr().err


def test_readme_config_example_loads(tmp_path):
    (text,) = _blocks("ini")
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    config = ts.build_experiment_config(ts.read_config_file(str(path)))
    assert config.model.family == "chebyshev"
    assert (config.m, config.trials, config.seed) == (8, 10000, 7)
