"""The README's command line, config file and library examples stay valid,
its library API list is the package's ``__all__``, and its list of the
state a process keeps names every kind of ``fields._kept``."""
import re
import shlex
from pathlib import Path

import pytest

import toposample as ts
from toposample.cli import COMMAND_KEYS, build_parser, main
from toposample.config import build_experiment_config, read_config_file, resolve_experiment

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
    sections = read_config_file(str(path))
    config = build_experiment_config(sections, resolve_experiment(sections, COMMAND_KEYS["experiment"]))
    assert config.model.family == "chebyshev"
    assert (config.m, config.trials, config.seed) == (8, 10000, 7)


def test_readme_library_api_is_the_export_list():
    section = README.split("## Library API", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"`(\w+)`", section)) == set(ts.__all__)


def test_readme_kept_state_lists_every_kind():
    section = README.split("**State a process keeps**", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r'`_kept\["(\w+)"\]`', section)) == set(ts.fields._kept)


def test_readme_library_example_runs(capsys):
    (code,) = _blocks("python")
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert isinstance(scope["plan"], ts.SamplingPlan)
    assert isinstance(scope["report"], ts.NodalReport)
    assert capsys.readouterr().out
