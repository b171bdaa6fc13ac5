"""README checks: the experiment table, the flags and the install line follow the code and pyproject.toml."""

import argparse
import re
from pathlib import Path

import pytest

from contraction_lab.cli import EXPERIMENTS, _build_parser

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_experiment_table_names_exactly_the_cli_experiments():
    table = README.split("| name | claim checked |", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"^\| `([^`]+)` \|", table, flags=re.MULTILINE)
    assert names == list(EXPERIMENTS)


def parsers(parser):
    """``parser`` and every parser under it: find-rstar, run and each experiment of run, report."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for command in action.choices.values():
                yield from parsers(command)


def test_cli_section_names_exactly_the_parser_flags():
    section = README.split("## Command-line interface", 1)[1].split("\n## ", 1)[0]
    flags = {
        option
        for command in parsers(_build_parser())
        for action in command._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if option.startswith("--")
    }
    assert set(re.findall(r"--[a-z][a-z-]*", section)) == flags


def test_test_install_comment_names_every_test_extra():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    extra = project["optional-dependencies"]["test"]
    packages = {re.match(r"[A-Za-z0-9_.-]+", requirement).group(0) for requirement in extra}
    (comment,) = re.findall(r"^pip install -e '\.\[test\]'.*# adds (.+)$", README, flags=re.MULTILINE)
    assert set(comment.split(", ")) == packages
