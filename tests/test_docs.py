"""README checks: the experiment table and the install line follow the code and pyproject.toml."""

import re
from pathlib import Path

import pytest

from contraction_lab.cli import EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_experiment_table_names_exactly_the_cli_experiments():
    table = README.split("| name | claim checked |", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"^\| `([^`]+)` \|", table, flags=re.MULTILINE)
    assert names == list(EXPERIMENTS)


def test_test_install_comment_names_every_test_extra():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    extra = project["optional-dependencies"]["test"]
    packages = {re.match(r"[A-Za-z0-9_.-]+", requirement).group(0) for requirement in extra}
    (comment,) = re.findall(r"^pip install -e '\.\[test\]'.*# adds (.+)$", README, flags=re.MULTILINE)
    assert set(comment.split(", ")) == packages
