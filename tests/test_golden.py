"""Byte gate: ``find-rstar`` and every experiment at ``--seed 3``, with ``--format both`` where it is taken.

Each command runs in-process into a fresh directory; its exit code, the
SHA-256 of its stdout and the SHA-256 of every file written must equal
``golden/artifacts_seed3.json``.  The hashes hold for the numpy version
recorded there; on any other version the test skips and names both versions.
A change that moves an output on purpose rewrites the file with
``PYTHONPATH=src python tests/test_golden.py`` and says so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from contraction_lab.cli import _EXPERIMENTS, EXPERIMENTS, main

GOLDEN = Path(__file__).parent / "golden" / "artifacts_seed3.json"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all(out: Path) -> dict:
    """Exit code and stdout hash of each command, and the hash of each file written under ``out``."""
    commands = {"find-rstar": ["find-rstar", "--out", str(out)]}
    for name in EXPERIMENTS:
        every_file = ["--format", "both"] if "format" in _EXPERIMENTS[name][1] else []
        commands[name] = ["run", name, "--seed", "3", *every_file, "--out", str(out)]
    record = {"numpy": np.__version__, "commands": {}}
    for name, argv in commands.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        record["commands"][name] = {"exit_code": code, "stdout_sha256": _sha256(stdout.getvalue().encode())}
    record["files"] = {path.name: _sha256(path.read_bytes()) for path in sorted(out.iterdir())}
    return record


def test_outputs_match_golden_hashes(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden["numpy"] != np.__version__:
        pytest.skip(f"golden hashes were written with numpy {golden['numpy']}; this is numpy {np.__version__}")
    got = run_all(tmp_path)
    assert got["commands"].keys() == golden["commands"].keys()
    assert got["files"].keys() == golden["files"].keys()
    moved = [name for name in golden["commands"] if got["commands"][name] != golden["commands"][name]]
    moved += [name for name in golden["files"] if got["files"][name] != golden["files"][name]]
    assert not moved, f"outputs differ from {GOLDEN.name}: {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        record = run_all(Path(out))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
