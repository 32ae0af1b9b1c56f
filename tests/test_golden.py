"""The exact commands' output, byte for byte, against committed SHA-256 digests.

Exact output is a contract: identical Fractions, identical CSV bytes.  Each
command of GOLDEN runs in-process, and the digest of what it prints (`check`)
or writes (`solve`, `stats`, `majorant`) must equal its entry in golden.json.
Monte Carlo output stays out: its bits depend on numpy's samplers and the
machine's BLAS kernels.

    PYTHONPATH=src python3 tests/test_golden.py

rewrites golden.json.  Run it only for a new command, never to absorb a
changed result.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from conftest import BUNDLED

from randfrob.cli import run_command

GOLDEN_JSON = Path(__file__).with_name("golden.json")
GOLDEN = [
    *(f"{command} {name}{options}" for name in BUNDLED for command, options in (
        ("check", ""),
        ("check", " --json"),
        ("solve", ""),
        ("stats", " --grid 0:0.9:0.1 --full-precision"),
        ("majorant", " --s 0.9"),
    )),
    "solve beta_series --order 26",
    "stats airy --order 400 --grid 0:0.9:0.1 --full-precision",
]


def digest(command: str, out_dir: Path) -> str:
    """SHA-256 of the file `command` writes, or of its stdout if it writes none."""
    argv = command.split()
    out = out_dir / "golden.out"
    out.unlink(missing_ok=True)
    writes = argv[0] != "check"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run_command(argv + ["--out", str(out)] if writes else argv)
    assert code == 0, command
    data = out.read_bytes() if writes else stdout.getvalue().encode()
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_JSON.read_text())


def test_golden_lists_every_command(golden):
    assert sorted(golden) == sorted(GOLDEN)


@pytest.mark.parametrize("command", GOLDEN)
def test_output_matches_digest(golden, command, tmp_path):
    assert digest(command, tmp_path) == golden[command]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {command: digest(command, Path(tmp)) for command in GOLDEN}
    GOLDEN_JSON.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN_JSON}", file=sys.stderr)
