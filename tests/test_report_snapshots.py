"""Behaviour gate: fixed CLI commands against committed snapshots.

Each snapshot holds a command's exit code, its stdout and stderr, and its
``--report`` payload with the run-dependent ``elapsed_ms`` fields removed
(the top-level one and, for ``verify``, ``results.elapsed_ms``). The report
text itself must be the canonical JSON rendering, so its bytes are gated
too. A refactor that changes any printed figure, report field or exit code
fails here.

To rewrite the snapshots after an intended change of output, run this file
as a script from the repository root:

    PYTHONPATH=src python tests/test_report_snapshots.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from liecheck.report_cli import main

SNAPSHOTS = Path(__file__).resolve().parent / "snapshots" / "cli.json"

CLASSICAL = ("SL2nR", "SL2n1R", "SLnH")
FIXED = ("EI", "EII", "EIV", "EV", "EVI", "EVIII", "EIX", "FI", "FII", "G", "SP4R")
EXCEPTIONAL = tuple(f for f in FIXED if f != "SP4R")


def _case(family):
    return (family, "--n", "2") if family in CLASSICAL else (family,)


COMMANDS = (
    [("list-cases",)]
    + [("case", "show") + _case(f) for f in CLASSICAL + FIXED]
    + [("w1",) + _case(f) + ("--words",) for f in CLASSICAL + FIXED]
    + [("bounds", f) for f in EXCEPTIONAL]
    + [("usmall", "count", f) for f in FIXED if f not in ("EVIII", "EIX")]
    + [("verify", f) for f in ("G", "FII", "EIV", "EI", "FI", "EII")]
    + [
        ("verify", "SP4R", "--box", "p:-3..4,q:-4..3"),
        ("sp4r", "pencils", "--m-max", "100"),
        ("spin-norm", "G", "--mu", "3,1", "--variants"),
        ("spin-norm", "FII", "--mu", "1,0,2,1", "--variants"),
        ("spin-norm", "EII", "--mu", "0,1,0,0,0,19", "--variants"),
        ("spin-norm", "SP4R", "--mu", "3,-2", "--variants"),
        ("spin-norm", "SL2nR", "--n", "2", "--mu", "2,1", "--variants"),
        ("usmall", "dump", "G"),
        ("usmall", "dump", "FII"),
        # error paths: no report is written, only the exit code and stderr
        ("case", "show", "NOPE"),
        ("spin-norm", "G", "--mu", "1,2,3"),
        ("verify", "SP4R"),
    ]
)


def key(argv) -> str:
    return " ".join(argv)


def run(argv, report: Path) -> dict:
    """Run one command; returns its snapshot record."""
    if report.exists():
        report.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv) + ["--report", str(report)])
    payload = None
    if report.exists():
        text = report.read_text(encoding="utf-8")
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n", key(argv)
        payload.pop("elapsed_ms")
        if isinstance(payload["results"], dict):
            payload["results"].pop("elapsed_ms", None)
    return {
        "exit_code": code,
        "stdout": out.getvalue().splitlines(keepends=True),
        "stderr": err.getvalue().splitlines(keepends=True),
        "report": payload,
    }


@pytest.fixture(scope="module")
def snapshots():
    with open(SNAPSHOTS, encoding="utf-8") as fh:
        return json.load(fh)


def test_snapshot_set_is_the_command_set(snapshots):
    assert sorted(snapshots) == sorted(key(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=key)
def test_report_matches_snapshot(argv, snapshots, tmp_path):
    assert run(argv, tmp_path / "report.json") == snapshots[key(argv)]


def write_snapshots(scratch: Path) -> None:
    records = {key(argv): run(argv, scratch / "report.json") for argv in COMMANDS}
    SNAPSHOTS.parent.mkdir(exist_ok=True)
    with open(SNAPSHOTS, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_snapshots(Path(tmp))
    print(f"wrote {len(COMMANDS)} snapshots to {SNAPSHOTS}", file=sys.stderr)
