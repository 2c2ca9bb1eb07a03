"""Pinned report text: every subcommand in every format, byte for byte.

Each command line below runs through `eprod.cli.main`, and its exit code,
standard output and standard error are compared with `cli_reports.json`.
Only the wall-clock readings are masked: `wall_time_ms` in JSON and CSV, the
text `time:` line and the `(N rows, X ms)` footer of a reproduce table.  A
refactor of the command line must leave every report unchanged.  Regenerate
the file (only when a change of output is intended, and say so) with

    PYTHONPATH=src python tests/test_cli_reports.py --write
"""

import contextlib
import csv
import io
import json
import pathlib
import re
import sys

import pytest

from eprod.cli import main

PINNED = pathlib.Path(__file__).with_name("cli_reports.json")

COMMANDS = [
    argv + ["--format", fmt]
    for fmt in ("json", "csv", "text")
    for argv in (
        ["compute", "exp(1)", "delta", "--digits", "30"],
        ["coeffs", "3/4*delta - 2i*x^3", "--n-max", "5", "--digits", "30"],
        ["sweep", "phi", "psi", "--n-range", "0:1", "--m-range", "0:1",
         "--tol", "1e-13", "--digits", "30"],
        ["adjoint", "c", "delta", "exp(1)", "--digits", "30"],
        ["reproduce", "ex2"],
        ["reproduce", "ex3"],
        ["reproduce", "adjoint"],
    )
]


def _mask(text: str) -> str:
    text = re.sub(r'"wall_time_ms": [0-9.e+-]+', '"wall_time_ms": "-"', text)
    text = re.sub(r"^time:    .* ms$", "time:    -", text, flags=re.M)
    text = re.sub(r"\((\d+) rows, [0-9.e+-]+ ms\)", r"(\1 rows, -)", text)
    rows = list(csv.reader(io.StringIO(text)))
    if rows and "wall_time_ms" in rows[0]:
        col = rows[0].index("wall_time_ms")
        for row in rows[1:]:
            row[col] = "-"
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        text = buf.getvalue()
    return text


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return {"rc": rc, "out": _mask(out.getvalue()), "err": err.getvalue()}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_report_text_is_pinned(argv):
    want = json.loads(PINNED.read_text())[" ".join(argv)]
    assert _run(argv) == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_reports.py --write")
    pinned = {" ".join(argv): _run(argv) for argv in COMMANDS}
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
