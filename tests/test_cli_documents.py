"""Every CLI document, pinned: the exit code, stdout, stderr and CSV file of
`lieflow.cli.main(argv)` for each subcommand in JSON and text, and for each
exit-1 and exit-2 case, replayed from tests/data/cli_documents.jsonl.

One line per run: {"argv", "files", "code", "stdout", "stderr", "csv"}.
"{tmp}" stands for a fresh directory, in the argv and in every output, and
`files` are the algebra files written there first. Outputs compare byte for
byte, except in `simulate` runs, whose floats NumPy computes: there each
number that differs compares with math.isclose(rel_tol=1e-9), with residuals
below 1e-12 (rounding noise, which differs between BLAS builds) equal, and
all other text exactly.

After a deliberate change to a document, re-record every run in the file at
the current checkout with

    PYTHONPATH=src python tests/test_cli_documents.py
"""

import contextlib
import io
import json
import math
import os
import pathlib
import re
import tempfile
from unittest import mock

import pytest

from lieflow.cli import main

DATA = pathlib.Path(__file__).resolve().parent / "data" / "cli_documents.jsonl"
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def record(argv: list, files: dict, tmp: str) -> dict:
    """The run of main(argv) in the directory `tmp`, with "{tmp}" in its place."""
    for name, content in files.items():
        pathlib.Path(tmp, name).write_text(json.dumps(content))
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage lines to the width in COLUMNS.
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([a.replace("{tmp}", tmp) for a in argv])
        except SystemExit as exc:  # argparse refused the command line
            code = exc.code
    csv = pathlib.Path(tmp, "orbit.csv")
    return {
        "argv": argv, "files": files, "code": code,
        "stdout": out.getvalue().replace(tmp, "{tmp}"),
        "stderr": err.getvalue().replace(tmp, "{tmp}"),
        "csv": csv.read_text() if csv.exists() else None,
    }


def same_numbers(got: str, want: str) -> bool:
    """`got` equals `want` up to the value of each number that differs."""
    got_parts, want_parts = NUMBER.split(got), NUMBER.split(want)
    got_nums, want_nums = NUMBER.findall(got), NUMBER.findall(want)
    return got_parts == want_parts and len(got_nums) == len(want_nums) and all(
        g == w or math.isclose(float(g), float(w), rel_tol=1e-9, abs_tol=1e-12)
        for g, w in zip(got_nums, want_nums)
    )


def documents() -> list:
    return [json.loads(line) for line in DATA.read_text().splitlines()]


@pytest.mark.parametrize("want", documents(), ids=lambda d: " ".join(d["argv"]))
def test_cli_document_matches_the_pinned_run(want, tmp_path):
    got = record(want["argv"], want["files"], str(tmp_path))
    assert got["code"] == want["code"]
    if want["argv"][0] != "simulate":
        assert got == want
        return
    assert got["stderr"] == want["stderr"]
    for key in ("stdout", "csv"):
        assert (got[key] is None) == (want[key] is None)
        if want[key] is not None:
            assert same_numbers(got[key], want[key]), key


if __name__ == "__main__":
    lines = []
    for doc in documents():
        with tempfile.TemporaryDirectory() as tmp:
            lines.append(json.dumps(record(doc["argv"], doc["files"], tmp)))
    DATA.write_text("\n".join(lines) + "\n")
