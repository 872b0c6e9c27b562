"""The evidence for every verdict-table row, pinned: `vars()` of
`verify_verdict` on the row, and for a PeriodicFlow row `flow_period_residual`
at its period, replayed from tests/data/verdict_evidence.jsonl.

One line per row: {"entry", "param", "label", "evidence", "period_residual"}.
Floats are written as json writes them, as their repr, and compare byte for
byte: a change to the exponentials, the grids or the residual kernel that
moves any bit of any residual shows here.

After a deliberate change to the evidence, re-record the file at the current
checkout with

    PYTHONPATH=src python tests/test_verdict_evidence.py
"""

import json
import pathlib

import pytest

from lieflow.catalog import get_entry, verdict_table
from lieflow.flowsim import flow_period_residual, verify_verdict

DATA = pathlib.Path(__file__).resolve().parent / "data" / "verdict_evidence.jsonl"


def record() -> list[str]:
    lines = []
    for row in verdict_table():
        evidence = verify_verdict(get_entry(row.entry, row.param).structure,
                                  row.matrix, row.verdict)
        residual = None
        if row.verdict.tag == "PeriodicFlow":
            residual = vars(flow_period_residual(row.matrix, row.verdict.period))
        lines.append(json.dumps({
            "entry": row.entry, "param": None if row.param is None else str(row.param),
            "label": row.label,
            "evidence": vars(evidence), "period_residual": residual,
        }))
    return lines


def test_verdict_evidence_matches_the_pinned_run():
    want = DATA.read_text().splitlines()
    got = record()
    assert len(got) == len(want) == 98
    for g, w in zip(got, want):
        assert g == w


if __name__ == "__main__":
    DATA.write_text("\n".join(record()) + "\n")
