"""The benchmark's own oracle accepts every classify-mix verdict.

`perfbench/run.py` judges each classify-mix output against the expectation
that `perfbench/gen.py` planted in the input; a wrong verdict there marks a
benchmark run as incorrect. The same inputs and the same judge run here, on
a few seeds, with both files loaded read-only.
"""

import importlib.util
import pathlib
import random
import sys

import pytest

from lieflow.liealg import algebra_from_dict
from lieflow.periodicity import classify_linear_flow

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def run_module(monkeypatch):
    # run.py puts its directory on sys.path and imports gen; both are undone.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.delitem(sys.modules, "gen", raising=False)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("gen", None)


def verdict_key(sc, mat) -> list:
    """The worker's key of one classify op: the verdict or the exception."""
    try:
        v = classify_linear_flow(sc, mat)
    except Exception as exc:
        return ["exc", type(exc).__name__]
    return ["ok", v.tag, v.reason, repr(v.period) if v.period is not None else None,
            str(v.period_over_pi) if v.period_over_pi is not None else None]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_classify_mix_passes_the_benchmark_judge(run_module, seed):
    gen = run_module.gen
    inputs = gen.classify_inputs(random.Random(seed))
    assert inputs
    failures = []
    for x in inputs:
        key = verdict_key(algebra_from_dict(x["algebra"]), gen.from_json_matrix(x["matrix"]))
        kind = run_module.judge_verdict(x, key)
        if kind is not None:
            failures.append((x["recipe"], kind, key))
    assert failures == []
