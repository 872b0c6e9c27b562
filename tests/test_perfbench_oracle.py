"""The benchmark's own oracle accepts every classify-mix verdict and every
cli-cold document.

`perfbench/run.py` judges each classify-mix output and each cli-cold exit
code and JSON document against the expectation that `perfbench/gen.py`
planted in the input; a wrong answer there marks a benchmark run as
incorrect. The same inputs and the same judges run here, on a few seeds,
with both files loaded read-only; the CLI runs in-process.
"""

import importlib.util
import json
import pathlib
import random
import sys

import pytest

from lieflow.cli import main
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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cli_cold_passes_the_benchmark_judge(run_module, seed, tmp_path, capsys):
    inputs, files = run_module.gen.cli_inputs(random.Random(seed), str(tmp_path))
    for path, alg in files.items():
        pathlib.Path(path).write_text(json.dumps(alg))
    failures = []
    for x in inputs:
        capsys.readouterr()
        code = main(list(x["argv"]))
        kind = run_module.judge_cli(x, ["ok", code, capsys.readouterr().out])
        if kind is not None:
            failures.append((x["argv"], kind))
    assert failures == []
