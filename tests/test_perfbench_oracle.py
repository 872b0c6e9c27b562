"""The benchmark's own oracle accepts every classify-mix verdict and every
cli-cold document.

`perfbench/run.py` judges each classify-mix output and each cli-cold exit
code and JSON document against the expectation that `perfbench/gen.py`
planted in the input; a wrong answer there marks a benchmark run as
incorrect. The same inputs and the same judges run here, on a few seeds,
with both files loaded read-only; the CLI runs in-process. On the same
inputs, and on seeded random rational matrices, `classify_flow` also meets a
reference rule with its own reason-reading and period code: Sturm counts of
the roots of rad(p) on the real and imaginary axes, the rational roots of h
by brute force, and T/pi = 2 / gcd of the rational frequencies.
"""

import importlib.util
import json
import math
import pathlib
import random
import sys
from fractions import Fraction

import pytest

from lieflow.cli import main
from lieflow.dersolve import coerce_matrix
from lieflow.liealg import algebra_from_dict
from lieflow.periodicity import classify_flow, classify_linear_flow
from lieflow.spectral import _deriv, _gcd, _poly_at, _primitive, _quo, _rem, _trim, char_poly

from test_spectral import rand_matrix, rational_roots_oracle

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


def real_root_count(s) -> int:
    """Number of real roots of the square-free s: the sign variations of its
    Sturm sequence at -oo minus those at +oo, read off leading coefficients."""
    if len(s) < 2:
        return 0
    seq = [list(s), _primitive(_deriv(s))]
    while len(seq[-1]) > 1:
        seq.append([-c for c in _rem(seq[-2], seq[-1])])

    def variations(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))

    lead = [1 if q[-1] > 0 else -1 for q in seq]
    return variations([v if len(q) % 2 else -v for v, q in zip(lead, seq)]) - variations(lead)


def imaginary_axis_gcd(s) -> list:
    """g(y) = gcd(Re s(iy), Im s(iy)); its real roots y are exactly the points
    iy of the imaginary axis where s vanishes (i^j has signs +, +, -, -)."""
    turned = [c if j % 4 < 2 else -c for j, c in enumerate(s)]
    re = _trim([0 if j % 2 else c for j, c in enumerate(turned)])
    im = _trim([c if j % 2 else 0 for j, c in enumerate(turned)])
    return _gcd(re, im)


def rational_sqrt(x: Fraction) -> Fraction | None:
    """sqrt(x) for a rational x > 0 when it is rational, else None."""
    n, d = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return Fraction(n, d) if n * n == x.numerator and d * d == x.denominator else None


def reference_verdict(mat, divisors) -> tuple:
    """(tag, reason, T/pi) with every reason read off rad(p): the Sturm counts
    of its real roots and of its roots on the imaginary axis, the root 0
    counted once, rad(p)(D) = 0, and the rational roots of h(mu), rad(p)
    without its root 0 being h(lambda^2), by the rational root theorem. The
    frequencies alpha_j = sqrt(-mu_j) are commensurable when every mu_j / mu_1
    is a rational square; then T/pi = 2 / gcd_Q(alpha_j) when every alpha_j
    is rational, since every alpha_j T must lie in 2*pi*Z, and None when they
    are surds."""
    p = list(char_poly(mat).ints)
    rad = _quo(p, _gcd(p, _deriv(p)))
    zero = rad[0] == 0
    real = real_root_count(rad)
    if real + real_root_count(imaginary_axis_gcd(rad)) - zero < len(rad) - 1:
        return "NoPeriodicOrbits", "NonzeroRealPart", None
    if real > zero:
        return "NoPeriodicOrbits", "RealNonzeroEigenvalue", None
    if len(rad) < len(p) and any(map(any, _poly_at(rad, *coerce_matrix(mat).scaled)[0])):
        return "NoPeriodicOrbits", "NonSemisimpleEigenvalue", None
    rest = rad[1:] if zero else rad
    if len(rest) == 1:
        return "IdentityFlow", None, None
    h = rest[0::2]
    mus = rational_roots_oracle(h, divisors)
    if len(mus) < len(h) - 1:
        return "NoPeriodicOrbits", "IrrationalRatio", None
    if any(rational_sqrt(mu / mus[0]) is None for mu in mus):
        return "NoPeriodicOrbits", "IrrationalRatio", None
    alphas = [rational_sqrt(-mu) for mu in mus]
    if None in alphas:
        return "PeriodicFlow", None, None
    # gcd_Q(a_j / b_j) = gcd(a_j) / lcm(b_j) for fractions in lowest terms.
    gcd = Fraction(math.gcd(*(a.numerator for a in alphas)),
                   math.lcm(*(a.denominator for a in alphas)))
    return "PeriodicFlow", None, 2 / gcd


def random_rationals(rng, count=170) -> list:
    """Small rational matrices, n <= 6, where rad(p) without its root 0 is
    mostly not even: dense ones, sparse ones (roots 0 and Jordan blocks) and
    skew-symmetric ones (+-i*alpha, so periodic or irrational ratios)."""
    mats = []
    for i in range(count):
        n = rng.randint(1, 6)
        if i % 3 == 0:
            mats.append(rand_matrix(rng, n))
            continue
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.4 else Fraction(0)
              for _ in range(n)] for _ in range(n)]
        if i % 3 == 2:
            m = [[m[r][c] - m[c][r] for c in range(n)] for r in range(n)]
        mats.append(m)
    return mats


@pytest.mark.parametrize("pool", ["classify_inputs", "evidence_inputs", "random_rationals"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_classify_flow_matches_the_reference_rule(run_module, seed, pool):
    # Some h have constant terms near 10^14: SymPy's factoring lists their
    # divisors where trial division up to the square root would take seconds.
    divisors = pytest.importorskip("sympy").divisors
    gen = run_module.gen
    if pool == "random_rationals":
        cases = [(f"random {i}", m) for i, m in enumerate(random_rationals(random.Random(seed)))]
    else:
        cases = [(x["recipe"], gen.from_json_matrix(x["matrix"]))
                 for x in getattr(gen, pool)(random.Random(seed))]
    tags = set()
    for name, mat in cases:
        v = classify_flow(mat)
        assert (v.tag, v.reason, v.period_over_pi) == reference_verdict(mat, divisors), name
        tags.add((v.tag, v.reason))
    assert len(tags) >= 5
