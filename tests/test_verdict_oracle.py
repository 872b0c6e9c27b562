"""classify_flow() against the paper's criterion on planted spectra.

Block-diagonal rational matrices are planted from blocks whose eigenvalues
are known: rational and surd rotations (+-i*beta, +-i*sqrt(q)), real scalars,
off-axis pairs a +- ib, rational Jordan blocks, coupled rotations
[[R, I], [0, R]] and even quartics l^4 + b l^2 + c whose mu-roots are
irrational; then conjugated by a unimodular matrix. The expected verdict
follows from the blocks by the paper's rule, in the documented reason order:
an eigenvalue off both axes, a real nonzero eigenvalue, a non-semisimple D,
no nonzero eigenvalue (identity flow), and otherwise periodic iff the
frequencies have rational ratios, with T = 2*pi / gcd of the frequencies.
SymPy independently confirms the planting: the conjugated matrix has the
product of the blocks' characteristic polynomials (which lieflow's char_poly
must reproduce), and a block is diagonalizable exactly when it is planted as
semisimple (D is then diagonalizable iff every block is).
"""

import math
from fractions import Fraction as F

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lieflow import char_poly, classify_flow  # noqa: E402

MAX_DIM = 8
SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# q with sqrt(q) irrational, all rational multiples of sqrt(2).
SURDS = (F(2), F(8), F(1, 2), F(18))
# (b, c) with b^2 - 4c > 0 not a square: both mu-roots negative and irrational.
QUARTICS = ((3, 1), (4, 1), (5, 3), (6, 4))
ON_AXIS = ("rotation", "surd", "zero", "coupled", "nilpotent", "quartic")
# Block kinds per case, each aimed at one verdict: the blocks on the
# imaginary axis, and the kinds of at most one block off it (one such block
# decides the verdict, so more would only repeat that reason).
CASES = {
    "identity": (("zero",), ()),
    "rational": (("rotation", "zero"), ()),
    "surd": (("surd", "zero"), ()),
    "irrational": (("rotation", "surd", "quartic", "zero"), ()),
    "defective": (("coupled", "nilpotent", "rotation", "surd", "zero"), ()),
    "real": (ON_AXIS, ("scalar", "jordan")),
    "off-axis": (ON_AXIS, ("off_axis",)),
}

def block(m, *, off_axis=False, real_nonzero=False, defective=False,
          squares=(), irrational=False):
    facts = dict(off_axis=off_axis, real_nonzero=real_nonzero, defective=defective,
                 squares=tuple(squares), irrational=irrational)
    return [[F(v) for v in row] for row in m], facts


@st.composite
def blocks(draw, kinds):
    kind = draw(st.sampled_from(kinds))
    if kind == "rotation":
        beta = draw(SMALL.filter(bool))
        return block([[0, -beta], [beta, 0]], squares=[beta * beta])
    if kind == "surd":
        q = draw(st.sampled_from(SURDS))
        return block([[0, -q], [1, 0]], squares=[q])
    if kind == "scalar":
        r = draw(SMALL)
        return block([[r]], real_nonzero=r != 0)
    if kind == "zero":  # a semisimple zero eigenvalue, maybe repeated
        k = draw(st.integers(1, 2))
        return block([[0] * k for _ in range(k)])
    if kind == "off_axis":
        a, b = draw(SMALL.filter(bool)), draw(SMALL.filter(bool))
        return block([[a, -b], [b, a]], off_axis=True)
    if kind in ("jordan", "nilpotent"):
        r = draw(SMALL.filter(bool)) if kind == "jordan" else 0
        size = draw(st.integers(2, 3))
        return block([[r if i == j else int(j == i + 1) for j in range(size)]
                      for i in range(size)], real_nonzero=r != 0, defective=True)
    if kind == "coupled":
        w = draw(SMALL.filter(bool))
        return block([[0, -w, 1, 0], [w, 0, 0, 1], [0, 0, 0, -w], [0, 0, w, 0]],
                     defective=True, squares=[w * w])
    b, c = draw(st.sampled_from(QUARTICS))
    return block([[0, 0, 0, -c], [1, 0, 0, 0], [0, 1, 0, -b], [0, 0, 1, 0]],
                 irrational=True)


@st.composite
def planted(draw, on_axis, off_axis):
    parts, n = [], 0
    drawn = draw(st.lists(blocks(on_axis), min_size=1, max_size=3))
    if off_axis:
        drawn.insert(0, draw(blocks(off_axis)))
    for m, facts in drawn:
        if n + len(m) <= MAX_DIM:
            parts.append((m, facts))
            n += len(m)
    d = sympy.diag(*[sympy.Matrix(m) for m, _ in parts])
    lower, upper = sympy.eye(n), sympy.eye(n)
    for i in range(n):
        for j in range(i):
            lower[i, j] = draw(st.integers(-2, 2))
            upper[j, i] = draw(st.integers(-2, 2))
    p = lower * upper
    return p * d * p.inv(), parts


def expected_verdict(facts):
    """(tag, reason, T/pi or None, T) by the paper's rule on the planted blocks."""
    if any(f["off_axis"] for f in facts):
        return "NoPeriodicOrbits", "NonzeroRealPart", None, None
    if any(f["real_nonzero"] for f in facts):
        return "NoPeriodicOrbits", "RealNonzeroEigenvalue", None, None
    if any(f["defective"] for f in facts):
        return "NoPeriodicOrbits", "NonSemisimpleEigenvalue", None, None
    alphas = [sympy.sqrt(sympy.Rational(sq.numerator, sq.denominator))
              for f in facts for sq in f["squares"]]
    if any(f["irrational"] for f in facts):
        return "NoPeriodicOrbits", "IrrationalRatio", None, None
    if not alphas:
        return "IdentityFlow", None, None, None
    ratios = [sympy.nsimplify(a / alphas[0]) for a in alphas]
    if not all(r.is_rational for r in ratios):
        return "NoPeriodicOrbits", "IrrationalRatio", None, None
    # The largest g with every alpha_i / g an integer.
    g = alphas[0] * sympy.Rational(math.gcd(*(r.p for r in ratios)),
                                   math.lcm(*(r.q for r in ratios)))
    over_pi = 2 / g
    exact = F(int(over_pi.p), int(over_pi.q)) if over_pi.is_rational else None
    return "PeriodicFlow", None, exact, float(2 * sympy.pi / g)


@pytest.mark.parametrize("case", list(CASES))
@settings(derandomize=True, max_examples=9, deadline=None)
@given(data=st.data())
def test_verdict_matches_planted_spectrum(case, data):
    m, parts = data.draw(planted(*CASES[case]))
    n = m.shape[0]
    facts = [f for _, f in parts]
    lam = sympy.Symbol("lam")
    planted_poly = sympy.prod(sympy.Matrix(b).charpoly(lam).as_expr() for b, _ in parts)
    charpoly = m.charpoly(lam)
    assert sympy.expand(charpoly.as_expr() - planted_poly) == 0
    for b, f in parts:  # D is diagonalizable iff every block is
        assert sympy.Matrix(b).is_diagonalizable() == (not f["defective"])

    mat = [[F(str(m[i, j])) for j in range(n)] for i in range(n)]
    assert char_poly(mat).coeffs == tuple(
        F(str(c)) for c in reversed(charpoly.all_coeffs()))
    tag, reason, over_pi, period = expected_verdict(facts)
    v = classify_flow(mat)
    assert (v.tag, v.reason) == (tag, reason)
    assert v.period_over_pi == over_pi
    if period is not None:
        assert math.isclose(v.period, period, rel_tol=1e-12)
