"""spectrum() against SymPy as an independent oracle.

Block-diagonal rational matrices are planted from repeated irreducible
quadratic and cubic factors (as copies or as coupled [[K, eps I], [0, K]]
chains), rational Jordan blocks and rotations, then conjugated by a
unimodular matrix. SymPy factors the characteristic polynomial over Q; each
irreducible factor f of multiplicity m gives every one of its roots algebraic
multiplicity m and geometric multiplicity (n - rank f(D)) / deg f.
"""

from fractions import Fraction as F

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lieflow import spectrum  # noqa: E402

MAX_DIM = 8
# Irreducible cubics whose roots are far apart, also across the list, so that
# the numeric path never has to merge roots of one square-free factor.
CUBICS = ((-2, 0, 0), (-1, -3, 0), (1, 1, 0), (-1, -1, 0), (-5, 0, 1))  # c0, c1, c2
SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# Couplings of the [[K, eps I], [0, K]] chains, down to far below any float
# rank tolerance.
COUPLINGS = (F(1), F(1, 10**6), F(1, 10**10), F(1, 10**30))


def companion(c):
    """Companion matrix of the monic polynomial with low coefficients c."""
    n = len(c)
    return [[F(int(i == j + 1)) if j < n - 1 else F(-c[i]) for j in range(n)]
            for i in range(n)]


def repeated(k, copies, coupling):
    """copies of k on the diagonal, with coupling * I blocks above it."""
    d = len(k)
    n = d * copies
    m = [[F(0)] * n for _ in range(n)]
    for b in range(copies):
        for i in range(d):
            for j in range(d):
                m[b * d + i][b * d + j] = k[i][j]
            if b + 1 < copies:
                m[b * d + i][(b + 1) * d + i] = coupling
    return m


@st.composite
def blocks(draw):
    kind = draw(st.sampled_from(("jordan", "rotation", "quadratic", "cubic")))
    if kind == "jordan":
        value, size = draw(SMALL), draw(st.integers(1, 3))
        return [[value if i == j else F(int(j == i + 1)) for j in range(size)]
                for i in range(size)]
    if kind == "rotation":
        beta = draw(SMALL.filter(bool))
        return [[F(0), -beta], [beta, F(0)]]
    coupling = draw(st.sampled_from(COUPLINGS)) if draw(st.booleans()) else F(0)
    if kind == "quadratic":
        # l^2 + b l + c with disc -4t: a complex pair for t > 0, real surds below.
        b, t = draw(SMALL), draw(st.sampled_from((F(1), F(3, 4), F(2), F(-2), F(-3))))
        return repeated(companion((b * b / 4 + t, b)), draw(st.integers(1, 2)), coupling)
    # Always repeated: numeric roots of a factor of multiplicity 2, whose
    # geometric multiplicity the restriction of D to ker s(D) decides.
    return repeated(companion(draw(st.sampled_from(CUBICS))), 2, coupling)


@st.composite
def planted(draw):
    parts, n = [], 0
    for block in draw(st.lists(blocks(), min_size=2, max_size=4)):
        if n + len(block) <= MAX_DIM:
            parts.append(block)
            n += len(block)
    d = sympy.diag(*[sympy.Matrix(b) for b in parts])
    lower, upper = sympy.eye(n), sympy.eye(n)
    for i in range(n):
        for j in range(i):
            lower[i, j] = draw(st.integers(-2, 2))
            upper[j, i] = draw(st.integers(-2, 2))
    p = lower * upper
    return p * d * p.inv()


def oracle(m):
    """[(roots as complex, rational root or None, alg_mult, geom_mult)]."""
    lam = sympy.Symbol("lam")
    n = m.shape[0]
    _, factors = sympy.factor_list(m.charpoly(lam).as_expr(), lam)
    out = []
    for f, mult in factors:
        poly = sympy.Poly(f, lam)
        f_of_m = sympy.zeros(n, n)
        for c in poly.all_coeffs():
            f_of_m = f_of_m * m + c * sympy.eye(n)
        geom = (n - f_of_m.rank()) // poly.degree()
        rational = (F(str(-poly.all_coeffs()[1] / poly.all_coeffs()[0]))
                    if poly.degree() == 1 else None)
        for root in poly.nroots(n=30):
            out.append((complex(root), rational, mult, geom))
    return out


@settings(derandomize=True, max_examples=60, deadline=None)
@given(planted())
def test_spectrum_matches_sympy_oracle(m):
    mat = [[F(str(v)) for v in m.row(i)] for i in range(m.shape[0])]
    s = spectrum(mat)
    expected = oracle(m)
    assert not s.ill_conditioned, s.notes
    assert len(s.classes) == len(expected)
    for c in s.classes:
        root, rational, mult, geom = min(expected, key=lambda e: abs(e[0] - c.value))
        assert abs(root - c.value) < 1e-6 * max(1.0, abs(root))
        assert (c.alg_mult, c.geom_mult) == (mult, geom)
        if rational is not None:
            assert (c.exact_re, c.exact_im_sq) == (rational, 0)
