"""Characteristic polynomials and eigenvalue classing against brute oracles."""

import math
import random
from decimal import Context, Decimal
from fractions import Fraction as F

import numpy as np
import pytest

from lieflow import char_poly, inner_derivation, spectrum
from lieflow.catalog import get_entry


def mat_mul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), F(0)) for j in range(len(b[0]))]
            for i in range(len(a))]


def mat_identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


# --- independent char-poly oracle: Laplace expansion over a polynomial ring ----


def poly_add(p, q):
    out = [F(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return out


def poly_mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_det(m):
    """Determinant of a matrix of polynomials by first-column expansion."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = [F(0)]
    for r in range(n):
        minor = [
            [m[i][j] for j in range(1, n)] for i in range(n) if i != r
        ]
        term = poly_mul(m[r][0], poly_det(minor))
        if r % 2 == 1:
            term = [-c for c in term]
        total = poly_add(total, term)
    return total


def charpoly_oracle(mat):
    """Coefficients of det(lambda*I - M), ascending, via cofactor expansion."""
    n = len(mat)
    poly_matrix = [
        [
            [F(-mat[i][j]), F(1)] if i == j else [F(-mat[i][j])]
            for j in range(n)
        ]
        for i in range(n)
    ]
    det = poly_det(poly_matrix)
    return tuple(det + [F(0)] * (n + 1 - len(det)))


def rand_matrix(rng, n, den=3):
    return tuple(
        tuple(F(rng.randint(-5, 5), rng.randint(1, den)) for _ in range(n))
        for _ in range(n)
    )


def test_char_poly_matches_cofactor_oracle():
    rng = random.Random(101)
    for n in (2, 3, 4):
        for _ in range(5):
            m = rand_matrix(rng, n)
            assert char_poly(m).coeffs == charpoly_oracle(m)


def faddeev_leverrier(mat):
    """The trace recursion char_poly ran before Berkowitz's algorithm: n
    products of Fraction matrices, M_k = A M_(k-1) + c_k I, c_k = -tr(A M_(k-1))/k."""
    n = len(mat)
    work = mat_identity(n)
    coeffs_desc = [F(1)]
    for k in range(1, n + 1):
        am = mat_mul(mat, work)
        ck = -sum((am[i][i] for i in range(n)), F(0)) / k
        coeffs_desc.append(ck)
        for i in range(n):
            am[i][i] += ck
        work = am
    return tuple(reversed(coeffs_desc))


def test_char_poly_matches_trace_recursion_on_seeded_matrices():
    # 40 matrices per size n = 0..8, sparse and dense, with the mixed
    # denominators that make the lcm d and the rescaling by d^(n-k) matter.
    rng = random.Random(909)
    for n in range(9):
        for _ in range(40):
            m = tuple(
                tuple(F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))
                      if rng.random() < 0.7 else F(0) for _ in range(n))
                for _ in range(n)
            )
            assert char_poly(m).coeffs == faddeev_leverrier(m), m


def test_char_poly_random_4x4_oracle():
    rng = random.Random(303)
    m = rand_matrix(rng, 4)
    assert char_poly(m).coeffs == charpoly_oracle(m)


def test_cayley_hamilton_exact():
    from lieflow.dersolve import coerce_matrix
    from lieflow.spectral import _poly_at

    rng = random.Random(202)
    for n in (2, 3, 4):
        m = rand_matrix(rng, n)
        # d^N p(M), from the integer Horner of p's primitive form
        residue, _ = _poly_at(list(char_poly(m).ints), *coerce_matrix(m).scaled)
        assert all(v == 0 for row in residue for v in row)


def test_char_poly_sl2_inner_unit():
    d = inner_derivation(get_entry("sl2").structure, (1, 0, 0))
    assert char_poly(d).coeffs == (F(0), F(4), F(0), F(1))


def test_char_poly_zero_matrix():
    z = ((0, 0, 0), (0, 0, 0), (0, 0, 0))
    assert char_poly(z).coeffs == (F(0), F(0), F(0), F(1))


def test_char_poly_is_monic_of_full_degree():
    rng = random.Random(404)
    m = rand_matrix(rng, 5)
    p = char_poly(m)
    assert len(p.ints) - 1 == 5
    assert p.coeffs[-1] == 1


# --- spectrum: exact classes ---------------------------------------------------


def test_spectrum_sl2_unit_rotation():
    d = inner_derivation(get_entry("sl2").structure, (1, 0, 0))
    s = spectrum(d)
    assert not s.ill_conditioned
    values = sorted((c.value.real, c.value.imag) for c in s.classes)
    assert values == [(0.0, -2.0), (0.0, 0.0), (0.0, 2.0)]
    assert all(c.semisimple for c in s.classes)
    pair = [c for c in s.classes if c.value.imag > 0][0]
    assert pair.exact_re == 0 and pair.exact_im_sq == 4


def test_spectrum_nilpotent_jordan_block():
    s = spectrum(((0, 0), (1, 0)))
    assert len(s.classes) == 1
    c = s.classes[0]
    assert c.value == 0 and c.alg_mult == 2 and c.geom_mult == 1
    assert not c.semisimple


def test_spectrum_identity():
    for n in (2, 4):
        eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        s = spectrum(eye)
        assert len(s.classes) == 1
        c = s.classes[0]
        assert c.exact_re == 1 and c.alg_mult == n and c.geom_mult == n
        assert c.semisimple


def test_spectrum_rational_roots_with_multiplicity():
    m = ((F(1, 2), 1, 0), (0, F(1, 2), 0), (0, 0, F(-3)))
    s = spectrum(m)
    by_value = {c.exact_re: c for c in s.classes}
    assert by_value[F(1, 2)].alg_mult == 2
    assert by_value[F(1, 2)].geom_mult == 1
    assert not by_value[F(1, 2)].semisimple
    assert by_value[F(-3)].semisimple


def test_spectrum_even_poly_exact_pairs():
    # Rotation speeds 1 and 3: char poly (l^2+1)(l^2+9), no rational roots.
    m = (
        (0, -1, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 0, -3),
        (0, 0, 3, 0),
    )
    s = spectrum(m)
    positives = sorted(
        (c for c in s.classes if c.value.imag > 0), key=lambda c: c.value.imag
    )
    assert [c.exact_im_sq for c in positives] == [F(1), F(9)]
    assert all(c.exact_re == 0 and c.semisimple for c in positives)
    assert not s.ill_conditioned


def test_spectrum_real_surd_pair_semisimple():
    # blkdiag(companion(l^2-2), companion(l^2-2)): eigenvalues +-sqrt(2), each twice.
    m = (
        (0, 2, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 0, 2),
        (0, 0, 1, 0),
    )
    s = spectrum(m)
    assert len(s.classes) == 2
    for c in s.classes:
        assert c.alg_mult == 2 and c.geom_mult == 2 and c.semisimple
        assert c.exact_im_sq == 0 and c.exact_re is None
        assert abs(abs(c.value.real) - math.sqrt(2)) < 1e-12


def test_spectrum_real_surd_jordan_chain_not_semisimple():
    # [[C, I], [0, C]] with C = companion(l^2-2): chains of length 2.
    m = (
        (0, 2, 1, 0),
        (1, 0, 0, 1),
        (0, 0, 0, 2),
        (0, 0, 1, 0),
    )
    s = spectrum(m)
    assert len(s.classes) == 2
    for c in s.classes:
        assert c.alg_mult == 2 and c.geom_mult == 1 and not c.semisimple


def test_trace_and_determinant_consistency():
    rng = random.Random(505)
    for _ in range(5):
        m = rand_matrix(rng, 4)
        s = spectrum(m)
        p = char_poly(m)
        trace = float(sum(m[i][i] for i in range(4)))
        eig_sum = sum(c.value * c.alg_mult for c in s.classes)
        eig_prod = 1.0 + 0.0j
        for c in s.classes:
            eig_prod *= c.value**c.alg_mult
        assert abs(eig_sum.real - trace) < 1e-9 * max(1, abs(trace))
        assert abs(eig_sum.imag) < 1e-9
        det = float((-1) ** 4 * p.coeffs[0])
        assert abs(eig_prod.real - det) < 1e-9 * max(1, abs(det))


# --- planted Jordan structures -------------------------------------------------


def real_jordan_matrix(blocks):
    """Block-diagonal real Jordan matrix from (eigenvalue, size) plants."""
    n = sum(size for _, size in blocks)
    m = [[F(0)] * n for _ in range(n)]
    pos = 0
    for value, size in blocks:
        for k in range(size):
            m[pos + k][pos + k] = F(value)
            if k + 1 < size:
                m[pos + k][pos + k + 1] = F(1)
        pos += size
    return m


def unimodular_conjugate(rng, m):
    """P m P^-1 with P = L U unit-triangular, exact arithmetic."""
    n = len(m)
    lower = mat_identity(n)
    upper = mat_identity(n)
    for i in range(n):
        for j in range(i):
            lower[i][j] = F(rng.randint(-2, 2))
            upper[j][i] = F(rng.randint(-2, 2))
    p = mat_mul(lower, upper)
    # Invert the unit-triangular factors by forward substitution.
    def invert_unit(tri, is_lower):
        inv = mat_identity(n)
        order = range(n) if is_lower else range(n - 1, -1, -1)
        for col in range(n):
            for i in order:
                acc = F(1 if i == col else 0)
                kr = range(i) if is_lower else range(i + 1, n)
                for k in kr:
                    acc -= tri[i][k] * inv[k][col]
                inv[i][col] = acc
        return inv

    p_inv = mat_mul(invert_unit(upper, False), invert_unit(lower, True))
    prod = mat_mul(p, mat_mul(m, p_inv))
    check = mat_mul(p, p_inv)
    assert check == mat_identity(n)
    return prod


def test_planted_jordan_blocks_exact_path():
    rng = random.Random(606)
    eigen_pool = [F(-2), F(-1), F(0), F(1, 2), F(1), F(3)]
    for _ in range(20):
        sizes = []
        total = 0
        while total < 6:
            s = rng.randint(1, min(3, 6 - total))
            sizes.append(s)
            total += s
        values = rng.sample(eigen_pool, len(sizes))
        blocks = list(zip(values, sizes))
        m = unimodular_conjugate(rng, real_jordan_matrix(blocks))
        s = spectrum(m)
        expected = {}
        for value, size in blocks:
            alg, geom = expected.get(value, (0, 0))
            expected[value] = (alg + size, geom + 1)
        assert len(s.classes) == len(expected)
        for c in s.classes:
            alg, geom = expected[c.exact_re]
            assert c.alg_mult == alg
            assert c.geom_mult == geom
            assert c.semisimple == (alg == geom)


def test_similarity_invariance_of_multiplicities():
    rng = random.Random(707)
    base = real_jordan_matrix([(F(1), 2), (F(1), 1), (F(-1, 2), 1)])
    reference = spectrum(base)
    conjugated = spectrum(unimodular_conjugate(rng, base))
    ref = sorted((c.value.real, c.alg_mult, c.geom_mult) for c in reference.classes)
    got = sorted((c.value.real, c.alg_mult, c.geom_mult) for c in conjugated.classes)
    assert ref == got


# --- numeric path and ill-conditioning -----------------------------------------


def test_spectrum_numeric_complex_pairs():
    # Distinct rotation pairs with an irrational-looking coupling, degree 6,
    # odd coefficients present: forces the numeric branch.
    rng = np.random.default_rng(42)
    blocks = [(0.3, 1.1), (-0.7, 2.3), (1.5, 3.7)]
    cells = []
    for al, be in blocks:
        cells.append(np.array([[al, -be], [be, al]]))
    m = np.zeros((6, 6))
    for i, cell in enumerate(cells):
        m[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = cell
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    m = q @ m @ q.T
    s = spectrum(m)
    pos = sorted(
        (c for c in s.classes if c.value.imag > 0), key=lambda c: c.value.imag
    )
    assert len(pos) == 3
    for c, (al, be) in zip(pos, blocks):
        assert abs(c.value.real - al) < 1e-6
        assert abs(c.value.imag - be) < 1e-6
        assert c.alg_mult == 1 and c.geom_mult == 1 and c.semisimple


def test_spectrum_flags_unresolvable_clusters():
    # Two complex pairs 1e-13 apart (plus a well-separated third) cannot be
    # told apart numerically; the merged cluster must be flagged, not silent.
    rng = np.random.default_rng(9)
    blocks = [(0.3, 1.1), (0.3 + 1e-13, 1.1), (1.5, 3.7)]
    m = np.zeros((6, 6))
    for i, (al, be) in enumerate(blocks):
        m[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[al, -be], [be, al]]
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    m = q @ m @ q.T
    s = spectrum(m)
    assert s.ill_conditioned
    assert s.notes
    merged = [c for c in s.classes if c.value.imag > 0 and c.alg_mult == 2]
    assert merged, "the indistinguishable pairs should merge pessimistically"


# --- numeric real axis: clustered by real part ---------------------------------


def orthogonal_conjugate(seed, *blocks):
    """Q (blocks as one block-diagonal matrix) Q^T in floats, Q a seeded
    orthogonal matrix, so that no exact path sees the planted structure."""
    m = np.array(block_diag(*blocks), dtype=float)
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=m.shape))
    return q @ m @ q.T


def real_classes_near(s, value):
    return [c for c in s.classes if c.value.imag == 0 and abs(c.value.real - value) < 1e-4]


def test_float_jordan_block_is_one_flagged_real_class():
    s = spectrum(orthogonal_conjugate(11, ((1, 1), (0, 1)), ((-2,),), ((0.5,),)))
    assert s.ill_conditioned and s.notes
    (c,) = real_classes_near(s, 1)
    assert (c.alg_mult, c.geom_mult, c.semisimple) == (2, 1, False)
    assert [len(real_classes_near(s, v)) for v in (-2, 0.5)] == [1, 1]
    assert all(c.exact_re is None for c in s.classes)


def test_near_equal_real_roots_merge_semisimple():
    s = spectrum(orthogonal_conjugate(12, ((1,),), ((1 + 1e-10,),), ((-2,),), ((0.5,),)))
    assert s.ill_conditioned
    (c,) = real_classes_near(s, 1)
    assert (c.alg_mult, c.geom_mult, c.semisimple) == (2, 2, True)


def test_near_axis_pair_is_one_flagged_real_class():
    # 1 +- 1.5e-6 i lies within the guard (1e-6 times the largest modulus,
    # |0.3 + 2i|) of the real axis but more than one guard apart: it cannot be
    # told from a double real root, so it is flagged, not split silently.
    s = spectrum(orthogonal_conjugate(
        13, ((1, -1.5e-6), (1.5e-6, 1)), ((0.3, -2), (2, 0.3))))
    assert s.ill_conditioned and len(s.notes) == 1
    (c,) = real_classes_near(s, 1)
    assert c.alg_mult == 2
    pair = [c for c in s.classes if c.value.imag != 0]
    assert sorted(round(c.value.imag, 6) for c in pair) == [-2, 2]
    assert all(c.alg_mult == 1 and abs(c.value.real - 0.3) < 1e-6 for c in pair)


# --- square-free core: exact multiplicities and complete rational roots -------


C = ((0, -1), (1, -1))  # companion of l^2 + l + 1


def rot(beta):
    return ((0, -beta), (beta, 0))


def block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[F(0)] * n for _ in range(n)]
    pos = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                out[pos + i][pos + j] = F(v)
        pos += len(b)
    return out


def test_repeated_irreducible_quadratic_is_one_exact_pair():
    for copies in (2, 3):
        s = spectrum(block_diag(*[C] * copies))
        assert not s.ill_conditioned
        assert len(s.classes) == 2
        for c in s.classes:
            assert c.exact_re == F(-1, 2) and c.exact_im_sq == F(3, 4)
            assert c.alg_mult == copies and c.geom_mult == copies and c.semisimple


def test_coupled_irreducible_quadratic_is_not_semisimple():
    m = block_diag(C, C)
    m[0][2] = m[1][3] = F(1)  # [[C, I], [0, C]]
    s = spectrum(m)
    assert not s.ill_conditioned
    assert [(c.alg_mult, c.geom_mult, c.semisimple) for c in s.classes] == [(2, 1, False)] * 2


def int_poly_mul(*polys):
    out = [1]
    for q in polys:
        prod = [0] * (len(out) + len(q) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(q):
                prod[i + j] += a * b
        out = prod
    return out


def test_rational_roots_are_found_not_guessed():
    # Roots 1/123457 and 2/123457 are far below any float clustering scale.
    from lieflow.spectral import _rational_roots

    p = int_poly_mul([-1, 123457], [-2, 123457], [-2, 0, 1])
    assert _rational_roots(p) == [F(1, 123457), F(2, 123457)]
    assert _rational_roots([-2, 0, 1]) == []  # x^2 - 2
    assert _rational_roots([0, 1]) == [F(0)]
    # Two irrational roots, sqrt(2) and sqrt(3), and no rational one.
    assert _rational_roots(int_poly_mul([-2, 0, 1], [-3, 0, 1])) == []


def divisors(n):
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def rational_roots_oracle(s, divisors=divisors):
    """Every rational root of s by the rational root theorem: after the root 0
    is split off, a root u/v in lowest terms has u | s_0 and v | lc(s), and
    |u/v| < 1 + M/|lc(s)|, M the largest |coefficient| (Cauchy); each such
    candidate is evaluated exactly as v^deg s(u/v). `divisors(n)` lists the
    positive divisors of n."""
    lowest = next(k for k, c in enumerate(s) if c)
    t, roots = s[lowest:], [F(0)] if lowest else []
    deg, lead, most = len(t) - 1, abs(t[-1]), max(abs(c) for c in t)
    us = divisors(t[0])
    for v in divisors(lead):
        for u in us:
            if u * lead >= v * (lead + most) or math.gcd(u, v) != 1:
                continue
            for x in (u, -u):
                if not sum(c * x**k * v ** (deg - k) for k, c in enumerate(t)):
                    roots.append(F(x, v))
    return sorted(roots)


def primitive(p):
    g = math.gcd(*p)
    return [c // g for c in p]


def sympy_ints(poly, sign=1):
    """A nonzero SymPy Poly as a primitive integer list, lowest degree first,
    whose leading coefficient has the sign of `sign`."""
    q = [int(c) for c in reversed(poly.primitive()[1].all_coeffs())]
    return [-c for c in q] if (q[-1] < 0) != (sign < 0) else q


def sympy_poly(p):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly(p[::-1], sympy.Symbol("x"))


def sympy_rad(p):
    """rad(p), the product of the distinct irreducible factors of p, by SymPy:
    primitive, with the sign of p's leading coefficient."""
    return sympy_ints(sympy_poly(p).sqf_part(), p[-1])


def sympy_gcd(a, b):
    """gcd(a, b) of integer polynomials, not both zero, by SymPy: primitive,
    with a positive leading coefficient."""
    return sympy_ints(sympy_poly(a).gcd(sympy_poly(b)))


def planted_square_free(rng, big):
    """A primitive square-free integer polynomial with planted rational roots
    (one of them with a denominator up to 10^6 when `big`) and irreducible
    rests without rational roots, each with its planted rational roots."""
    roots = set()
    while len(roots) < rng.randint(1, 3 if big else 5):
        roots.add(F(rng.randint(-30, 30), rng.randint(1, 8)))
    if big:
        roots.add(F(rng.randint(-10**6, 10**6), rng.randint(10**5, 10**6)))
    rests = rng.sample([[1, 0, 1], [3, 0, 1], [-2, 0, 1], [-7, 0, 3], [1, 1, 0, 1],
                        [1, -1, 1], [-5, 0, 0, 2]], rng.randint(0, 2))
    factors = [[-r.numerator, r.denominator] for r in roots] + rests
    p = primitive(int_poly_mul(*factors))
    return ([-c for c in p] if rng.random() < 0.5 else p), sorted(roots)


def test_rational_roots_match_the_rational_root_theorem():
    from lieflow.spectral import _rational_roots

    rng = random.Random(1313)
    cases = [planted_square_free(rng, big=i % 3 == 0) for i in range(60)]
    # A root at 0.
    cases += [(int_poly_mul([0, 1], [-3, 7], [2, 0, 1]), [F(0), F(3, 7)])]
    # A root exactly at +-Cauchy's bound (the positive root of
    # |a_n| x^n - sum |a_k| x^k), and next to the ends of (-aB, aB].
    cases += [
        ([-2, -1, 1], [F(-1), F(2)]),  # (x - 2)(x + 1)
        (int_poly_mul([-3, 2], [1, 1, 1]), [F(3, 2)]),  # 2x^3 - x^2 - x - 3
        (int_poly_mul([3, 2], [1, -1, 1]), [F(-3, 2)]),  # its mirror image
        ([-10**6 + 1, 1], [F(10**6 - 1)]),
        ([999983, 10**6], [F(-999983, 10**6)]),
    ]
    # Two roots u/a and (u + P)/a, P the product of the primes up to p, meet
    # modulo each of those primes, where s then has a double root: the lift
    # skips them all and starts at the next prime that does not divide a.
    primorial = 1
    for p in (2, 3, 5, 7, 11, 13):
        primorial *= p
        for a in (1, 7, 10**6 - 1):  # 10^6 - 1 = 3^3 7 11 13 37
            for u in (-1, 4, a + 2):
                if math.gcd(u, a) == math.gcd(u + primorial, a) == 1:
                    s = primitive(int_poly_mul([-u, a], [-u - primorial, a]))
                    cases.append((s, [F(u, a), F(u + primorial, a)]))
    # h(mu) of rational rotations: several negative rational roots -w^2.
    for ws in ([F(1), F(2), F(3)], [F(1, 2), F(3, 5), F(7, 3)], [F(1, 123457), F(5, 3)]):
        h = primitive(int_poly_mul(*[[w.numerator ** 2, w.denominator ** 2] for w in ws]))
        cases.append((h, sorted(-w * w for w in ws)))
    # The lift's edge cases: roots that collide modulo a prime ((x - 1)(x - 4)
    # at 3, and (x - 1)(x - 211) at 2, 3, 5 and 7, which are then skipped), a
    # leading coefficient that every prime up to 13 divides, a root at 0, and
    # no root at all modulo the first usable prime (x^2 + x + 1 has none mod 2).
    cases += [
        (int_poly_mul([-1, 1], [-4, 1]), [F(1), F(4)]),
        (int_poly_mul([-1, 1], [-211, 1]), [F(1), F(211)]),
        (int_poly_mul([-1, 30030], [-2, 1], [1, 0, 1]), [F(1, 30030), F(2)]),
        (int_poly_mul([0, 1], [-1, 30030], [5, 1, 3]), [F(0), F(1, 30030)]),
        (int_poly_mul([0, 1], [-1, 2], [3, 0, 1]), [F(0), F(1, 2)]),
        (int_poly_mul([1, 1, 1], [3, 1, 1]), []),
    ]
    for s, planted in cases:
        expected = rational_roots_oracle(s)
        assert expected == sorted(planted), s
        assert _rational_roots(s) == expected, s


def test_rational_roots_need_every_lifting_round():
    # (a x - k)(x^2 + x + 1), a odd, has one simple root mod 2, so the lift
    # runs at q = 2 through 2, 4, 16, ..., 2^512, then the least power of 2
    # above 2(a + max|s_i|). Each k here has 997 to 1001 bits, so its root
    # is read only in that last, capped round.
    from lieflow.spectral import _rational_roots

    sympy = pytest.importorskip("sympy")
    for a, k in ((1, 2**997), (3, 2**997), (3, -5**429), (7, 5**429 * 2**3), (1, -2**1000)):
        s = int_poly_mul([-k, a], [1, 1, 1])
        expected = rational_roots_oracle(s, divisors=sympy.divisors)
        assert expected == [F(k, a)], (a, k)
        assert _rational_roots(s) == expected, (a, k)


def fraction_horner(f, m):
    """f(M) by Horner in Fraction arithmetic; f lowest degree first."""
    acc = [[F(0)] * len(m) for _ in m]
    for c in reversed(f):
        acc = mat_mul(acc, m)
        for i in range(len(m)):
            acc[i][i] += c
    return acc


def test_integer_kernels_match_fraction_references():
    from lieflow import classify_flow
    from lieflow.dersolve import coerce_matrix
    from lieflow.spectral import _poly_at

    rng = random.Random(1414)
    mats = [rand_matrix(rng, n, den=7) for n in range(1, 7) for _ in range(6)]
    # Float entries with 2^-k denominators, which coerce_matrix converts exactly.
    mats += [[[rng.randint(-40, 40) / 2 ** rng.randint(0, 9) for _ in range(n)]
              for _ in range(n)] for n in (2, 3, 5) for _ in range(4)]
    # Repeated rotations, semisimple or coupled by a Jordan block, and a
    # Jordan block of 0 beside a rotation.
    coupled = block_diag(rot(F(2, 3)), rot(F(2, 3)))
    coupled[0][2] = coupled[1][3] = F(1)
    planted = [
        ("PeriodicFlow", block_diag(rot(F(2, 3)), rot(F(2, 3)), rot(F(4, 3)))),
        ("NonSemisimpleEigenvalue", coupled),
        ("NonSemisimpleEigenvalue", block_diag(((0, 1), (0, 0)), rot(F(1, 2)))),
    ]
    planted = [(expected, unimodular_conjugate(rng, m)) for expected, m in planted]
    for m in mats + [m for _, m in planted]:
        mq = coerce_matrix(m).entries
        ref = faddeev_leverrier(mq)
        den = math.lcm(*[c.denominator for c in ref])
        assert list(char_poly(m).ints) == primitive([int(c * den) for c in ref])
        assert char_poly(m).coeffs == ref
        rad = sympy_rad(char_poly(m).ints)
        value, scale = _poly_at(rad, *coerce_matrix(m).scaled)
        f_of_m = fraction_horner(rad, mq)
        assert value == [[v * scale for v in row] for row in f_of_m]
    for expected, m in planted:
        verdict = classify_flow(m)
        assert expected in (verdict.tag, verdict.reason)
        rad = sympy_rad(char_poly(m).ints)
        at_m = _poly_at(rad, *coerce_matrix(m).scaled)[0]
        assert any(map(any, at_m)) == (verdict.tag != "PeriodicFlow")


def test_square_free_decomposition_of_planted_powers():
    from lieflow.spectral import _square_free

    quad, lin, cub = [1, 1, 1], [-1, 3], [-2, 0, 0, 1]
    p = int_poly_mul(quad, quad, quad, lin, cub, cub, cub, cub)
    assert _square_free(p) == [(lin, 1), (quad, 3), (cub, 4)]


def test_square_free_matches_sympy_sqf_list():
    # Seeded products of planted factors, each to a power 1-5: the root 0,
    # rational roots, +-lambda pairs (rational and surd), irreducible
    # quadratics, a cubic, and leading coefficients above 1.
    from lieflow.spectral import _square_free

    pool = [[0, 1], [-1, 1], [2, 1], [-3, 2], [5, 7], [-4, 0, 1], [-9, 0, 4], [-2, 0, 1],
            [1, 0, 1], [9, 0, 4], [1, 1, 1], [3, -2, 1], [-2, 0, 0, 1]]
    rng = random.Random(3535)
    cases = [int_poly_mul([0, 1], [1, 0, 1], [1, 0, 1], [-9, 0, 4], [-9, 0, 4], [-9, 0, 4])]
    for _ in range(150):
        factors = rng.sample(pool, rng.randint(1, 4))
        cases.append(int_poly_mul(*[f for f in factors for _ in range(rng.randint(1, 5))]))
    seen = set()
    for p in map(primitive, cases):
        got = _square_free(p)
        want = [(sympy_ints(f), k) for f, k in sympy_poly(p).sqf_list()[1]]
        assert got == sorted(want, key=lambda fk: fk[1]), p
        assert all(s == primitive(s) and s[-1] > 0 and len(s) > 1 for s, _ in got), p
        assert int_poly_mul(*[s for s, k in got for _ in range(k)]) == p, p
        seen.update(k for _, k in got)
    assert seen >= {1, 2, 3, 4, 5}


def test_tiny_rational_rotations_are_exact():
    s = spectrum(block_diag(rot(F(1, 123457)), rot(F(2, 123457))))
    positives = sorted((c for c in s.classes if c.value.imag > 0), key=lambda c: c.value.imag)
    assert [c.exact_im_sq for c in positives] == [F(1, 123457**2), F(4, 123457**2)]
    assert all(c.exact_re == 0 and c.semisimple for c in positives)


@pytest.mark.parametrize("b", [F(1, 10**160), F(10**300)], ids=["1/10^160", "10^300"])
def test_extreme_pairs_are_correctly_rounded(b):
    # b^2 is subnormal or beyond the float range, so a root through
    # float(b^2) would be inexact or overflow.
    s = spectrum([[0, -b], [b, 0]])
    assert [c.value for c in s.classes] == [complex(0, -float(b)), complex(0, float(b))]
    assert all(c.exact_im_sq == b * b for c in s.classes)
    # +-b*sqrt(2), from the discriminant 8 b^2 of lambda^2 - 2 b^2.
    want = float(Context(prec=60).sqrt(Decimal(2 * b.numerator**2) / Decimal(b.denominator**2)))
    s = spectrum([[0, b], [2 * b, 0]])
    assert sorted(c.value.real for c in s.classes) == [-want, want]


BIG = 10**400  # past the float max, about 1.8e308


@pytest.mark.parametrize("mat, values, certificates", [
    ([[BIG]], [complex(math.inf)], [(BIG, 0)]),
    ([[BIG, 1], [-1, BIG]], [complex(math.inf, -1), complex(math.inf, 1)], [(BIG, 1)] * 2),
    ([[BIG, 2], [1, BIG]], [complex(math.inf)] * 2, [(None, 0)] * 2),
    # (1 +- sqrt 2) BIG: the roots of re +- sqrt(disc)/2 have opposite signs.
    ([[BIG, 2 * BIG**2], [1, BIG]], [complex(-math.inf), complex(math.inf)], [(None, 0)] * 2),
], ids=["rational", "complex-pair", "real-surd-pair", "real-surd-pair-of-both-signs"])
def test_exact_eigenvalues_past_the_float_range_display_as_infinite(mat, values, certificates):
    # Each part of a display value saturates to +-inf, as _sqrt's imaginary
    # part does; exact_re and exact_im_sq keep the exact values.
    s = spectrum(mat)
    assert [c.value for c in s.classes] == values
    assert [(c.exact_re, c.exact_im_sq) for c in s.classes] == certificates
    assert spectrum([[-v for v in row] for row in mat]).classes[0].value.real == -math.inf


@pytest.mark.parametrize("b, c", [(-2 * 10**8, 1), (3, -1), (-7, 5), (10**20, -10**30)])
def test_real_surd_pair_near_root_is_read_by_vieta(b, c):
    # lambda^2 + b lambda + c: the far root re + sign(re) sqrt(disc)/2 first,
    # the near one as c / far, correctly rounded; re - sqrt(disc)/2 in floats
    # cancels (1e8 - 1e8 = 0 for the first pair, whose near root is 5e-9).
    root = Context(prec=80).sqrt(Decimal(b * b - 4 * c)) / 2
    far = Decimal(-b) / 2 + (root if b <= 0 else -root)
    near = Context(prec=80).divide(Decimal(c), far)
    values = [c.value.real for c in spectrum([[0, -c], [1, -b]]).classes]
    assert float(near) in values
    assert math.prod(values) == pytest.approx(c, rel=1e-15)


def test_float_rotations_have_exact_binary_mu_roots():
    s = spectrum(block_diag(rot(0.1), rot(0.2), rot(0.4)))
    positives = sorted((c for c in s.classes if c.value.imag > 0), key=lambda c: c.value.imag)
    assert [c.exact_im_sq for c in positives] == [F(b) ** 2 for b in (0.1, 0.2, 0.4)]


def test_repeated_numeric_factor_semisimplicity_is_exact():
    # companion(l^3 - 3l - 1) has three irrational real roots; two copies are
    # semisimple, a coupled pair [[K, I], [0, K]] is not.
    k = ((0, 0, 1), (1, 0, 3), (0, 1, 0))
    s = spectrum(block_diag(k, k))
    assert not s.ill_conditioned
    assert len(s.classes) == 3
    assert all(c.alg_mult == 2 and c.geom_mult == 2 and c.semisimple for c in s.classes)
    assert all(c.exact_re is None for c in s.classes)
    m = block_diag(k, k)
    for i in range(3):
        m[i][i + 3] = F(1)
    s = spectrum(m)
    assert not s.ill_conditioned
    assert all(c.alg_mult == 2 and c.geom_mult == 1 and not c.semisimple for c in s.classes)


# --- geometric multiplicities: one exact rule for every piece ------------------


EPS = (F(1), F(1, 10**6), F(1, 10**10), F(1, 10**14), F(1, 10**30))


def companion(*low):
    """Companion matrix of the monic polynomial with low coefficients `low`."""
    n = len(low)
    return [[F(int(i == j + 1)) if j < n - 1 else F(-low[i]) for j in range(n)]
            for i in range(n)]


CUBE2, CUBE3 = companion(-2, 0, 0), companion(-3, 0, 0)  # l^3 - 2, l^3 - 3
QUARTIC = companion(1, 1, 0, 0)  # l^4 + l + 1, irreducible over Q


def coupled(eps, *blocks):
    """block_diag(*blocks) plus eps * I from the first block to the second,
    which has the same size: one Jordan chain of length 2 per root."""
    m = block_diag(*blocks)
    d = len(blocks[0])
    for i in range(d):
        m[i][d + i] = F(eps)
    return m


def multiplicities(s):
    return sorted((c.alg_mult, c.geom_mult) for c in s.classes)


def test_weakly_coupled_cubic_is_not_semisimple():
    # [[C, eps I], [0, C]], C = companion(l^3 - 2): a singular value of
    # (D - r)(D - r') near eps made an SVD rank at 1e-9 call it semisimple.
    for eps in EPS:
        s = spectrum(coupled(eps, CUBE2, CUBE2))
        assert not s.ill_conditioned, eps
        assert multiplicities(s) == [(2, 1)] * 3, eps


def test_one_yun_factor_with_two_geometric_multiplicities():
    # (l^3 - 2)^2 (l^3 - 3)^2: one square-free factor s of multiplicity 2, whose
    # roots of l^3 - 2 are coupled and those of l^3 - 3 semisimple.
    for eps in EPS:
        m = coupled(eps, CUBE2, CUBE2, CUBE3, CUBE3)
        s = spectrum(m)
        assert not s.ill_conditioned, eps
        for c in s.classes:
            cube = round(abs(c.value) ** 3, 9)
            assert (cube, c.alg_mult, c.geom_mult) in ((2, 2, 1), (3, 2, 2)), (eps, c)
        assert multiplicities(s) == [(2, 1)] * 3 + [(2, 2)] * 3

    from lieflow.dersolve import coerce_matrix
    from lieflow.spectral import _geometric_pieces, _square_free

    ((s, k),) = _square_free(char_poly(m).ints)
    assert (s, k) == (int_poly_mul([-2, 0, 0, 1], [-3, 0, 0, 1]), 2)
    assert _geometric_pieces(s, k, coerce_matrix(m)) == [([-2, 0, 0, 1], 1), ([-3, 0, 0, 1], 2)]


def test_quartic_three_copies_one_coupling():
    for eps in EPS:
        s = spectrum(coupled(eps, QUARTIC, QUARTIC, QUARTIC))
        assert not s.ill_conditioned, eps
        assert multiplicities(s) == [(3, 2)] * 4, eps


def test_single_numeric_roots_need_no_svd(monkeypatch):
    # Only a merged numeric cluster reads an SVD rank; a piece's single
    # roots, exact or numeric, take its exact geometric multiplicity.
    from lieflow import spectral

    def no_svd(a):
        raise AssertionError("SVD rank outside a merged cluster")

    monkeypatch.setattr(spectral, "_numeric_rank", no_svd)
    rng = random.Random(1616)
    k = ((0, 0, 1), (1, 0, 3), (0, 1, 0))  # l^3 - 3l - 1
    mats = [coupled(F(1, 10**12), k, k), block_diag(k, k)]
    for eps in EPS:
        mats += [coupled(eps, CUBE2, CUBE2), coupled(eps, CUBE2, CUBE2, CUBE3, CUBE3),
                 coupled(eps, QUARTIC, QUARTIC, QUARTIC)]
    mats += [unimodular_conjugate(rng, m) for m in mats[2::4]]
    for m in mats:
        assert not spectrum(m).ill_conditioned


# --- the square map h(mu), mu = lambda^2 --------------------------------------


SQUARE_FACTORS = (
    [-1, 1], [2, 1], [-3, 2],  # rational roots 1, -2, 3/2
    [-2, 0, 1], [-1, 0, 1], [-9, 0, 4],  # +-r pairs
    [1, 0, 1], [2, 0, 1], [9, 0, 4],  # +-i*alpha
    [2, 2, 1], [1, 1, 1], [-2, 0, 0, 1], [1, 1, 0, 0, 1],  # off both axes
)


def squares_oracle(sympy, s):
    """The primitive square-free part of Res_x(s(x), mu - x^2), whose roots are
    the squares of the roots of s, with a positive leading coefficient."""
    x, mu = sympy.symbols("x mu")
    res = sympy.resultant(sympy.Poly(s[::-1], x).as_expr(), mu - x**2, x)
    h = sympy.Poly(res, mu).sqf_part().primitive()[1]
    return [int(c) for c in reversed(h.all_coeffs())]


def test_squares_match_the_resultant():
    sympy = pytest.importorskip("sympy")
    from lieflow.spectral import _squares

    x = sympy.symbols("x")
    rng = random.Random(1818)
    cases = [[1], [-1], [-3, 2], [5, -1], [0, 1], [1, 0, 1], [-2, 0, 1]]
    for _ in range(60):
        prod = int_poly_mul(*rng.sample(SQUARE_FACTORS, rng.randint(1, 4)))
        s = sympy.Poly(prod[::-1], x).sqf_part().primitive()[1]
        s = [int(c) for c in reversed(s.all_coeffs())]
        cases.append([-c for c in s] if rng.random() < 0.5 else s)
    assert {bool(any(s[1::2])) for s in cases if len(s) > 2} == {False, True}
    for s in cases:
        h = _squares(s)[0]
        assert ([-c for c in h] if h[-1] < 0 else h) == squares_oracle(sympy, s), s


# Irreducible quadratics, with the d of x^2 - d for real pairs +-sqrt(d).
PLANTED_QUADRATICS = {(1, 0, 1): None, (5, 0, 2): None, (1, 1, 1): None, (3, -2, 1): None,
                      (-2, 0, 1): 2, (-3, 0, 1): 3}


def planted_powers(rng):
    """(s, rad, roots): s a primitive product of linear and quadratic factors,
    each to a power 1-3 (rational roots, +-lambda pairs x^2 - lambda^2, the
    root 0, irreducible quadratics), rad its distinct factors with the sign of
    s, and roots its distinct real roots, a rational r as r and +-sqrt(d) as
    (+-1, d)."""
    mults = {}
    for _ in range(rng.randint(1, 4)):
        r, m = F(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(1, 3)
        for root in rng.choice([(r,), (r, -r), (F(0),)]):
            mults[root] = mults.get(root, 0) + m
    quads = rng.sample(sorted(PLANTED_QUADRATICS), rng.randint(0, 2))
    factors = [([-r.numerator, r.denominator], m) for r, m in mults.items()]
    factors += [(list(q), rng.randint(1, 3)) for q in quads]
    sign = rng.choice((1, -1))
    s = [sign * c for c in int_poly_mul(*[f for f, m in factors for _ in range(m)])]
    rad = [sign * c for c in int_poly_mul(*[f for f, _ in factors])]
    roots = list(mults) + [(e, PLANTED_QUADRATICS[q]) for q in quads
                           if PLANTED_QUADRATICS[q] for e in (1, -1)]
    return s, rad, roots


def below(x, root):
    """x < root for a rational x and a planted real root."""
    if isinstance(root, F):
        return x < root
    e, d = root  # root = e sqrt(d)
    return (x < 0 or x * x < d) if e > 0 else (x < 0 and x * x > d)


def test_sturm_sequence_of_any_polynomial_counts_its_distinct_roots():
    from lieflow.spectral import _sign_at, _sturm, _variations

    rng = random.Random(3030)
    for _ in range(80):
        s, rad, roots = planted_powers(rng)
        seq = _sturm(s)
        assert seq[0] == rad, s
        rational = [r for r in roots if isinstance(r, F)]
        points = sorted(set(rational + [F(0), F(-100), F(100)]
                            + [F(rng.randint(-40, 40), rng.randint(1, 5)) for _ in range(4)]))

        def variations(x):
            return _variations([_sign_at(q, x.numerator, x.denominator) for q in seq])

        for i, a in enumerate(points):
            for b in points[i + 1:]:
                count = sum(below(a, r) and not below(b, r) for r in roots)
                assert variations(a) - variations(b) == count, (s, a, b)


def test_squares_head_the_one_remainder_sequence_of_h():
    from lieflow.spectral import _primitive, _squares, _sturm

    rng = random.Random(3131)
    for _ in range(80):
        s = planted_powers(rng)[0]
        big = s
        if any(s[1::2]):
            big = int_poly_mul(s, [-c if k % 2 else c for k, c in enumerate(s)])
        big = big[0::2]
        h, seq = _squares(s)
        assert h == sympy_rad(big), s
        assert seq == _sturm(_primitive(big)) and seq[0] is h, s
    assert _squares([-3]) == ([-1], [[-1]])


def planted_pieces(*blocks):
    """A unimodular conjugate of block_diag(*blocks): one square-free factor with no
    rational roots, made of the blocks' characteristic polynomials."""
    return unimodular_conjugate(random.Random(1919), block_diag(*blocks))


def test_odd_piece_splits_off_an_imaginary_pair():
    # (l^2 + 2)(l^3 - 2): the pair +-i*sqrt(2) is exact, the cubic numeric.
    s = spectrum(planted_pieces(companion(2, 0), CUBE2))
    exact = [c for c in s.classes if c.exact]
    assert [(c.exact_re, c.exact_im_sq) for c in exact] == [(0, 2), (0, 2)]
    assert sorted(c.value.imag for c in exact) == [-math.sqrt(2), math.sqrt(2)]
    assert len(s.classes) == 5 and not s.ill_conditioned
    assert all(c.alg_mult == c.geom_mult == 1 for c in s.classes)


def test_odd_piece_splits_off_a_real_surd_pair():
    # (l^2 - 3)(l^3 - 2): +-sqrt(3) carry exact_im_sq = 0, the cubic does not.
    s = spectrum(planted_pieces(companion(-3, 0), CUBE2))
    pair = [c for c in s.classes if c.exact_im_sq is not None]
    assert sorted(c.value.real for c in pair) == [-math.sqrt(3), math.sqrt(3)]
    assert all(c.exact_im_sq == 0 and c.exact_re is None and c.value.imag == 0 for c in pair)
    assert len(s.classes) == 5 and not s.ill_conditioned


def test_even_degree_piece_that_is_not_even_is_exact():
    # (l^2 + 2)(l^2 + l + 1): the pair +-i*sqrt(2), then an exact quadratic.
    s = spectrum(planted_pieces(companion(2, 0), C))
    assert all(c.exact for c in s.classes) and len(s.classes) == 4
    assert sorted((c.exact_re, c.exact_im_sq) for c in s.classes) == [
        (F(-1, 2), F(3, 4)), (F(-1, 2), F(3, 4)), (0, 2), (0, 2)]
