"""Sparse exact kernels against reference implementations.

`rref`, `nullspace`, `leibniz_residual`, `validate_algebra`, `ad` and
`constraint_rows` run on sparse integer rows and on the integer bracket
table. Each reference below is either the plain dense textbook loop or the
sparse kernel in `Fraction` arithmetic that the integer one replaced, kept
here only as an oracle; the kernels must return exactly the same values,
including the pivot order, the zero-row padding and the worst pair or
triple.
"""

import math
import random
from fractions import Fraction as F

import pytest

from lieflow import (
    StructureConstants,
    ad,
    derivation_space,
    leibniz_residual,
    validate_algebra,
)
from lieflow._linalg import nullspace, rank, rref, spans_equal
from lieflow.catalog import get_entry
from lieflow.dersolve import constraint_rows

from test_dersolve import (
    dense_change_of_basis,
    filiform_algebra,
    heisenberg_algebra,
    sl2_plus_abelian,
)
from test_liealg import apply, basis_vec


# --- references -------------------------------------------------------------------


def dense_rref(rows):
    """Gauss-Jordan on dense Fraction rows, first nonzero row as pivot."""
    m = [[F(v) for v in r] for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def coordinates(cols, target):
    """The coordinates of `target` in the independent vectors `cols`, read off
    the reference RREF of the augmented system."""
    k = len(cols)
    reduced, pivots = dense_rref([[c[i] for c in cols] + [target[i]] for i in range(len(target))])
    assert pivots == list(range(k)), "target outside the span"
    return [row[k] for row in reduced[:k]]


def naive_bracket(sc, x, y):
    out = [F(0)] * sc.dim
    for (i, j, k), c in sc.entries.items():
        out[k] += c * (x[i] * y[j] - x[j] * y[i])
    return tuple(out)


def naive_leibniz(sc, m):
    worst, pair = F(0), None
    n = sc.dim
    for i in range(n):
        for j in range(i + 1, n):
            ei, ej = basis_vec(n, i), basis_vec(n, j)
            lhs = apply(m, naive_bracket(sc, ei, ej))
            rhs = [
                a + b
                for a, b in zip(
                    naive_bracket(sc, apply(m, ei), ej),
                    naive_bracket(sc, ei, apply(m, ej)),
                )
            ]
            res = max(abs(a - b) for a, b in zip(lhs, rhs))
            if res > worst:
                worst, pair = res, (i, j)
    return worst, pair


def naive_jacobi(sc):
    worst, triple = F(0), None
    n = sc.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                e = [basis_vec(n, t) for t in (i, j, k)]
                total = [
                    a + b + c
                    for a, b, c in zip(
                        naive_bracket(sc, e[0], naive_bracket(sc, e[1], e[2])),
                        naive_bracket(sc, e[1], naive_bracket(sc, e[2], e[0])),
                        naive_bracket(sc, e[2], naive_bracket(sc, e[0], e[1])),
                    )
                ]
                res = max(abs(v) for v in total)
                if res > worst:
                    worst, triple = res, (i, j, k)
    return worst, triple


def fraction_table(sc):
    """The bracket table in Fractions: (i, j) -> ((k, c_ij^k), ...)."""
    table = {}
    for (i, j, k), c in sorted(sc.entries.items()):
        table[(i, j)] = table.get((i, j), ()) + ((k, c),)
        table[(j, i)] = table.get((j, i), ()) + ((k, -c),)
    return table


def fraction_leibniz_residual(sc, m):
    """The sparse Leibniz kernel on the Fraction table."""
    n = sc.dim
    table = fraction_table(sc)
    cols = [[(r, m[r][j]) for r in range(n) if m[r][j]] for j in range(n)]
    worst, worst_pair = F(0), None
    for i in range(n):
        for j in range(i + 1, n):
            diff = {}
            for k, c in table.get((i, j), ()):
                for r, v in cols[k]:
                    diff[r] = diff.get(r, 0) + c * v
            for a, v in cols[i]:
                for k, c in table.get((a, j), ()):
                    diff[k] = diff.get(k, 0) - v * c
            for b, v in cols[j]:
                for k, c in table.get((i, b), ()):
                    diff[k] = diff.get(k, 0) - v * c
            res = max((abs(v) for v in diff.values()), default=F(0))
            if res > worst:
                worst, worst_pair = res, (i, j)
    return worst, worst_pair


def fraction_jacobi(sc):
    """The sparse Jacobi kernel on the Fraction table: (residual, triple)."""
    table = fraction_table(sc)
    worst, triple = F(0), None
    for i in range(sc.dim):
        for j in range(i + 1, sc.dim):
            for k in range(j + 1, sc.dim):
                total = {}
                for a, bc in ((i, (j, k)), (j, (k, i)), (k, (i, j))):
                    for m, c in table.get(bc, ()):
                        for t, d in table.get((a, m), ()):
                            total[t] = total.get(t, 0) + c * d
                res = max((abs(v) for v in total.values()), default=F(0))
                if res > worst:
                    worst, triple = res, (i, j, k)
    return worst, triple


def naive_constraint_rows(sc):
    n = sc.dim
    struct = [[naive_bracket(sc, basis_vec(n, i), basis_vec(n, j)) for j in range(n)]
              for i in range(n)]
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                row = [F(0)] * (n * n)
                for m in range(n):
                    row[k * n + m] += struct[i][j][m]
                    row[m * n + i] -= struct[m][j][k]
                    row[m * n + j] -= struct[i][m][k]
                rows.append(row)
    return rows


# --- seeded inputs ----------------------------------------------------------------


def rand_scalar(rng, density=0.5):
    if rng.random() > density:
        return F(0)
    return F(rng.randint(-4, 4), rng.randint(1, 3))


def rand_matrix(rng, nrows, ncols, density=0.5):
    return [[rand_scalar(rng, density) for _ in range(ncols)] for _ in range(nrows)]


def sparse_integer_rows(rows):
    """Each dense rational row times the lcm of its denominators, as {col: int}."""
    out = []
    for row in rows:
        d = math.lcm(*(F(v).denominator for v in row))
        out.append({c: int(v * d) for c, v in enumerate(row) if v})
    return out


def rank_deficient(rng, nrows, ncols, r):
    """nrows x ncols of rank <= r: random combinations of r random rows."""
    gens = rand_matrix(rng, r, ncols, 0.7)
    return [
        [sum((F(rng.randint(-2, 2)) * g[c] for g in gens), F(0)) for c in range(ncols)]
        for _ in range(nrows)
    ]


def matrix_cases():
    rng = random.Random(20260)
    cases = [
        ("empty", []),
        ("no columns", [[], []]),
        ("all zero", [[F(0)] * 5 for _ in range(4)]),
        ("single row", [[F(0), F(3, 2), F(-1)]]),
    ]
    base = rand_matrix(rng, 4, 6)
    cases.append(("duplicate rows", base + [list(r) for r in base] + [base[1]]))
    for t in range(6):
        cases.append((f"tall {t}", rand_matrix(rng, 12, 5, 0.4 + 0.1 * t)))
        cases.append((f"wide {t}", rand_matrix(rng, 4, 11, 0.4 + 0.1 * t)))
        n = 3 + t
        cases.append((f"full rank {t}", [
            [F(1) if i == j else rand_scalar(rng) for j in range(n)] for i in range(n)
        ]))
        cases.append((f"rank deficient {t}", rank_deficient(rng, 7 + t, 9, 1 + t)))
    return cases


def rand_structure(rng, n, density):
    entries = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                v = rand_scalar(rng, density)
                if v:
                    entries[(i, j, k)] = v
    return StructureConstants(n, entries)


def structure_cases():
    rng = random.Random(7331)
    out = [StructureConstants(1), StructureConstants(3)]  # trivial and abelian
    for n in (2, 3, 4, 5):
        for density in (0.1, 0.3, 0.7):
            out.append(rand_structure(rng, n, density))
    return out


def rational_change_of_basis(sc, rng):
    """The algebra in the basis F_a = sum_i P[i][a] E_i for a seeded P = L U,
    L unit lower triangular and U upper triangular with a nonzero diagonal,
    all entries rational: dense structure constants with denominators."""
    n = sc.dim
    low = [[F(1) if i == j else rand_scalar(rng, 0.8) if i > j else F(0) for j in range(n)]
           for i in range(n)]
    up = [[F(rng.choice([1, -1]) * rng.randint(1, 3), rng.randint(1, 4)) if i == j
           else rand_scalar(rng, 0.8) if i < j else F(0) for j in range(n)] for i in range(n)]
    p = [[sum((low[i][t] * up[t][j] for t in range(n)), F(0)) for j in range(n)]
         for i in range(n)]
    cols = [[p[i][a] for i in range(n)] for a in range(n)]
    entries = {}
    for a in range(n):
        for b in range(a + 1, n):
            for k, c in enumerate(coordinates(cols, naive_bracket(sc, cols[a], cols[b]))):
                if c:
                    entries[(a, b, k)] = c
    return StructureConstants(n, entries)


def reference_cases():
    """Seeded rational algebras: the random tables above, Lie algebras in a
    dense rational basis, and the same with one constant moved by 1/3."""
    rng = random.Random(4141)
    out = list(STRUCTURE_CASES)
    for sc in (heisenberg_algebra(2), filiform_algebra(5), sl2_plus_abelian(1)):
        dense = rational_change_of_basis(sc, rng)
        assert dense.den > 1 and validate_algebra(dense).jacobi_ok
        key, c = sorted(dense.entries.items())[-1]
        out += [dense, StructureConstants(sc.dim, {**dense.entries, key: c + F(1, 3)})]
    return out


MATRIX_CASES = matrix_cases()
STRUCTURE_CASES = structure_cases()
REFERENCE_CASES = reference_cases()


# --- rref and its callers ---------------------------------------------------------


@pytest.mark.parametrize("name,rows", MATRIX_CASES, ids=[c[0] for c in MATRIX_CASES])
def test_rref_matches_dense_gauss_jordan(name, rows):
    reduced, pivots = rref(rows)
    ref_reduced, ref_pivots = dense_rref(rows)
    assert pivots == ref_pivots
    assert reduced == ref_reduced
    assert len(reduced) == len(rows)
    assert all(isinstance(v, F) for row in reduced for v in row)


@pytest.mark.parametrize("name,rows", MATRIX_CASES, ids=[c[0] for c in MATRIX_CASES])
def test_nullspace_and_rank_follow_the_reference(name, rows):
    if not rows or not rows[0]:
        return
    ncols = len(rows[0])
    ref_reduced, ref_pivots = dense_rref(rows)
    assert rank(rows) == len(ref_pivots)
    basis = nullspace(sparse_integer_rows(rows), ncols)
    expected = []
    for f in (c for c in range(ncols) if c not in ref_pivots):
        vec = [F(int(c == f)) for c in range(ncols)]
        for row, p in zip(ref_reduced, ref_pivots):
            vec[p] = -row[f]
        expected.append(tuple(vec))
    assert basis == expected
    assert all(isinstance(v, F) for vec in basis for v in vec)
    for vec in basis:
        assert all(sum((r[c] * vec[c] for c in range(ncols)), F(0)) == 0 for r in rows)


def test_rref_accepts_integer_rows_and_does_not_mutate_input():
    rows = [[2, 4, 6], [1, 1, 1]]
    reduced, pivots = rref(rows)
    assert rows == [[2, 4, 6], [1, 1, 1]]
    assert pivots == [0, 1]
    assert reduced == [[F(1), F(0), F(-1)], [F(0), F(1), F(2)]]
    assert all(isinstance(v, F) for row in reduced for v in row)


def test_rank_counts_pivots_without_building_a_fraction(monkeypatch):
    from lieflow import _linalg

    cases = [rows for _, rows in MATRIX_CASES if rows and rows[0]]
    expected = [len(dense_rref(rows)[1]) for rows in cases]

    def refuse(*args):
        raise AssertionError("rank built a Fraction")

    monkeypatch.setattr(_linalg, "Fraction", refuse)
    assert [rank(rows) for rows in cases] == expected
    assert rank([[F(1, 2), F(1, 3)], [F(1), F(2, 3)]]) == 1


def test_rank_decides_derivation_span_membership():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(99)
    for name in ("g31_heisenberg", "g32", "g34_a", "sl2", "aff2"):
        space = derivation_space(get_entry(name, 2 if name == "g34_a" else None).structure)
        n = space.basis[0].dim
        flat = [[v for row in b.entries for v in row] for b in space.basis]
        outside = 0
        for _ in range(20):
            coeffs = [rand_scalar(rng, 1.0) for _ in flat]
            member = [sum((a * b[i] for a, b in zip(coeffs, flat)), F(0)) for i in range(n * n)]
            # The basis is independent, so a member keeps its rank.
            assert rank(flat + [member]) == space.dim, name
            # The combination plus another matrix is a member exactly when
            # that matrix is, as SymPy's rank decides.
            other = rand_matrix(rng, 1, n * n, 0.3)[0]
            candidate = [u + v for u, v in zip(member, other)]
            inside = sympy.Matrix(flat + [other]).rank() == space.dim
            outside += not inside
            assert (rank(flat + [candidate]) == space.dim) == inside, name
        assert outside, name


# --- structure-table kernels ------------------------------------------------------


@pytest.mark.parametrize("idx", range(len(STRUCTURE_CASES)))
def test_validate_algebra_matches_naive_jacobi(idx):
    sc = STRUCTURE_CASES[idx]
    report = validate_algebra(sc)
    worst, triple = naive_jacobi(sc)
    assert report.residual == worst
    assert report.worst_triple == triple
    assert report.jacobi_ok == (worst == 0)


@pytest.mark.parametrize("idx", range(len(STRUCTURE_CASES)))
def test_leibniz_residual_matches_naive_reference(idx):
    sc = STRUCTURE_CASES[idx]
    rng = random.Random(1000 + idx)
    n = sc.dim
    for density in (0.0, 0.2, 0.5, 1.0):
        m = tuple(tuple(rand_scalar(rng, density) for _ in range(n)) for _ in range(n))
        assert leibniz_residual(sc, m) == naive_leibniz(sc, m)


def test_leibniz_residual_breaks_ties_at_the_first_pair():
    # [E1, E2] = E3 and [E1, E3] = E3: the identity map violates Leibniz by
    # the same amount on both pairs, so the first pair is reported.
    sc = StructureConstants(3, {(0, 1, 2): 1, (0, 2, 2): 1})
    eye = tuple(tuple(F(int(i == j)) for j in range(3)) for i in range(3))
    assert leibniz_residual(sc, eye) == naive_leibniz(sc, eye) == (F(1), (0, 1))


@pytest.mark.parametrize("idx", range(len(STRUCTURE_CASES)))
def test_bracket_ad_and_constraint_rows_match_naive(idx):
    sc = STRUCTURE_CASES[idx]
    rng = random.Random(2000 + idx)
    n = sc.dim
    for _ in range(5):
        x = tuple(rand_scalar(rng) for _ in range(n))
        y = tuple(rand_scalar(rng) for _ in range(n))
        assert apply(ad(sc, x), y) == naive_bracket(sc, x, y)
        cols = [naive_bracket(sc, x, basis_vec(n, j)) for j in range(n)]
        assert ad(sc, x) == tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    rows = constraint_rows(sc)
    assert rows == [{c: sc.den * v for c, v in enumerate(row) if v}
                    for row in naive_constraint_rows(sc)]
    assert all(type(v) is int for row in rows for v in row.values())


@pytest.mark.parametrize("idx", range(len(REFERENCE_CASES)))
def test_integer_kernels_match_the_fraction_references(idx):
    sc = REFERENCE_CASES[idx]
    report = validate_algebra(sc)
    assert (report.residual, report.worst_triple) == fraction_jacobi(sc)
    rng = random.Random(3000 + idx)
    n = sc.dim
    mats = [tuple(tuple(rand_scalar(rng, density) for _ in range(n)) for _ in range(n))
            for density in (0.0, 0.3, 1.0)]
    if report.jacobi_ok:
        mats += [b.entries for b in derivation_space(sc).basis]
    for m in mats:
        r, c = rng.randrange(n), rng.randrange(n)
        perturbed = tuple(tuple(v + F(1, 3) * ((r, c) == (i, j)) for j, v in enumerate(row))
                          for i, row in enumerate(m))
        for d in (m, perturbed):
            assert leibniz_residual(sc, d) == fraction_leibniz_residual(sc, d)


SYMPY_CASES = (
    [(f"h_{2 * k + 1}", heisenberg_algebra(k)) for k in (1, 2, 3)]
    + [(f"L_{n}", filiform_algebra(n)) for n in (4, 5, 6, 7)]
    + [(f"sl2+R^{m}", sl2_plus_abelian(m)) for m in (1, 2)]
    + [("g34_a[a=1/2]", get_entry("g34_a", F(1, 2)).structure),
       ("aff2", get_entry("aff2").structure)]
)


@pytest.mark.parametrize("dense", [False, True], ids=["standard", "dense"])
@pytest.mark.parametrize("name,sc", SYMPY_CASES, ids=[c[0] for c in SYMPY_CASES])
def test_derivation_space_spans_the_sympy_nullspace(name, sc, dense):
    sympy = pytest.importorskip("sympy")
    if dense:
        sc = dense_change_of_basis(sc)
    rows = [[sympy.Rational(v.numerator, v.denominator) for v in row]
            for row in naive_constraint_rows(sc)]
    ref = [[F(int(v.p), int(v.q)) for v in vec] for vec in sympy.Matrix(rows).nullspace()]
    space = derivation_space(sc)
    assert space.dim == len(ref)
    assert spans_equal([[v for row in b.entries for v in row] for b in space.basis], ref)
