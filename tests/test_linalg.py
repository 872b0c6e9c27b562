"""Sparse exact kernels against dense reference implementations.

`rref`, `leibniz_residual`, `validate_algebra`, `bracket`, `ad` and
`constraint_rows` run on sparse rows and on the structure-constant table.
Each reference below is the plain dense textbook loop, kept here only as an
oracle; the kernels must return exactly the same values, including the
pivot order, the zero-row padding and the worst pair or triple.
"""

import random
from fractions import Fraction as F

import pytest

from lieflow import StructureConstants, ad, bracket, leibniz_residual, validate_algebra
from lieflow._linalg import nullspace, rank, rref, solve_coordinates
from lieflow.dersolve import constraint_rows

from test_liealg import basis_vec


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


def naive_bracket(sc, x, y):
    out = [F(0)] * sc.dim
    for (i, j, k), c in sc.entries.items():
        out[k] += c * (x[i] * y[j] - x[j] * y[i])
    return tuple(out)


def naive_apply(m, v):
    return tuple(sum((row[j] * v[j] for j in range(len(v))), F(0)) for row in m)


def naive_leibniz(sc, m):
    worst, pair = F(0), None
    n = sc.dim
    for i in range(n):
        for j in range(i + 1, n):
            ei, ej = basis_vec(n, i), basis_vec(n, j)
            lhs = naive_apply(m, naive_bracket(sc, ei, ej))
            rhs = [
                a + b
                for a, b in zip(
                    naive_bracket(sc, naive_apply(m, ei), ej),
                    naive_bracket(sc, ei, naive_apply(m, ej)),
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


MATRIX_CASES = matrix_cases()
STRUCTURE_CASES = structure_cases()


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
    assert rank(rows) == len(dense_rref(rows)[1])
    basis = nullspace(rows, ncols)
    assert len(basis) == ncols - rank(rows)
    for vec in basis:
        assert all(sum((r[c] * vec[c] for c in range(ncols)), F(0)) == 0 for r in rows)


def test_rref_accepts_integer_rows_and_does_not_mutate_input():
    rows = [[2, 4, 6], [1, 1, 1]]
    reduced, pivots = rref(rows)
    assert rows == [[2, 4, 6], [1, 1, 1]]
    assert pivots == [0, 1]
    assert reduced == [[F(1), F(0), F(-1)], [F(0), F(1), F(2)]]
    assert all(isinstance(v, F) for row in reduced for v in row)


def test_solve_coordinates_recovers_random_combinations():
    rng = random.Random(99)
    for _ in range(20):
        basis = rand_matrix(rng, 3, 7, 0.8)
        coeffs = [rand_scalar(rng, 1.0) for _ in basis]
        target = [sum((a * b[i] for a, b in zip(coeffs, basis)), F(0)) for i in range(7)]
        coords = solve_coordinates(basis, target)
        assert coords is not None
        assert [sum((a * b[i] for a, b in zip(coords, basis)), F(0)) for i in range(7)] == target


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
        assert bracket(sc, x, y) == naive_bracket(sc, x, y)
        cols = [naive_bracket(sc, x, basis_vec(n, j)) for j in range(n)]
        assert ad(sc, x) == tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    assert constraint_rows(sc) == naive_constraint_rows(sc)
