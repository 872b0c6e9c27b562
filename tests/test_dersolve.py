"""Derivation spaces against hand-checkable families and brute Leibniz loops."""

import math
import random
import re
from fractions import Fraction as F

import pytest

from lieflow import (
    NotADerivationError,
    StructureConstants,
    ad,
    dersolve,
    derivation,
    derivation_space,
    inner_derivation,
    validate_algebra,
)
from lieflow._linalg import rank
from lieflow.catalog import get_entry
from lieflow.dersolve import (
    _leibniz_sweep,
    coerce_matrix,
    constraint_rows,
    flatten,
    leibniz_residual,
)

from test_liealg import all_catalog_structures, apply, basis_vec, rand_vector


def brute_leibniz_holds(sc, mat):
    """Independent oracle: check D[x,y] = [Dx,y] + [x,Dy] on all basis pairs."""
    m = coerce_matrix(mat, sc.dim).entries
    for i in range(sc.dim):
        for j in range(sc.dim):
            ei, ej = basis_vec(sc.dim, i), basis_vec(sc.dim, j)
            lhs = apply(m, apply(ad(sc, ei), ej))
            rhs = tuple(
                a + b
                for a, b in zip(
                    apply(ad(sc, apply(m, ei)), ej), apply(ad(sc, ei), apply(m, ej))
                )
            )
            if lhs != rhs:
                return False
    return True


def test_aff2_derivation_space_shape():
    space = derivation_space(get_entry("aff2").structure)
    assert space.dim == 2
    for b in space.basis:
        assert b.entries[0] == (F(0), F(0))
    # The two free entries live in the second row.
    seen = {b.entries[1] for b in space.basis}
    assert seen == {(F(1), F(0)), (F(0), F(1))}


def test_abelian3_derivation_space_is_everything():
    space = derivation_space(StructureConstants(3))
    assert space.dim == 9


def test_heisenberg_derivation_space_constraints():
    space = derivation_space(get_entry("g31_heisenberg").structure)
    assert space.dim == 6
    for b in space.basis:
        m = b.entries
        assert m[1][0] == 0 and m[2][0] == 0
        assert m[0][0] == m[1][1] + m[2][2]


def test_dim1_algebra_has_all_matrices_as_derivations():
    space = derivation_space(StructureConstants(1))
    assert space.dim == 1
    assert space.basis[0].entries == ((F(1),),)


def test_constraint_row_count():
    for _, sc in all_catalog_structures():
        n = sc.dim
        assert len(constraint_rows(sc)) == n * (n * (n - 1) // 2)


def test_every_space_member_passes_is_derivation():
    for name, sc in all_catalog_structures():
        for b in derivation_space(sc).basis:
            assert leibniz_residual(sc, b.entries)[0] == 0, name
            assert brute_leibniz_holds(sc, b.entries), name


def test_is_derivation_aff2_examples():
    sc = get_entry("aff2").structure
    assert leibniz_residual(sc, ((0, 0), (5, -3))) == (0, None)
    residual, pair = leibniz_residual(sc, ((1, 0), (0, 0)))
    assert residual != 0 and pair == (0, 1)
    assert not brute_leibniz_holds(sc, ((1, 0), (0, 0)))


def test_zero_matrix_is_a_derivation():
    for _, sc in all_catalog_structures():
        z = tuple(tuple(F(0) for _ in range(sc.dim)) for _ in range(sc.dim))
        assert leibniz_residual(sc, z)[0] == 0


def test_inner_derivation_sl2_matches_adjoint_formula():
    sc = get_entry("sl2").structure
    for a, b, c in ((F(1), F(0), F(0)), (F(2), F(-3), F(1, 2)), (F(0), F(1), F(5))):
        d = inner_derivation(sc, (a, b, c))
        expected = (
            (2 * b, -2 * a, F(0)),
            (-c, F(0), a),
            (4 * b, -4 * a + 2 * c, -2 * b),
        )
        assert d.entries == expected
        assert leibniz_residual(sc, d)[0] == 0


def test_inner_derivation_of_zero_vector_is_zero():
    sc = get_entry("sl2").structure
    d = inner_derivation(sc, (0, 0, 0))
    assert all(v == 0 for row in d.entries for v in row)


def test_inner_derivation_of_central_element_is_zero():
    sc = get_entry("g31_heisenberg").structure
    d = inner_derivation(sc, (1, 0, 0))
    assert all(v == 0 for row in d.entries for v in row)


def test_heisenberg_minus_ad_e3_sends_e2_to_e1():
    sc = get_entry("g31_heisenberg").structure
    d = inner_derivation(sc, (0, 0, 1))
    nonzero = {
        (i, j): v
        for i, row in enumerate(d.entries)
        for j, v in enumerate(row)
        if v != 0
    }
    assert nonzero == {(0, 1): F(1)}


def test_inner_derivations_lie_in_the_derivation_space():
    rng = random.Random(23)
    for name, sc in all_catalog_structures():
        basis = [flatten(b.entries) for b in derivation_space(sc).basis]
        for _ in range(4):
            x = rand_vector(rng, sc.dim)
            d = inner_derivation(sc, x)
            # The basis is independent, so a member keeps its rank.
            assert rank(basis + [flatten(d.entries)]) == len(basis), name


def test_matrix_dimension_mismatch():
    sc = get_entry("aff2").structure
    with pytest.raises(ValueError):
        leibniz_residual(sc, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_derivation_gate_reports_the_leibniz_residual():
    sc = get_entry("sl2").structure
    bad = ((1, 0, 0), (0, 0, 0), (0, F(1, 2), 0))
    residual, pair = leibniz_residual(sc, bad)
    with pytest.raises(NotADerivationError) as err:
        derivation(sc, bad)
    assert residual != 0
    assert (err.value.residual, err.value.worst_pair) == (residual, pair)
    d = inner_derivation(sc, (1, F(-2, 3), 0))
    assert derivation(sc, d.entries) == d
    with pytest.raises(ValueError):
        derivation(sc, ((1, 0), (0, 1)))


def test_every_matrix_is_a_derivation_of_a_bracket_free_algebra():
    sc = StructureConstants(3)
    assert leibniz_residual(sc, ((1, F(-7, 3), 0), (2, 0, F(1, 5)), (0, 9, -4))) == (0, None)
    for bad in (((1, 0), (0, 1)), ((1, 0, 0), (0, 1), (0, 0, 1))):
        with pytest.raises(ValueError):
            leibniz_residual(sc, bad)


# --- closed-form dim Der of generated families ------------------------------------


def heisenberg_algebra(k):
    """h_{2k+1}: [X_i, Y_i] = Z with X_i = E_i, Y_i = E_{k+i}, Z = E_{2k+1}."""
    return StructureConstants(2 * k + 1, {(i, k + i, 2 * k): 1 for i in range(k)})


def filiform_algebra(n):
    """Model filiform L_n: [E_1, E_i] = E_{i+1} for i = 2..n-1."""
    return StructureConstants(n, {(0, i, i + 1): 1 for i in range(1, n - 1)})


def sl2_plus_abelian(m):
    """sl(2,R) + R^m, with the catalog's sl2 brackets on E_1..E_3."""
    sl2 = get_entry("sl2").structure
    return StructureConstants(3 + m, sl2.entries)


def change_of_basis(sc, low):
    """The algebra in the basis F_a = sum_i P[i][a] E_i, P = low low^T for a
    unit lower triangular integer matrix `low`, so P is unimodular and
    P^{-1} v comes from one forward and one back substitution."""
    n = sc.dim
    p_cols = [[sum(low[i][t] * low[a][t] for t in range(n)) for i in range(n)]
              for a in range(n)]

    def p_inverse(v):
        w = []
        for i in range(n):  # low w = v
            w.append(v[i] - sum(low[i][t] * w[t] for t in range(i)))
        x = [0] * n
        for i in reversed(range(n)):  # low^T x = w
            x[i] = w[i] - sum(low[t][i] * x[t] for t in range(i + 1, n))
        return x

    entries = {}
    for a in range(n):
        for b in range(a + 1, n):
            for k, c in enumerate(p_inverse(apply(ad(sc, p_cols[a]), p_cols[b]))):
                if c:
                    entries[(a, b, k)] = c
    return StructureConstants(n, entries)


def dense_change_of_basis(sc):
    """`change_of_basis` with ones on and below the diagonal of `low`:
    P[i][j] = min(i, j) + 1."""
    return change_of_basis(sc, [[int(j <= i) for j in range(sc.dim)] for i in range(sc.dim)])


def seeded_change_of_basis(sc, seed):
    """`change_of_basis` with seeded entries in -2..2 below the diagonal of `low`."""
    rng = random.Random(seed)
    n = sc.dim
    return change_of_basis(sc, [[1 if j == i else rng.randint(-2, 2) if j < i else 0
                                 for j in range(n)] for i in range(n)])


DIM_DER_FAMILIES = (
    [(f"h_{2 * k + 1}", heisenberg_algebra(k), 2 * k * k + 3 * k + 1) for k in range(1, 5)]
    + [(f"L_{n}", filiform_algebra(n), 2 * n - 1) for n in range(4, 10)]
    + [(f"sl2+R^{m}", sl2_plus_abelian(m), 3 + m * m) for m in range(1, 5)]
)


@pytest.mark.parametrize("dense", [False, True], ids=["standard", "dense"])
@pytest.mark.parametrize(
    "name,sc,dim_der", DIM_DER_FAMILIES, ids=[f[0] for f in DIM_DER_FAMILIES]
)
def test_dim_der_matches_closed_form(name, sc, dim_der, dense):
    if dense:
        sc = dense_change_of_basis(sc)
    assert validate_algebra(sc).jacobi_ok
    space = derivation_space(sc)
    assert space.dim == dim_der
    for b in space.basis:
        assert leibniz_residual(sc, b.entries)[0] == 0


def test_coerce_matrix_converts_every_entry_exactly():
    import numpy as np

    from lieflow.periodicity import classify_flow

    third = F(1, 3)
    rotation = np.array([[0, third], [-third, 0]], dtype=object)
    assert coerce_matrix(rotation).entries == ((0, third), (-third, 0))
    assert coerce_matrix(rotation).entries[0][1] is third  # passed through, not copied
    assert classify_flow(rotation).period_over_pi == 6

    big = coerce_matrix(np.array([[2**53 + 1]], dtype=np.int64)).entries[0][0]
    assert big == 2**53 + 1 and type(big.numerator) is int
    nested = coerce_matrix([[np.int64(0), np.int64(-2)], [np.int64(2), np.int64(0)]]).entries
    assert nested == ((0, -2), (2, 0))
    assert all(type(v.numerator) is int for row in nested for v in row)

    floats = coerce_matrix(np.array([[0.1, np.float32(0.1)], [-2.5, 0.0]])).entries
    assert floats == ((F(0.1), F(float(np.float32(0.1)))), (F(-5, 2), 0))
    assert coerce_matrix([[0.1]]).entries == ((F(0.1),),)
    with pytest.raises(ValueError):
        coerce_matrix([[True]])
    # One error for both, though Fraction(float) raises OverflowError for inf.
    for entry in (math.inf, -math.inf, math.nan, np.float64("inf"), np.float32("nan")):
        with pytest.raises(ValueError, match=f"matrix entry {re.escape(repr(entry))} is not"):
            coerce_matrix([[0, entry], [1, 0]])


def test_the_shape_is_refused_wherever_it_enters():
    from lieflow.dersolve import DerivationMatrix
    from lieflow.periodicity import classify_flow
    from lieflow.spectral import char_poly, spectrum

    with pytest.raises(ValueError, match="matrix must be square"):
        DerivationMatrix(((1, 2),))
    sl2 = get_entry("sl2").structure
    ragged = ((0, 1, 0), (1, 0), (0, 0, 0))
    for check in (classify_flow, char_poly, spectrum, lambda m: leibniz_residual(sl2, m),
                  lambda m: derivation(sl2, m)):
        with pytest.raises(ValueError, match="matrix must be square"):
            check(ragged)
    with pytest.raises(ValueError, match="matrix is 1x1, expected 3x3"):
        derivation(sl2, DerivationMatrix(((F(1),),)))


# --- the whole-basis Leibniz sweep ----------------------------------------------


def basis_vectors(sc):
    return [flatten(b.entries) for b in derivation_space(sc).basis]


def moved(vec, t):
    return [v + F(1, 3) * (s == t) for s, v in enumerate(vec)]


def free_columns(vecs):
    """The free column of each nullspace vector: its last nonzero, since a
    pivot row has nonzeros right of its pivot only."""
    return {max(t for t, v in enumerate(vec) if v) for vec in vecs}


@pytest.mark.parametrize("kind", ["pivot", "free"])
def test_derivation_space_refuses_a_basis_that_violates_leibniz(monkeypatch, kind):
    sc = filiform_algebra(5)
    n, vecs = sc.dim, basis_vectors(sc)
    free = free_columns(vecs)
    k, t = next((k, t) for k, vec in enumerate(vecs) for t in range(n * n)
                if (t in free) == (kind == "free")
                and leibniz_residual(sc, [moved(vec, t)[r * n:r * n + n] for r in range(n)])[0])
    nullspace = dersolve._linalg.nullspace

    def bad_nullspace(rows, ncols):
        out = nullspace(rows, ncols)
        out[k] = tuple(moved(out[k], t))
        return out

    monkeypatch.setattr(dersolve._linalg, "nullspace", bad_nullspace)
    with pytest.raises(AssertionError, match="violates Leibniz"):
        derivation_space(sc)


SWEEP_ALGEBRAS = (
    [(f"h_{2 * k + 1}", heisenberg_algebra(k)) for k in (1, 2, 3)]
    + [(f"L_{n}", filiform_algebra(n)) for n in range(4, 9)]
    + [(f"sl2+R^{m}", sl2_plus_abelian(m)) for m in (1, 2, 3)]
)
SWEEP_CASES = (
    [(name, sc) for name, sc in SWEEP_ALGEBRAS]
    + [(f"{name}[seeded]", seeded_change_of_basis(sc, 40 + i))
       for i, (name, sc) in enumerate(SWEEP_ALGEBRAS)]
    + [("R^3", StructureConstants(3))]
)


@pytest.mark.parametrize("name,sc", SWEEP_CASES, ids=[c[0] for c in SWEEP_CASES])
def test_whole_basis_sweep_agrees_with_the_residual_of_each_matrix(name, sc):
    """Every entry position moved by 1/3 once, in basis vector t mod dim Der:
    the sweep over the whole basis accepts it exactly when that matrix's own
    residual is 0."""
    n, vecs = sc.dim, basis_vectors(sc)
    assert _leibniz_sweep(sc, vecs)[0] == 0
    for t in range(n * n):
        k = t % len(vecs)
        vec = moved(vecs[k], t)
        mutant = vecs[:k] + [vec] + vecs[k + 1:]
        alone = leibniz_residual(sc, [vec[r * n:r * n + n] for r in range(n)])[0]
        assert (_leibniz_sweep(sc, mutant)[0] == 0) == (alone == 0), (k, t)
