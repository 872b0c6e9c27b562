"""Derivation spaces against hand-checkable families and brute Leibniz loops."""

import random
from fractions import Fraction as F

import pytest

from lieflow import (
    StructureConstants,
    bracket,
    derivation_space,
    in_derivation_span,
    inner_derivation,
    is_derivation,
    validate_algebra,
)
from lieflow.catalog import get_entry
from lieflow.dersolve import coerce_matrix, constraint_rows, leibniz_residual

from test_liealg import all_catalog_structures, basis_vec, rand_vector


def brute_leibniz_holds(sc, mat):
    """Independent oracle: check D[x,y] = [Dx,y] + [x,Dy] on all basis pairs."""
    m = coerce_matrix(mat, sc.dim)

    def apply(v):
        return tuple(
            sum(m[i][j] * v[j] for j in range(sc.dim)) for i in range(sc.dim)
        )

    for i in range(sc.dim):
        for j in range(sc.dim):
            ei, ej = basis_vec(sc.dim, i), basis_vec(sc.dim, j)
            lhs = apply(bracket(sc, ei, ej))
            rhs = tuple(
                a + b
                for a, b in zip(
                    bracket(sc, apply(ei), ej), bracket(sc, ei, apply(ej))
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
            check = is_derivation(sc, b.entries)
            assert check.is_derivation, name
            assert brute_leibniz_holds(sc, b.entries), name


def test_is_derivation_aff2_examples():
    sc = get_entry("aff2").structure
    ok = is_derivation(sc, ((0, 0), (5, -3)))
    assert ok.is_derivation and ok.leibniz_residual == 0
    bad = is_derivation(sc, ((1, 0), (0, 0)))
    assert not bad.is_derivation
    assert bad.leibniz_residual != 0
    assert bad.worst_pair == (0, 1)
    assert not brute_leibniz_holds(sc, ((1, 0), (0, 0)))


def test_zero_matrix_is_a_derivation():
    for _, sc in all_catalog_structures():
        z = tuple(tuple(F(0) for _ in range(sc.dim)) for _ in range(sc.dim))
        assert is_derivation(sc, z).is_derivation


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
        assert is_derivation(sc, d).is_derivation


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
        space = derivation_space(sc)
        for _ in range(4):
            x = rand_vector(rng, sc.dim)
            d = inner_derivation(sc, x)
            assert in_derivation_span(space, d.entries), name


def test_matrix_dimension_mismatch():
    sc = get_entry("aff2").structure
    with pytest.raises(ValueError):
        is_derivation(sc, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


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


def dense_change_of_basis(sc):
    """The algebra in the basis F_a = sum_i P[i][a] E_i, P[i][j] = min(i, j) + 1.

    P = L U with U unit upper triangular of ones and L = U^T, so P is
    unimodular with P^{-1} = U^{-1} L^{-1}, both bidiagonal with -1 off the
    diagonal.
    """
    n = sc.dim
    p_cols = [[F(min(i, a) + 1) for i in range(n)] for a in range(n)]

    def p_inverse(v):
        w = [v[i] - (v[i - 1] if i else 0) for i in range(n)]  # L^{-1} v
        return [w[i] - (w[i + 1] if i + 1 < n else 0) for i in range(n)]  # U^{-1} w

    entries = {}
    for a in range(n):
        for b in range(a + 1, n):
            for k, c in enumerate(p_inverse(bracket(sc, p_cols[a], p_cols[b]))):
                if c:
                    entries[(a, b, k)] = c
    return StructureConstants(n, entries)


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
        assert is_derivation(sc, b.entries).is_derivation


def test_coerce_matrix_converts_every_entry_exactly():
    import numpy as np

    from lieflow.periodicity import classify_flow

    third = F(1, 3)
    rotation = np.array([[0, third], [-third, 0]], dtype=object)
    assert coerce_matrix(rotation) == ((0, third), (-third, 0))
    assert coerce_matrix(rotation)[0][1] is third  # passed through, not copied
    assert classify_flow(rotation).period_over_pi == 6

    big = coerce_matrix(np.array([[2**53 + 1]], dtype=np.int64))[0][0]
    assert big == 2**53 + 1 and type(big.numerator) is int
    nested = coerce_matrix([[np.int64(0), np.int64(-2)], [np.int64(2), np.int64(0)]])
    assert nested == ((0, -2), (2, 0))
    assert all(type(v.numerator) is int for row in nested for v in row)

    floats = coerce_matrix(np.array([[0.1, np.float32(0.1)], [-2.5, 0.0]]))
    assert floats == ((F(0.1), F(float(np.float32(0.1)))), (F(-5, 2), 0))
    assert coerce_matrix([[0.1]]) == ((F(0.1),),)
    with pytest.raises(ValueError):
        coerce_matrix([[True]])
