"""Brackets, Jacobi validation, adjoints, and the algebra file format."""

import json
import random
from fractions import Fraction as F

import pytest

from lieflow import (
    StructureConstants,
    ad,
    algebra_from_dict,
    algebra_to_dict,
    classify_invariant_flow,
    inner_derivation,
    load_algebra,
    validate_algebra,
)
from lieflow.catalog import CATALOG_NAMES, PARAMETRIC_NAMES, get_entry
from lieflow.liealg import MAX_DIM, as_scalar


def heisenberg():
    return StructureConstants(3, {(1, 2, 0): 1})


def basis_vec(n, i):
    return tuple(F(1 if t == i else 0) for t in range(n))


def apply(mat, v):
    """The matrix-vector product; [x, y] is apply(ad(sc, x), y)."""
    return tuple(sum((a * b for a, b in zip(row, v)), F(0)) for row in mat)


def permuted(sc, perm):
    """The algebra in the reordered basis F_t = E_perm[t], re-indexed from the
    structure constants: [E_i, E_j] = c E_k reads [F_a, F_b] = +-c F_inv[k]."""
    inv = {p: t for t, p in enumerate(perm)}
    entries = {}
    for (i, j, k), c in sc.entries.items():
        a, b = inv[i], inv[j]
        entries[(min(a, b), max(a, b), inv[k])] = c if a < b else -c
    return StructureConstants(sc.dim, entries, [sc.basis_labels[p] for p in perm])


def cyclic_jacobi_sum(sc, i, j, k):
    """Independent oracle: [Ei,[Ej,Ek]] + [Ej,[Ek,Ei]] + [Ek,[Ei,Ej]]."""
    ei, ej, ek = (basis_vec(sc.dim, t) for t in (i, j, k))
    parts = [
        apply(ad(sc, ei), apply(ad(sc, ej), ek)),
        apply(ad(sc, ej), apply(ad(sc, ek), ei)),
        apply(ad(sc, ek), apply(ad(sc, ei), ej)),
    ]
    return tuple(sum(vals) for vals in zip(*parts))


def all_catalog_structures():
    out = []
    for name in CATALOG_NAMES:
        if name in PARAMETRIC_NAMES:
            for a in (F(1, 2), F(2), F(3)):
                out.append((f"{name}[a={a}]", get_entry(name, a).structure))
        else:
            out.append((name, get_entry(name).structure))
    return out


def rand_vector(rng, n):
    return tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))


def test_heisenberg_is_valid():
    report = validate_algebra(heisenberg())
    assert report.jacobi_ok
    assert report.residual == 0
    assert report.worst_triple is None


def test_abelian_is_valid():
    report = validate_algebra(StructureConstants(3))
    assert report.jacobi_ok


def test_cyclic_sum_oracle_flags_bad_constants():
    # c12^2 = 1, c13^3 = 1, c23^1 = 1 breaks Jacobi on the triple (1,2,3).
    sc = StructureConstants(3, {(0, 1, 1): 1, (0, 2, 2): 1, (1, 2, 0): 1})
    oracle = cyclic_jacobi_sum(sc, 0, 1, 2)
    assert oracle == (F(-2), F(0), F(0))
    report = validate_algebra(sc)
    assert not report.jacobi_ok
    assert report.worst_triple == (0, 1, 2)
    assert report.residual == 2


@pytest.mark.parametrize("name,sc", all_catalog_structures())
def test_catalog_structures_satisfy_jacobi(name, sc):
    assert validate_algebra(sc).jacobi_ok, name


def test_heisenberg_bracket_e2_e3():
    sc = heisenberg()
    assert apply(ad(sc, basis_vec(3, 1)), basis_vec(3, 2)) == (F(1), F(0), F(0))


def test_bracket_of_vector_with_itself_vanishes():
    rng = random.Random(7)
    for _, sc in all_catalog_structures():
        x = rand_vector(rng, sc.dim)
        assert apply(ad(sc, x), x) == tuple(F(0) for _ in range(sc.dim))


def test_bracket_antisymmetry_on_random_vectors():
    rng = random.Random(11)
    for _, sc in all_catalog_structures():
        for _ in range(5):
            x, y = rand_vector(rng, sc.dim), rand_vector(rng, sc.dim)
            lhs = apply(ad(sc, x), y)
            rhs = apply(ad(sc, y), x)
            assert lhs == tuple(-v for v in rhs)


def test_jacobi_identity_on_random_vectors():
    rng = random.Random(13)
    for _, sc in all_catalog_structures():
        for _ in range(3):
            x, y, z = (rand_vector(rng, sc.dim) for _ in range(3))
            total = tuple(
                sum(vals)
                for vals in zip(
                    apply(ad(sc, x), apply(ad(sc, y), z)),
                    apply(ad(sc, y), apply(ad(sc, z), x)),
                    apply(ad(sc, z), apply(ad(sc, x), y)),
                )
            )
            assert all(v == 0 for v in total)


def test_sl2_brackets_match_commutator_oracle():
    sympy = pytest.importorskip("sympy")
    entry = get_entry("sl2")
    sc = entry.structure
    rep = entry.representation
    flat = sympy.Matrix([[m[r][c] for r in range(2) for c in range(2)] for m in rep]).T
    for i in range(3):
        for j in range(3):
            ab = [
                [
                    sum(rep[i][r][t] * rep[j][t][c] for t in range(2))
                    - sum(rep[j][r][t] * rep[i][t][c] for t in range(2))
                    for c in range(2)
                ]
                for r in range(2)
            ]
            target = sympy.Matrix([ab[r][c] for r in range(2) for c in range(2)])
            coords, free = flat.gauss_jordan_solve(target)  # ValueError outside the span
            assert free.shape == (0, 1)
            assert apply(ad(sc, basis_vec(3, i)), basis_vec(3, j)) == tuple(
                F(int(v.p), int(v.q)) for v in coords)


def test_sl2_bracket_y_h():
    sc = get_entry("sl2").structure
    assert apply(ad(sc, basis_vec(3, 0)), basis_vec(3, 1)) == (F(2), F(0), F(4))


def test_ad_columns_are_brackets():
    # Column j of ad(x) is [x, E_j] = sum_i x_i [E_i, E_j], expanded from the
    # structure constants with antisymmetry spelled out.
    rng = random.Random(17)
    for _, sc in all_catalog_structures():
        x = rand_vector(rng, sc.dim)
        cols = [[F(0)] * sc.dim for _ in range(sc.dim)]
        for (i, j, k), c in sc.entries.items():
            cols[j][k] += x[i] * c
            cols[i][k] -= x[j] * c
        assert ad(sc, x) == tuple(zip(*cols))


def test_ad_is_linear():
    sc = get_entry("sl2").structure
    rng = random.Random(19)
    x, y = rand_vector(rng, 3), rand_vector(rng, 3)
    al, be = F(3, 2), F(-5)
    combo = tuple(al * a + be * b for a, b in zip(x, y))
    lhs = ad(sc, combo)
    ax, ay = ad(sc, x), ad(sc, y)
    for i in range(3):
        for j in range(3):
            assert lhs[i][j] == al * ax[i][j] + be * ay[i][j]


def test_ad_on_abelian_is_zero():
    sc = StructureConstants(3)
    mat = ad(sc, (F(1), F(2), F(3)))
    assert all(v == 0 for row in mat for v in row)


def test_dimension_mismatch_raises():
    sc = heisenberg()
    with pytest.raises(ValueError):
        ad(sc, (1, 0))


def test_structure_constants_reject_bad_indices():
    with pytest.raises(ValueError):
        StructureConstants(2, {(1, 0, 0): 1})  # i >= j
    with pytest.raises(ValueError):
        StructureConstants(2, {(0, 1, 5): 1})
    with pytest.raises(ValueError):
        StructureConstants(0)


# --- file format ---------------------------------------------------------------


def test_algebra_file_roundtrip(tmp_path):
    sc = get_entry("g31_heisenberg").structure
    path = tmp_path / "heis.json"
    path.write_text(json.dumps(algebra_to_dict(sc)))
    loaded = load_algebra(str(path))
    assert loaded.dim == sc.dim
    assert loaded.entries == sc.entries
    assert loaded.basis_labels == sc.basis_labels


def test_algebra_dict_unlisted_pairs_are_zero():
    sc = algebra_from_dict({"dim": 3, "brackets": [{"i": 1, "j": 2, "k": 3, "c": "2"}]})
    assert apply(ad(sc, basis_vec(3, 0)), basis_vec(3, 2)) == (F(0),) * 3


def test_algebra_dict_rejects_lower_triangle():
    with pytest.raises(ValueError):
        algebra_from_dict(
            {"dim": 2, "brackets": [{"i": 2, "j": 1, "k": 1, "c": "1"}]}
        )
    with pytest.raises(ValueError):
        algebra_from_dict(
            {"dim": 2, "brackets": [{"i": 1, "j": 1, "k": 1, "c": "1"}]}
        )


def test_algebra_dict_rejects_decimal_scalars():
    with pytest.raises(ValueError):
        algebra_from_dict(
            {"dim": 2, "brackets": [{"i": 1, "j": 2, "k": 1, "c": "0.5"}]}
        )


def test_numpy_integers_are_exact_scalars():
    import numpy as np

    value = as_scalar(np.int64(-3))
    assert value == -3 and type(value) is F and type(value.numerator) is int
    sl2 = get_entry("sl2").structure
    assert classify_invariant_flow(sl2, np.array([1, 0, 0])).period_over_pi == 1
    assert inner_derivation(sl2, np.array([1, 0, 0])) == inner_derivation(sl2, (1, 0, 0))
    assert get_entry("g35_a", np.int64(3)).param == 3
    for refused in (True, 0.5, np.float64(2.0), "1.5"):
        with pytest.raises(ValueError):
            as_scalar(refused)


@pytest.mark.parametrize("dtype", ["float16", "float32", "float64"])
def test_numpy_floats_are_refused_as_decimals(dtype):
    import numpy as np

    with pytest.raises(ValueError, match="decimal scalar"):
        as_scalar(getattr(np, dtype)(2))


@pytest.mark.parametrize("field, value", [
    ("dim", 2.7), ("dim", True), ("dim", float("inf")), ("dim", "2.0"),
    ("i", 1.5), ("j", False), ("k", 2.5), ("k", [2]),
])
def test_algebra_dict_rejects_non_integer_indices(field, value):
    data = {"dim": 2, "brackets": [{"i": 1, "j": 2, "k": 2, "c": "1"}]}
    (data if field == "dim" else data["brackets"][0])[field] = value
    with pytest.raises(ValueError, match=f"needs an integer '{field}'"):
        algebra_from_dict(data)


@pytest.mark.parametrize("dim", [33, 100000, 1e9, "1000000000"])
def test_algebra_dict_rejects_a_dim_above_the_bound(dim):
    with pytest.raises(ValueError, match=r"algebra file 'dim' is \d+; at most 32"):
        algebra_from_dict({"dim": dim})


def test_algebra_dict_accepts_the_largest_dim():
    sc = algebra_from_dict({"dim": MAX_DIM, "brackets": [{"i": 1, "j": MAX_DIM, "k": 1, "c": 1}]})
    assert sc.dim == MAX_DIM == 32 and validate_algebra(sc).jacobi_ok


def test_algebra_dict_accepts_integer_text_and_integral_numbers():
    sc = algebra_from_dict({"dim": "3", "brackets": [{"i": "1", "j": 2.0, "k": 3, "c": "1"}]})
    assert sc.dim == 3 and sc.entries == {(0, 1, 2): F(1)}


def test_algebra_dict_accepts_rational_strings():
    sc = algebra_from_dict(
        {"dim": 2, "brackets": [{"i": 1, "j": 2, "k": 2, "c": "3/7"}]}
    )
    assert sc.entries[(0, 1, 1)] == F(3, 7)


def test_algebra_roundtrip_through_json_text(tmp_path):
    sc = get_entry("sl2").structure
    data = json.dumps(algebra_to_dict(sc))
    again = algebra_from_dict(json.loads(data))
    assert again.entries == sc.entries


def test_permuted_basis_brackets_are_consistent():
    sc = get_entry("sl2").structure
    perm = [2, 0, 1]
    psc = permuted(sc, perm)
    assert validate_algebra(psc).jacobi_ok
    assert psc.basis_labels == ("Z", "Y", "H")
    # [F_a, F_b] in the new algebra must equal [E_perm[a], E_perm[b]] rewritten.
    for a in range(3):
        for b in range(3):
            old = apply(ad(sc, basis_vec(3, perm[a])), basis_vec(3, perm[b]))
            new = apply(ad(psc, basis_vec(3, a)), basis_vec(3, b))
            rewritten = tuple(old[perm[t]] for t in range(3))
            assert new == rewritten


@pytest.mark.parametrize("basis", ["ab", {"a": 1, "b": 2}, [1, None], ["E1"]],
                         ids=["string", "object", "non-strings", "too-short"])
def test_algebra_dict_rejects_a_basis_that_is_not_dim_strings(basis):
    with pytest.raises(ValueError, match="'basis' must be a list of 2 strings"):
        algebra_from_dict({"dim": 2, "basis": basis})
