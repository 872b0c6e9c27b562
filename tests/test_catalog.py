"""Catalog entries, cross-check reports, and the verdict table."""

import json
import pathlib
from collections import Counter
from fractions import Fraction as F

import pytest

from lieflow import (
    algebra_from_dict,
    algebra_to_dict,
    classify_linear_flow,
    ad,
    derivation_space,
    leibniz_residual,
    validate_algebra,
)
from lieflow._linalg import spans_equal
from lieflow._record import replace
from lieflow.catalog import (
    CATALOG_NAMES,
    PARAMETRIC_NAMES,
    SAMPLE_PARAMS,
    ParamOutOfRangeError,
    UnknownEntryError,
    condition_side_samples,
    cross_check,
    cross_check_all,
    get_entry,
    space_samples,
    verdict_table,
)
from lieflow.cli import _json_value

from test_liealg import permuted

DATA = pathlib.Path(__file__).resolve().parent / "data"


def entries_with_default_params():
    for name in CATALOG_NAMES:
        yield get_entry(name, 2 if name in PARAMETRIC_NAMES else None)


def test_catalog_names_complete():
    assert CATALOG_NAMES == (
        "abelian2", "aff2", "abelian3", "g21_plus_g1", "g31_heisenberg",
        "g32", "g33", "g34_zero", "g34_a", "g35_a", "sl2",
    )


def test_unknown_entry():
    with pytest.raises(UnknownEntryError):
        get_entry("so3")


def test_param_validation():
    with pytest.raises(ParamOutOfRangeError):
        get_entry("g34_a", 1)
    with pytest.raises(ParamOutOfRangeError):
        get_entry("g34_a", F(-1, 2))
    with pytest.raises(ParamOutOfRangeError):
        get_entry("g35_a", 0)
    with pytest.raises(ParamOutOfRangeError):
        get_entry("aff2", 2)
    assert get_entry("g34_a", F(1, 2)).param == F(1, 2)


def test_g34_zero_bracket_constants():
    # a = 0, n1 = 1, n2 = -1, n3 = 0.
    sc = get_entry("g34_zero").structure
    assert sc.entries == {(0, 2, 1): F(1), (1, 2, 0): F(1)}


def test_sl2_entry_brackets():
    sc = get_entry("sl2").structure
    assert sc.basis_labels == ("Y", "H", "Z")
    assert sc.entries == {
        (0, 1, 0): F(2),
        (0, 1, 2): F(4),
        (0, 2, 1): F(-1),
        (1, 2, 2): F(2),
    }


def test_all_structures_validate():
    for entry in entries_with_default_params():
        assert validate_algebra(entry.structure).jacobi_ok, entry.name


@pytest.mark.parametrize("a", [F(1, 2), F(2), F(3)])
def test_parametric_structures_validate_on_grid(a):
    for name in PARAMETRIC_NAMES:
        assert validate_algebra(get_entry(name, a).structure).jacobi_ok


def test_representations_are_commutator_compatible():
    for entry in entries_with_default_params():
        if entry.representation is None:
            continue
        rep = entry.representation
        n = entry.structure.dim
        size = len(rep[0])
        for i in range(n):
            for j in range(n):
                comm = [
                    [
                        sum(rep[i][r][t] * rep[j][t][c] for t in range(size))
                        - sum(rep[j][r][t] * rep[i][t][c] for t in range(size))
                        for c in range(size)
                    ]
                    for r in range(size)
                ]
                ei = tuple(F(1 if t == i else 0) for t in range(n))
                coords = [row[j] for row in ad(entry.structure, ei)]  # [E_i, E_j]
                expected = [
                    [
                        sum(coords[k] * rep[k][r][c] for k in range(n))
                        for c in range(size)
                    ]
                    for r in range(size)
                ]
                assert comm == expected, (entry.name, i, j)


def test_entries_with_representations():
    have = {
        e.name for e in entries_with_default_params() if e.representation
    }
    assert have == {"aff2", "abelian3", "g31_heisenberg", "g34_zero", "sl2"}


def test_export_round_trip_preserves_verdicts():
    entry = get_entry("g31_heisenberg")
    data = algebra_to_dict(entry.structure)
    again = algebra_from_dict(data)
    mat = ((0, 0, 0), (0, 0, 1), (0, -1, 0))
    v1 = classify_linear_flow(entry.structure, mat)
    v2 = classify_linear_flow(again, mat)
    assert v1 == v2


# --- cross-check ---------------------------------------------------------------


def test_cross_check_aff2_is_clean():
    report = cross_check(get_entry("aff2"))
    assert report.derivation_space_match
    assert report.eigenvalue_formula_match
    assert report.discrepancies == ()
    assert report.flagged_locations() == ()


def test_cross_check_g33_flags_discriminant():
    report = cross_check(get_entry("g33"))
    assert report.derivation_space_match
    assert not report.eigenvalue_formula_match
    assert len(report.discrepancies) == 1
    d = report.discrepancies[0]
    assert "eigenvalue formula" in d.location
    assert "(x2-y2)^2" in d.published_value


def test_cross_check_g31_flags_discriminant():
    report = cross_check(get_entry("g31_heisenberg"))
    assert report.derivation_space_match
    assert not report.eigenvalue_formula_match
    assert "4*x3*z2" in report.discrepancies[0].published_value


def test_cross_check_g32_flags_missing_diagonal():
    report = cross_check(get_entry("g32"))
    assert not report.derivation_space_match
    assert report.eigenvalue_formula_match
    d = report.discrepancies[0]
    assert "derivation matrix family" in d.location
    assert d.recomputed_value == (
        "exact Leibniz nullspace has dimension 4; the printed family is a "
        "strict subfamily of it"
    )


def test_cross_check_g34_a_flags_both():
    report = cross_check(get_entry("g34_a", 2))
    assert not report.derivation_space_match
    assert not report.eigenvalue_formula_match
    locations = {d.location for d in report.discrepancies}
    assert locations == {
        "g34_a: derivation matrix family",
        "g34_a: eigenvalue formula",
    }
    family = next(
        d for d in report.discrepancies if "family" in d.location
    )
    assert family.recomputed_value == (
        "exact Leibniz nullspace has dimension 4; the printed family is not "
        "even contained in it"
    )


def test_cross_check_g35_a_flags_both():
    report = cross_check(get_entry("g35_a", 2))
    assert not report.derivation_space_match
    assert not report.eigenvalue_formula_match
    eig = next(d for d in report.discrepancies if "eigenvalue" in d.location)
    assert "(-a-1)*y2" in eig.published_value


def test_cross_check_sl2_records_bracket_print():
    report = cross_check(get_entry("sl2"))
    assert report.derivation_space_match
    assert report.eigenvalue_formula_match
    assert report.discrepancies == ()
    assert len(report.known_print_issues) == 1
    assert "2YX" in report.known_print_issues[0].published_value


def test_cross_check_abelian3_records_label_slip():
    report = cross_check(get_entry("abelian3"))
    assert report.derivation_space_match
    assert report.eigenvalue_formula_match
    assert report.discrepancies == ()
    assert any("label" in d.location for d in report.known_print_issues)
    assert report.notes


def test_discrepancy_invariant_mismatch_iff_flags_false():
    for report in cross_check_all():
        has_live = bool(report.discrepancies)
        some_flag_false = not (
            report.derivation_space_match and report.eigenvalue_formula_match
        )
        assert has_live == some_flag_false, report.name


def test_cross_check_all_flagged_entry_set():
    # The full honest discrepancy map of the printed catalog.
    flagged = {r.name for r in cross_check_all() if r.flagged_locations()}
    assert flagged == {
        "sl2", "abelian3", "g31_heisenberg", "g32", "g33", "g34_a", "g35_a"
    }


def test_cross_check_all_discrepancy_ledger():
    # Every live discrepancy of cross_check_all(), keyed by the entry and
    # the family parameter it was checked at, in cross_check_all's order.
    keys = [(name, a) for name in CATALOG_NAMES
            for a in (SAMPLE_PARAMS if name in PARAMETRIC_NAMES else (None,))]
    reports = cross_check_all()
    assert [r.name for r in reports] == [name for name, _ in keys]
    ledger = Counter(
        (name, a, d.location)
        for (name, a), r in zip(keys, reports) for d in r.discrepancies
    )
    expected = Counter({
        ("g31_heisenberg", None, "g31_heisenberg: eigenvalue formula"): 1,
        ("g32", None, "g32: derivation matrix family"): 1,
        ("g33", None, "g33: eigenvalue formula"): 1,
    })
    for name in PARAMETRIC_NAMES:
        for a in SAMPLE_PARAMS:
            expected[(name, a, f"{name}: derivation matrix family")] = 1
            expected[(name, a, f"{name}: eigenvalue formula")] = 1
    assert sum(expected.values()) == 15
    assert ledger == expected


def test_cross_check_flags_a_constant_term_off_by_a_trillionth():
    # The roots of abelian2's claimed quadratic move by about 1e-13, far
    # inside any float tolerance; the polynomials still differ exactly.
    entry = get_entry("abelian2")

    def nudged(v):
        ((c0, c1, c2),) = entry.claimed_factors(v)
        return [(c0 + F(1, 10**12), c1, c2)]

    report = cross_check(replace(entry, claimed_factors=nudged))
    assert report.derivation_space_match
    assert not report.eigenvalue_formula_match
    (d,) = report.discrepancies
    assert d.location == "abelian2: eigenvalue formula"
    at = " at a=2, b=3, c=5, d=7"
    assert d.published_value == (
        entry.claimed_eigenvalue_text
        + " -> roots of l^2 - 9*l - 999999999999/1000000000000" + at
    )
    assert d.recomputed_value == (
        "exact characteristic polynomial of the printed matrix is "
        "l^2 - 9*l - 1" + at
    )


def test_g21_and_g34_zero_patterns_coincide():
    s1 = derivation_space(get_entry("g21_plus_g1").structure)
    s2 = derivation_space(get_entry("g34_zero").structure)
    flat1 = [[m.entries[r][c] for r in range(3) for c in range(3)] for m in s1.basis]
    flat2 = [[m.entries[r][c] for r in range(3) for c in range(3)] for m in s2.basis]
    assert s1.dim == s2.dim == 4
    assert spans_equal(flat1, flat2)


# --- verdict table ---------------------------------------------------------------


def test_space_samples_are_nonzero_derivations():
    entry = get_entry("g32")
    samples = space_samples(entry)
    assert samples
    for label, mat in samples:
        assert any(v != 0 for row in mat for v in row), label
        assert leibniz_residual(entry.structure, mat)[0] == 0, label


def test_side_samplers_are_exactly_on_the_conditional_entries():
    with_sampler = {e.name for e in entries_with_default_params() if e.side_sampler}
    with_condition = {
        e.name for e in entries_with_default_params() if e.periodicity_condition
    }
    assert with_sampler == with_condition == {
        "abelian2", "abelian3", "g31_heisenberg", "g33", "sl2"}


def test_condition_side_samples_need_a_condition():
    with pytest.raises(ValueError, match="aff2 has no periodicity condition"):
        condition_side_samples(get_entry("aff2"), True, 1)


@pytest.mark.parametrize("fixture, produce", [
    ("verdict_table.jsonl", verdict_table),
    ("cross_check_all.jsonl", cross_check_all),
], ids=["verdict-table", "cross-check-all"])
def test_whole_catalog_documents_match_the_pinned_rows(fixture, produce):
    # One compact JSON line per verdict row or cross-check report: every
    # matrix, label, verdict, period and flag of the whole table.
    lines = (DATA / fixture).read_text().splitlines()
    got = [json.dumps(_json_value(r), separators=(",", ":"), allow_nan=False)
           for r in produce()]
    assert len(got) == len(lines)
    for want, row in zip(lines, got):
        assert row == want


def test_condition_samples_land_on_their_side():
    for name in ("abelian2", "abelian3", "g31_heisenberg", "g33", "sl2"):
        entry = get_entry(name)
        for side in (True, False):
            for mat in condition_side_samples(entry, side, 10):
                assert entry.periodicity_condition(mat) == side


def test_verdict_table_rows():
    rows = verdict_table()
    by_entry: dict = {}
    for r in rows:
        by_entry.setdefault(r.entry, []).append(r)

    # Families with a condition get both sides right.
    for name in ("abelian2", "abelian3", "g31_heisenberg", "g33", "sl2"):
        tags = {r.verdict.tag for r in by_entry[name]}
        assert "PeriodicFlow" in tags and "NoPeriodicOrbits" in tags
        assert all(r.agrees_with_published for r in by_entry[name])

    # Published never-periodic families that really are never periodic.
    for name in ("aff2", "g21_plus_g1", "g32", "g34_zero", "g34_a"):
        assert all(r.verdict.tag == "NoPeriodicOrbits" for r in by_entry[name])
        assert all(r.agrees_with_published for r in by_entry[name])

    # The published g35 claim fails on the rotation witness; the table says so.
    g35 = by_entry["g35_a"]
    witnesses = [r for r in g35 if r.verdict.tag == "PeriodicFlow"]
    assert witnesses
    assert all(not r.agrees_with_published for r in witnesses)
    assert all(
        abs(r.verdict.period - 2 * 3.141592653589793) < 1e-12 for r in witnesses
    )


def test_specific_verdict_rows():
    rows = verdict_table()

    def find(entry, label):
        return next(r for r in rows if r.entry == entry and r.label == label)

    heis = find("g31_heisenberg", "periodic-side[0]")
    assert heis.verdict.tag == "PeriodicFlow"
    g21 = [r for r in rows if r.entry == "g21_plus_g1"]
    assert {r.verdict.reason for r in g21} <= {
        "RealNonzeroEigenvalue", "NonSemisimpleEigenvalue"
    }


def test_every_periodic_table_verdict_verifies_numerically():
    from lieflow import verify_verdict

    rows = verdict_table()
    periodic = [r for r in rows if r.verdict.tag == "PeriodicFlow"]
    assert periodic
    for r in periodic:
        entry = get_entry(r.entry, r.param)
        evidence = verify_verdict(entry.structure, r.matrix, r.verdict)
        assert evidence.passed, (r.entry, r.label, evidence.details)


def test_verdicts_stable_under_basis_permutation():
    # Conjugating the structure constants and the derivation by the same
    # permutation must not change the verdict tag or period.
    perm = [2, 0, 1]
    for name in ("g31_heisenberg", "sl2", "g33"):
        entry = get_entry(name)
        psc = permuted(entry.structure, perm)
        samples = (
            condition_side_samples(entry, True, 3)
            + condition_side_samples(entry, False, 3)
        )
        for mat in samples:
            base = classify_linear_flow(entry.structure, mat)
            pmat = tuple(
                tuple(mat[perm[i]][perm[j]] for j in range(3)) for i in range(3)
            )
            moved = classify_linear_flow(psc, pmat)
            assert moved.tag == base.tag
            if base.tag == "PeriodicFlow":
                assert abs(moved.period - base.period) < 1e-12
