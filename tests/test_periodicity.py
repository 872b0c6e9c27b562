"""Flow classification, the rational ratio profiles and minimal periods of
its verdicts."""

import inspect
import json
import math
import random
from dataclasses import fields
from decimal import Context
from fractions import Fraction as F

import pytest

from lieflow import (
    FlowVerdict,
    NotADerivationError,
    PeriodTooLargeError,
    RationalProfile,
    StructureConstants,
    char_poly,
    classify_flow,
    classify_invariant_flow,
    classify_linear_flow,
    inner_derivation,
    spectrum,
)
from lieflow.catalog import get_entry
from lieflow.cli import _json_value
from lieflow.spectral import _sqrt


def abelian(n):
    return StructureConstants(n)


def rot_block(beta):
    return [[0, -beta], [beta, 0]]


def blkdiag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    pos = 0
    for b in blocks:
        k = len(b)
        for i in range(k):
            for j in range(k):
                out[pos + i][pos + j] = b[i][j]
        pos += k
    return tuple(tuple(row) for row in out)


# --- classify_flow examples ----------------------------------------------------


def test_sl2_unit_rotation_is_periodic_pi():
    sc = get_entry("sl2").structure
    v = classify_linear_flow(sc, inner_derivation(sc, (1, 0, 0)))
    assert v.tag == "PeriodicFlow"
    assert abs(v.period - math.pi) < 1e-15
    assert v.period_over_pi == 1


def test_aff2_diagonal_has_real_nonzero_eigenvalue():
    sc = get_entry("aff2").structure
    v = classify_linear_flow(sc, ((0, 0), (0, 1)))
    assert v.tag == "NoPeriodicOrbits"
    assert v.reason == "RealNonzeroEigenvalue"


def test_zero_derivation_is_identity_flow():
    sc = get_entry("aff2").structure
    v = classify_linear_flow(sc, ((0, 0), (0, 0)))
    assert v.tag == "IdentityFlow"


def test_heisenberg_rotation_block_is_periodic_2pi():
    # y2 = z3 = 0, y3 = 1, z2 = -1: block discriminant -4, spectrum {0, +-i}.
    sc = get_entry("g31_heisenberg").structure
    mat = ((0, 0, 0), (0, 0, 1), (0, -1, 0))
    v = classify_linear_flow(sc, mat)
    assert v.tag == "PeriodicFlow"
    assert abs(v.period - 2 * math.pi) < 1e-15
    assert v.period_over_pi == 2


def test_g34_family_samples_are_never_periodic():
    for a in (F(1, 2), F(2), F(3)):
        sc = get_entry("g34_a", a).structure
        v = classify_linear_flow(sc, ((1, 0, 0), (0, 1, 0), (0, 0, 0)))
        assert v.tag == "NoPeriodicOrbits"
        assert v.reason == "RealNonzeroEigenvalue"


def test_g32_nilpotent_sample_is_non_semisimple():
    sc = get_entry("g32").structure
    v = classify_linear_flow(sc, ((0, 1, 0), (0, 0, 1), (0, 0, 0)))
    assert v.tag == "NoPeriodicOrbits"
    assert v.reason == "NonSemisimpleEigenvalue"


def test_complex_pair_off_axis_reports_nonzero_real_part():
    v = classify_linear_flow(abelian(2), ((1, 1), (-1, 1)))
    assert v.tag == "NoPeriodicOrbits"
    assert v.reason == "NonzeroRealPart"


def test_reason_order_prefers_nonzero_real_part():
    # Both an off-axis pair and a real nonzero eigenvalue: the fixed order
    # reports NonzeroRealPart.
    mat = blkdiag([[5]], [[1, -1], [1, 1]])
    v = classify_flow(mat)
    assert v.reason == "NonzeroRealPart"


def test_real_nonzero_wins_over_pure_imaginary_pair():
    mat = blkdiag([[3]], rot_block(2))
    v = classify_flow(mat)
    assert v.reason == "RealNonzeroEigenvalue"


def test_zero_eigenvalue_must_be_semisimple():
    # Pure rotation plus a nilpotent 2x2 cell: eigenvalue 0 with a chain.
    mat = blkdiag(rot_block(1), [[0, 1], [0, 0]], [[0]])
    v = classify_flow(mat)
    assert v.tag == "NoPeriodicOrbits"
    assert v.reason == "NonSemisimpleEigenvalue"


def companion(*low):
    """Companion matrix of the monic polynomial with low coefficients `low`."""
    n = len(low)
    return [[int(i == j + 1) if j < n - 1 else -low[i] for j in range(n)] for i in range(n)]


# An even rest h(lambda^2) is decided on h alone. The Sturm sequences of these
# h have constant terms other than +-1, so a sign must be read from each.
@pytest.mark.parametrize("mat, tag, reason", [
    # h = (mu - 4)(mu + 9): the positive root mu = 4 gives +-2.
    (blkdiag([[2]], [[-2]], rot_block(3)), "NoPeriodicOrbits", "RealNonzeroEigenvalue"),
    # h = mu^2 + mu + 1 has no real root: lambda^4 + lambda^2 + 1 is off both axes.
    (companion(1, 0, 1, 0), "NoPeriodicOrbits", "NonzeroRealPart"),
    (blkdiag(companion(1, 0, 1, 0), [[0]]), "NoPeriodicOrbits", "NonzeroRealPart"),
    # h = (mu - 9)(mu^2 + 4): +-3 with +-(1 +- i); the off-axis roots come first.
    (blkdiag([[3]], [[-3]], [[1, -1], [1, 1]], [[-1, -1], [1, -1]]),
     "NoPeriodicOrbits", "NonzeroRealPart"),
    # h = (mu + 4)(mu^2 + 3 mu + 1): one rational root of three.
    (blkdiag(rot_block(2), companion(1, 0, 3, 0)), "NoPeriodicOrbits", "IrrationalRatio"),
    # rad = lambda: h is a constant.
    ([[0] * 3] * 3, "IdentityFlow", None),
])
def test_even_rest_is_decided_on_h(mat, tag, reason):
    v = classify_flow(mat)
    assert (v.tag, v.reason) == (tag, reason)


def test_two_rational_rotations_make_2pi():
    v = classify_flow(blkdiag(rot_block(2), rot_block(3)))
    assert v.tag == "PeriodicFlow"
    assert abs(v.period - 2 * math.pi) < 1e-15
    assert v.period_over_pi == 2
    assert v.profile.ratios == ((1, 1), (3, 2))


def test_irrational_ratio_verdict_from_numeric_spectrum():
    # R(1) + companion(l^2 + 2): frequencies 1 and sqrt(2).
    v = classify_flow(blkdiag(rot_block(1), [[0, -2], [1, 0]]))
    assert v.tag == "NoPeriodicOrbits"
    assert v.reason == "IrrationalRatio"


def test_proven_irrational_ratio_from_exact_surds():
    # Exact frequencies 2 and 2*sqrt(3): h = (mu + 4)(mu + 12) splits over Q,
    # but the ratio square 3 is not a rational square, so irrationality is
    # decided without tolerances.
    v = classify_flow(blkdiag(rot_block(2), [[0, -12], [1, 0]]))
    assert (v.tag, v.reason, v.profile) == ("NoPeriodicOrbits", "IrrationalRatio", None)


def test_pairs_1e13_apart_are_classified_exactly():
    # Two off-axis pairs 1e-13 apart, which spectrum() cannot tell apart, are
    # decided exactly from the integer characteristic polynomial.
    import numpy as np

    rng = np.random.default_rng(9)
    m = np.zeros((6, 6))
    for i, (al, be) in enumerate([(0.3, 1.1), (0.3 + 1e-13, 1.1), (1.5, 3.7)]):
        m[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[al, -be], [be, al]]
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    v = classify_flow(q @ m @ q.T)
    assert v.tag == "NoPeriodicOrbits"
    assert v.reason == "NonzeroRealPart"


def test_not_a_derivation_raises():
    sc = get_entry("sl2").structure
    bad = ((1, 0, 0), (0, 0, 0), (0, 0, 0))
    with pytest.raises(NotADerivationError) as err:
        classify_linear_flow(sc, bad)
    assert err.value.residual != 0


def test_fractions_of_numpy_integers_give_the_results_of_plain_ones():
    # Fraction(np.int64(n)) keeps an int64 numerator and Fraction(3,
    # np.int64(2)) an int64 denominator. Kept as they are, their products
    # wrap at 2**63 (the 2**80 below read as 0) or reach NumPy's bools.
    import numpy as np

    def numpy_backed(v):
        v = F(v)
        if v.denominator == 1:
            return F(np.int64(v.numerator))
        return F(v.numerator, np.int64(v.denominator))

    def twin(mat):
        return [[numpy_backed(v) for v in row] for row in mat]

    sc = get_entry("sl2").structure
    x = (F(3, 4), 0, 0)
    half = inner_derivation(sc, x).entries  # entries -3/2, 3/4 and -3
    big = ((2**40, 0), (0, 2**40))
    assert char_poly(twin(big)).ints == (2**80, -2**41, 1)
    for mat in (big, half, ((F(3, 2), 0), (0, 1))):
        assert any(type(v.numerator) is not int or type(v.denominator) is not int
                   for row in twin(mat) for v in row)
        for fn in (char_poly, classify_flow, spectrum):
            assert fn(twin(mat)) == fn(mat), (fn.__name__, mat)
    assert classify_linear_flow(sc, twin(half)) == classify_linear_flow(sc, half)
    assert (classify_invariant_flow(sc, [numpy_backed(v) for v in x])
            == classify_invariant_flow(sc, x))


# --- the period and the rational ratio profile ---------------------------------


def assert_periodic(v, period, period_over_pi, profile):
    assert (v.tag, v.period, v.period_over_pi, v.profile) == (
        "PeriodicFlow", period, period_over_pi, profile)


def test_profile_single_frequency():
    # alpha = 2: T = 2*pi/2, with every float step exact.
    assert_periodic(classify_flow(rot_block(2)), math.pi, 1,
                    RationalProfile(2.0, 2, ((1, 1),)))


def test_profile_two_frequencies_exact():
    # alpha = 2, 3: the base is the smaller, and 3/2 makes lcm = 2.
    assert_periodic(classify_flow(blkdiag(rot_block(2), rot_block(3))), 2 * math.pi, 2,
                    RationalProfile(2.0, 2, ((1, 1), (3, 2))))


def test_profile_surd_base_has_no_exact_base():
    # lambda^2 + 3: alpha = sqrt(3) is a surd, so T/pi is not rational.
    v = classify_flow([[0, -3], [1, 0]])
    assert_periodic(v, 2 * math.pi / math.sqrt(3), None,
                    RationalProfile(math.sqrt(3), None, ((1, 1),)))


def test_minimal_period_examples():
    assert_periodic(classify_flow(rot_block(1)), 2 * math.pi, 2,
                    RationalProfile(1.0, 1, ((1, 1),)))
    # alpha = 1/3, 1/2: T = 2*pi*2/(1/3) = 12*pi, in the library's float order.
    v = classify_flow(blkdiag(rot_block(F(1, 2)), rot_block(F(1, 3))))
    assert_periodic(v, 2 * math.pi * 2 / (1 / 3), 12,
                    RationalProfile(1 / 3, F(1, 3), ((1, 1), (3, 2))))


def test_minimal_period_order_independent():
    rng = random.Random(31)
    blocks = [rot_block(b) for b in (1, 2, 3, 5)]
    reference = classify_flow(blkdiag(*blocks))
    assert_periodic(reference, 2 * math.pi, 2,
                    RationalProfile(1.0, 1, ((1, 1), (2, 1), (3, 1), (5, 1))))
    for _ in range(5):
        rng.shuffle(blocks)
        assert classify_flow(blkdiag(*blocks)) == reference


def test_minimal_period_over_pi_symbolic():
    v = classify_flow(blkdiag(rot_block(2), rot_block(3)))
    assert v.period_over_pi == 2
    assert v.period == float(v.period_over_pi) * math.pi


def test_period_too_large_guard():
    # No bound on the lcm: frequencies 1, 100004/100003 and 100020/100019
    # give lcm(100003, 100019) = 100003 * 100019 > 10**9, an exact period
    # like any other.
    lcm = 100003 * 100019
    v = classify_flow(blkdiag(rot_block(1), rot_block(F(100004, 100003)),
                              rot_block(F(100020, 100019))))
    assert v.period_over_pi == 2 * lcm
    assert v.period == 2 * math.pi * lcm
    assert v.profile.ratios == ((1, 1), (100020, 100019), (100004, 100003))  # ascending
    # Only a T outside the float range is refused, with its lcm.
    q = 10**400
    with pytest.raises(PeriodTooLargeError) as err:
        classify_flow(blkdiag(rot_block(1), rot_block(F(q + 1, q))))
    assert err.value.lcm == q


def test_base_frequency_is_the_correctly_rounded_root():
    rng = random.Random(41)
    ctx = Context(prec=60)
    for _ in range(2000):
        x = F(rng.getrandbits(rng.randint(1, 400)) + 1, rng.getrandbits(rng.randint(1, 400)) + 1)
        want = float(ctx.sqrt(ctx.divide(x.numerator, x.denominator)))
        assert _sqrt(x) == want, x


@pytest.mark.parametrize("beta", [F(1, 10**160), F(10**300), F(1, 10**300)],
                         ids=["1/10^160", "10^300", "1/10^300"])
def test_extreme_rational_rotation_periods(beta):
    # The base square beta^2 is subnormal, beyond the float range, or rounds
    # to zero; the period still matches its exact T/pi.
    v = classify_flow(rot_block(beta))
    assert v.tag == "PeriodicFlow" and v.period_over_pi == 2 / beta
    want = float(v.period_over_pi) * math.pi
    assert abs(v.period - want) <= 4 * math.ulp(want)


@pytest.mark.parametrize("beta", [F(1, 10**400), F(10**400)], ids=["1/10^400", "10^400"])
def test_period_beyond_the_float_range_is_too_large(beta):
    with pytest.raises(PeriodTooLargeError):
        classify_flow(rot_block(beta))


def test_huge_irrational_ratio_is_a_verdict():
    # Frequencies 1 and sqrt(2) * 10^200: the ratio's float must not overflow.
    a = 10**200
    v = classify_flow(blkdiag(rot_block(1), [[0, -2 * a], [a, 0]]))
    assert v.reason == "IrrationalRatio"


# --- invariants -------------------------------------------------------------------


def test_scaling_covariance():
    rng = random.Random(37)
    sc = get_entry("sl2").structure
    for _ in range(6):
        x = tuple(F(rng.randint(-3, 3)) for _ in range(3))
        d = inner_derivation(sc, x)
        base = classify_flow(d)
        for s in (F(2), F(1, 3), F(5, 2)):
            scaled = tuple(tuple(s * v for v in row) for row in d.entries)
            v = classify_flow(scaled)
            assert v.tag == base.tag
            if base.tag == "PeriodicFlow":
                assert abs(v.period - base.period / float(s)) < 1e-9 * base.period


def test_real_spectra_are_never_periodic():
    # Any derivation with an exactly real, not identically zero spectrum.
    rng = random.Random(41)
    for _ in range(10):
        diag = [F(rng.randint(-4, 4)) for _ in range(3)]
        if all(v == 0 for v in diag):
            diag[0] = F(1)
        mat = tuple(
            tuple(diag[i] if i == j else F(0) for j in range(3)) for i in range(3)
        )
        v = classify_linear_flow(abelian(3), mat)
        assert v.tag in ("NoPeriodicOrbits", "IdentityFlow")
        assert v.tag == "NoPeriodicOrbits" or all(d == 0 for d in diag)


def test_sl2_solvable_part_never_periodic():
    # Inner derivations of aH + cZ only (no rotation component) have real
    # spectra {0, +-2|b|}-style and never classify periodic.
    rng = random.Random(43)
    sc = get_entry("sl2").structure
    for _ in range(20):
        b, c = F(rng.randint(-5, 5)), F(rng.randint(-5, 5))
        if b == 0 and c == 0:
            b = F(1)
        v = classify_linear_flow(sc, inner_derivation(sc, (0, b, c)))
        assert v.tag != "PeriodicFlow"


# --- invariant flows ---------------------------------------------------------------


def test_invariant_flow_on_abelian_is_inconclusive():
    sc = abelian(3)
    v = classify_invariant_flow(sc, (1, 2, 3))
    assert v.tag == "SpectralPeriodicInconclusive"
    assert v.note


def test_invariant_flow_for_central_heisenberg_element():
    sc = get_entry("g31_heisenberg").structure
    v = classify_invariant_flow(sc, (1, 0, 0))
    assert v.tag == "SpectralPeriodicInconclusive"


def test_invariant_flow_sl2_y_is_periodic_with_caveat():
    sc = get_entry("sl2").structure
    v = classify_invariant_flow(sc, (1, 0, 0))
    assert v.tag == "PeriodicFlow"
    assert abs(v.period - math.pi) < 1e-15
    assert v.caveats


def test_invariant_flow_g35_inner_fields_not_periodic():
    for a in (F(1, 2), F(2), F(3)):
        sc = get_entry("g35_a", a).structure
        for x in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)):
            v = classify_invariant_flow(sc, x)
            assert v.tag in ("NoPeriodicOrbits", "SpectralPeriodicInconclusive")


# --- the JSON document ---------------------------------------------------------------


def test_verdict_document_keys_are_the_dataclass_fields_in_order():
    sc = get_entry("sl2").structure
    v = classify_linear_flow(sc, inner_derivation(sc, (1, 0, 0)))
    doc = _json_value(v)
    assert list(doc) == [f.name for f in fields(FlowVerdict)] == [
        "tag", "period", "period_over_pi", "reason", "profile", "caveats", "note"
    ]
    assert list(doc["profile"]) == [f.name for f in fields(RationalProfile)] == [
        "base_alpha", "base_alpha_exact", "ratios"
    ]
    assert doc["tag"] == "PeriodicFlow"
    assert doc["period_over_pi"] == "1"
    assert doc["profile"]["base_alpha_exact"] == "2"
    assert doc["profile"]["ratios"] == [[1, 1]]
    assert doc["caveats"] == []
    assert json.loads(json.dumps(doc, allow_nan=False)) == doc


def test_verdict_document_no_periodic():
    sc = get_entry("aff2").structure
    doc = _json_value(classify_linear_flow(sc, ((0, 0), (0, 1))))
    assert doc["tag"] == "NoPeriodicOrbits"
    assert doc["reason"] == "RealNonzeroEigenvalue"
    assert doc["period"] is None and doc["profile"] is None


def test_document_with_a_non_json_object_is_refused():
    v = classify_flow(rot_block(1))
    with pytest.raises(TypeError):
        json.dumps(_json_value({"verdict": v, "eigenvalue": 1j}), allow_nan=False)


# --- exact verdicts from the square-free core ----------------------------------


def test_repeated_off_axis_pair_is_classified_not_refused():
    c = [[0, -1], [1, -1]]
    v = classify_flow(blkdiag(c, c))
    assert v.tag == "NoPeriodicOrbits"
    assert v.reason == "NonzeroRealPart"


def test_near_commensurable_quartic_is_irrational():
    # R(1) + companion(l^4 + 25/4 l^2 + (9 - 1e-12)): the mu-quadratic is
    # irreducible over Q, so no float fit may call the ratios 3/2 and 2.
    c0, c2 = 9 - F(1, 10**12), F(25, 4)
    quartic = [[0, 0, 0, -c0], [1, 0, 0, 0], [0, 1, 0, -c2], [0, 0, 1, 0]]
    v = classify_linear_flow(abelian(6), blkdiag(rot_block(1), quartic))
    assert v.tag == "NoPeriodicOrbits"
    assert v.reason == "IrrationalRatio"


def test_tiny_rational_rotations_are_periodic():
    v = classify_flow(blkdiag(rot_block(F(1, 123457)), rot_block(F(2, 123457))))
    assert v.tag == "PeriodicFlow"
    assert v.period_over_pi == 246914


def test_float_rotations_get_exact_periods():
    v = classify_flow(blkdiag(rot_block(0.1), rot_block(0.2), rot_block(0.4)))
    assert v.tag == "PeriodicFlow"
    assert v.period_over_pi == 2 / F(0.1)
    assert v.profile.ratios == ((1, 1), (2, 1), (4, 1))


def test_float_rotations_with_huge_exact_ratio_denominator():
    # float(0.3) / float(0.1) = 3 - 1/3602879701896397 exactly, so the exact
    # period carries that denominator.
    v = classify_flow(blkdiag(rot_block(0.1), rot_block(0.3)))
    assert v.tag == "PeriodicFlow"
    assert v.profile.ratios[1][1] == 3602879701896397
    assert v.period_over_pi == 2 * 3602879701896397 / F(0.1)


def test_numeric_imaginary_class_is_irrational_ratio():
    # R(1) + companion(l^4 + 3 l^2 + 1): the mu-roots (-3 +- sqrt(5))/2 are
    # irrational, so h(mu) does not split over Q.
    quartic = [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, -3], [0, 0, 1, 0]]
    v = classify_flow(blkdiag(rot_block(1), quartic))
    assert v.reason == "IrrationalRatio"


def test_verdicts_read_no_spectrum_and_no_tolerance(monkeypatch):
    from lieflow import catalog, periodicity, spectral
    from lieflow.catalog import verdict_table

    for fn in (classify_flow, classify_linear_flow, classify_invariant_flow, verdict_table):
        assert "cfg" not in inspect.signature(fn).parameters, fn.__name__
    expected = [r.verdict for r in verdict_table()]

    def refuse(*args, **kwargs):
        raise AssertionError("spectrum() called on the verdict path")

    def refuse_square_free(*args, **kwargs):
        raise AssertionError("_square_free() called on the verdict path")

    for module in (spectral, periodicity, catalog):
        monkeypatch.setattr(module, "spectrum", refuse, raising=False)
    for module in (spectral, periodicity):
        monkeypatch.setattr(module, "_square_free", refuse_square_free, raising=False)
    rows = verdict_table()
    assert [r.verdict for r in rows] == expected
    assert len(rows) == 98
    sc = get_entry("sl2").structure
    assert classify_invariant_flow(sc, (1, 0, 0)).tag == "PeriodicFlow"


# --- the verdict from p's square map -------------------------------------------


def square_map_cases():
    """Planted and seeded matrices, n <= 9: every +-lambda pattern (real,
    imaginary and off-axis pairs, with and without their negatives), zero
    roots of multiplicity 1-3, (l^2 + l + 1)^3 both semisimple and as one
    companion, Jordan blocks and J_2(0) + R(1), all conjugated by unimodular
    matrices, then the oracle's random rational matrices."""
    from test_perfbench_oracle import random_rationals
    from test_spectral import unimodular_conjugate

    cube = companion(1, 3, 6, 7, 6, 3)  # (l^2 + l + 1)^3
    tri = [[0, -1], [1, -1]]  # l^2 + l + 1
    jordan0 = [[0, 1], [0, 0]]
    blocks = [
        rot_block(1), rot_block(2), rot_block(F(1, 2)), rot_block(3), companion(2, 0),
        [[2, 0], [0, -2]], [[1]], [[-1]], [[2]],
        [[1, -1], [1, 1]], [[-1, -1], [1, -1]], tri,
        [[0]], jordan0, [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
        [[2, 1], [0, 2]], [[0, -1, 1, 0], [1, 0, 0, 1], [0, 0, 0, -1], [0, 0, 1, 0]],
    ]
    named = [
        blkdiag(jordan0, rot_block(1)),
        blkdiag(*[[[0]]] * 3, rot_block(1)),
        blkdiag([[0]], [[0]], rot_block(2), rot_block(2)),
        blkdiag([[0]], rot_block(1), rot_block(1)),
        blkdiag(tri, tri, tri),
        cube,
        blkdiag(cube, [[0]]),
        blkdiag([[1]], [[-1]], [[1]]),
        blkdiag([[1, -1], [1, 1]], [[-1, -1], [1, -1]], [[1, -1], [1, 1]]),
        [[0] * 3] * 3,
    ]
    rng = random.Random(2727)
    cases = [(f"named {i}", m) for i, m in enumerate(named)]
    while len(cases) < 130:
        chosen = [rng.choice(blocks) for _ in range(rng.randint(1, 4))]
        if sum(len(b) for b in chosen) <= 9:
            cases.append((f"planted {len(cases)}", blkdiag(*chosen)))
    cases = [(name, unimodular_conjugate(rng, [[F(v) for v in row] for row in m]))
             for name, m in cases]
    cases += [(f"random {i}", m) for i, m in enumerate(random_rationals(random.Random(27), 60))]
    return cases


def test_square_map_of_p_keeps_every_verdict():
    """h = _squares(p without lambda^m) is +-_squares(rad(p) without its root
    0), D^eps h(D^2) = 0 exactly when rad(p)(D) = 0, and the verdict is the
    reference rule's, which reads every reason off rad(p)."""
    divisors = pytest.importorskip("sympy").divisors
    from test_perfbench_oracle import reference_verdict
    from test_spectral import fraction_horner, mat_mul

    from lieflow.dersolve import coerce_matrix
    from lieflow.spectral import _deriv, _gcd, _poly_at, _quo, _squares

    seen, zero_semisimple = set(), 0
    for name, mat in square_map_cases():
        p = list(char_poly(mat).ints)
        m = next(k for k, c in enumerate(p) if c)
        h = _squares(p[m:])[0]
        rad = _quo(p, _gcd(p, _deriv(p)))
        old = _squares(rad[1:] if rad[0] == 0 else rad)[0]
        assert h in (old, [-c for c in old]), name
        mq = coerce_matrix(mat).entries
        at_squares = fraction_horner(h, mat_mul(mq, mq))
        lhs = mat_mul(mq, at_squares) if m else at_squares
        semisimple = not any(map(any, _poly_at(rad, *coerce_matrix(mat).scaled)[0]))
        assert (not any(map(any, lhs))) == semisimple, name
        v = classify_flow(mat)
        assert (v.tag, v.reason, v.period_over_pi) == reference_verdict(mat, divisors), name
        seen.add((v.tag, v.reason))
        zero_semisimple += bool(m and semisimple and len(rad) < len(p))
    assert len(seen) == 6
    assert zero_semisimple >= 5


def test_one_classification_scales_once_and_runs_one_remainder_sequence(monkeypatch):
    # ... and checks its matrix square once, when the Leibniz gate builds it.
    from lieflow import _linalg, spectral
    from lieflow.dersolve import DerivationMatrix

    calls = []
    for module, name in ((spectral, "_gcd"), (spectral, "_sturm"), (_linalg, "scaled"),
                         (DerivationMatrix, "__post_init__")):
        def counted(*args, real=getattr(module, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    sl2 = get_entry("sl2").structure
    inner = [[F(v) for v in row] for row in inner_derivation(sl2, (1, 0, 0)).entries]
    cases = [
        (sl2, inner),
        (abelian(4), blkdiag(rot_block(1), rot_block(1))),
        (abelian(5), blkdiag(rot_block(1), [[0, 1], [0, 0]], [[0]])),
        (abelian(3), blkdiag([[1, 2], [3, 4]], [[5]])),
        (abelian(3), [[0] * 3] * 3),
        (abelian(3), blkdiag([[1, -1], [1, 1]], [[0]])),
        (abelian(4), blkdiag(rot_block(1), [[0, -2], [1, 0]])),
    ]
    tags = set()
    for sc, mat in cases:
        calls.clear()
        v = classify_linear_flow(sc, mat)
        tags.add(v.reason or v.tag)
        assert calls.count("_sturm") == 1 and "_gcd" not in calls, (v, calls)
        assert calls.count("scaled") == 1 and calls.count("__post_init__") == 1, (v, calls)
    assert tags == {"PeriodicFlow", "IdentityFlow", "NonzeroRealPart", "RealNonzeroEigenvalue",
                    "NonSemisimpleEigenvalue", "IrrationalRatio"}


def test_a_linear_square_map_is_read_without_bisection(monkeypatch):
    # At most one +-i*alpha pair fits in dimension 2 or 3, so h is linear there.
    from lieflow import spectral

    calls = []
    monkeypatch.setattr(spectral, "_sign_at",
                        lambda *args, real=spectral._sign_at: calls.append(args) or real(*args))
    b = F(1, 10**5000)
    with pytest.raises(PeriodTooLargeError):  # T = 2*pi*10^5000
        classify_flow([[0, -b], [b, 0]])
    v = classify_invariant_flow(get_entry("sl2").structure, (-10**300, b, 10**300))
    assert v.tag == "PeriodicFlow"
    assert calls == []
