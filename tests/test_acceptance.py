"""Acceptance gate: one test per criterion, one printed line each.

Criteria 3 and 9 are expected to fail as written: the exact solvers find
more printed-catalog errors than the gate's fixed lists anticipate (the
g35_a family genuinely admits periodic linear flows, and three additional
entries carry printing errors). The assertion messages spell this out; the
cross-check reports carry the full evidence.
"""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from lieflow import (
    DEFAULT_CONFIG,
    classify_flow,
    classify_invariant_flow,
    classify_linear_flow,
    derivation_space,
    expm,
    flow_period_residual,
    inner_derivation,
    invariant_orbit,
    spectrum,
    verify_verdict,
)
from lieflow._linalg import spans_equal
from lieflow.catalog import (
    CATALOG_NAMES,
    PARAMETRIC_NAMES,
    condition_side_samples,
    cross_check_all,
    get_entry,
    space_samples,
)
from lieflow.flowsim import orbit_closure_residual, rep_matrix


def report(num: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {num}] {status} - {description}"
    if detail and not passed:
        line += f" :: {detail}"
    print(line)
    assert passed, f"criterion {num}: {description}\n{detail}"


def rand_fraction(rng, lo=-5, hi=5, dens=(1, 2, 3)):
    return F(rng.randint(lo, hi), rng.choice(dens))


# --- criterion 1 -----------------------------------------------------------------


def test_criterion_1_sl2_inner_matrix_and_spectrum():
    sc = get_entry("sl2").structure
    rng = random.Random(1001)
    failures = []
    for trial in range(20):
        a, b, c = (rand_fraction(rng) for _ in range(3))
        d = inner_derivation(sc, (a, b, c))
        expected_matrix = (
            (2 * b, -2 * a, F(0)),
            (-c, F(0), a),
            (4 * b, -4 * a + 2 * c, -2 * b),
        )
        if d.entries != expected_matrix:
            failures.append(f"trial {trial}: matrix mismatch at ({a},{b},{c})")
            continue
        radicand = -a * a + a * c + b * b
        s = spectrum(d)
        values = sorted(
            (cl.value for cl in s.classes for _ in range(cl.alg_mult)),
            key=lambda z: (z.real, z.imag),
        )
        if radicand < 0:
            pair = [cl for cl in s.classes if cl.value.imag > 0]
            ok = (
                len(pair) == 1
                and pair[0].exact_re == 0
                and pair[0].exact_im_sq == -4 * radicand
                and any(cl.exact_re == 0 and cl.exact_im_sq == 0 for cl in s.classes)
            )
            if not ok:
                failures.append(f"trial {trial}: inexact imaginary pair at ({a},{b},{c})")
        else:
            root = 2 * math.sqrt(float(radicand))
            expected = sorted(
                [complex(0), complex(-root), complex(root)],
                key=lambda z: (z.real, z.imag),
            )
            num, den = radicand.numerator, radicand.denominator
            is_square = (
                math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den
            )
            if is_square:
                exact_values = sorted(
                    (cl.exact_re for cl in s.classes), key=lambda v: v
                )
                want = sorted(
                    [F(0), 2 * F(math.isqrt(num), math.isqrt(den)),
                     -2 * F(math.isqrt(num), math.isqrt(den))]
                )
                if exact_values != want:
                    failures.append(f"trial {trial}: inexact rational roots")
            elif any(abs(v - e) > 1e-10 for v, e in zip(values, expected)):
                failures.append(f"trial {trial}: numeric roots off by more than 1e-10")
    report(
        1,
        "sl(2,R) inner derivations reproduce the adjoint matrix entrywise and "
        "the spectrum {0, +-2*sqrt(-a^2+ac+b^2)}",
        not failures,
        "; ".join(failures),
    )


# --- criterion 2 -----------------------------------------------------------------


def test_criterion_2_sl2_periodicity_boundary():
    sc = get_entry("sl2").structure
    failures = []
    for a in (F(-1), F(0), F(1)):
        for b in (F(-1), F(0), F(1)):
            for c in (F(-1), F(0), F(1)):
                d = inner_derivation(sc, (a, b, c))
                verdict = classify_linear_flow(sc, d)
                strict = a * a > a * c + b * b
                boundary = a * a == a * c + b * b
                if strict and verdict.tag != "PeriodicFlow":
                    failures.append(f"({a},{b},{c}): expected periodic, got {verdict.tag}")
                if not strict and verdict.tag == "PeriodicFlow":
                    failures.append(f"({a},{b},{c}): spurious periodic verdict")
                if boundary and verdict.tag not in ("NoPeriodicOrbits", "IdentityFlow"):
                    failures.append(f"({a},{b},{c}): boundary gave {verdict.tag}")
    report(
        2,
        "periodicity iff a^2 > ac + b^2 on the 27-triple grid, degenerate "
        "boundary never periodic",
        not failures,
        "; ".join(failures),
    )


# --- criterion 3 -----------------------------------------------------------------


NEVER_PERIODIC = (
    ("aff2", (None,)),
    ("g21_plus_g1", (None,)),
    ("g32", (None,)),
    ("g34_zero", (None,)),
    ("g34_a", (F(1, 2), F(2), F(3))),
    ("g35_a", (F(1, 2), F(2), F(3))),
)

CONDITIONAL = ("abelian2", "abelian3", "g31_heisenberg", "g33")


def test_criterion_3_low_dimension_verdict_table():
    failures = []
    for name, params in NEVER_PERIODIC:
        for a in params:
            entry = get_entry(name, a)
            for label, mat in space_samples(entry):
                verdict = classify_linear_flow(entry.structure, mat)
                if verdict.tag != "NoPeriodicOrbits":
                    suffix = f" (a={a})" if a is not None else ""
                    failures.append(
                        f"{name}{suffix} sample {label}: {verdict.tag}"
                        + (f" T={verdict.period:.6g}" if verdict.period else "")
                    )
    for name in CONDITIONAL:
        entry = get_entry(name)
        for side in (True, False):
            for i, mat in enumerate(condition_side_samples(entry, side, 10)):
                verdict = classify_linear_flow(entry.structure, mat)
                got_periodic = verdict.tag == "PeriodicFlow"
                if got_periodic != side:
                    failures.append(
                        f"{name} {'periodic' if side else 'non-periodic'}-side[{i}]: "
                        f"got {verdict.tag}"
                    )
    report(
        3,
        "every low-dimension family verdict reproduced (never-periodic "
        "families all NoPeriodicOrbits; conditional families periodic exactly "
        "on the stated side, 10 points per side)",
        not failures,
        "; ".join(failures),
    )


# --- criterion 4 -----------------------------------------------------------------


def test_criterion_4_derivation_space_goldens():
    failures = []
    expected_dims = {
        "abelian2": 4,
        "aff2": 2,
        "abelian3": 9,
        "g31_heisenberg": 6,
    }
    for name, dim in expected_dims.items():
        entry = get_entry(name)
        space = derivation_space(entry.structure)
        if space.dim != dim:
            failures.append(f"{name}: dim {space.dim} != {dim}")
            continue
        pattern_vecs = [
            [m[r][c] for r in range(entry.structure.dim) for c in range(entry.structure.dim)]
            for m in entry.claimed_pattern.basis_matrices()
        ]
        space_vecs = [
            [b.entries[r][c] for r in range(entry.structure.dim)
             for c in range(entry.structure.dim)]
            for b in space.basis
        ]
        if not spans_equal(pattern_vecs, space_vecs):
            failures.append(f"{name}: sparsity pattern mismatch")
    s1 = derivation_space(get_entry("g21_plus_g1").structure)
    s2 = derivation_space(get_entry("g34_zero").structure)
    f1 = [[b.entries[r][c] for r in range(3) for c in range(3)] for b in s1.basis]
    f2 = [[b.entries[r][c] for r in range(3) for c in range(3)] for b in s2.basis]
    if not (s1.dim == s2.dim == 4 and spans_equal(f1, f2)):
        failures.append("g21_plus_g1 and g34_zero patterns do not coincide")
    report(
        4,
        "derivation-space dimensions {abelian2:4, aff2:2, abelian3:9, "
        "heisenberg:6} with matching patterns; g21+g1 and g34_zero coincide",
        not failures,
        "; ".join(failures),
    )


# --- criterion 5 -----------------------------------------------------------------


def test_criterion_5_matrix_level_equivalence():
    rng = random.Random(5005)
    cfg = DEFAULT_CONFIG
    entry_pool = []
    for name in CATALOG_NAMES:
        entry_pool.append(get_entry(name, 2 if name in PARAMETRIC_NAMES else None))
    spaces = {e.name: derivation_space(e.structure) for e in entry_pool}
    failures = []
    checked = 0
    attempts = 0
    while checked < 50 and attempts < 500:
        attempts += 1
        entry = entry_pool[attempts % len(entry_pool)]
        basis = spaces[entry.name].basis
        coeffs = [F(rng.randint(-2, 2), rng.choice((1, 2))) for _ in basis]
        n = entry.structure.dim
        mat = tuple(
            tuple(
                sum((c * b.entries[r][col] for c, b in zip(coeffs, basis)), F(0))
                for col in range(n)
            )
            for r in range(n)
        )
        if all(v == 0 for row in mat for v in row):
            continue
        verdict = classify_linear_flow(entry.structure, mat)
        if verdict.tag == "PeriodicFlow":
            closure = flow_period_residual(mat, verdict.period, cfg=cfg)
            half = flow_period_residual(mat, verdict.period / 2, cfg=cfg)
            if closure.max_residual > 1e-8:
                failures.append(
                    f"{entry.name}: closure residual {closure.max_residual:.2e}"
                )
            if half.max_residual < 1e-3:
                failures.append(
                    f"{entry.name}: half-period residual {half.max_residual:.2e}"
                )
            checked += 1
        elif verdict.tag == "NoPeriodicOrbits":
            evidence = verify_verdict(entry.structure, mat, verdict, cfg)
            if evidence.details["horizon"] < 50.0:
                failures.append(f"{entry.name}: evidence horizon was capped")
            if evidence.details["min_residual"] < 1e-3:
                failures.append(
                    f"{entry.name} ({verdict.reason}): grid minimum "
                    f"{evidence.details['min_residual']:.2e}"
                )
            checked += 1
    if checked < 50:
        failures.append(f"only {checked} informative samples drawn")
    report(
        5,
        "50 random catalog derivations: periodic verdicts close at T and "
        "separate at T/2; non-periodic verdicts stay open on the grid",
        not failures,
        "; ".join(failures),
    )


# --- criterion 6 -----------------------------------------------------------------


def _exact_plant(rng):
    from test_spectral import real_jordan_matrix, unimodular_conjugate

    pool = [F(-2), F(-1), F(0), F(1, 2), F(1), F(3)]
    sizes = []
    total = 0
    while total < 6:
        s = rng.randint(1, min(3, 6 - total))
        sizes.append(s)
        total += s
    values = rng.sample(pool, len(sizes))
    blocks = list(zip(values, sizes))
    mat = unimodular_conjugate(rng, real_jordan_matrix(blocks))
    return blocks, mat


def _numeric_plant(rng):
    # 6x6 from complex-pair cells with chain sizes <= 2, separation >= 0.1.
    layouts = [((1, 1, 1)), ((2, 1))]
    layout = layouts[rng.randrange(2)]
    pairs = []
    while len(pairs) < len(layout):
        alpha = rng.uniform(-2, 2)
        beta = rng.uniform(0.5, 3.0)
        if all(
            abs(complex(alpha, beta) - complex(a0, b0)) >= 0.1
            and abs(complex(alpha, beta) - complex(a0, -b0)) >= 0.1
            for a0, b0 in pairs
        ):
            pairs.append((alpha, beta))
    cells = []
    for (alpha, beta), size in zip(pairs, layout):
        r = np.array([[alpha, -beta], [beta, alpha]])
        if size == 1:
            cells.append(r)
        else:
            top = np.hstack([r, np.eye(2)])
            bottom = np.hstack([np.zeros((2, 2)), r])
            cells.append(np.vstack([top, bottom]))
    n = sum(c.shape[0] for c in cells)
    mat = np.zeros((n, n))
    pos = 0
    for cell in cells:
        k = cell.shape[0]
        mat[pos : pos + k, pos : pos + k] = cell
        pos += k
    gauss = np.array([[rng.gauss(0, 1) for _ in range(6)] for _ in range(6)])
    q, _ = np.linalg.qr(gauss)
    return list(zip(pairs, layout)), q @ mat @ q.T


def test_criterion_6_semisimplicity_oracle():
    rng = random.Random(6006)
    errors = []
    for trial in range(50):
        blocks, mat = _exact_plant(rng)
        s = spectrum(mat)
        expected = {}
        for value, size in blocks:
            alg, geom = expected.get(value, (0, 0))
            expected[value] = (alg + size, geom + 1)
        for cl in s.classes:
            alg, geom = expected[cl.exact_re]
            if cl.semisimple != (alg == geom) or cl.alg_mult != alg:
                errors.append(f"exact trial {trial}")
                break
    for trial in range(50):
        plants, mat = _numeric_plant(rng)
        s = spectrum(mat)
        for (alpha, beta), size in plants:
            match = min(
                (cl for cl in s.classes if cl.value.imag > 0),
                key=lambda cl: abs(cl.value - complex(alpha, beta)),
            )
            if abs(match.value - complex(alpha, beta)) > 1e-6:
                errors.append(f"numeric trial {trial}: eigenvalue missed")
                break
            if match.alg_mult != size or match.semisimple != (size == 1):
                errors.append(f"numeric trial {trial}: wrong flags")
                break
    report(
        6,
        "semisimplicity flags match 100 planted Jordan structures "
        "(50 exact, 50 numeric at tol 1e-9, separation >= 0.1): zero errors",
        not errors,
        "; ".join(errors),
    )


# --- criterion 7 -----------------------------------------------------------------


def _rotation_sum(betas):
    n = 2 * len(betas)
    mat = np.zeros((n, n))
    for i, beta in enumerate(betas):
        mat[2 * i][2 * i + 1] = -beta
        mat[2 * i + 1][2 * i] = beta
    return mat


def test_criterion_7_minimal_periods():
    cases = [
        ((2,), math.pi),
        ((1, 3), 2 * math.pi),
        ((2, 3), 2 * math.pi),
    ]
    failures = []
    for betas, expected in cases:
        mat = _rotation_sum(betas)
        verdict = classify_flow(mat)
        if verdict.tag != "PeriodicFlow":
            failures.append(f"{betas}: verdict {verdict.tag}")
            continue
        if abs(verdict.period - expected) > 1e-12:
            failures.append(f"{betas}: period {verdict.period} != {expected}")
            continue
        closure = np.linalg.norm(expm(mat, verdict.period) - np.eye(len(mat)), "fro")
        if closure > 1e-10:
            failures.append(f"{betas}: ||e^(TD) - I|| = {closure:.2e}")
        for k in (2, 3):
            sub = np.linalg.norm(
                expm(mat, verdict.period / k) - np.eye(len(mat)), "fro"
            )
            if sub < 1e-3:
                failures.append(f"{betas}: T/{k} also closes ({sub:.2e})")
    report(
        7,
        "minimal periods pi, 2pi, 2pi for spectra {+-2i}, {+-i,+-3i}, "
        "{+-2i,+-3i}, confirmed and minimal by the exponential oracle",
        not failures,
        "; ".join(failures),
    )


# --- criterion 8 -----------------------------------------------------------------


def test_criterion_8_invariant_flow_gap():
    failures = []
    abelian3 = get_entry("abelian3")
    for x in ((1, 0, 0), (0, 2, 0), (1, 1, 1), (F(1, 2), F(-3), F(5))):
        verdict = classify_invariant_flow(abelian3.structure, x)
        if verdict.tag != "SpectralPeriodicInconclusive":
            failures.append(f"abelian3 x={x}: {verdict.tag}")
    heis = get_entry("g31_heisenberg")
    for x in ((1, 0, 0), (F(-7, 2), 0, 0)):
        verdict = classify_invariant_flow(heis.structure, x)
        if verdict.tag != "SpectralPeriodicInconclusive":
            failures.append(f"heisenberg central x={x}: {verdict.tag}")
    sl2 = get_entry("sl2")
    verdict = classify_invariant_flow(sl2.structure, (1, 0, 0))
    if verdict.tag != "PeriodicFlow":
        failures.append(f"sl2 Y: {verdict.tag}")
    else:
        rep = [np.array([[float(v) for v in row] for row in m])
               for m in sl2.representation]
        ts = np.linspace(0.0, 4 * math.pi, 257)
        orbit = invariant_orbit(rep, [1.0, 0.0, 0.0], np.eye(2), ts)
        closure = orbit_closure_residual(orbit, 2 * math.pi)
        if closure > 1e-8:
            failures.append(f"sl2 exp(tY) closure at 2pi: {closure:.2e}")
    report(
        8,
        "invariant flows: inconclusive for abelian/central fields, periodic "
        "for sl2 Y with group-level closure at 2pi",
        not failures,
        "; ".join(failures),
    )


# --- criterion 9 -----------------------------------------------------------------


def test_criterion_9_cross_check_discrepancy_ledger():
    documented = {"sl2", "g33", "g35_a", "abelian3"}
    flagged = {r.name for r in cross_check_all() if r.flagged_locations()}
    extras = sorted(flagged - documented)
    missing = sorted(documented - flagged)
    passed = not extras and not missing
    report(
        9,
        "cross-check flags exactly the four documented entries (sl2 bracket "
        "print, g33 discriminant, g35_a eigenvalue expression, abelian3 "
        "label) and nothing else",
        passed,
        f"additionally flagged by exact recomputation: {extras} "
        f"(g31_heisenberg: block discriminant prints x3*z2 for y3*z2; g32: "
        f"printed derivation family omits the diagonal direction; g34_a: "
        f"printed family members are not derivations and the printed "
        f"eigenvalues disagree with the printed matrix). missing: {missing}. "
        f"The extra flags are genuine printing errors verified by the exact "
        f"Leibniz nullspace and characteristic polynomials; suppressing them "
        f"would require storing falsified catalog data.",
    )
