"""Matrix exponentials and orbit machinery against series and closed forms."""

import json
import math
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
import scipy.linalg

from lieflow import (
    DEFAULT_CONFIG,
    ExpmOverflowError,
    classify_linear_flow,
    expm,
    flow_period_residual,
    inner_derivation,
    invariant_orbit,
    verify_verdict,
    write_orbit_csv,
)
from lieflow import flowsim
from lieflow.catalog import get_entry, verdict_table
from lieflow.flowsim import FlowSample, orbit_closure_residual, rep_matrix
from lieflow.periodicity import FlowVerdict

from test_cli import checkout_env


def series_expm(m, t, terms=40):
    """Truncated Taylor oracle; accurate for moderate ||tM||."""
    a = np.asarray(m, dtype=float) * t
    acc = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms):
        term = term @ a / k
        acc = acc + term
    return acc


def rep_float(entry):
    return [np.array([[float(v) for v in row] for row in m])
            for m in entry.representation]


def test_expm_matches_series_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = rng.uniform(-1, 1, size=(4, 4))
        t = rng.uniform(0.1, 2.0)
        ours = expm(m, t)
        oracle = series_expm(m, t)
        rel = np.linalg.norm(ours - oracle) / max(1.0, np.linalg.norm(oracle))
        assert rel < 1e-12


def test_expm_contract_holds_at_norm_100():
    # Closed-form oracles at the edge of the documented contract range.
    t = 50.0  # ||tM||_1 = 100 for the rotation below
    rot = [[0, -2], [2, 0]]
    expected = np.array(
        [
            [math.cos(2 * t), -math.sin(2 * t)],
            [math.sin(2 * t), math.cos(2 * t)],
        ]
    )
    rel = np.linalg.norm(expm(rot, t) - expected) / np.linalg.norm(expected)
    assert rel < 1e-12
    diag = np.diag([2.0, -2.0])
    got = np.diag(expm(diag, t))
    expected = np.array([math.exp(100.0), math.exp(-100.0)])
    assert np.max(np.abs(got - expected) / expected) < 1e-12


LAZY_IMPORT_SCRIPT = """
import contextlib, io, json, sys
import lieflow, lieflow.cli
loaded = lambda: [m for m in ("numpy", "scipy") if m in sys.modules]
seen = {"import": [0, loaded()]}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen[" ".join(argv[:2])] = [lieflow.cli.main(argv), loaded()]
print(json.dumps(seen))
"""


def test_import_lieflow_does_not_load_scipy(tmp_path):
    # One interpreter runs the exact commands, then simulate: NumPy loads
    # only for simulate's floating-point evidence, and SciPy never. The
    # catalog cross-check compares exact polynomials and loads neither.
    path = tmp_path / "aff2.json"
    path.write_text(json.dumps({"dim": 2, "brackets": [{"i": 1, "j": 2, "k": 2, "c": "1"}]}))
    argvs = [
        ["classify", "--catalog", "sl2", "--inner=1,0,0"],
        ["classify", "--file", str(path), "--matrix=0,0,1,1"],
        ["derivations", "--file", str(path)],
        ["catalog", "verdict-table"],
        ["catalog", "cross-check", "all"],
        ["simulate", "--catalog", "sl2", "--inner=1,0,0"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORT_SCRIPT, json.dumps(argvs)],
        capture_output=True, text=True, env=checkout_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import": [0, []],
        "classify --catalog": [0, []],
        "classify --file": [0, []],
        "derivations --file": [0, []],
        "catalog verdict-table": [0, []],
        "catalog cross-check": [0, []],
        "simulate --catalog": [0, ["numpy"]],
    }


def test_expm_rotation_closed_form():
    beta = 1.7
    m = [[0, -beta], [beta, 0]]
    for t in (0.0, 0.3, 2.5, -1.2):
        expected = np.array(
            [
                [math.cos(t * beta), -math.sin(t * beta)],
                [math.sin(t * beta), math.cos(t * beta)],
            ]
        )
        assert np.max(np.abs(expm(m, t) - expected)) < 1e-12


def test_expm_at_zero_is_identity():
    m = [[3, 1], [2, -1]]
    assert np.array_equal(expm(m, 0.0), np.eye(2))


def test_expm_nilpotent_truncates_exactly():
    n = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=float)
    for t in (0.5, 2.0, -3.0):
        expected = np.eye(3) + t * n + t * t * (n @ n) / 2
        assert np.max(np.abs(expm(n, t) - expected)) < 1e-13


def test_expm_norm_guard():
    m = np.eye(3) * 100.0
    with pytest.raises(ExpmOverflowError):
        expm(m, 10.0)


def test_expm_rejects_nonfinite():
    with pytest.raises(ValueError):
        expm([[float("nan"), 0], [0, 1]], 1.0)
    # e^{tM} at t = inf was a silent matrix of NaNs, whatever M.
    for t in (math.inf, -math.inf, math.nan, [0.0, 1.0, math.nan]):
        for m in (((0, -1), (1, 0)), ((0, 0), (0, 0))):
            with pytest.raises(ValueError, match="times must be finite"):
                expm(m, t)


def catalog_derivation_samples():
    out = []
    sl2 = get_entry("sl2").structure
    out.append(inner_derivation(sl2, (1, 0, 0)).entries)
    out.append(inner_derivation(sl2, (1, F(1, 2), -1)).entries)
    heis = get_entry("g31_heisenberg").structure
    out.append(inner_derivation(heis, (0, 1, 1)).entries)
    return [np.asarray(m, dtype=float) for m in out]


def test_group_law_on_catalog_derivations():
    for m in catalog_derivation_samples():
        norm = np.linalg.norm(m, 1)
        bound = 10.0 / max(norm, 1e-9)
        for s, t in ((0.3, 0.4), (bound / 3, bound / 4), (1.0, -0.5)):
            lhs = expm(m, s + t)
            rhs = expm(m, s) @ expm(m, t)
            assert np.linalg.norm(lhs - rhs) < 1e-10


def test_det_of_exponential_is_exp_trace():
    for m in catalog_derivation_samples():
        for t in (0.5, 1.5):
            det = np.linalg.det(expm(m, t))
            assert abs(det - math.exp(t * np.trace(m))) < 1e-10


# --- period residuals -----------------------------------------------------------


def test_flow_period_residual_sl2():
    sl2 = get_entry("sl2").structure
    d = inner_derivation(sl2, (1, 0, 0))
    assert flow_period_residual(d, math.pi).max_residual <= 1e-8
    assert flow_period_residual(d, math.pi / 2).max_residual >= 1.0


def test_flow_period_residual_zero_matrix():
    report = flow_period_residual(((0, 0), (0, 0)), 3.0)
    assert report.max_residual == 0.0


def test_flow_period_residual_validates_input():
    with pytest.raises(ValueError):
        flow_period_residual(((0, 0), (0, 0)), -1.0)
    with pytest.raises(ValueError):
        flow_period_residual(((0, 0), (0, 0)), 1.0, cfg=replace(DEFAULT_CONFIG, samples=1))
    for period in (math.inf, math.nan):
        with pytest.raises(ValueError, match="period must be positive and finite"):
            flow_period_residual(((0, 0), (0, 0)), period)

# --- orbits ----------------------------------------------------------------------


# The conjugation orbit g(t) = exp(-tX) g0 exp(tX) is the automorphism flow of
# the inner field: its differential at the identity is Ad(exp(-tX)) = e^{tD}
# for D = -ad(X), the algebra-level flow that the verdicts are about.


def test_conjugation_orbit_sl2_closes_at_pi():
    entry = get_entry("sl2")
    xh = rep_matrix(rep_float(entry), [1.0, 0.0, 0.0])
    ts = np.linspace(0.0, 2 * math.pi, 129)
    g0 = np.diag([2.0, 0.5])
    orbit = [FlowSample(t, m) for t, m in zip(ts, expm(xh, -ts) @ g0 @ expm(xh, ts))]
    assert orbit_closure_residual(orbit, math.pi) <= 1e-8
    # And it genuinely moves: half period differs.
    mid = min(orbit, key=lambda s: abs(s.t - math.pi / 2))
    assert np.linalg.norm(mid.matrix - g0) > 0.5


def test_conjugation_orbit_fixes_identity():
    entry = get_entry("sl2")
    xh = rep_matrix(rep_float(entry), [1.0, 0.0, 0.0])
    ts = np.linspace(0, 5, 11)
    for g in expm(xh, -ts) @ np.eye(2) @ expm(xh, ts):
        assert np.linalg.norm(g - np.eye(2)) < 1e-12


def test_conjugation_orbit_heisenberg_never_closes():
    entry = get_entry("g31_heisenberg")
    rep = rep_float(entry)
    g0 = scipy.linalg.expm(rep[1])  # exp of the E2 generator
    xh = rep_matrix(rep, [0.0, 0.0, 1.0])
    ts = np.linspace(0.0, 100.0, 201)
    orbit = [FlowSample(t, m) for t, m in zip(ts, expm(xh, -ts) @ g0 @ expm(xh, ts))]
    for period in (0.5, 5.0, 50.0):
        assert orbit_closure_residual(orbit, period) >= 0.4 * period


def test_invariant_orbit_rejects_singular_start():
    entry = get_entry("sl2")
    with pytest.raises(ValueError, match="g0 must be invertible"):
        invariant_orbit(rep_float(entry), [1, 0, 0], np.zeros((2, 2)), [0.0, 1.0])


def test_invariant_orbit_sl2_y_closes_at_2pi():
    entry = get_entry("sl2")
    ts = np.linspace(0.0, 4 * math.pi, 257)
    orbit = invariant_orbit(rep_float(entry), [1.0, 0.0, 0.0], np.eye(2), ts)
    assert orbit_closure_residual(orbit, 2 * math.pi) <= 1e-8
    assert orbit_closure_residual(orbit, math.pi) >= 1.0


def test_invariant_orbit_translation_line_never_closes():
    entry = get_entry("abelian3")
    rep = rep_float(entry)
    ts = np.linspace(0.0, 50.0, 101)
    orbit = invariant_orbit(rep, [1.0, 2.0, 0.0], np.eye(4), ts)
    for period in (1.0, 10.0):
        assert orbit_closure_residual(orbit, period) >= period


def test_invariant_orbit_zero_field_is_constant():
    entry = get_entry("abelian3")
    orbit = invariant_orbit(rep_float(entry), [0.0, 0.0, 0.0], np.eye(4),
                            np.linspace(0, 10, 11))
    for s in orbit:
        assert np.array_equal(s.matrix, np.eye(4))


def test_rep_matrix_size_mismatch():
    entry = get_entry("sl2")
    with pytest.raises(ValueError):
        rep_matrix(rep_float(entry), [1.0, 2.0])


# --- conjugation/log consistency ---------------------------------------------------


def test_conjugation_orbit_log_matches_linear_flow():
    # For inner fields the group-level conjugation orbit of exp(v) must track
    # e^{tD} v in log coordinates while v stays in the log-safe ball.
    entry = get_entry("sl2")
    rep = rep_float(entry)
    basis_flat = np.stack([m.flatten() for m in rep], axis=1)
    v = np.array([0.05, 0.03, -0.04])
    d = np.asarray(inner_derivation(entry.structure, (1, 0, 0)).entries, dtype=float)
    g0 = scipy.linalg.expm(rep_matrix(rep, v))
    xh = rep_matrix(rep, [1.0, 0.0, 0.0])
    for t in (0.0, 0.4, 1.1, 2.0):
        logm = scipy.linalg.logm(expm(xh, -t) @ g0 @ expm(xh, t))
        coords, *_ = np.linalg.lstsq(basis_flat, logm.real.flatten(), rcond=None)
        expected = scipy.linalg.expm(t * d) @ v
        assert np.linalg.norm(coords - expected) < 1e-8


# --- verdict evidence ----------------------------------------------------------------


def test_verify_periodic_verdict_sl2():
    sc = get_entry("sl2").structure
    d = inner_derivation(sc, (1, 0, 0))
    verdict = classify_linear_flow(sc, d)
    evidence = verify_verdict(sc, d, verdict)
    assert evidence.passed and not evidence.inconclusive
    assert evidence.details["closure_residual"] <= 1e-8
    assert all(r >= 1e-3 for r in evidence.details["subperiod_residuals"].values())


def test_verify_nilpotent_evidence():
    sc = get_entry("aff2").structure
    mat = ((0, 0), (1, 0))
    verdict = classify_linear_flow(sc, mat)
    assert verdict.reason == "NonSemisimpleEigenvalue"
    evidence = verify_verdict(sc, mat, verdict)
    assert evidence.passed
    assert evidence.details["min_residual"] >= 1e-3


def test_verify_identity_verdict():
    sc = get_entry("aff2").structure
    mat = ((0, 0), (0, 0))
    verdict = classify_linear_flow(sc, mat)
    evidence = verify_verdict(sc, mat, verdict)
    assert evidence.passed
    assert evidence.details["identity_residual"] == 0.0


def test_verify_rejects_inconclusive_tag():
    sc = get_entry("abelian3").structure
    verdict = FlowVerdict("SpectralPeriodicInconclusive", note="n/a")
    with pytest.raises(ValueError):
        verify_verdict(sc, ((0,) * 3,) * 3, verdict)


# --- CSV export ------------------------------------------------------------------------


def test_orbit_csv_roundtrip(tmp_path):
    samples = [
        FlowSample(t=0.0, matrix=np.eye(2)),
        FlowSample(t=0.5, matrix=np.array([[1.0, 0.25], [0.0, 1.0]])),
    ]
    path = tmp_path / "orbit.csv"
    write_orbit_csv(samples, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,m11,m12,m21,m22"
    assert len(lines) == 3
    cells = lines[2].split(",")
    assert float(cells[0]) == 0.5
    assert float(cells[2]) == 0.25


# --- batched exponential grid --------------------------------------------------------


def seeded_matrices(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        yield rng.normal(size=(n, n)) / np.sqrt(n)


def literal_residual(m, period, horizon, samples):
    """max_t ||expm(t + T) - expm(t)||_F with one scalar call per exponential,
    and the size of the largest exponential involved."""
    worst, scale = 0.0, 1.0
    for t in np.linspace(0.0, horizon, samples):
        later, now = expm(m, t + period), expm(m, t)
        worst = max(worst, float(np.linalg.norm(later - now)))
        scale = max(scale, float(np.linalg.norm(later)), float(np.linalg.norm(now)))
    return worst, scale


def test_blocked_closure_residuals_match_a_per_period_loop():
    # One broadcast product per block of trial periods gives the same bits as
    # one product and one einsum per period. At 1000 samples the 64 periods
    # make 4 blocks at n = 2 and 64 at n = 8; at 64 samples, 4 at n = 8.
    rng = np.random.default_rng(43)
    horizon = 3.0
    for n in range(2, 9):
        m = rng.normal(size=(n, n)) / np.sqrt(n)
        for count in (1, 4, 64):
            periods = rng.uniform(flowsim.EVIDENCE_MIN_PERIOD, 5.0, count)
            for samples in (2, 64, 1000):
                peaks = flowsim._closure_residuals(m, periods, horizon, samples)
                flows = flowsim._grid_expm(m, 0.0, horizon, samples)
                gaps = expm(m, periods) - np.eye(n)
                scale = np.exp2(np.frexp(np.abs(flows).max(axis=(1, 2)))[1])
                flows /= scale[:, None, None]
                res = np.empty((count, samples))
                for j, gap in enumerate(gaps):
                    prod = gap @ flows
                    res[j] = np.sqrt(np.einsum("tab,tab->t", prod, prod)) * scale
                assert np.array_equal(peaks, res.max(axis=1)), (n, count, samples)


def test_batched_expm_matches_scalar_calls():
    # ||tM||_1 runs from 0 to just under the guard, so the matrices of one
    # batch take from 0 to 8 squarings. Each is scaled and squared on its
    # own, as a scalar call would, so the batch equals the scalar calls.
    for m in seeded_matrices(41, 12):
        norm = np.linalg.norm(m, 1)
        ts = np.concatenate([np.linspace(0.0, 3.0, 9), [-1.5, 0.25],
                             np.array([0.01, -5.0, 40.0, 150.0, -600.0, 699.0]) / norm])
        batch = expm(m, ts)
        assert batch.shape == (len(ts),) + m.shape
        for t, got in zip(ts, batch):
            assert np.array_equal(got, expm(m, float(t)))


def oracle_blocks(rng, kind, n):
    if kind == "rotation":  # n // 2 rotation generators, and a zero for odd n
        m = np.zeros((n, n))
        for i in range(0, n - 1, 2):
            w = rng.uniform(0.2, 3.0)
            m[i, i + 1], m[i + 1, i] = -w, w
        return m
    if kind == "jordan":
        return rng.uniform(-1.0, 1.0) * np.eye(n) + np.eye(n, k=1)
    if kind == "nilpotent":
        return np.triu(rng.standard_normal((n, n)), 1)
    return rng.standard_normal((n, n))


def test_expm_matches_mpmath_up_to_the_norm_guard():
    # 50-digit oracle. Measured worst relative error: 7.8e-14 (6x6 rotations
    # at ||tM||_1 = 699); scipy.linalg.expm reached 5.5e-12 on these inputs.
    rng = np.random.default_rng(47)
    with mpmath.workdps(50):
        for kind in ("rotation", "jordan", "nilpotent", "random"):
            for n in range(2, 9):
                m = oracle_blocks(rng, kind, n)
                for target in (0.5, 5.0, 50.0, 300.0, 699.0):
                    t = target / np.linalg.norm(m, 1)
                    got = expm(m, t)
                    want = mpmath.expm(mpmath.matrix((t * m).tolist()))
                    err = mpmath.matrix(got.tolist()) - want
                    rel = mpmath.mnorm(err, 1) / mpmath.mnorm(want, 1)
                    assert rel < 1e-12, (kind, n, target, float(rel))


def test_grid_expm_matches_mpmath_up_to_the_safe_horizon():
    # 50-digit oracle at grid points 1, 31 and 63 of a 64-point grid that
    # starts at ||t D||_1 = 0.5 and ends at 5, 50 or 350 (the safe-horizon
    # cap). Measured worst relative error: 4.5e-14 (8x8 rotations at point
    # 63 of the 350 grid), against 2.4e-14 for expm at that time.
    rng = np.random.default_rng(53)
    with mpmath.workdps(50):
        for kind in ("rotation", "jordan", "nilpotent", "random"):
            for n in (2, 5, 8):
                m = oracle_blocks(rng, kind, n)
                norm = np.linalg.norm(m, 1)
                for target in (5.0, 50.0, 350.0):
                    ts = np.linspace(0.5 / norm, target / norm, 64)
                    grid = flowsim._grid_expm(m, ts[0], ts[-1], 64)
                    for k in (1, 31, 63):
                        want = mpmath.expm(mpmath.matrix((ts[k] * m).tolist()))
                        err = mpmath.matrix(grid[k].tolist()) - want
                        rel = mpmath.mnorm(err, 1) / mpmath.mnorm(want, 1)
                        assert rel < 1e-12, (kind, n, target, k, float(rel))


def test_grid_expm_guards_the_end_of_the_grid():
    # The ladder's own expm call sees only start and h = 700.5 / 63.
    m = np.eye(2)
    flowsim._grid_expm(m, 0.0, 700.0, 64)
    with pytest.raises(ExpmOverflowError):
        flowsim._grid_expm(m, 0.0, 700.5, 64)
    with pytest.raises(ExpmOverflowError):
        flowsim._grid_expm(m, -700.5, 0.0, 64)


@pytest.mark.parametrize("start, stop, count", [
    (0.0, 2.0, 1), (0.5, 2.0, 1), (0.0, 2.0, 2), (-1.0, 2.0, 2),
    (1.5, 1.5, 1), (1.5, 1.5, 5), (0.0, 3.0, 7), (2.0, -1.0, 9),
])
def test_grid_expm_edges(start, stop, count):
    m = np.array([[0.1, -1.0, 0.0], [1.0, 0.1, 0.0], [0.3, 0.0, -0.2]])
    grid = flowsim._grid_expm(m, start, stop, count)
    want = expm(m, np.linspace(start, stop, count))
    assert grid.shape == want.shape
    assert np.abs(grid - want).max() <= 1e-14 * np.abs(want).max()
    if start == 0.0:
        assert np.array_equal(grid[0], np.eye(3))


def test_grid_expm_matches_per_time_expm_on_the_evidence_windows(monkeypatch):
    windows = []
    inner = flowsim._grid_expm

    def spying(arr, start, stop, count):
        windows.append((arr, start, stop, count))
        return inner(arr, start, stop, count)

    monkeypatch.setattr(flowsim, "_grid_expm", spying)
    for row in verdict_table():
        entry = get_entry(row.entry, row.param)
        windows.clear()
        verify_verdict(entry.structure, row.matrix, row.verdict)
        assert windows, (row.entry, row.label)
        for arr, start, stop, count in windows:
            want = expm(arr, np.linspace(start, stop, count))
            err = np.linalg.norm(inner(arr, start, stop, count) - want, axis=(1, 2))
            biggest = np.linalg.norm(want, axis=(1, 2)).max()
            assert err.max() <= 1e-12 * biggest, (row.entry, row.label, start, stop)


def test_batched_expm_guards_the_largest_time():
    m = np.eye(2)
    expm(m, np.array([-700.0, 3.0]))
    with pytest.raises(ExpmOverflowError):
        expm(m, np.array([0.0, -700.5, 3.0]))
    with pytest.raises(ValueError):
        expm([[float("inf"), 0], [0, 1]], np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        expm(m, np.zeros((2, 2)))


def test_kernel_matches_literal_residual_on_seeded_matrices():
    rng = np.random.default_rng(43)
    for m in seeded_matrices(42, 10):
        periods = rng.uniform(0.1, 2.0, size=3)
        horizon, samples = float(rng.uniform(0.5, 3.0)), 9
        got = flowsim._closure_residuals(m, periods, horizon, samples)
        for period, residual in zip(periods, got):
            want, scale = literal_residual(m, period, horizon, samples)
            assert abs(residual - want) <= 1e-10 * max(want, scale)


def test_kernel_matches_literal_residual_on_verdict_table():
    # The evidence grid of each row, thinned to keep the literal form cheap.
    cfg = DEFAULT_CONFIG
    for row in verdict_table():
        m = np.array([[float(v) for v in r] for r in row.matrix])
        if row.verdict.tag == "PeriodicFlow":
            period = row.verdict.period
            horizon = flowsim._safe_horizon(m, 4 * period)
            periods = [period, period / 2, period / 3, period * 2 / 3]
        else:
            horizon = flowsim._safe_horizon(m, cfg.horizon)
            periods = np.linspace(flowsim.EVIDENCE_MIN_PERIOD, horizon, cfg.samples)[::21]
        got = flowsim._closure_residuals(m, periods, horizon, 9)
        for period, residual in zip(periods, got):
            want, scale = literal_residual(m, period, horizon, 9)
            assert abs(residual - want) <= 1e-10 * max(want, scale), (
                row.entry, row.label, period)


def evidence_peak(samples):
    """Peak traced allocation of the NoPeriodicOrbits evidence on a grid of
    `samples` times and as many trial periods."""
    import tracemalloc

    sc = get_entry("aff2").structure
    mat = ((0, 0), (0, 1))
    cfg = replace(DEFAULT_CONFIG, samples=samples)
    verdict = classify_linear_flow(sc, mat)
    tracemalloc.start()
    try:
        evidence = verify_verdict(sc, mat, verdict, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.tag == "NoPeriodicOrbits" and evidence.passed
    return peak


def test_evidence_grid_holds_one_periods_by_samples_array():
    # The residual kernel holds one block of products, at most 512 KiB, not
    # the 8 MB periods x samples array of residuals (~0.8 MiB traced in all).
    peak = evidence_peak(1000)
    assert peak < 2 * 2**20, peak


def test_evidence_grid_fills_residuals_in_blocks():
    # At 3000 samples all products would take 288 MB and all residuals 72 MB;
    # a block of products takes at most 512 KiB (~1 MiB traced in all; the
    # two doubling-ladder stacks of 3000 exponentials take 94 KiB each).
    peak = evidence_peak(3000)
    assert peak < 4 * 2**20, peak


@pytest.fixture
def closure_windows(monkeypatch):
    """(periods, horizon, samples) of each call to flowsim._closure_residuals."""
    calls = []
    inner = flowsim._closure_residuals

    def spying(arr, periods, horizon, samples):
        calls.append((list(periods), horizon, samples))
        return inner(arr, periods, horizon, samples)

    monkeypatch.setattr(flowsim, "_closure_residuals", spying)
    return calls


def test_flow_period_residual_reports_the_worst_grid_residual(closure_windows):
    m = np.array([[0.0, 0.0], [0.0, 0.3]])  # residual grows with t
    report = flow_period_residual(m, 1.0, cfg=replace(DEFAULT_CONFIG, samples=5))
    assert closure_windows == [([1.0], 4.0, 5)]
    want, _ = literal_residual(m, 1.0, 4.0, 5)
    assert abs(report.max_residual - want) <= 1e-12 * want


def test_period_checks_share_one_window(closure_windows):
    # The window is 4T, capped by the safe horizon 350/||D||_1 and by
    # (float max - T) / 2; the evidence for a PeriodicFlow verdict and the
    # period check at its T read the same one.
    sc = get_entry("abelian2").structure
    for mat, horizon in [
        (((0, -1), (1, 0)), 8 * math.pi),
        (((0, -50), (F(1, 50), 0)), 7.0),
        (((0, -F(1, 10**307)), (F(1, 10**307), 0)), None),
    ]:
        verdict = classify_linear_flow(sc, mat)
        period = verdict.period
        horizon = horizon or (sys.float_info.max - period) / 2
        closure_windows.clear()
        verify_verdict(sc, mat, verdict)
        flow_period_residual(mat, period)
        assert [(p[0], h) for p, h, _ in closure_windows] == [(period, horizon)] * 2
        assert all(type(h) is float for _, h, _ in closure_windows)


def test_period_guard_trips_on_horizon_plus_period():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # ||D||_1 = 1, bounded flow
    two = replace(DEFAULT_CONFIG, samples=2)
    flow_period_residual(rot, 350.0 - 1e-9, cfg=two)
    with pytest.raises(ExpmOverflowError):
        flow_period_residual(rot, 350.0 + 1e-9, cfg=two)


def test_periodic_evidence_guard_trips_above_t_norm_350():
    # D = [[0, -a], [1/a, 0]] has period 2 pi and ||D||_1 = a, so the
    # evidence grid ends at 350/a and the guard reads (350/a + 2 pi) a.
    sc = get_entry("abelian2").structure
    below, above = ((0, -55), (F(1, 55), 0)), ((0, -56), (F(1, 56), 0))
    evidence = verify_verdict(sc, below, classify_linear_flow(sc, below))
    assert evidence.passed
    with pytest.raises(ExpmOverflowError):
        verify_verdict(sc, above, classify_linear_flow(sc, above))


@pytest.fixture
def expm_batches(monkeypatch):
    """Sizes of the batches passed to flowsim.expm, one entry per call."""
    sizes = []
    inner = flowsim.expm

    def counting(mat, t=1.0):
        sizes.append(np.size(t))
        return inner(mat, t)

    monkeypatch.setattr(flowsim, "expm", counting)
    return sizes


def test_evidence_exponentiates_one_batch_per_check(expm_batches):
    # The 4 trial periods of a PeriodicFlow check go in one batch; a uniform
    # grid of 64 times or trial periods takes its start and step, or its
    # start alone when the grid is the single time t = 0.
    sl2 = get_entry("sl2").structure
    aff2 = get_entry("aff2").structure
    cases = [
        (sl2, inner_derivation(sl2, (1, 0, 0)), [4, 2]),
        (aff2, ((0, 0), (1, 0)), [2, 2]),
        (aff2, ((0, 0), (0, 0)), [2, 1]),  # 64 trial periods, then the time t = 0
    ]
    for sc, mat, sizes in cases:
        expm_batches.clear()
        verify_verdict(sc, mat, classify_linear_flow(sc, mat))
        assert expm_batches == sizes


@pytest.mark.filterwarnings("error")
def test_evidence_passes_on_a_rotation_whose_4t_overflows():
    # T = 2 pi 10^307: 4T is inf, and so is the safe horizon 350 / 10^-307.
    sc = get_entry("abelian2").structure
    mat = ((0, F(1, 10**307)), (-F(1, 10**307), 0))
    verdict = classify_linear_flow(sc, mat)
    assert verdict.tag == "PeriodicFlow" and verdict.period > sys.float_info.max / 4
    evidence = verify_verdict(sc, mat, verdict)
    assert evidence.passed and not evidence.inconclusive, evidence.details


@pytest.mark.parametrize("mat", [
    ((0, -1), (1, 0)),
    ((0, 1), (0, 0)),
    ((F(1, 10**9), 0), (0, 0)),
], ids=["rotation", "nilpotent", "diag-1e-9"])
def test_forged_identity_verdict_fails_on_a_nonzero_derivation(mat):
    sc = get_entry("abelian2").structure
    evidence = verify_verdict(sc, mat, FlowVerdict(tag="IdentityFlow"))
    assert not evidence.passed and not evidence.inconclusive
    assert evidence.details["identity_residual"] > DEFAULT_CONFIG.period_tol


@pytest.mark.parametrize("mat, tag", [
    (((0, 0), (0, 0)), "IdentityFlow"),
    (((0, 0), (0, 1)), "NoPeriodicOrbits"),
    (((0, 0), (0, 300)), "NoPeriodicOrbits"),  # the safe horizon binds
    (((0, 0), (0, 1000)), "NoPeriodicOrbits"),  # shorter than the smallest trial
], ids=["identity", "aff2", "aff2-300", "aff2-1000"])
def test_evidence_horizon_is_a_python_float(mat, tag):
    sc = get_entry("aff2").structure
    verdict = classify_linear_flow(sc, mat)
    assert verdict.tag == tag
    assert type(verify_verdict(sc, mat, verdict).details["horizon"]) is float


def test_short_horizon_evidence_is_inconclusive_without_exponentials(expm_batches):
    sc = get_entry("aff2").structure
    mat = ((0, 0), (0, 1000))  # safe horizon 0.35 < EVIDENCE_MIN_PERIOD 0.5
    evidence = verify_verdict(sc, mat, classify_linear_flow(sc, mat))
    assert not evidence.passed and evidence.inconclusive
    assert expm_batches == []
    assert evidence.details["horizon"] < flowsim.EVIDENCE_MIN_PERIOD


def test_nonfinite_residual_makes_evidence_inconclusive(monkeypatch):
    # Since the scaled norm no default-config input overflows, so the
    # residual kernel is made to report one.
    sc = get_entry("aff2").structure
    mat = ((0, 0), (0, 300))
    verdict = classify_linear_flow(sc, mat)

    def overflowing(arr, periods, horizon, samples):
        return np.full(len(periods), np.inf)

    monkeypatch.setattr(flowsim, "_closure_residuals", overflowing)
    evidence = verify_verdict(sc, mat, verdict)
    assert not math.isfinite(evidence.details["min_residual"])
    assert not evidence.passed and evidence.inconclusive


def test_scaled_norm_keeps_large_residuals_finite():
    # D = diag(0, 300): the residual at trial period T and time t is
    # (e^{300T} - 1) e^{300t}, least at T = 0.5 and largest at the safe
    # horizon 350/300, about e^{500} = 1.4e217, whose square overflows.
    sc = get_entry("aff2").structure
    mat = ((0, 0), (0, 300))
    evidence = verify_verdict(sc, mat, classify_linear_flow(sc, mat))
    expected = math.expm1(150) * math.exp(350)
    assert abs(evidence.details["min_residual"] - expected) <= 1e-9 * expected
    assert evidence.passed and not evidence.inconclusive


# Recorded before the batched grid: every row of the default verdict table,
# 18 PeriodicFlow and 80 NoPeriodicOrbits, passed and was conclusive.
VERDICT_TABLE_EVIDENCE = {"PeriodicFlow": 18, "NoPeriodicOrbits": 80}


def test_verdict_table_evidence_flags_unchanged():
    counts = {}
    for row in verdict_table():
        entry = get_entry(row.entry, row.param)
        evidence = verify_verdict(entry.structure, row.matrix, row.verdict)
        assert (evidence.passed, evidence.inconclusive) == (True, False), (
            row.entry, row.label, evidence.details)
        counts[row.verdict.tag] = counts.get(row.verdict.tag, 0) + 1
    assert counts == VERDICT_TABLE_EVIDENCE
