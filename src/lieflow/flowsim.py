"""Matrix exponentials, flow-closure residuals, and group-level orbits.

Everything here is double precision and serves as numerical evidence for the
exact verdicts: closure residuals certify periods, and bounded-below
residual sweeps over a finite horizon falsify closure. Non-periodicity is
only ever "evidence", never proof; the proof lives in the exact spectral
classification.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .dersolve import DerivationMatrix
from .periodicity import FlowVerdict


# scipy.linalg.expm, imported on the first expm call: SciPy takes most of
# lieflow's import time and only the evidence layer needs it.
_scipy_expm = None


class ExpmOverflowError(Exception):
    """The requested exponential exceeds the configured norm guard."""


@dataclass(frozen=True)
class FlowSample:
    t: float
    matrix: np.ndarray


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    argmax_t: float
    samples: int
    horizon: float


@dataclass(frozen=True)
class VerdictEvidence:
    verdict_tag: str
    passed: bool
    inconclusive: bool
    details: dict


def _as_float_matrix(mat) -> np.ndarray:
    if isinstance(mat, DerivationMatrix):
        return mat.as_numpy()
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("expected a square matrix")
    return arr


def expm(mat, t: float = 1.0, cfg: ToleranceConfig | None = None) -> np.ndarray:
    """e^{tM} by scaling-and-squaring with a Pade approximant.

    Relative error is within 1e-12 for ||tM|| <= 100 (tested against a
    truncated series oracle). Raises ExpmOverflowError beyond the norm guard.
    """
    global _scipy_expm
    cfg = cfg or DEFAULT_CONFIG
    arr = _as_float_matrix(mat)
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    scaled = t * arr
    norm = np.linalg.norm(scaled, 1)
    if norm > cfg.expm_norm_guard:
        raise ExpmOverflowError(
            f"||tM|| = {norm:.3g} exceeds the guard {cfg.expm_norm_guard:.3g}"
        )
    if _scipy_expm is None:
        from scipy.linalg import expm as _scipy_expm
    return _scipy_expm(scaled)


def _safe_horizon(arr: np.ndarray, wanted: float, cfg: ToleranceConfig) -> float:
    """Largest usable time window given the exponential norm guard."""
    norm = np.linalg.norm(arr, 1)
    if norm == 0:
        return wanted
    return min(wanted, 0.5 * cfg.expm_norm_guard / norm)


def flow_period_residual(
    mat,
    period: float,
    horizon: float | None = None,
    samples: int | None = None,
    cfg: ToleranceConfig | None = None,
) -> ResidualReport:
    """max over equispaced t in [0, horizon] of ||e^{(t+T)D} - e^{tD}||_F."""
    cfg = cfg or DEFAULT_CONFIG
    if period <= 0:
        raise ValueError("period must be positive")
    samples = samples or cfg.samples
    if samples < 2:
        raise ValueError("need at least two samples")
    arr = _as_float_matrix(mat)
    if horizon is None:
        horizon = 4.0 * period
    horizon = _safe_horizon(arr, horizon, cfg)
    ts = np.linspace(0.0, horizon, samples)
    worst = -1.0
    worst_t = 0.0
    for t in ts:
        diff = expm(arr, t + period, cfg) - expm(arr, t, cfg)
        res = float(np.linalg.norm(diff, "fro"))
        if res > worst:
            worst = res
            worst_t = float(t)
    return ResidualReport(
        max_residual=worst, argmax_t=worst_t, samples=samples, horizon=horizon
    )


def _residual_sweep(
    arr: np.ndarray, periods: np.ndarray, horizon: float, samples: int,
    cfg: ToleranceConfig,
) -> np.ndarray:
    """Residual per trial period, factorized as ||(e^{TD} - I) e^{tD}||_F.

    e^{(t+T)D} = e^{TD} e^{tD} exactly, so this matches the literal residual
    up to roundoff while reusing the t-grid exponentials.
    """
    n = arr.shape[0]
    ts = np.linspace(0.0, horizon, samples)
    flows = np.stack([expm(arr, t, cfg) for t in ts])
    out = np.empty(len(periods))
    eye = np.eye(n)
    for idx, period in enumerate(periods):
        gap = expm(arr, float(period), cfg) - eye
        out[idx] = float(np.sqrt(np.max(np.einsum("tij,tij->t", gap @ flows, gap @ flows))))
    return out


def rep_matrix(rep: Sequence, x: Sequence) -> np.ndarray:
    """Image of the algebra vector x under a matrix representation."""
    mats = [np.asarray(m, dtype=float) for m in rep]
    if len(mats) != len(x):
        raise ValueError("representation size does not match vector length")
    out = np.zeros_like(mats[0])
    for coeff, m in zip(x, mats):
        out = out + float(coeff) * m
    return out


def conjugation_orbit(
    rep: Sequence,
    x: Sequence,
    g0,
    ts: Sequence[float],
    cfg: ToleranceConfig | None = None,
) -> list[FlowSample]:
    """Group-level linear-flow orbit g(t) = exp(-tX) g0 exp(tX).

    This is the automorphism flow of the inner field: its differential at the
    identity is Ad(exp(-tX)) = e^{tD} for D = -ad(X), matching the
    algebra-level flow the verdicts are about (the opposite conjugation order
    would produce e^{-tD}).
    """
    cfg = cfg or DEFAULT_CONFIG
    g = np.asarray(g0, dtype=float)
    if abs(np.linalg.det(g)) < 1e-300:
        raise ValueError("g0 must be invertible")
    xh = rep_matrix(rep, x)
    return [
        FlowSample(t=float(t), matrix=expm(xh, -t, cfg) @ g @ expm(xh, t, cfg))
        for t in ts
    ]


def invariant_orbit(
    rep: Sequence,
    x: Sequence,
    g0,
    ts: Sequence[float],
    cfg: ToleranceConfig | None = None,
) -> list[FlowSample]:
    """Right-invariant-flow orbit exp(tX) g0."""
    cfg = cfg or DEFAULT_CONFIG
    g = np.asarray(g0, dtype=float)
    if abs(np.linalg.det(g)) < 1e-300:
        raise ValueError("g0 must be invertible")
    xh = rep_matrix(rep, x)
    return [FlowSample(t=float(t), matrix=expm(xh, t, cfg) @ g) for t in ts]


def orbit_closure_residual(samples: list[FlowSample], period: float) -> float:
    """max ||g(t + T) - g(t)|| over sample pairs separated by the period."""
    by_t = {round(s.t, 12): s.matrix for s in samples}
    worst = 0.0
    matched = False
    for s in samples:
        key = round(s.t + period, 12)
        if key in by_t:
            matched = True
            worst = max(worst, float(np.linalg.norm(by_t[key] - s.matrix, "fro")))
    if not matched:
        raise ValueError("no sample pairs separated by the requested period")
    return worst


def write_orbit_csv(samples: list[FlowSample], path: str) -> None:
    """CSV rows (t, row-major matrix entries) for external plotting."""
    if not samples:
        raise ValueError("no samples to write")
    n = samples[0].matrix.shape[0]
    header = ["t"] + [f"m{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for s in samples:
            writer.writerow(
                [repr(float(s.t))] + [repr(float(v)) for v in s.matrix.flatten()]
            )


def verify_verdict(
    sc, mat, verdict: FlowVerdict, cfg: ToleranceConfig | None = None
) -> VerdictEvidence:
    """Numerical evidence for a linear-flow verdict.

    PeriodicFlow passes when the closure residual at T stays within
    period_tol while T/2, T/3 and 2T/3 all miss by at least the separation
    threshold (minimality evidence). IdentityFlow requires e^{tD} = I on the
    sample grid. NoPeriodicOrbits is falsification evidence only: the
    residual must stay above the separation floor for every trial period on
    the grid; a dip below it makes the grid inconclusive, not the verdict
    wrong.
    """
    cfg = cfg or DEFAULT_CONFIG
    arr = _as_float_matrix(mat)
    if verdict.tag == "PeriodicFlow":
        assert verdict.period is not None
        closure = flow_period_residual(arr, verdict.period, cfg=cfg)
        fractions_checked = {}
        for num, den in ((1, 2), (1, 3), (2, 3)):
            trial = verdict.period * num / den
            fractions_checked[f"{num}T/{den}"] = flow_period_residual(
                arr, trial, cfg=cfg
            ).max_residual
        passed = closure.max_residual <= cfg.period_tol and all(
            r >= cfg.separation for r in fractions_checked.values()
        )
        return VerdictEvidence(
            verdict_tag=verdict.tag,
            passed=passed,
            inconclusive=False,
            details={
                "closure_residual": closure.max_residual,
                "subperiod_residuals": fractions_checked,
            },
        )
    if verdict.tag == "IdentityFlow":
        horizon = _safe_horizon(arr, cfg.horizon, cfg)
        ts = np.linspace(0.0, horizon, cfg.samples)
        eye = np.eye(arr.shape[0])
        worst = max(
            float(np.linalg.norm(expm(arr, float(t), cfg) - eye, "fro")) for t in ts
        )
        return VerdictEvidence(
            verdict_tag=verdict.tag,
            passed=worst <= cfg.period_tol,
            inconclusive=False,
            details={"identity_residual": worst, "horizon": horizon},
        )
    if verdict.tag == "NoPeriodicOrbits":
        horizon = _safe_horizon(arr, cfg.horizon, cfg)
        periods = np.linspace(cfg.evidence_min_period, horizon, cfg.samples)
        residuals = _residual_sweep(arr, periods, horizon, cfg.samples, cfg)
        min_res = float(np.min(residuals))
        ok = min_res >= cfg.separation
        return VerdictEvidence(
            verdict_tag=verdict.tag,
            passed=ok,
            inconclusive=not ok,
            details={
                "min_residual": min_res,
                "argmin_period": float(periods[int(np.argmin(residuals))]),
                "horizon": horizon,
                "note": "falsification evidence over a finite horizon, not proof",
            },
        )
    raise ValueError(f"verify_verdict cannot check verdict tag {verdict.tag!r}")
