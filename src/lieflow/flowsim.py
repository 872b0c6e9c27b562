"""Matrix exponentials, flow-closure residuals, and invariant orbits exp(tX)g0.

Everything here is double precision and serves as numerical evidence for the
exact verdicts: closure residuals certify periods, and bounded-below
residual sweeps over a finite horizon falsify closure. Non-periodicity is
only ever "evidence", never proof; the proof lives in the exact spectral
classification.

NumPy is imported inside the functions, not at module level: importing this
module, as the CLI and the package do, must not load NumPy for the exact
commands, which never call into it.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .dersolve import DerivationMatrix
from .periodicity import FlowVerdict

EXPM_NORM_GUARD = 700.0    # refuse matrix exponentials beyond this ||tM||_1
EVIDENCE_MIN_PERIOD = 0.5  # smallest trial period on NoPeriodicOrbits grids

# Pade-13 coefficients b_0..b_13 and theta_13, the largest ||A||_1 at which
# r_13(A) = e^A to double precision (N. J. Higham, SIAM J. Matrix Anal. Appl.
# 26(4), 2005, Table 2.3 and eq. 2.4).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


class ExpmOverflowError(Exception):
    """The requested exponential exceeds the norm guard EXPM_NORM_GUARD."""


@dataclass(frozen=True)
class ToleranceConfig:
    """The evidence checks' settings; `simulate` sets each with a flag."""

    period_tol: float = 1e-8  # flow-closure residual bound for periods
    separation: float = 1e-3  # residual floor certifying "not closed"
    horizon: float = 50.0     # time horizon for non-periodic evidence
    samples: int = 64         # t-samples per residual sweep


DEFAULT_CONFIG = ToleranceConfig()


@dataclass(frozen=True)
class FlowSample:
    t: float
    matrix: np.ndarray


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float


@dataclass(frozen=True)
class VerdictEvidence:
    passed: bool
    inconclusive: bool
    details: dict


def _as_float_matrix(mat) -> np.ndarray:
    import numpy as np

    arr = np.asarray(mat.entries if isinstance(mat, DerivationMatrix) else mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("expected a square matrix")
    return arr


def _norm1(arr: np.ndarray):
    """||A||_1, the largest absolute column sum, of each matrix of a stack
    whose column sums may pass the float max."""
    import numpy as np

    with np.errstate(over="ignore"):  # a sum past the float max is inf, the norm
        return abs(arr).sum(axis=-2).max(axis=-1, initial=0.0)


def _check_norm(arr: np.ndarray, t: float) -> None:
    norm = t * float(_norm1(arr))  # Python floats: an overflow is inf, not a warning
    if norm > EXPM_NORM_GUARD:
        raise ExpmOverflowError(
            f"||tM|| = {norm:.3g} exceeds the guard {EXPM_NORM_GUARD:.3g}"
        )


def _pade13_expm(a: np.ndarray) -> np.ndarray:
    """e^A for each matrix A of the stack a, shape (k, n, n), by Higham's
    scaling and squaring: A / 2^s with s = max(0, ceil(log2(||A||_1 /
    theta_13))), then r_13 = (V - U)^-1 (V + U) written as I + 2 (V - U)^-1 U,
    so A = 0 gives exactly I, then s squarings. Each matrix has its own s;
    a squaring step touches only the matrices that still need it."""
    import numpy as np

    b = _PADE13
    norm = abs(a).sum(axis=-2).max(axis=-1, initial=0.0)  # <= EXPM_NORM_GUARD here
    s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(int)
    a = np.ldexp(a, -s[:, None, None])
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = eye + 2.0 * np.linalg.solve(v - u, u)
    for k in range(s.max(initial=0)):
        todo = s > k
        sub = r[todo]
        r[todo] = sub @ sub
    return r


def expm(mat, t: float | np.ndarray = 1.0) -> np.ndarray:
    """e^{tM} by scaling-and-squaring with a Pade-13 approximant.

    `t` is a scalar, giving one matrix, or a 1-D array of times, giving the
    stack of e^{t_k M} from one batched kernel; the finiteness check and the
    norm guard then run once, against the largest |t_k|. Relative error is
    within 1e-12 up to the guard (tested against a truncated series oracle for
    ||tM|| <= 100 and 50-digit mpmath up to ||tM||_1 = 699).
    Raises ValueError on a non-finite entry or time, ExpmOverflowError beyond
    the norm guard.
    """
    import numpy as np

    arr = _as_float_matrix(mat)
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError("t must be a scalar or a 1-D array of times")
    t_max = float(np.max(np.abs(ts), initial=0.0))  # NaN if any t is NaN
    if not math.isfinite(t_max):
        raise ValueError("times must be finite")
    _check_norm(arr, t_max)
    scaled = ts[..., None, None] * arr
    return _pade13_expm(scaled.reshape((ts.size,) + arr.shape)).reshape(scaled.shape)


def _safe_horizon(arr: np.ndarray, wanted: float) -> float:
    """`wanted` capped by EXPM_NORM_GUARD / (2 ||D||_1); Python floats reach inf silently."""
    norm = float(_norm1(arr))
    return min(wanted, 0.5 * EXPM_NORM_GUARD / norm) if norm else wanted


def _grid_expm(arr: np.ndarray, start: float, stop: float, count: int) -> np.ndarray:
    """e^{tD} at each t of np.linspace(start, stop, count), as one stack. One
    expm call gives e^{start D} and e^{hD}, h = (stop - start) / (count - 1);
    then each doubling round multiplies the m matrices filled so far by
    e^{mhD} into the next m, since e^{t_k D} = e^{start D} (e^{hD})^k (Moler
    & Van Loan, SIAM Review 45(1), 2003). That expm call sees only start and
    h, so the norm guard is checked here, at max(|start|, |stop|)."""
    import numpy as np

    _check_norm(arr, max(abs(start), abs(stop)))
    times = [start, (stop - start) / (count - 1)] if count > 1 else [start]
    exps = expm(arr, np.array(times, dtype=float))
    out = np.empty((count,) + arr.shape)
    out[0], step = exps[0], exps[-1]
    done = 1
    while done < count:
        m = min(done, count - done)
        np.matmul(out[:m], step, out=out[done:done + m])
        done += m
        if done < count:  # one squaring more could pass the float max
            step = step @ step
    return out


def _closure_residuals(
    arr: np.ndarray, trials: Sequence[float] | np.ndarray, horizon: float, samples: int
) -> np.ndarray:
    """Per trial period T_j, max over t in linspace(0, horizon, samples) of
    ||e^{(t+T_j)D} - e^{tD}||_F, computed as ||(e^{T_j D} - I) e^{tD}||_F.
    `trials` holds the T_j, exponentiated here in one batch, or a stack of
    the e^{T_j D} themselves; the e^{tD} come from _grid_expm. Each e^{tD} is
    divided by the power of two at its largest entry and the norm multiplied
    back, which changes no bit of a residual that fits but keeps the sum of
    squares from overflowing past ~1e154; a residual that still overflows
    shows as non-finite."""
    import numpy as np

    trials = np.asarray(trials, dtype=float)
    gaps = (expm(arr, trials) if trials.ndim == 1 else trials) - np.eye(arr.shape[0])
    flows = _grid_expm(arr, 0.0, horizon, samples)
    scale = np.exp2(np.frexp(np.abs(flows).max(axis=(1, 2)))[1])
    flows /= scale[:, None, None]
    # Residuals in blocks of trial periods whose products take <= 512 KiB:
    # one broadcast product per block, made first; root and scale in place.
    rows = 2**16 // flows.size or 1
    peaks = []
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(gaps), rows):
            prod = gaps[lo:lo + rows, None] @ flows
            res = np.einsum("ptab,ptab->pt", prod, prod)
            np.sqrt(res, out=res)
            res *= scale
            peaks.append(res.max(axis=1))
            del prod, res  # before the next block is allocated
    return np.concatenate(peaks)


def _period_residuals(arr: np.ndarray, periods: Sequence[float], samples: int) -> np.ndarray:
    """_closure_residuals at the trial periods, exponentiated in one batch, on
    the window of a check at T = periods[0]: 4T capped by the safe horizon and
    by (float max - T) / 2, which keeps horizon + T finite. Raises
    ExpmOverflowError when (horizon + T)||D||_1, the literal form's largest
    exponent, exceeds the norm guard."""
    period = float(periods[0])
    horizon = min(_safe_horizon(arr, 4.0 * period), (sys.float_info.max - period) / 2)
    _check_norm(arr, horizon + period)
    return _closure_residuals(arr, periods, horizon, samples)


def flow_period_residual(
    mat, period: float, cfg: ToleranceConfig | None = None
) -> ResidualReport:
    """max over t on the window of _period_residuals of ||e^{(t+T)D} - e^{tD}||_F."""
    cfg = cfg or DEFAULT_CONFIG
    if not 0 < period < math.inf:
        raise ValueError("period must be positive and finite")
    if cfg.samples < 2:
        raise ValueError("need at least two samples")
    (worst,) = _period_residuals(_as_float_matrix(mat), [period], cfg.samples)
    return ResidualReport(float(worst))


def rep_matrix(rep: Sequence, x: Sequence) -> np.ndarray:
    """Image of the algebra vector x under a matrix representation."""
    import numpy as np

    mats = [np.asarray(m, dtype=float) for m in rep]
    if len(mats) != len(x):
        raise ValueError("representation size does not match vector length")
    out = np.zeros_like(mats[0])
    for coeff, m in zip(x, mats):
        out = out + float(coeff) * m
    return out


def invariant_orbit(
    rep: Sequence, x: Sequence, g0, ts: Sequence[float]
) -> list[FlowSample]:
    """Right-invariant-flow orbit exp(tX) g0."""
    import numpy as np

    g = np.asarray(g0, dtype=float)
    if abs(np.linalg.det(g)) < 1e-300:
        raise ValueError("g0 must be invertible")
    xh = rep_matrix(rep, x)
    mats = expm(xh, np.asarray(ts, dtype=float)) @ g
    return [FlowSample(t=float(t), matrix=m) for t, m in zip(ts, mats)]


def orbit_closure_residual(samples: list[FlowSample], period: float) -> float:
    """max ||g(t + T) - g(t)|| over sample pairs separated by the period."""
    import numpy as np

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
    """Numerical evidence for a linear-flow verdict, from _closure_residuals.

    PeriodicFlow passes when the residual at T stays within period_tol while
    T/2, T/3 and 2T/3 all miss by at least the separation threshold
    (minimality evidence), all four on the window of _period_residuals.
    IdentityFlow requires ||e^{tD} - I||_F <= period_tol at each grid time t,
    read as a trial period from t = 0. NoPeriodicOrbits is falsification
    evidence only: the residual must stay above the separation floor for
    every trial period on the grid; a dip below it makes the grid
    inconclusive, not the verdict wrong, and so does a safe horizon shorter
    than the smallest trial period. The 1 or 4 trial periods of a PeriodicFlow
    check are exponentiated in one batch; each uniform grid of times or trial
    periods takes one _grid_expm ladder. A non-finite residual makes any check
    inconclusive. `sc` is not read; it stays positional because the
    acceptance gate and perfbench/worker.py pass it.
    """
    import numpy as np

    cfg = cfg or DEFAULT_CONFIG
    arr = _as_float_matrix(mat)
    horizon = _safe_horizon(arr, cfg.horizon)
    if verdict.tag == "PeriodicFlow":
        assert verdict.period is not None
        period = verdict.period
        trials = {"1T/2": period / 2, "1T/3": period / 3, "2T/3": period * 2 / 3}
        residuals = _period_residuals(arr, [period, *trials.values()], cfg.samples)
        subperiods = dict(zip(trials, map(float, residuals[1:])))
        passed = residuals[0] <= cfg.period_tol and min(residuals[1:]) >= cfg.separation
        inconclusive = False
        details = {"closure_residual": float(residuals[0]),
                   "subperiod_residuals": subperiods}
    elif verdict.tag == "IdentityFlow":
        trials = _grid_expm(arr, 0.0, horizon, cfg.samples)
        residuals = _closure_residuals(arr, trials, 0.0, 1)
        passed, inconclusive = residuals.max() <= cfg.period_tol, False
        details = {"identity_residual": float(residuals.max()), "horizon": horizon}
    elif verdict.tag == "NoPeriodicOrbits":
        note = "falsification evidence over a finite horizon, not proof"
        if horizon < EVIDENCE_MIN_PERIOD:
            note += "; the safe horizon is shorter than the smallest trial period"
            return VerdictEvidence(False, True, {"horizon": horizon, "note": note})
        trials = _grid_expm(arr, EVIDENCE_MIN_PERIOD, horizon, cfg.samples)
        residuals = _closure_residuals(arr, trials, horizon, cfg.samples)
        best = int(np.argmin(residuals))
        periods = np.linspace(EVIDENCE_MIN_PERIOD, horizon, cfg.samples)
        passed = residuals[best] >= cfg.separation
        inconclusive = not passed
        details = {
            "min_residual": float(residuals[best]),
            "argmin_period": float(periods[best]),
            "horizon": horizon,
            "note": note,
        }
    else:
        raise ValueError(f"verify_verdict cannot check verdict tag {verdict.tag!r}")
    if not np.all(np.isfinite(residuals)):  # an overflow shows nothing
        passed, inconclusive = False, True
    return VerdictEvidence(bool(passed), bool(inconclusive), details)
