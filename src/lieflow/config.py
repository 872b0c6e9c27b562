"""Shared tolerance and sampling configuration."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric knobs for the spectral / periodicity / flow-verification layers.

    All exact-arithmetic decisions ignore these; they only govern the
    floating-point fallback paths and the numerical evidence checks. For a
    rational D the verdict reads two of them: rank_tol (clustering of numeric
    roots, which flags an ill-conditioned spectrum, and SVD ranks where no
    exact rank decides) and zero_tol (reason labels among numeric classes).
    Frequency ratios and periods are always exact.
    """

    rank_tol: float = 1e-9           # relative SVD threshold for numeric ranks
    zero_tol: float = 1e-9           # relative threshold for "numerically zero"
    period_tol: float = 1e-8         # flow-closure residual bound for periods
    separation: float = 1e-3         # residual floor certifying "not closed"
    horizon: float = 50.0            # time horizon for non-periodic evidence
    samples: int = 64                # t-samples per residual sweep
    evidence_min_period: float = 0.5 # smallest trial period on evidence grids
    lcm_bound: int = 10**9           # guard against absurd lcm blowup in periods
    expm_norm_guard: float = 700.0   # refuse matrix exponentials beyond this ||tM||

    def override(self, **kwargs) -> "ToleranceConfig":
        return replace(self, **kwargs)


DEFAULT_CONFIG = ToleranceConfig()
