"""Shared tolerance and sampling configuration."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric knobs of the flow-verification layer.

    Flow verdicts read none of these tolerances: for a rational D the
    verdict is decided exactly from the integer characteristic polynomial,
    and lcm_bound only caps the size of an exact period. The rest govern the
    numerical evidence checks (the CLI sets four of them on `simulate`).
    spectrum() takes its one tolerance as an argument, spectrum(d, tol=1e-9).
    """

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
