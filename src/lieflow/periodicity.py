"""Periodicity verdicts for linear and right-invariant flows.

The matrix flow e^{tD} is periodic exactly when every nonzero eigenvalue of D
is purely imaginary and semisimple with pairwise rational ratios of the
imaginary parts, and the zero eigenvalue (if present) is semisimple as well;
a nilpotent block would contribute a polynomial-in-t term. Verdicts:

* IdentityFlow          - D = 0, every point is fixed.
* PeriodicFlow{T}       - every non-fixed orbit on the simply connected group
                          is periodic, with period dividing the minimal T of
                          e^{tD}. Periods are statements about non-fixed
                          orbits only.
* NoPeriodicOrbits      - no non-fixed orbit is periodic, with the first
                          failing reason in a fixed deterministic order.
* SpectralPeriodicInconclusive - invariant-flow classification only: the
                          derivation of the field vanishes (central field or
                          abelian algebra), so the spectrum says nothing
                          about exp(tX) itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .config import DEFAULT_CONFIG, ToleranceConfig
from .dersolve import coerce_matrix, inner_derivation, leibniz_residual
from .liealg import Scalar, StructureConstants
from .spectral import (
    EigenClass,
    IllConditionedSpectrumError,
    Spectrum,
    _is_rational_square,
    spectrum,
)

REASON_NONZERO_REAL_PART = "NonzeroRealPart"
REASON_REAL_NONZERO = "RealNonzeroEigenvalue"
REASON_NON_SEMISIMPLE = "NonSemisimpleEigenvalue"
REASON_IRRATIONAL_RATIO = "IrrationalRatio"

INVARIANT_FLOW_CAVEAT = (
    "periodicity of exp(tX) inferred from the derivation spectrum; the "
    "converse direction additionally assumes Ad is injective (trivial center)"
)


class NotADerivationError(Exception):
    def __init__(self, residual, worst_pair):
        self.residual = residual
        self.worst_pair = worst_pair
        super().__init__(
            f"matrix violates the Leibniz identity (residual {residual}, "
            f"worst basis pair {worst_pair})"
        )


class IrrationalRatioError(Exception):
    def __init__(self, index: int, ratio: float, message: str):
        self.index = index
        self.ratio = ratio
        super().__init__(message)


class PeriodTooLargeError(Exception):
    def __init__(self, lcm_value: int, bound: int):
        self.lcm = lcm_value
        self.bound = bound
        super().__init__(
            f"combined denominator {lcm_value} exceeds the period bound {bound}"
        )


@dataclass(frozen=True)
class RationalProfile:
    """Rational structure of the positive imaginary parts, base first."""

    base_alpha: float
    ratios: tuple[tuple[int, int], ...]
    residuals: tuple[float, ...]
    base_alpha_exact: Fraction | None = None


@dataclass(frozen=True)
class FlowVerdict:
    tag: str  # IdentityFlow | PeriodicFlow | NoPeriodicOrbits | SpectralPeriodicInconclusive
    period: float | None = None
    period_over_pi: Fraction | None = None
    reason: str | None = None
    profile: RationalProfile | None = None
    caveats: tuple[str, ...] = field(default_factory=tuple)
    note: str | None = None

    def with_caveat(self, caveat: str) -> "FlowVerdict":
        return FlowVerdict(
            tag=self.tag,
            period=self.period,
            period_over_pi=self.period_over_pi,
            reason=self.reason,
            profile=self.profile,
            caveats=self.caveats + (caveat,),
            note=self.note,
        )


def identity_flow() -> FlowVerdict:
    return FlowVerdict(tag="IdentityFlow")


def no_periodic_orbits(reason: str) -> FlowVerdict:
    return FlowVerdict(tag="NoPeriodicOrbits", reason=reason)


def inconclusive(note: str) -> FlowVerdict:
    return FlowVerdict(tag="SpectralPeriodicInconclusive", note=note)


# --- eigenvalue predicates ---------------------------------------------------


def _scale(spec: Spectrum) -> float:
    return max(1.0, max((abs(c.value) for c in spec.classes), default=1.0))


def _is_real(c: EigenClass, ztol: float) -> bool:
    if c.exact_im_sq is not None:
        return c.exact_im_sq == 0
    return abs(c.value.imag) <= ztol


def _is_zero(c: EigenClass, ztol: float) -> bool:
    if c.exact_re is not None and c.exact_im_sq is not None:
        return c.exact_re == 0 and c.exact_im_sq == 0
    if c.exact_im_sq == 0 and c.exact_re is None:
        # Real quadratic surd: irrational, hence provably nonzero.
        return False
    return abs(c.value) <= ztol


def _has_zero_real_part(c: EigenClass, ztol: float) -> bool:
    if c.exact_re is not None:
        return c.exact_re == 0
    return abs(c.value.real) <= ztol


# --- rational ratio machinery ------------------------------------------------


def rational_ratio_profile(
    alphas: Sequence[float],
    cfg: ToleranceConfig | None = None,
    exact_sq: Sequence[Fraction | None] | None = None,
) -> RationalProfile:
    """Exact rational ratios p_i/q_i = alpha_i / alpha_1.

    `exact_sq[i]` certifies alpha_i = sqrt(exact_sq[i]); the ratio is rational
    iff sq_i/sq_1 is a perfect rational square, which is decidable, so no
    tolerance is read (`cfg` is accepted for compatibility). Frequencies are
    sorted ascending internally, so the base alpha_1 is the smallest; the
    minimal period is order-independent. Raises ValueError when a frequency
    is not positive or lacks its exact square, and IrrationalRatioError when
    a ratio is irrational.
    """
    if not alphas:
        raise ValueError("need at least one frequency")
    if any(a <= 0 for a in alphas):
        raise ValueError("frequencies must be positive")
    if exact_sq is None or len(exact_sq) != len(alphas) or None in exact_sq:
        raise ValueError("every frequency needs its exact square in exact_sq")
    pairs = sorted(zip(alphas, exact_sq), key=lambda p: p[1])
    base, base_sq = float(pairs[0][0]), pairs[0][1]

    ratios: list[tuple[int, int]] = []
    for i, (a, sq) in enumerate(pairs):
        root = _is_rational_square(sq / base_sq)
        if root is None:
            raise IrrationalRatioError(
                i,
                float(a) / base,
                f"ratio alpha_{i + 1}/alpha_1 = sqrt({sq / base_sq}) is irrational",
            )
        ratios.append((root.numerator, root.denominator))
    return RationalProfile(
        base_alpha=base,
        ratios=tuple(ratios),
        residuals=(0.0,) * len(ratios),
        base_alpha_exact=_is_rational_square(base_sq),
    )


def _combined_lcm(profile: RationalProfile, cfg: ToleranceConfig) -> int:
    denominators = [q for _, q in profile.ratios] or [1]
    lcm_value = math.lcm(*denominators)
    if lcm_value > cfg.lcm_bound:
        raise PeriodTooLargeError(lcm_value, cfg.lcm_bound)
    return lcm_value


def minimal_period(profile: RationalProfile, cfg: ToleranceConfig | None = None) -> float:
    """Smallest T > 0 with alpha_i * T in 2*pi*Z for every frequency.

    T = (2*pi / alpha_1) * lcm(q_1..q_r): alpha_i T = 2*pi*p_i*lcm/q_i, and any
    smaller multiple of 2*pi/alpha_1 misses some q_i.
    """
    cfg = cfg or DEFAULT_CONFIG
    lcm_value = _combined_lcm(profile, cfg)
    return 2.0 * math.pi * lcm_value / profile.base_alpha


def minimal_period_over_pi(
    profile: RationalProfile, cfg: ToleranceConfig | None = None
) -> Fraction | None:
    """T / pi as an exact rational, when the base frequency is rational."""
    cfg = cfg or DEFAULT_CONFIG
    if profile.base_alpha_exact is None:
        return None
    return Fraction(2 * _combined_lcm(profile, cfg)) / profile.base_alpha_exact


# --- classification ----------------------------------------------------------


def classify_flow(spec: Spectrum, cfg: ToleranceConfig | None = None) -> FlowVerdict:
    """Verdict for the matrix flow e^{tD} from its spectrum.

    Failing reasons are checked in a fixed order for stable output:
    NonzeroRealPart (non-real eigenvalue off the imaginary axis), then
    RealNonzeroEigenvalue, then NonSemisimpleEigenvalue (including the zero
    eigenvalue), then IrrationalRatio.
    """
    cfg = cfg or DEFAULT_CONFIG
    if spec.ill_conditioned:
        raise IllConditionedSpectrumError(
            "spectrum is ill-conditioned; refusing to classify: "
            + "; ".join(spec.notes)
        )
    if sum(c.alg_mult for c in spec.classes) != spec.dim:
        raise ValueError("malformed spectrum: multiplicities do not sum to dim")
    ztol = cfg.zero_tol * _scale(spec)

    for c in spec.classes:
        if not _is_real(c, ztol) and not _has_zero_real_part(c, ztol):
            return no_periodic_orbits(REASON_NONZERO_REAL_PART)
    for c in spec.classes:
        if _is_real(c, ztol) and not _is_zero(c, ztol):
            return no_periodic_orbits(REASON_REAL_NONZERO)
    for c in spec.classes:
        if not c.semisimple:
            return no_periodic_orbits(REASON_NON_SEMISIMPLE)

    imaginary = [c for c in spec.classes if not _is_real(c, ztol) and c.value.imag > 0]
    if not imaginary:
        return identity_flow()
    # Extraction is complete: a periodic rational D has only exact classes,
    # 0 and +-i*sqrt(q) with q rational, so a numeric one rules it out.
    if not all(c.exact for c in imaginary):
        return no_periodic_orbits(REASON_IRRATIONAL_RATIO)
    alphas = [c.value.imag for c in imaginary]
    try:
        profile = rational_ratio_profile(alphas, cfg, [c.exact_im_sq for c in imaginary])
    except IrrationalRatioError:
        return no_periodic_orbits(REASON_IRRATIONAL_RATIO)
    period = minimal_period(profile, cfg)
    return FlowVerdict(
        tag="PeriodicFlow",
        period=period,
        period_over_pi=minimal_period_over_pi(profile, cfg),
        profile=profile,
    )


def classify_linear_flow(
    sc: StructureConstants, mat, cfg: ToleranceConfig | None = None
) -> FlowVerdict:
    """Verdict for the linear flow whose derivation is `mat`.

    PeriodicFlow means every non-fixed orbit of the flow on the simply
    connected group is periodic with period dividing T; NoPeriodicOrbits means
    no non-fixed orbit is periodic.
    """
    cfg = cfg or DEFAULT_CONFIG
    m = coerce_matrix(mat, sc.dim)
    residual, worst = leibniz_residual(sc, m)
    if residual != 0:
        raise NotADerivationError(residual, worst)
    return classify_flow(spectrum(m, cfg=cfg), cfg)


def classify_invariant_flow(
    sc: StructureConstants, x: Sequence[Scalar], cfg: ToleranceConfig | None = None
) -> FlowVerdict:
    """Verdict for the right-invariant flow exp(tX) via D = -ad(X).

    A vanishing derivation (central X or abelian algebra) yields
    SpectralPeriodicInconclusive: e^{tD} is trivially constant while exp(tX)
    itself need not be periodic at all, so the spectrum carries no
    information. PeriodicFlow verdicts carry an explicit caveat because the
    spectral condition implies periodicity of exp(tX) only when Ad separates
    group elements.
    """
    cfg = cfg or DEFAULT_CONFIG
    der = inner_derivation(sc, x)
    if all(v == 0 for row in der.entries for v in row):
        return inconclusive(
            "the field's derivation -ad(X) vanishes (central X or abelian "
            "algebra); e^{tD} is constant but exp(tX) itself may be a "
            "non-periodic one-parameter subgroup"
        )
    verdict = classify_flow(spectrum(der, cfg=cfg), cfg)
    if verdict.tag == "PeriodicFlow":
        return verdict.with_caveat(INVARIANT_FLOW_CAVEAT)
    return verdict


# --- serialization -----------------------------------------------------------


def profile_to_dict(profile: RationalProfile | None) -> dict | None:
    if profile is None:
        return None
    return {
        "base_alpha": profile.base_alpha,
        "base_alpha_exact": (
            str(profile.base_alpha_exact)
            if profile.base_alpha_exact is not None
            else None
        ),
        "ratios": [[p, q] for p, q in profile.ratios],
        "residuals": list(profile.residuals),
    }


def verdict_to_dict(verdict: FlowVerdict) -> dict:
    return {
        "tag": verdict.tag,
        "period": verdict.period,
        "period_over_pi": (
            str(verdict.period_over_pi) if verdict.period_over_pi is not None else None
        ),
        "reason": verdict.reason,
        "profile": profile_to_dict(verdict.profile),
        "caveats": list(verdict.caveats),
        "note": verdict.note,
    }
