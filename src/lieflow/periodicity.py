"""Periodicity verdicts for linear and right-invariant flows.

The matrix flow e^{tD} is periodic exactly when every nonzero eigenvalue of D
is purely imaginary and semisimple with pairwise rational ratios of the
imaginary parts, and the zero eigenvalue (if present) is semisimple as well;
a nilpotent block would contribute a polynomial-in-t term. classify_flow
decides all of it exactly, with no eigenvalue computed and no tolerance read,
in integers on B = dD, d the lcm of D's denominators, the matrix's one
integer form: the primitive characteristic polynomial p by Berkowitz on B,
and everything else from the square map h(mu) of p without its root 0, whose
roots are the squares mu = lambda^2 of the nonzero eigenvalues. One remainder
sequence gives h and its Sturm sequence, which counts its real roots (Basu,
Pollack & Roy, Algorithms in Real Algebraic Geometry, 2006, ch. 2); then the
sign changes of h's coefficients count its positive roots (Descartes), D^eps
h(D^2) = 0, by Horner on B^2, is semisimplicity, and the rational roots of h,
lifted modulo powers of a small prime, give the frequency ratios.
Verdicts:

* IdentityFlow          - D = 0, every point is fixed.
* PeriodicFlow{T}       - every non-fixed orbit on the simply connected group
                          is periodic, with period dividing the minimal T of
                          e^{tD}. Periods are statements about non-fixed
                          orbits only.
* NoPeriodicOrbits      - e^{tD} is not periodic, with the first failing
                          reason in a fixed deterministic order. Orbits in a
                          rotation plane of D can still be periodic: on
                          abelian3, D = [[0,1,0],[-1,0,0],[0,0,1]] gives
                          RealNonzeroEigenvalue, yet e^{2*pi*D}E1 = E1.
* SpectralPeriodicInconclusive - invariant-flow classification only: the
                          derivation of the field vanishes (central field or
                          abelian algebra), so the spectrum says nothing
                          about exp(tX) itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from ._record import Record, replace
from .dersolve import coerce_matrix, derivation, inner_derivation
from .liealg import Scalar, StructureConstants
from .spectral import (
    _infinity_variations,
    _is_rational_square,
    _matmul,
    _poly_at,
    _rational_roots,
    _sign,
    _sqrt,
    _squares,
    _variations,
    char_poly,
)

REASON_NONZERO_REAL_PART = "NonzeroRealPart"
REASON_REAL_NONZERO = "RealNonzeroEigenvalue"
REASON_NON_SEMISIMPLE = "NonSemisimpleEigenvalue"
REASON_IRRATIONAL_RATIO = "IrrationalRatio"

INVARIANT_FLOW_CAVEAT = (
    "periodicity of exp(tX) inferred from the derivation spectrum; the "
    "converse direction additionally assumes Ad is injective (trivial center)"
)


class PeriodTooLargeError(Exception):
    """The minimal period T is not a positive finite float."""

    def __init__(self, lcm_value: int, message: str):
        self.lcm = lcm_value
        super().__init__(message)


class RationalProfile(Record):
    """Rational structure of the positive imaginary parts, base first."""

    base_alpha: float
    base_alpha_exact: Fraction | None
    ratios: tuple[tuple[int, int], ...]


class FlowVerdict(Record):
    tag: str  # IdentityFlow | PeriodicFlow | NoPeriodicOrbits | SpectralPeriodicInconclusive
    period: float | None = None
    period_over_pi: Fraction | None = None
    reason: str | None = None
    profile: RationalProfile | None = None
    caveats: tuple[str, ...] = ()
    note: str | None = None


# --- classification ----------------------------------------------------------


def classify_flow(mat) -> FlowVerdict:
    """Verdict for the matrix flow e^{tD} from p = char_poly(D) in primitive
    integer form, through h, seq = _squares(p without its factor lambda^m):
    the square map h and its Sturm sequence, from one remainder sequence.

    Multiplicities never enter the criterion: the roots of h are the squares
    mu = lambda^2 of the distinct eigenvalues lambda != 0, which lie off both
    axes for a non-real mu, are real for mu > 0 and are +-i*alpha for
    mu = -alpha^2 < 0. Failing reasons in a fixed order: NonzeroRealPart,
    RealNonzeroEigenvalue, NonSemisimpleEigenvalue, IrrationalRatio. seq, read
    at -oo and +oo, counts the real roots of h for the first; once all are
    real, Descartes' rule is exact, and h has a positive root exactly when its
    coefficients change sign, the second. Once they pass, every lambda != 0 is
    +-i*alpha, so rad(p) = lambda^eps h(lambda^2), eps = [m > 0]: p has a
    repeated root exactly when eps + 2 deg h < n, and then D is semisimple
    exactly when D^eps h(D^2) = 0, by Horner on C = B^2, B = dD the matrix's
    one integer form. h must then split over Q with rational-square root
    ratios.
    """
    der = coerce_matrix(mat)
    p = list(char_poly(der).ints)
    m = next(k for k, c in enumerate(p) if c)
    h, seq = _squares(p[m:])
    below, above = _infinity_variations(seq)
    if below - above < len(h) - 1:
        return FlowVerdict("NoPeriodicOrbits", reason=REASON_NONZERO_REAL_PART)
    if _variations(map(_sign, h)):
        return FlowVerdict("NoPeriodicOrbits", reason=REASON_REAL_NONZERO)
    eps = m > 0
    if eps + 2 * (len(h) - 1) < len(p) - 1:
        b, d = der.scaled
        acc = _poly_at(h, _matmul(b, b), d * d)[0]
        if any(map(any, _matmul(acc, b) if eps else acc)):
            return FlowVerdict("NoPeriodicOrbits", reason=REASON_NON_SEMISIMPLE)
    if len(h) == 1:
        return FlowVerdict("IdentityFlow")
    mus = _rational_roots(h)
    if len(mus) < len(h) - 1:
        return FlowVerdict("NoPeriodicOrbits", reason=REASON_IRRATIONAL_RATIO)
    # mus ascend below 0, so alpha_1^2 = -mus[-1] is the smallest square, and
    # alpha_j / alpha_1 = p_j / q_j is rational iff mu_j / mus[-1] is a
    # rational square. T = 2*pi*lcm(q_j) / alpha_1 is the least T > 0 with
    # every alpha_j T in 2*pi*Z.
    ratios = [_is_rational_square(mu / mus[-1]) for mu in reversed(mus)]
    if None in ratios:
        return FlowVerdict("NoPeriodicOrbits", reason=REASON_IRRATIONAL_RATIO)
    lcm = math.lcm(*[r.denominator for r in ratios])
    alpha, alpha_exact = _sqrt(-mus[-1]), _is_rational_square(-mus[-1])
    try:
        period = 2.0 * math.pi * lcm / alpha if alpha > 0 else math.inf
    except OverflowError:  # lcm beyond the float range
        period = math.inf
    if not 0 < period < math.inf:
        raise PeriodTooLargeError(
            lcm, f"minimal period 2*pi*{lcm}/{alpha!r} is not a positive finite float"
        )
    return FlowVerdict(
        tag="PeriodicFlow",
        period=period,
        period_over_pi=None if alpha_exact is None else 2 * lcm / alpha_exact,
        profile=RationalProfile(
            alpha, alpha_exact, tuple((r.numerator, r.denominator) for r in ratios)
        ),
    )


def classify_linear_flow(sc: StructureConstants, mat) -> FlowVerdict:
    """Verdict for the linear flow whose derivation is `mat`.

    PeriodicFlow means every non-fixed orbit of the flow on the simply
    connected group is periodic with period dividing T; NoPeriodicOrbits means
    that e^{tD} is not periodic, though orbits in a rotation plane of D can be.
    """
    return classify_flow(derivation(sc, mat))


def classify_invariant_flow(sc: StructureConstants, x: Sequence[Scalar]) -> FlowVerdict:
    """Verdict for the right-invariant flow exp(tX) via D = -ad(X).

    A vanishing derivation (central X or abelian algebra) yields
    SpectralPeriodicInconclusive: e^{tD} is trivially constant while exp(tX)
    itself need not be periodic at all, so the spectrum carries no
    information. PeriodicFlow verdicts carry an explicit caveat because the
    spectral condition implies periodicity of exp(tX) only when Ad separates
    group elements.
    """
    der = inner_derivation(sc, x)
    if all(v == 0 for row in der.entries for v in row):
        return FlowVerdict("SpectralPeriodicInconclusive", note=(
            "the field's derivation -ad(X) vanishes (central X or abelian "
            "algebra); e^{tD} is constant but exp(tX) itself may be a "
            "non-periodic one-parameter subgroup"
        ))
    verdict = classify_flow(der)
    if verdict.tag == "PeriodicFlow":
        return replace(verdict, caveats=(INVARIANT_FLOW_CAVEAT,))
    return verdict
