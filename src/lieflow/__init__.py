"""Periodic orbits of linear and right-invariant flows on Lie groups.

The flow of a linear vector field on a connected Lie group differentiates at
the identity to e^{tD} for a derivation D of the Lie algebra, so periodicity
questions reduce to the spectrum of D: the flow is periodic exactly when all
nonzero eigenvalues are purely imaginary, semisimple, and pairwise rationally
related. This package computes derivation spaces and spectra exactly over
the rationals, classifies flows, ships a cross-checked catalog of the 2D/3D
solvable algebras and sl(2,R), and verifies verdicts numerically with matrix
exponentials.
"""

from .liealg import (
    StructureConstants,
    ValidationReport,
    algebra_from_dict,
    algebra_to_dict,
    as_scalar,
    as_vector,
    ad,
    load_algebra,
    validate_algebra,
)
from .dersolve import (
    DerivationMatrix,
    DerivationSpace,
    NotADerivationError,
    derivation,
    derivation_space,
    inner_derivation,
    leibniz_residual,
)
from .spectral import (
    CharPoly,
    EigenClass,
    Spectrum,
    char_poly,
    spectrum,
)
from .periodicity import (
    FlowVerdict,
    PeriodTooLargeError,
    RationalProfile,
    classify_flow,
    classify_invariant_flow,
    classify_linear_flow,
)
from .flowsim import (
    DEFAULT_CONFIG,
    ExpmOverflowError,
    FlowSample,
    ResidualReport,
    ToleranceConfig,
    VerdictEvidence,
    expm,
    flow_period_residual,
    invariant_orbit,
    verify_verdict,
    write_orbit_csv,
)
from .catalog import (
    CatalogEntry,
    CrossCheckReport,
    Discrepancy,
    ParamOutOfRangeError,
    UnknownEntryError,
    CATALOG_NAMES,
    cross_check,
    cross_check_all,
    get_entry,
    verdict_table,
)

__version__ = "0.1.0"
