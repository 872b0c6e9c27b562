"""Bundled 2D/3D solvable algebras and sl(2,R), with cross-checks.

Each entry carries the structure constants, the derivation family and
eigenvalue formulas as printed in the source classification table, an
optional faithful matrix representation, and any known printing issues.
`cross_check` recomputes the derivation space and the characteristic
polynomial exactly and reports every mismatch with both values; recomputation
is authoritative for verdicts, printed values are preserved in the reports
and never silently corrected.

The 3D families share the bracket scheme
[E1,E2] = n3*E3, [E3,E1] = a*E1 + n2*E2, [E2,E3] = n1*E1 - a*E2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Sequence

from . import _linalg
from ._record import Record
from .dersolve import derivation_space, flatten
from .liealg import Matrix, Scalar, StructureConstants, as_scalar
from .periodicity import FlowVerdict, classify_linear_flow
from .spectral import char_poly

F = Fraction
Poly = tuple[Fraction, ...]  # coefficients, lowest degree first


class UnknownEntryError(Exception):
    pass


class ParamOutOfRangeError(Exception):
    pass


# --- symbolic derivation patterns --------------------------------------------


class LinearPattern(Record):
    """Matrix whose cells are linear combinations of named free parameters."""

    rows: tuple[tuple[Mapping[str, Fraction], ...], ...]

    @property
    def params(self) -> tuple[str, ...]:
        return tuple(sorted({p for row in self.rows for cell in row for p in cell}))

    def instantiate(self, assign: Mapping[str, Scalar]) -> Matrix:
        values = {k: as_scalar(v) for k, v in assign.items()}
        return tuple(
            tuple(
                sum((coeff * values[p] for p, coeff in cell.items()), F(0))
                for cell in row
            )
            for row in self.rows
        )

    def basis_matrices(self) -> list[Matrix]:
        params = self.params
        return [
            self.instantiate({q: F(1) if q == p else F(0) for q in params})
            for p in params
        ]

    def render(self) -> str:
        def cell_text(cell: Mapping[str, Fraction]) -> str:
            if not cell:
                return "0"
            parts = []
            for p in sorted(cell):
                c = cell[p]
                if c == 1:
                    term = p
                elif c == -1:
                    term = f"-{p}"
                else:
                    term = f"{c}*{p}"
                parts.append(term)
            text = " + ".join(parts)
            return text.replace("+ -", "- ")

        rows = ["[" + ", ".join(cell_text(c) for c in row) + "]" for row in self.rows]
        return "[" + ", ".join(rows) + "]"


def _pattern(cells: Sequence[Sequence[Mapping[str, int] | Mapping[str, Fraction]]]) -> LinearPattern:
    return LinearPattern(
        rows=tuple(
            tuple({p: F(c) for p, c in cell.items()} for cell in row) for row in cells
        )
    )


# --- entries ------------------------------------------------------------------


class Discrepancy(Record):
    location: str
    published_value: str
    recomputed_value: str


class CatalogEntry(Record):
    name: str
    display_name: str
    structure: StructureConstants
    claimed_pattern: LinearPattern
    claimed_eigenvalue_text: str
    # The printed eigenvalue formula as monic factors of the characteristic
    # polynomial, at an assignment of the pattern's free parameters.
    claimed_factors: Callable[[Mapping[str, Fraction]], list[Poly]]
    published_claim: str
    param: Fraction | None = None
    periodicity_condition: Callable[[Matrix], bool] | None = None
    # Exact derivations on one side of periodicity_condition:
    # side_sampler(t, periodic_side) for t = 0, 1, 2, ...
    side_sampler: Callable[[Fraction, bool], Matrix] | None = None
    representation: tuple[Matrix, ...] | None = None
    known_print_issues: tuple[Discrepancy, ...] = ()
    notes: tuple[str, ...] = ()


class CrossCheckReport(Record):
    name: str
    derivation_space_match: bool
    eigenvalue_formula_match: bool
    discrepancies: tuple[Discrepancy, ...]
    known_print_issues: tuple[Discrepancy, ...] = ()
    notes: tuple[str, ...] = ()

    def flagged_locations(self) -> tuple[str, ...]:
        return tuple(
            d.location for d in self.discrepancies + self.known_print_issues
        )


def _family3(a: Fraction, n1: Fraction, n2: Fraction, n3: Fraction) -> StructureConstants:
    brackets = {
        (0, 1, 2): n3,
        (0, 2, 0): -a,
        (0, 2, 1): -n2,
        (1, 2, 0): n1,
        (1, 2, 1): -a,
    }
    return StructureConstants(3, brackets)


def _root(r: Fraction) -> Poly:
    """lambda - r, the printed eigenvalue r."""
    return (-r, F(1))


def _pair(t: Fraction, d: Fraction) -> Poly:
    """lambda^2 - t*lambda + (t^2 - d)/4, the printed pair (t -+ sqrt(d))/2."""
    return ((t * t - d) / 4, -t, F(1))


def _pm_sqrt(d: Fraction) -> Poly:
    """lambda^2 - d, the printed pair -+sqrt(d)."""
    return (-d, F(0), F(1))


def _e(n: int, i: int, j: int) -> Matrix:
    return tuple(
        tuple(F(1) if (r, c) == (i, j) else F(0) for c in range(n)) for r in range(n)
    )


def _mat(rows) -> Matrix:
    return tuple(tuple(F(v) for v in row) for row in rows)


def _rotation_block(i: int) -> Callable[[Matrix], bool]:
    """Trace 0 and a negative discriminant of the 2x2 block on rows and
    columns i, i + 1: its eigenvalues are a nonzero imaginary pair."""

    def condition(m: Matrix) -> bool:
        a, b, c, d = m[i][i], m[i][i + 1], m[i + 1][i], m[i + 1][i + 1]
        return a + d == 0 and (a - d) ** 2 + 4 * b * c < 0

    return condition


def _build_abelian2(_: Fraction | None) -> CatalogEntry:
    pattern = _pattern([[{"a": 1}, {"b": 1}], [{"c": 1}, {"d": 1}]])

    def factors(v):
        return [_pair(v["a"] + v["d"], (v["a"] - v["d"]) ** 2 + 4 * v["b"] * v["c"])]

    return CatalogEntry(
        name="abelian2",
        display_name="2D abelian",
        structure=StructureConstants(2),
        claimed_pattern=pattern,
        claimed_eigenvalue_text="{((a+d) - sqrt((a-d)^2+4bc))/2, ((a+d) + sqrt((a-d)^2+4bc))/2}",
        claimed_factors=factors,
        published_claim="periodic orbits iff a+d = 0 and (a-d)^2 + 4bc < 0",
        periodicity_condition=_rotation_block(0),
        side_sampler=_abelian2_side,
    )


def _build_aff2(_: Fraction | None) -> CatalogEntry:
    pattern = _pattern([[{}, {}], [{"c": 1}, {"d": 1}]])

    def factors(v):
        return [_root(F(0)), _root(v["d"])]

    return CatalogEntry(
        name="aff2",
        display_name="aff(2)",
        structure=StructureConstants(2, {(0, 1, 1): 1}, ("H", "Z")),
        claimed_pattern=pattern,
        claimed_eigenvalue_text="{0, d}",
        claimed_factors=factors,
        published_claim="no linear flow has periodic orbits",
        representation=(_e(2, 0, 0), _e(2, 0, 1)),
    )


def _abelian3_coefficient(m: Matrix) -> Fraction:
    return (
        m[0][1] * m[1][0]
        - m[0][0] * m[1][1]
        + m[0][2] * m[2][0]
        - m[0][0] * m[2][2]
        + m[1][2] * m[2][1]
        - m[1][1] * m[2][2]
    )


def _det3(m: Matrix) -> Fraction:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _build_abelian3(_: Fraction | None) -> CatalogEntry:
    names = [["x1", "x2", "x3"], ["y1", "y2", "y3"], ["z1", "z2", "z3"]]
    pattern = _pattern([[{names[i][j]: 1} for j in range(3)] for i in range(3)])

    def factors(v):
        # lambda^3 - tr*lambda^2 - A*lambda - det.
        m = pattern.instantiate(v)
        tr = m[0][0] + m[1][1] + m[2][2]
        return [(-_det3(m), -_abelian3_coefficient(m), -tr, F(1))]

    def condition(m: Matrix) -> bool:
        tr = m[0][0] + m[1][1] + m[2][2]
        return tr == 0 and _det3(m) == 0 and _abelian3_coefficient(m) < 0

    n4 = 4
    rep = tuple(_e(n4, i, 3) for i in range(3))
    return CatalogEntry(
        name="abelian3",
        display_name="3g_1 (3D abelian)",
        structure=_family3(F(0), F(0), F(0), F(0)),
        claimed_pattern=pattern,
        claimed_eigenvalue_text="roots of -l^3 + tr(D) l^2 + A l + det(D), "
        "A = x2y1 - x1y2 + x3z1 - x1z3 + y3z2 - y2z3",
        claimed_factors=factors,
        published_claim="periodic orbits iff tr(D) = det(D) = 0 and A < 0",
        periodicity_condition=condition,
        side_sampler=_abelian3_side,
        representation=rep,
        known_print_issues=(
            Discrepancy(
                location="abelian3: family label",
                published_value="labelled as type g_{3,6} in the proposition",
                recomputed_value="the family described is 3g_1 (the abelian one)",
            ),
        ),
        notes=(
            "the displayed unconstrained matrix prints z3 twice in its last "
            "row where z2 is meant; the family is all 3x3 matrices",
            "the proposition restates the linear coefficient as "
            "'x2y1 - y1x2 + ...', whose first two terms cancel; the stored "
            "coefficient uses the consistent earlier printing, which matches "
            "the exact characteristic polynomial",
        ),
    )


# g_{2,1} + g_1 and g^0_{3,4} print one derivation family, whose upper 2x2
# block swaps x1 and x2, and one eigenvalue formula.
_SWAP_PATTERN = _pattern(
    [
        [{"x1": 1}, {"x2": 1}, {"x3": 1}],
        [{"x2": 1}, {"x1": 1}, {"y3": 1}],
        [{}, {}, {}],
    ]
)


def _swap_factors(v):
    return [_root(F(0)), _root(v["x1"] - v["x2"]), _root(v["x1"] + v["x2"])]


def _build_g21_plus_g1(_: Fraction | None) -> CatalogEntry:
    return CatalogEntry(
        name="g21_plus_g1",
        display_name="g_{2,1} + g_1",
        structure=_family3(F(1), F(1), F(-1), F(0)),
        claimed_pattern=_SWAP_PATTERN,
        claimed_eigenvalue_text="{0, x1-x2, x1+x2}",
        claimed_factors=_swap_factors,
        published_claim="no linear flow has periodic orbits",
        notes=(
            "the source sentence calls the group semisimple; it is solvable, "
            "and the same sentence identifies it as Aff(R)_0 x R, which the "
            "entry records",
        ),
    )


def _build_g31(_: Fraction | None) -> CatalogEntry:
    pattern = _pattern(
        [
            [{"y2": 1, "z3": 1}, {"x2": 1}, {"x3": 1}],
            [{}, {"y2": 1}, {"y3": 1}],
            [{}, {"z2": 1}, {"z3": 1}],
        ]
    )

    def factors(v):
        tr = v["y2"] + v["z3"]
        return [_root(tr), _pair(tr, (v["y2"] - v["z3"]) ** 2 + 4 * v["x3"] * v["z2"])]

    rep = (_e(3, 0, 2), _e(3, 0, 1), _e(3, 1, 2))
    return CatalogEntry(
        name="g31_heisenberg",
        display_name="g_{3,1} (Heisenberg)",
        structure=_family3(F(0), F(1), F(0), F(0)),
        claimed_pattern=pattern,
        claimed_eigenvalue_text="{y2+z3, ((y2+z3) -+ sqrt((y2-z3)^2 + 4*x3*z2))/2}",
        claimed_factors=factors,
        published_claim="periodic orbits iff y2+z3 = 0 and the block "
        "discriminant is negative",
        periodicity_condition=_rotation_block(1),
        side_sampler=_g31_side,
        representation=rep,
    )


def _build_g32(_: Fraction | None) -> CatalogEntry:
    pattern = _pattern(
        [
            [{}, {"x2": 1}, {"x3": 1}],
            [{}, {}, {"y3": 1}],
            [{}, {}, {}],
        ]
    )

    def factors(_v):
        return [_root(F(0))] * 3

    return CatalogEntry(
        name="g32",
        display_name="g_{3,2}",
        structure=_family3(F(1), F(1), F(0), F(0)),
        claimed_pattern=pattern,
        claimed_eigenvalue_text="{0, 0, 0}",
        claimed_factors=factors,
        published_claim="no linear flow has periodic orbits",
    )


def _build_g33(_: Fraction | None) -> CatalogEntry:
    pattern = _pattern(
        [
            [{"x1": 1}, {"x2": 1}, {"x3": 1}],
            [{"y1": 1}, {"y2": 1}, {"y3": 1}],
            [{}, {}, {}],
        ]
    )

    def factors(v):
        disc = (v["x2"] - v["y2"]) ** 2 + 4 * v["x2"] * v["y1"]
        return [_root(F(0)), _pair(v["x1"] + v["y2"], disc)]

    return CatalogEntry(
        name="g33",
        display_name="g_{3,3}",
        structure=_family3(F(1), F(0), F(0), F(0)),
        claimed_pattern=pattern,
        claimed_eigenvalue_text="{0, ((x1+y2) -+ sqrt((x2-y2)^2 + 4*x2*y1))/2}",
        claimed_factors=factors,
        published_claim="periodic orbits iff x1+y2 = 0 and the block "
        "discriminant is negative",
        periodicity_condition=_rotation_block(0),
        side_sampler=_g33_side,
    )


def _build_g34_zero(_: Fraction | None) -> CatalogEntry:
    rep = (_e(3, 0, 2), _e(3, 1, 2), _mat([[0, -1, 0], [-1, 0, 0], [0, 0, 0]]))
    return CatalogEntry(
        name="g34_zero",
        display_name="g^0_{3,4} (se(1,1))",
        structure=_family3(F(0), F(1), F(-1), F(0)),
        claimed_pattern=_SWAP_PATTERN,
        claimed_eigenvalue_text="{0, x1-x2, x1+x2}",
        claimed_factors=_swap_factors,
        published_claim="no linear flow has periodic orbits",
        representation=rep,
    )


def _build_g34_a(a: Fraction | None) -> CatalogEntry:
    a = F(2) if a is None else F(a)
    if a <= 0 or a == 1:
        raise ParamOutOfRangeError(
            f"g34_a requires a > 0 and a != 1, got a = {a}"
        )
    pattern = _pattern(
        [
            [{"y2": -1}, {"y2": a}, {"x3": 1}],
            [{"y2": a}, {"y2": 1}, {"y3": 1}],
            [{}, {}, {}],
        ]
    )

    def factors(v):
        return [_root(F(0)), _pm_sqrt((1 + a) * v["y2"] ** 2)]

    return CatalogEntry(
        name="g34_a",
        display_name=f"g^a_{{3,4}} (a = {a})",
        param=a,
        structure=_family3(a, F(1), F(-1), F(0)),
        claimed_pattern=pattern,
        claimed_eigenvalue_text="{0, -sqrt((1+a)*y2^2), sqrt((1+a)*y2^2)}",
        claimed_factors=factors,
        published_claim="no linear flow has periodic orbits",
    )


def _build_g35_a(a: Fraction | None) -> CatalogEntry:
    a = F(2) if a is None else F(a)
    if a <= 0:
        raise ParamOutOfRangeError(f"g35_a requires a > 0, got a = {a}")
    pattern = _pattern(
        [
            [{"y2": 1}, {"y2": -a}, {"x3": 1}],
            [{"y2": a}, {"y2": -a}, {"y3": 1}],
            [{}, {}, {}],
        ]
    )

    def factors(v):
        return [_root(F(0)), _pair((-a - 1) * v["y2"], (1 - 5 * a) * v["y2"] ** 2)]

    return CatalogEntry(
        name="g35_a",
        display_name=f"g^a_{{3,5}} (a = {a})",
        param=a,
        structure=_family3(a, F(1), F(1), F(0)),
        claimed_pattern=pattern,
        claimed_eigenvalue_text="{0, ((-a-1)*y2 -+ sqrt((1-5a)*y2^2))/2}",
        claimed_factors=factors,
        published_claim="no linear flow has periodic orbits",
        notes=(
            "the exact derivation family contains outer rotations "
            "(diagonal x1 pair with skew x2 pair); with x1 = 0 and x2 != 0 "
            "their linear flows are periodic, contradicting the published "
            "no-periodic-orbits claim; restricted to inner derivations "
            "(x1 = -a*x2) the claim holds",
        ),
    )


# -ad(aY + bH + cZ) in the basis Y, H, Z: every derivation of sl(2,R) is inner.
_SL2_PATTERN = _pattern(
    [
        [{"b": 2}, {"a": -2}, {}],
        [{"c": -1}, {}, {"a": 1}],
        [{"b": 4}, {"a": -4, "c": 2}, {"b": -2}],
    ]
)


def _build_sl2(_: Fraction | None) -> CatalogEntry:
    def factors(v):
        q = -v["a"] ** 2 + v["a"] * v["c"] + v["b"] ** 2
        return [_root(F(0)), _pm_sqrt(4 * q)]

    def condition(m: Matrix) -> bool:
        a, b, c = m[1][2], m[0][0] / 2, -m[1][0]
        return a * a > a * c + b * b

    rep = (
        _mat([[0, -1], [1, 0]]),
        _mat([[1, 0], [0, -1]]),
        _mat([[0, 1], [0, 0]]),
    )
    structure = StructureConstants(
        3,
        {(0, 1, 0): 2, (0, 1, 2): 4, (0, 2, 1): -1, (1, 2, 2): 2},
        ("Y", "H", "Z"),
    )
    return CatalogEntry(
        name="sl2",
        display_name="sl(2,R)",
        structure=structure,
        claimed_pattern=_SL2_PATTERN,
        claimed_eigenvalue_text="{0, -2*sqrt(-a^2+ac+b^2), 2*sqrt(-a^2+ac+b^2)}",
        claimed_factors=factors,
        published_claim="orbits of the linear flow of -ad(aY+bH+cZ) that are "
        "not fixed points are periodic iff a^2 > ac + b^2",
        periodicity_condition=condition,
        side_sampler=_sl2_side,
        representation=rep,
        known_print_issues=(
            Discrepancy(
                location="sl2: bracket [Y,H]",
                published_value="[Y,H] = 2YX + 4Z",
                recomputed_value="[Y,H] = 2Y + 4Z (2x2 commutator of the "
                "basis matrices)",
            ),
        ),
    )


_BUILDERS: dict[str, Callable[[Fraction | None], CatalogEntry]] = {
    "abelian2": _build_abelian2,
    "aff2": _build_aff2,
    "abelian3": _build_abelian3,
    "g21_plus_g1": _build_g21_plus_g1,
    "g31_heisenberg": _build_g31,
    "g32": _build_g32,
    "g33": _build_g33,
    "g34_zero": _build_g34_zero,
    "g34_a": _build_g34_a,
    "g35_a": _build_g35_a,
    "sl2": _build_sl2,
}

CATALOG_NAMES = tuple(_BUILDERS)
PARAMETRIC_NAMES = ("g34_a", "g35_a")
SAMPLE_PARAMS = (F(1, 2), F(2), F(3))  # the family parameters a that are checked
SIDE_SAMPLES = 3  # verdict-table samples on each side of a periodicity condition


def get_entry(name: str, a: Scalar | None = None) -> CatalogEntry:
    """Fully populated catalog entry; parametric families need rational a."""
    if name not in _BUILDERS:
        raise UnknownEntryError(
            f"unknown catalog entry {name!r}; known: {', '.join(CATALOG_NAMES)}"
        )
    if a is not None and name not in PARAMETRIC_NAMES:
        raise ParamOutOfRangeError(f"entry {name!r} takes no parameter")
    return _BUILDERS[name](as_scalar(a) if a is not None else None)


# --- cross-checking -----------------------------------------------------------


def _sample_assignments(pattern: LinearPattern) -> list[dict[str, Fraction]]:
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    params = pattern.params
    first = {p: F(primes[i]) for i, p in enumerate(params)}
    second = {
        p: F(primes[i] if i % 2 == 0 else -primes[i]) for i, p in enumerate(params)
    }
    return [first, second]


def _poly_product(factors: Sequence[Poly]) -> Poly:
    out: Poly = (F(1),)
    for f in factors:
        prod = [F(0)] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                prod[i + j] += x * y
        out = tuple(prod)
    return out


def _poly_text(p: Poly) -> str:
    terms = []
    for k in range(len(p) - 1, -1, -1):
        if p[k] == 0:
            continue
        mono = "" if k == 0 else "l" if k == 1 else f"l^{k}"
        mag = abs(p[k])
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        terms.append(("- " if p[k] < 0 else "+ ") + body)
    return " ".join(terms)[2:]  # p is monic: its first term is "+ l^n"


def cross_check(entry: CatalogEntry) -> CrossCheckReport:
    """Exact recomputation of the entry's printed derivation data.

    Checks (1) that the printed derivation family equals the exact nullspace
    of the Leibniz system and (2) that the polynomial whose roots the printed
    eigenvalue formula names equals the exact characteristic polynomial of
    the printed matrix at deterministic sample points. Mismatches are
    reported with both values.
    """
    space = derivation_space(entry.structure)
    discrepancies: list[Discrepancy] = []

    pattern_vecs = [flatten(m) for m in entry.claimed_pattern.basis_matrices()]
    space_vecs = [flatten(b.entries) for b in space.basis]
    # The space's basis is independent: the family lies in it exactly when
    # the joint rank stays at space.dim, and equals it when its own rank
    # reaches space.dim too.
    both = _linalg.rank(space_vecs + pattern_vecs)
    dsm = _linalg.rank(pattern_vecs) == space.dim == both
    if not dsm:
        relation = (
            "a strict subfamily of" if both == space.dim else "not even contained in"
        )
        discrepancies.append(
            Discrepancy(
                location=f"{entry.name}: derivation matrix family",
                published_value=(
                    f"{len(entry.claimed_pattern.params)}-parameter family "
                    f"{entry.claimed_pattern.render()}"
                ),
                recomputed_value=(
                    f"exact Leibniz nullspace has dimension {space.dim}; the "
                    f"printed family is {relation} it"
                ),
            )
        )

    efm = True
    for assign in _sample_assignments(entry.claimed_pattern):
        exact = char_poly(entry.claimed_pattern.instantiate(assign)).coeffs
        claimed = _poly_product(entry.claimed_factors(assign))
        if claimed != exact:
            efm = False
            sample_text = ", ".join(f"{k}={v}" for k, v in sorted(assign.items()))
            discrepancies.append(
                Discrepancy(
                    location=f"{entry.name}: eigenvalue formula",
                    published_value=(
                        f"{entry.claimed_eigenvalue_text} -> roots of "
                        f"{_poly_text(claimed)} at {sample_text}"
                    ),
                    recomputed_value=(
                        f"exact characteristic polynomial of the printed "
                        f"matrix is {_poly_text(exact)} at {sample_text}"
                    ),
                )
            )
            break

    return CrossCheckReport(
        name=entry.name,
        derivation_space_match=dsm,
        eigenvalue_formula_match=efm,
        discrepancies=tuple(discrepancies),
        known_print_issues=entry.known_print_issues,
        notes=entry.notes,
    )


def _sampled_entries() -> list[CatalogEntry]:
    """Every entry once, each parametric family at every SAMPLE_PARAMS value."""
    return [
        get_entry(name, a)
        for name in CATALOG_NAMES
        for a in (SAMPLE_PARAMS if name in PARAMETRIC_NAMES else (None,))
    ]


def cross_check_all() -> list[CrossCheckReport]:
    return [cross_check(entry) for entry in _sampled_entries()]


# --- verdict table ------------------------------------------------------------


class VerdictRow(Record):
    entry: str
    param: Fraction | None
    label: str
    matrix: Matrix
    verdict: FlowVerdict
    published_claim: str
    agrees_with_published: bool


def space_samples(entry: CatalogEntry) -> list[tuple[str, Matrix]]:
    """Deterministic nonzero members of the exact derivation space."""
    basis = [b.entries for b in derivation_space(entry.structure).basis]
    n, k = entry.structure.dim, len(basis)
    combinations = {
        "sum": [F(1)] * k,
        "alternating": [F(1) if t % 2 == 0 else F(-1) for t in range(k)],
        "weighted": [F(t + 1, 2) for t in range(k)],
    }
    samples = [(f"basis[{i}]", b) for i, b in enumerate(basis)]
    for label, coeffs in combinations.items():
        mat = tuple(tuple(sum((x * b[r][c] for x, b in zip(coeffs, basis)), F(0))
                          for c in range(n)) for r in range(n))
        if any(v != 0 for row in mat for v in row):
            samples.append((label, mat))
    return samples


def condition_side_samples(
    entry: CatalogEntry, periodic_side: bool, count: int
) -> list[Matrix]:
    """Exact sample derivations on one side of a periodicity condition."""
    if entry.periodicity_condition is None:
        raise ValueError(f"entry {entry.name} has no periodicity condition")
    out = []
    for i in range(count):
        m = entry.side_sampler(F(i), periodic_side)
        if entry.periodicity_condition(m) != periodic_side:
            raise AssertionError(
                f"sampler for {entry.name} produced a point on the wrong side"
            )
        out.append(m)
    return out


def _abelian2_side(t: Fraction, periodic: bool) -> Matrix:
    if periodic:
        return _mat([[t, t + 1], [-2 * (t + 1), -t]])
    shapes = [
        _mat([[t + 1, 0], [0, -t]]),          # nonzero trace
        _mat([[0, t + 1], [t + 1, 0]]),       # positive discriminant
        _mat([[0, t + 1], [0, 0]]),           # nilpotent boundary
    ]
    return shapes[int(t) % 3]


def _abelian3_side(t: Fraction, periodic: bool) -> Matrix:
    if periodic:
        return _mat([[0, t + 1, t], [-(t + 1), 0, 0], [0, 0, 0]])
    shapes = [
        _mat([[t + 1, 0, 0], [0, 0, 0], [0, 0, 0]]),
        _mat([[0, t + 1, 0], [t + 1, 0, 0], [0, 0, 0]]),
        _mat([[0, t + 2, 0], [-(t + 2), 0, 0], [0, 0, t + 1]]),  # det != 0
    ]
    return shapes[int(t) % 3]


def _g31_side(t: Fraction, periodic: bool) -> Matrix:
    if periodic:
        if int(t) % 2 == 0:
            return _mat([[0, t, 1], [0, 0, t + 1], [0, -(t + 1), 0]])
        return _mat([[0, 0, 0], [0, 1, t + 1], [0, -(t + 2), -1]])
    shapes = [
        _mat([[2 * (t + 1), 0, 0], [0, t + 1, 0], [0, 0, t + 1]]),
        _mat([[0, 0, 0], [0, 0, t + 1], [0, t + 1, 0]]),
        _mat([[0, 0, 1], [0, 0, t + 1], [0, 0, 0]]),
    ]
    return shapes[int(t) % 3]


def _g33_side(t: Fraction, periodic: bool) -> Matrix:
    if periodic:
        return _mat([[t, t + 1, 1], [-(t * t + 1), -t, t], [0, 0, 0]])
    shapes = [
        _mat([[t + 1, 0, 1], [0, 0, 0], [0, 0, 0]]),
        _mat([[0, t + 1, 0], [t + 1, 0, 1], [0, 0, 0]]),
        _mat([[0, t + 1, 0], [0, 0, 1], [0, 0, 0]]),
    ]
    return shapes[int(t) % 3]


def _sl2_side(t: Fraction, periodic: bool) -> Matrix:
    if periodic:
        triples = [(t + 1, 0, 0), (t + 1, t, 0), (t + 2, 0, -(t + 1))]
    else:
        triples = [(0, t + 1, 0), (t, t + 1, 0), (0, 0, t + 1)]
    return _SL2_PATTERN.instantiate(dict(zip("abc", triples[int(t) % 3])))


def verdict_table() -> list[VerdictRow]:
    """Machine-checked verdicts over deterministic catalog samples.

    Families published as never-periodic are sampled across the exact
    derivation space; families with a periodicity condition are sampled on
    both sides of it. Each row records whether the computed verdict agrees
    with the published claim, so genuine contradictions surface as rows with
    agrees_with_published=False rather than being filtered out.
    """
    rows: list[VerdictRow] = []
    for entry in _sampled_entries():
        condition = entry.periodicity_condition
        if condition is None:
            samples = space_samples(entry)
        else:
            samples = [
                (f"{'periodic-side' if side else 'non-periodic-side'}[{i}]", mat)
                for side in (True, False)
                for i, mat in enumerate(condition_side_samples(entry, side, SIDE_SAMPLES))
            ]
        for label, mat in samples:
            verdict = classify_linear_flow(entry.structure, mat)
            if condition is None:
                agrees = verdict.tag == "NoPeriodicOrbits"
            else:
                agrees = (verdict.tag == "PeriodicFlow") == condition(mat)
            rows.append(VerdictRow(entry.name, entry.param, label, mat, verdict,
                                   entry.published_claim, agrees))
    return rows
