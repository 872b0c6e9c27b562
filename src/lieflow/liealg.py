"""Real Lie algebras presented by exact rational structure constants.

An algebra of dimension n is given by the strict-lower-triangle tensor
c[i][j][k] (0-based, i < j) with [E_i, E_j] = sum_k c_{ij}^k E_k; antisymmetry
is a representation invariant, never data. The constants are kept once, as
integers: a table of den * c_{ij}^k over ordered pairs, den their least
common denominator, so the kernels here and in dersolve divide by den once;
`entries` reads them back. Vectors are plain tuples of scalars in the fixed
basis. All arithmetic in this module is exact.
"""

from __future__ import annotations

import json
import numbers
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from . import _linalg
from ._record import Record

Scalar = Union[Fraction, int, str]
Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]


def as_scalar(value: Scalar) -> Fraction:
    """Coerce ints, Fractions, 'p/q' strings and any other exact rational (a
    NumPy integer, say) to an exact Fraction; bools, floats and decimal
    strings are refused. Only a Fraction of Python ints is returned as it is:
    one of NumPy integers is rebuilt, as its parts would overflow."""
    if type(value) is Fraction:
        num, den = value.as_integer_ratio()  # one call, not two property reads
        if type(num) is int and type(den) is int:
            return value
    if isinstance(value, bool):
        raise ValueError(f"cannot interpret {value!r} as an exact scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if "." in text or "e" in text.lower():
            raise ValueError(f"decimal scalar {value!r} not accepted; use p/q")
        try:
            return Fraction(text)
        except ZeroDivisionError as exc:
            raise ValueError(f"scalar {value!r} has a zero denominator") from exc
    if isinstance(value, numbers.Rational):
        return Fraction(int(value.numerator), int(value.denominator))
    if isinstance(value, numbers.Real):  # float, np.float32, ...
        raise ValueError(f"decimal scalar {value!r} not accepted; use p/q")
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


def as_vector(coords: Iterable[Scalar], dim: int | None = None) -> Vector:
    vec = tuple(as_scalar(c) for c in coords)
    if dim is not None and len(vec) != dim:
        raise ValueError(f"vector has length {len(vec)}, expected {dim}")
    return vec


class StructureConstants:
    """Immutable structure-constant table for a finite-dimensional algebra."""

    def __init__(
        self,
        dim: int,
        brackets: Mapping[tuple[int, int, int], Scalar] | None = None,
        basis_labels: Sequence[str] | None = None,
    ):
        """`brackets` maps 0-based (i, j, k) with i < j to c_{ij}^k."""
        if dim < 1:
            raise ValueError("dimension must be a positive integer")
        self.dim = dim
        if basis_labels is None:
            basis_labels = tuple(f"E{i + 1}" for i in range(dim))
        if len(basis_labels) != dim:
            raise ValueError("need one basis label per dimension")
        self.basis_labels = tuple(basis_labels)
        entries: dict[tuple[int, int, int], Fraction] = {}
        for (i, j, k), c in (brackets or {}).items():
            if not (0 <= i < j < dim and 0 <= k < dim):
                raise ValueError(f"bad structure index ({i},{j},{k}) for dim {dim}")
            value = as_scalar(c)
            if value != 0:
                entries[(i, j, k)] = value
        # The constants' only copy, a sparse integer table over ordered pairs:
        # (i, j) -> ((k, den * c_ij^k), ...) for every i != j with [E_i, E_j]
        # != 0, antisymmetry spelled out. The object is immutable.
        keys = sorted(entries)
        (ints,), self.den = _linalg.scaled([[entries[key] for key in keys]])
        table: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        for (i, j, k), v in zip(keys, ints):
            table[(i, j)] = table.get((i, j), ()) + ((k, v),)
            table[(j, i)] = table.get((j, i), ()) + ((k, -v),)
        self._table = table

    @property
    def entries(self) -> dict[tuple[int, int, int], Fraction]:
        """The nonzero c_ij^k (i < j), read back off the integer table."""
        return {(i, j, k): Fraction(v, self.den)
                for (i, j), row in self._table.items() if i < j for k, v in row}

    def __repr__(self) -> str:
        return f"StructureConstants(dim={self.dim}, basis={list(self.basis_labels)})"


class ValidationReport(Record):
    jacobi_ok: bool
    worst_triple: tuple[int, int, int] | None
    residual: Fraction


def _nonzero(vec: Sequence[Fraction]) -> list[tuple[int, Fraction]]:
    return [(i, v) for i, v in enumerate(vec) if v]


def ad(sc: StructureConstants, x: Sequence[Scalar]) -> Matrix:
    """Matrix of ad(x) = [x, .]; column j holds the coordinates of [x, E_j]."""
    xv = as_vector(x, sc.dim)
    table = sc._table
    out = [[Fraction(0)] * sc.dim for _ in range(sc.dim)]
    for i, a in _nonzero(xv):
        for j in range(sc.dim):
            for k, c in table.get((i, j), ()):
                out[k][j] += a * c
    return tuple(tuple([v / sc.den for v in row]) for row in out)


def validate_algebra(sc: StructureConstants) -> ValidationReport:
    """Exact Jacobi check over all basis triples.

    A failing algebra yields a report (jacobi_ok=False, worst offending triple
    by max-norm residual), never an exception. The cyclic sums run on the
    integer table, so each is den^2 times the rational one and the residual
    is the worst integer sum over den^2.
    """
    table = sc._table
    worst: tuple[int, int, int] | None = None
    worst_res = 0
    for i in range(sc.dim):
        for j in range(i + 1, sc.dim):
            for k in range(j + 1, sc.dim):
                # [E_i,[E_j,E_k]] + [E_j,[E_k,E_i]] + [E_k,[E_i,E_j]]
                total: dict[int, int] = {}
                for a, bc in ((i, (j, k)), (j, (k, i)), (k, (i, j))):
                    for m, c in table.get(bc, ()):
                        for t, d in table.get((a, m), ()):
                            total[t] = total.get(t, 0) + c * d
                res = max((abs(v) for v in total.values()), default=0)
                if res > worst_res:
                    worst_res = res
                    worst = (i, j, k)
    residual = Fraction(worst_res, sc.den * sc.den)
    return ValidationReport(jacobi_ok=worst_res == 0, worst_triple=worst, residual=residual)


# --- algebra file format -----------------------------------------------------
#
# { "dim": n, "basis": ["E1", ...],
#   "brackets": [ {"i": 1, "j": 2, "k": 3, "c": "1"}, ... ] }
#
# "dim" and the 1-based indices are integers (or integer text), "dim" at most
# MAX_DIM; "basis", when given, is a list of dim strings; entries with i >= j
# are rejected; "c" must be an integer or "p/q" string. Unlisted pairs bracket
# to zero.

MAX_DIM = 32  # the Jacobi check alone visits dim^3/6 basis triples


def algebra_to_dict(sc: StructureConstants) -> dict:
    brackets = [
        {"i": i + 1, "j": j + 1, "k": k + 1, "c": str(c)}
        for (i, j, k), c in sorted(sc.entries.items())
    ]
    return {"dim": sc.dim, "basis": list(sc.basis_labels), "brackets": brackets}


def _integer(data: Mapping, name: str) -> int:
    """data[name] as an int, never truncated: no bool or fractional number."""
    value = data[name]
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"algebra file needs an integer {name!r}") from None


def algebra_from_dict(data: Mapping) -> StructureConstants:
    try:
        dim = _integer(data, "dim")
    except (KeyError, TypeError) as exc:
        raise ValueError("algebra file needs an integer 'dim'") from exc
    if dim > MAX_DIM:
        raise ValueError(f"algebra file 'dim' is {dim}; at most {MAX_DIM} is supported")
    basis = data.get("basis")
    if basis is not None and not (
        isinstance(basis, list) and len(basis) == dim and all(isinstance(b, str) for b in basis)
    ):
        raise ValueError(f"'basis' must be a list of {dim} strings")
    entries: dict[tuple[int, int, int], Fraction] = {}
    brackets = data.get("brackets", [])
    if not isinstance(brackets, list):
        raise ValueError("'brackets' must be a list of bracket entries")
    for item in brackets:
        if not isinstance(item, Mapping):
            raise ValueError(f"bracket entry {item!r} is not an object")
        i, j, k = (_integer(item, name) for name in "ijk")
        if i >= j:
            raise ValueError(
                f"bracket entry (i={i}, j={j}) violates the strict i < j convention"
            )
        if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
            raise ValueError(f"bracket entry ({i},{j},{k}) out of range for dim {dim}")
        key = (i - 1, j - 1, k - 1)
        if key in entries:
            raise ValueError(f"duplicate bracket entry for (i={i}, j={j}, k={k})")
        entries[key] = as_scalar(item["c"])
    return StructureConstants(dim, entries, basis)


def load_algebra(path: str) -> StructureConstants:
    with open(path, "r", encoding="utf-8") as fh:
        return algebra_from_dict(json.load(fh))

