"""Derivations of an algebra: the full space, inner ones, membership tests.

A linear map D is a derivation when D[E_i,E_j] = [D E_i, E_j] + [E_i, D E_j]
for every basis pair. The full space is computed as the exact nullspace of
that constraint system, generated generically from the structure constants
(one row per pair per component, n * C(n,2) rows in n^2 unknowns, unknowns
flattened row-major; W. de Graaf, Lie Algebras: Theory and Algorithms,
2000). The work is in integers from the structure constants on: the rows are
sparse integer rows built from the integer bracket table, the elimination is
fraction-free, and one Leibniz sweep checks a whole basis, each matrix scaled
to integers by its own denominators. Column j of every matrix holds the
coordinates of D(E_j).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Sequence

from . import _linalg
from .liealg import (
    Matrix,
    Scalar,
    StructureConstants,
    ad,
    as_scalar,
)


@dataclass(frozen=True)
class DerivationMatrix:
    """The one exact matrix that crosses a module boundary: checked square once,
    when built, then only read. Nothing checks that it is a derivation."""

    entries: Matrix

    def __post_init__(self):
        if any(map(self.dim.__ne__, map(len, self.entries))):
            raise ValueError("matrix must be square")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @cached_property
    def scaled(self) -> tuple[list[list[int]], int]:
        """(dD, d), d the lcm of the denominators: the one integer form of
        the matrix, built on first use and read, never changed, by the
        Leibniz gate, `char_poly`, the semisimplicity test and `spectrum`."""
        return _linalg.scaled(self.entries)


@dataclass(frozen=True)
class DerivationSpace:
    basis: tuple[DerivationMatrix, ...]
    dim: int


def _exact(v) -> Fraction:
    """One entry as a Fraction: a Fraction of Python ints as it is, a real
    that is not rational (float, NumPy float) by `Fraction(float(v))`, exact
    for binary floats (inf and NaN raise ValueError), and anything else (int,
    NumPy integer, 'p/q' string, a Fraction of NumPy integers) by `as_scalar`."""
    if type(v) is Fraction:
        num, den = v.as_integer_ratio()  # one call, not two property reads
        if type(num) is int and type(den) is int:
            return v
    if isinstance(v, numbers.Real) and not isinstance(v, numbers.Rational):
        try:
            return Fraction(float(v))
        except (OverflowError, ValueError):  # Fraction's errors for inf and NaN
            raise ValueError(f"matrix entry {v!r} is not finite") from None
    return as_scalar(v)


def coerce_matrix(mat, dim: int | None = None) -> DerivationMatrix:
    """`mat` itself when it is a DerivationMatrix, else one built from its
    rows (nested sequences or a NumPy array of any dtype), each entry
    converted by the one rule of `_exact`; of size `dim` when given."""
    der = mat if isinstance(mat, DerivationMatrix) else DerivationMatrix(
        tuple([tuple([_exact(v) for v in row]) for row in mat]))
    if dim is not None and der.dim != dim:
        raise ValueError(f"matrix is {der.dim}x{der.dim}, expected {dim}x{dim}")
    return der


def flatten(mat: Matrix) -> list[Fraction]:
    """The entries of a square matrix row-major, the order of the unknowns."""
    return [v for row in mat for v in row]


def _leibniz_sweep(
    sc: StructureConstants, vecs: Sequence[Sequence[Fraction]]
) -> tuple[int, tuple[int, int] | None]:
    """The worst integer Leibniz difference and its pair, from one sweep over
    the basis pairs for the generic member sum_k x_k B_k of the row-major
    matrices `vecs`. The identity is linear in each x_k, so each B_k is scaled
    to integers by the lcm s_k of its own denominators, read off its nonzero
    entries only, and `_sweep` keeps the differences apart by k."""
    n, nk = sc.dim, len(vecs)
    cols: list[list] = [[] for _ in range(n)]
    for k, vec in enumerate(vecs):
        nonzero = [(t, v) for t, v in enumerate(vec) if v]
        # From a list: see the lcm(*[...]) note in StructureConstants.
        s = lcm(*[v.denominator for _, v in nonzero])
        for t, v in nonzero:
            r, c = divmod(t, n)
            cols[c].append((r * nk + k, r, k, v.numerator * (s // v.denominator)))
    return _sweep(sc, cols, nk)


def _sweep(sc: StructureConstants, cols: list[list], nk: int) -> tuple[int, tuple[int, int] | None]:
    """The worst integer Leibniz difference over the basis pairs, and its
    pair, for nk integer matrices B_k given by columns: cols[c] lists
    (r * nk + k, r, k, B_k[r][c]) for each nonzero entry. The differences
    are kept apart by (component, k), each is den times one of B_k's, and
    all are 0 exactly when every B_k is a derivation."""
    n, table = sc.dim, sc._table
    worst, worst_pair = 0, None
    for i in range(n):
        for j in range(i + 1, n):
            # D[E_i,E_j] - [D E_i, E_j] - [E_i, D E_j], sparse in both factors
            diff: dict[int, int] = {}
            for m, c in table.get((i, j), ()):
                for key, _, _, v in cols[m]:
                    diff[key] = diff.get(key, 0) + c * v
            for _, a, k, v in cols[i]:
                for r, c in table.get((a, j), ()):
                    key = r * nk + k
                    diff[key] = diff.get(key, 0) - v * c
            for _, b, k, v in cols[j]:
                for r, c in table.get((i, b), ()):
                    key = r * nk + k
                    diff[key] = diff.get(key, 0) - v * c
            res = max(map(abs, diff.values()), default=0)
            if res > worst:
                worst, worst_pair = res, (i, j)
    return worst, worst_pair


class NotADerivationError(Exception):
    def __init__(self, residual, worst_pair):
        self.residual = residual
        self.worst_pair = worst_pair
        super().__init__(
            f"matrix violates the Leibniz identity (residual {residual}, "
            f"worst basis pair {worst_pair})"
        )


def leibniz_residual(
    sc: StructureConstants, mat
) -> tuple[Fraction, tuple[int, int] | None]:
    """Max-norm Leibniz violation over basis pairs, with the offending pair:
    the sweep of one matrix. Every matrix of the right size is a derivation of
    a bracket-free algebra. The sweep reads the matrix's one integer form."""
    der = coerce_matrix(mat, sc.dim)
    if not sc._table:
        return Fraction(0), None
    b, s = der.scaled
    cols: list[list] = [[] for _ in b]
    for r, row in enumerate(b):
        for c, v in enumerate(row):
            if v:
                cols[c].append((r, r, 0, v))
    worst, worst_pair = _sweep(sc, cols, 1)
    return Fraction(worst, sc.den * s), worst_pair


def derivation(sc: StructureConstants, mat) -> DerivationMatrix:
    """`mat` as a derivation of `sc`, from one coercion that checks its size;
    raises NotADerivationError when its Leibniz residual is not 0."""
    der = coerce_matrix(mat, sc.dim)
    residual, worst = leibniz_residual(sc, der)
    if residual != 0:
        raise NotADerivationError(residual, worst)
    return der


def inner_derivation(sc: StructureConstants, x: Sequence[Scalar]) -> DerivationMatrix:
    """-ad(x), a derivation by the Jacobi identity, so Leibniz is not checked."""
    return DerivationMatrix(entries=tuple(tuple(-v for v in row) for row in ad(sc, x)))


def constraint_rows(sc: StructureConstants) -> list[dict[int, int]]:
    """Leibniz constraint rows over the n^2 unknowns D[r][c] (row-major), as
    sparse integer rows {column: value} with no zero values.

    For the pair (i, j) and output component k the row encodes
    den * ((D [E_i,E_j])_k - [D E_i, E_j]_k - [E_i, D E_j]_k) = 0, from the
    integer bracket table. A component with no constraint is an empty row.
    """
    n = sc.dim
    table = sc._table
    rows: list[dict[int, int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            block: list[dict[int, int]] = [{} for _ in range(n)]
            # D applied to [E_i, E_j]: unknowns D[k][m]
            for m, c in table.get((i, j), ()):
                for k in range(n):
                    block[k][k * n + m] = block[k].get(k * n + m, 0) + c
            for m in range(n):
                # -[D E_i, E_j]: D E_i has coordinates D[m][i]
                for k, c in table.get((m, j), ()):
                    block[k][m * n + i] = block[k].get(m * n + i, 0) - c
                # -[E_i, D E_j]
                for k, c in table.get((i, m), ()):
                    block[k][m * n + j] = block[k].get(m * n + j, 0) - c
            rows.extend({col: v for col, v in row.items() if v} for row in block)
    return rows


def derivation_space(sc: StructureConstants) -> DerivationSpace:
    """Exact basis of the derivation algebra, deterministically reduced.

    Basis vectors correspond to the free unknowns of the RREF'd constraint
    system in ascending row-major order, each normalized to 1 in its free
    slot; dim = n^2 - rank(constraints). One Leibniz sweep checks the basis.
    """
    n = sc.dim
    vecs = _linalg.nullspace(constraint_rows(sc), n * n)
    if _leibniz_sweep(sc, vecs)[0]:
        raise AssertionError("nullspace member violates Leibniz; solver bug")
    # From lists: see the lcm(*[...]) note in StructureConstants.
    basis = tuple([DerivationMatrix(tuple([vec[r * n : r * n + n] for r in range(n)]))
                   for vec in vecs])
    return DerivationSpace(basis=basis, dim=len(basis))

