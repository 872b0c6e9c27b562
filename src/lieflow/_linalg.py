"""Exact rational linear algebra: RREF, rank, nullspace.

Nothing here touches floating point. `rref` and `rank` take dense rows of
`fractions.Fraction` (or int), scaled to integers by one rule, `scaled`;
`nullspace` takes sparse integer rows {col: int}. All run one fraction-free
elimination on sparse primitive integer rows, `_reduce`, and build Fractions
only for the output. Every span question is a rank: a vector lies in the
span of independent rows exactly when adding it keeps their rank.
Matrices are lists of row lists; vectors are sequences.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

Row = list[Fraction]


def scaled(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """The integer rows dA and d, the lcm of the denominators of A's entries
    (Fractions or Python ints), each entry's parts read by one
    `as_integer_ratio()` call."""
    parts = [[v.as_integer_ratio() for v in row] for row in rows]
    d = lcm(*{q for row in parts for _, q in row})
    return [[p * (d // q) for p, q in row] for row in parts], d


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide a sparse integer row by the gcd of its entries, in place."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    for k in row:
        row[k] //= g
    return row


def _eliminate(row: dict[int, int], pivot: dict[int, int], c: int) -> dict[int, int]:
    """Primitive integer combination of `row` and `pivot` that is 0 in column c."""
    g = gcd(pivot[c], row[c])
    a, b = pivot[c] // g, row[c] // g
    out = {k: a * v for k, v in row.items()}
    for k, v in pivot.items():
        w = out.get(k, 0) - b * v
        if w:
            out[k] = w
        else:
            del out[k]
    return _primitive(out)


def _reduce(pending: list[dict[int, int]], ncols: int) -> list[tuple[int, dict[int, int]]]:
    """Fully reduced primitive integer pivot rows of the nonzero sparse rows
    in `pending`, as (pivot column, row) in ascending pivot order.

    Elimination is fraction-free: each row is a dict of nonzero integer
    entries kept primitive (gcd 1), so the work tracks the nonzeros and no
    rational arithmetic happens. Columns are eliminated left to right, taking
    as pivot the sparsest remaining row with a nonzero in the column, then
    earlier pivot rows are cleared from the right. Each returned row is zero
    in every other pivot column, so dividing it by its pivot entry gives the
    row of the RREF, which is unique: the pivot choice does not change it.
    """
    done: list[tuple[int, dict[int, int]]] = []
    for c in range(ncols):
        if not pending:
            break
        pivot = min((r for r in pending if c in r), key=len, default=None)
        if pivot is None:
            continue
        rest = []
        for r in pending:
            if r is pivot:
                continue
            if c in r:
                r = _eliminate(r, pivot, c)
            if r:
                rest.append(r)
        pending = rest
        done.append((c, pivot))
    for t in range(len(done) - 1, 0, -1):
        c, pivot = done[t]
        for s in range(t):
            col, r = done[s]
            if c in r:
                done[s] = (col, _eliminate(r, pivot, c))
    return done


def _reduce_dense(dense: list[Sequence[Fraction]]) -> list[tuple[int, dict[int, int]]]:
    """`_reduce` on dense rows of Fractions or ints, scaled to integers by one
    common factor and each made a primitive sparse row; no Fraction is built."""
    ints, _ = scaled(dense)
    pending = [_primitive({c: v for c, v in enumerate(r) if v}) for r in ints]
    return _reduce([r for r in pending if r], len(dense[0]) if dense else 0)


def rref(rows: Iterable[Sequence[Fraction]]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form with pivots normalized to 1.

    Returns (reduced rows, pivot column indices). The reduced rows come
    first, in pivot order, then one zero row for each input row that
    reduced to zero, so the output has as many rows as the input.
    """
    dense = [list(r) for r in rows]
    if not dense:
        return [], []
    ncols = len(dense[0])
    done = _reduce_dense(dense)
    zero = Fraction(0)
    reduced = []
    for c, r in done:
        row = [zero] * ncols
        for k, v in r.items():
            row[k] = Fraction(v, r[c])
        reduced.append(row)
    reduced += [[zero] * ncols for _ in range(len(dense) - len(done))]
    return reduced, [c for c, _ in done]


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    """The number of pivots `_reduce` finds; no RREF is built."""
    return len(_reduce_dense(list(rows)))


def nullspace(rows: Iterable[Mapping[int, int]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of {x : A x = 0} for A given as sparse integer rows {col: int},
    one vector per free column, ascending.

    Each basis vector has 1 in its free coordinate, so the assembled basis
    matrix is column-reduced and the output is deterministic. Only the
    nonzero entries become Fractions, read off the integer pivot rows.
    """
    done = _reduce([_primitive(dict(r)) for r in rows if r], ncols)
    pivots = {c for c, _ in done}
    zero, one = Fraction(0), Fraction(1)
    basis = {f: [zero] * ncols for f in range(ncols) if f not in pivots}
    for f, vec in basis.items():
        vec[f] = one
    for c, r in done:
        p = r[c]
        for k, v in r.items():
            if k != c:
                basis[k][c] = Fraction(-v, p)
    return [tuple(vec) for vec in basis.values()]


def spans_equal(
    a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]
) -> bool:
    """Whether two lists of vectors span the same subspace (exact)."""
    ra = rank(a)
    if ra != rank(b):
        return False
    return rank(list(a) + list(b)) == ra

