"""Characteristic polynomials and per-eigenvalue semisimplicity analysis.

Two-tier arithmetic: the characteristic polynomial is always exact
(Berkowitz's recursion in integers; float entries are converted losslessly).
Yun's square-free decomposition splits it into coprime factors s_k^k, so
algebraic multiplicities are exact and each factor has simple roots. One
exact rule gives every geometric multiplicity: for k > 1, D restricted to
ker s(D) is semisimple, and the Yun decomposition of its characteristic
polynomial splits s into pieces whose roots share one geometric
multiplicity. Roots of a piece are extracted exactly wherever the
factorization stays rational or quadratic (every rational root, by Sturm
bisection over rational-root lattice indices, halved by the sign of the
polynomial alone once an interval holds one root; irreducible quadratic
factors; the pairs +-sqrt(mu) over the rational roots mu of the square map
h(mu), whose roots are the squares lambda^2 of a piece's roots, for every
piece) and numerically otherwise.
Only numeric roots of one piece closer than CLUSTER_GUARD merge into one
class, whose geometric multiplicity an SVD rank at RANK_TOL decides; such a
merged cluster is the one kind of ill-conditioning spectrum() flags, and
spectrum() serves display only: flow verdicts and the catalog cross-check
read only the exact characteristic polynomial, the verdicts through one
Sturm sequence of the square map.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from . import _linalg
from .dersolve import as_derivation_matrix, coerce_matrix
from .liealg import Matrix

# Numeric roots only (pieces with no rational or quadratic split): roots
# closer than CLUSTER_GUARD times max(1, largest |root|) merge into one class,
# whose SVD rank counts singular values above RANK_TOL times the largest.
CLUSTER_GUARD = 1e-6
RANK_TOL = 1e-9


@dataclass(frozen=True)
class CharPoly:
    """Characteristic polynomial in primitive integer form: ints[k] multiplies
    lambda^k and the leading coefficient is positive. coeffs[k] is the
    coefficient of the monic polynomial over Q."""

    ints: tuple[int, ...]

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(c, self.ints[-1]) for c in self.ints])


@dataclass(frozen=True)
class EigenClass:
    """One eigenvalue with multiplicities; conjugates appear as two classes.

    exact_re / exact_im_sq, when present, certify the value as
    exact_re + i*sign(Im value)*sqrt(exact_im_sq) with both parts rational.
    """

    value: complex
    alg_mult: int
    geom_mult: int
    exact_re: Fraction | None = None
    exact_im_sq: Fraction | None = None

    @property
    def semisimple(self) -> bool:
        return self.geom_mult == self.alg_mult

    @property
    def exact(self) -> bool:
        return self.exact_re is not None and self.exact_im_sq is not None


@dataclass(frozen=True)
class Spectrum:
    classes: tuple[EigenClass, ...]
    dim: int
    ill_conditioned: bool = False
    notes: tuple[str, ...] = field(default_factory=tuple)


def char_poly(mat) -> CharPoly:
    """Exact characteristic polynomial by Berkowitz's division-free recursion
    (S. J. Berkowitz, Inf. Process. Lett. 18(3), 1984) on the integer matrix
    B = dD, d the lcm of D's denominators. With B_r the leading r x r block,
    a, R and S the diagonal entry, row and column that extend it,
    det(xI - B_{r+1}) is det(xI - B_r) times the lower-triangular Toeplitz
    matrix with first column (1, -a, -RS, -RB_rS, ..., -RB_r^(r-1)S). Since
    det(xI - B) = d^n p(x/d), the integer polynomial d^n p has coefficients
    b_k d^k, b_k those of det(xI - B). B is the matrix's one integer form,
    `DerivationMatrix.scaled`."""
    b, d = as_derivation_matrix(mat).scaled
    n = len(b)
    p = [1]  # det(xI - B_r), highest degree first
    for r in range(n):
        block = [b[i][:r] for i in range(r)]
        row, col = b[r][:r], [b[i][r] for i in range(r)]
        toeplitz = [1, -b[r][r]]
        for _ in range(r):
            toeplitz.append(-sum(map(operator.mul, row, col)))
            col = [sum(map(operator.mul, brow, col)) for brow in block]
        p = [sum(map(operator.mul, toeplitz[i::-1], p)) for i in range(r + 2)]
    return CharPoly(ints=tuple(_primitive([c * d**k for k, c in enumerate(reversed(p))])))


def _horner(f: list[int], m: Matrix) -> tuple[list[list[int]], int]:
    """d^N f(M) as an integer matrix, and d^N, for an integer polynomial f of
    degree N (lowest degree first), d the lcm of M's denominators: `_poly_at`
    on B = dM."""
    return _poly_at(f, *_linalg.scaled(m))


def _poly_at(f: list[int], b: list[list[int]], d: int) -> tuple[list[list[int]], int]:
    """d^N f(B/d) and d^N for the integer matrix B: Horner with f_j d^(N-j)
    added on the diagonal, since d^N f(B/d) = sum_j f_j d^(N-j) B^j. The
    first step, f_N I times B, is f_N B and takes no product."""
    n, dp = len(b), 1
    acc = [[f[-1] if i == j else 0 for j in range(n)] for i in range(n)]
    for k, c in enumerate(reversed(f[:-1])):
        dp *= d
        acc = _matmul(acc, b) if k else [[f[-1] * v for v in row] for row in b]
        for i in range(n):
            acc[i][i] += c * dp
    return acc, dp


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


# --- exact polynomial algebra ------------------------------------------------
# Polynomials are lists of integer coefficients, lowest degree first, without
# trailing zeros ([] is the zero polynomial). Over Q they stand for their
# rational multiples, so a primitive integer form is the exact Q-polynomial up
# to a unit, and all arithmetic stays in integers.


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _primitive(p: list[int]) -> list[int]:
    """p over its (positive) content, trimmed; signs are kept."""
    _trim(p)
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _deriv(p: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(p)][1:]


def _rem(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of the remainder of a by b, made primitive; the
    sign is kept for Sturm sequences."""
    r, lead, sign = list(a), abs(b[-1]), 1 if b[-1] > 0 else -1
    for i in range(len(a) - 1, len(b) - 2, -1):
        t = r.pop() * sign  # r <- |lc(b)| r - sign(lc(b)) r_i x^(i-deg b) b
        r = [lead * c for c in r]
        for j, c in enumerate(b[:-1]):
            r[i - len(b) + 1 + j] -= t * c
    return _primitive(r)


def _quo(a: list[int], b: list[int]) -> list[int]:
    """a / b for b dividing a; the quotient of integer polynomials by a
    primitive divisor has integer coefficients (Gauss's lemma)."""
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        q[i] = r[i + len(b) - 1] // b[-1]
        for j, c in enumerate(b):
            r[i + j] -= q[i] * c
    return q


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive greatest common divisor with a positive leading coefficient."""
    while b:
        a, b = b, _rem(a, b)
    return _primitive([-c for c in a] if a[-1] < 0 else list(a))


def _square_free(p: list[int]) -> list[tuple[list[int], int]]:
    """Yun's square-free decomposition p = prod s_k^k, up to a constant.

    Returns the nonconstant s_k with their k; they are square-free and
    pairwise coprime (D. Y. Y. Yun, SYMSAC '76).
    """
    dp = _deriv(p)
    g = _gcd(p, dp)
    b, c = _quo(p, g), _quo(dp, g)
    factors = []
    k = 1
    while len(b) > 1:
        db = _deriv(b)
        d = _trim([(c[i] if i < len(c) else 0) - (db[i] if i < len(db) else 0)
                   for i in range(max(len(c), len(db)))])
        s = _gcd(b, d)
        if len(s) > 1:
            factors.append((s, k))
        b, c = _quo(b, s), _quo(d, s)
        k += 1
    return factors


def _squares(s: list[int]) -> list[int]:
    """The primitive square-free h(mu) whose roots are the squares of the roots
    of s, for any s (square-free or not): h = H / gcd(H, H'), H(lambda^2)
    being s(lambda) itself when s is even and s(lambda)s(-lambda) otherwise,
    by Dandelin-Graeffe root squaring (V. Pan, SIAM Review 39(2), 1997).
    One gcd, and the sign of h is H's."""
    if any(s[1::2]):
        prod = [0] * (2 * len(s) - 1)
        for i, a in enumerate(s):
            for j, b in enumerate(s):
                prod[i + j] += -a * b if j % 2 else a * b
        s = prod
    big = s[0::2]
    return _primitive(_quo(big, _gcd(big, _deriv(big))))


def _sign(c: int) -> int:
    return (c > 0) - (c < 0)


def _sign_at(ints: list[int], u: int, v: int) -> int:
    """Sign of an integer polynomial at u/v, v > 0, in integer arithmetic."""
    acc, vp = ints[-1], 1
    for c in reversed(ints[:-1]):
        vp *= v
        acc = acc * u + c * vp  # v^deg * p(u/v), which has the sign of p(u/v)
    return _sign(acc)


def _sturm(s: list[int]) -> list[list[int]]:
    """Sturm sequence of the square-free polynomial s."""
    seq = [s, _primitive(_deriv(s))]
    while len(seq[-1]) > 1:
        seq.append([-c for c in _rem(seq[-2], seq[-1])])
    return seq


def _variations(signs) -> int:
    """Sign changes in a sequence of signs, zeros skipped."""
    count, prev = 0, 0
    for sign in signs:
        if sign:
            count += prev == -sign
            prev = sign
    return count


def _infinity_variations(seq: list[list[int]]) -> tuple[int, int]:
    """Sign variations of a Sturm sequence at -oo and at +oo, read off the
    leading coefficients alone."""
    lead = [_sign(q[-1]) for q in seq]
    return _variations([v if len(q) % 2 else -v for v, q in zip(lead, seq)]), _variations(lead)


def _rational_roots(s: list[int], seq: list[list[int]] | None = None) -> list[Fraction]:
    """Every rational root of the primitive square-free polynomial s, ascending;
    seq is s's Sturm sequence, when the caller has built it already.

    By the rational root theorem they lie on the lattice (1/a)Z, a = |lc(s)|.
    The lattice indices k of the points k/a in (-aB, aB], B the Cauchy bound,
    are bisected at (lo + hi) // 2, all in integers. The Sturm variations
    change only at roots of s, so at -aB and aB they are those at -oo and +oo,
    and an interval (lo, hi] holding two or more roots is split by the Sturm
    counts. An interval holding exactly one root is halved by the sign of s
    alone: s changes sign once in it, so just right of lo it has the sign
    opposite to s(hi) (Basu, Pollack & Roy, Algorithms in Real Algebraic
    Geometry, 2nd ed., 2006, ch. 10). The root is rational exactly when s
    vanishes at a lattice point of its interval, and only a root found becomes
    a Fraction.
    """
    if seq is None:
        seq = _sturm(s)
    a = abs(s[-1])
    bound = a * (1 - (-max(abs(c) for c in s[:-1]) // a))
    roots = []
    stack = [(-bound, bound, *_infinity_variations(seq))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo - vhi > 1 and hi - lo > 1:
            mid = (lo + hi) // 2
            vmid = _variations([_sign_at(q, mid, a) for q in seq])
            stack += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
        elif vlo > vhi:
            shi = _sign_at(s, hi, a)
            while shi and hi - lo > 1:  # one root r, lo < r < hi
                mid = (lo + hi) // 2
                smid = _sign_at(s, mid, a)
                if smid == shi:
                    hi = mid
                elif smid:
                    lo = mid
                else:
                    hi, shi = mid, 0
            if not shi:
                roots.append(Fraction(hi, a))
    return sorted(roots)


def _is_rational_square(x: Fraction) -> Fraction | None:
    """sqrt(x) as a Fraction when x is a perfect rational square, else None."""
    if x < 0:
        return None
    ns = math.isqrt(x.numerator)
    ds = math.isqrt(x.denominator)
    if ns * ns == x.numerator and ds * ds == x.denominator:
        return Fraction(ns, ds)
    return None


def _sqrt(x: Fraction) -> float:
    """sqrt(x) for a rational x > 0, correctly rounded, or math.inf beyond the
    float range. q = isqrt(floor(x * 4^k)) has 56 or more bits, and its last
    bit is set when the root is inexact (round to odd), so the one rounding,
    in the correctly rounded int division q / 2^k, lands where sqrt(x) would;
    float(x) would round first, and underflow or overflow at extreme x."""
    n, d = x.numerator, x.denominator
    k = max(0, (d.bit_length() - n.bit_length() + 112) // 2)
    q = math.isqrt((n << 2 * k) // d)
    q |= q * q * d != n << 2 * k
    try:
        return q / (1 << k)
    except OverflowError:
        return math.inf


# --- public spectrum ---------------------------------------------------------


def _geometric_pieces(s: list[int], k: int, mq: Matrix) -> list[tuple[list[int], int]]:
    """The Yun factor s of multiplicity k split into pieces (t, geom) by the
    exact geometric multiplicity geom of the roots of t. s is square-free, so
    R = D|K on K = ker s(D) is semisimple, and its char_poly is
    prod (x - lambda)^geom(lambda) over the roots of s: its Yun decomposition
    is the split. Each nullspace basis vector v_i is 1 in its free column f_i,
    its last nonzero, where the others are 0, so R[i][j] is (D v_j)[f_i]."""
    if k == 1:
        return [(s, 1)]
    rows = [{c: v for c, v in enumerate(row) if v} for row in _horner(s, mq)[0]]
    nonzeros = [[(c, v) for c, v in enumerate(vec) if v]
                for vec in _linalg.nullspace(rows, len(mq))]
    r = [[sum(mq[nz[-1][0]][c] * v for c, v in vec) for vec in nonzeros] for nz in nonzeros]
    return _square_free(char_poly(r).ints)


def _pair_classes(f: list[int], k: int, geom: int) -> list[EigenClass]:
    """The two roots of the integer quadratic f, irreducible over Q, as a
    factor of multiplicity k whose roots have geometric multiplicity geom."""
    b, c = Fraction(f[1], f[2]), Fraction(f[0], f[2])
    re, disc = -b / 2, b * b - 4 * c
    if disc < 0:
        im = _sqrt(-disc / 4)
        return [EigenClass(complex(float(re), s * im), k, geom, re, -disc / 4)
                for s in (+1, -1)]
    sq = _sqrt(disc)
    return [EigenClass(complex(float(re) + s * sq / 2), k, geom, None, Fraction(0))
            for s in (+1, -1)]


def _numeric_rank(a: np.ndarray) -> int:
    import numpy as np

    sv = np.linalg.svd(a, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int(np.sum(sv > RANK_TOL * sv[0]))


def _numeric_classes(
    s: list[int], k: int, geom: int, mq: Matrix
) -> tuple[list[EigenClass], list[str]]:
    """Classes of the roots of the square-free piece s (multiplicity k, every
    root of geometric multiplicity geom) that no exact path resolved, with a
    note per merged cluster.

    np.roots runs LAPACK's xGEEV on the real companion matrix, which returns
    complex roots in exact conjugate pairs, so only the real axis (clustered by
    real part) and the upper half-plane are clustered; an upper cluster stands
    for itself and its mirror image. Roots closer than the guard merge into one
    class of pessimistic multiplicity, whose geometric multiplicity SVD ranks
    decide; a single root keeps the exact geom.
    """
    import numpy as np

    n = len(mq)
    roots = np.roots([float(Fraction(c, s[-1])) for c in reversed(s)]).astype(complex)
    guard = CLUSTER_GUARD * max(1.0, float(np.max(np.abs(roots))))
    clusters: list[list[complex]] = []
    for r in sorted(roots, key=lambda z: (z.real, -z.imag)):
        if r.imag < -guard:
            continue
        if r.imag <= guard:
            r = complex(r.real)
        for cl in clusters:
            if abs(r - sum(cl) / len(cl)) <= guard:
                cl.append(r)
                break
        else:
            clusters.append([r])
    classes, notes = [], []
    for cl in clusters:
        center, alg, g = complex(sum(cl) / len(cl)), k * len(cl), geom
        al, be = center.real, center.imag
        if len(cl) > 1:
            notes.append(
                f"numeric roots near {center:.6g} are closer than the cluster "
                f"guard {guard:.1e}; multiplicity {len(cl)} assigned pessimistically"
            )
            mf = np.array(mq, dtype=float)
            if be == 0:
                g = n - _numeric_rank(mf - al * np.eye(n))
            else:
                quad = mf @ mf - 2 * al * mf + (al * al + be * be) * np.eye(n)
                g = (n - _numeric_rank(quad)) // 2
            g = min(max(g, 1), alg)
        classes += [EigenClass(z, alg, g)
                    for z in ([center] if be == 0 else [center, center.conjugate()])]
    return classes, notes


def spectrum(mat) -> Spectrum:
    """All eigenvalues with algebraic/geometric multiplicity and flags.

    Each Yun factor s_k splits into pieces t of one exact geometric
    multiplicity. Each piece gives up its rational roots; then, if it is of
    degree above 2, a pair +-sqrt(mu) for each rational root mu of
    _squares(t): t has no rational root left, so lambda^2 - mu is irreducible
    and divides it. An irreducible quadratic rest is exact too; whatever is
    left goes to the numeric path. Exact classes carry their rational
    certificates; ill_conditioned is set, with a note, wherever numeric roots
    of one piece merge at CLUSTER_GUARD.
    """
    mq = coerce_matrix(mat)
    n = len(mq)
    classes: list[EigenClass] = []
    notes: list[str] = []
    for s, k in _square_free(char_poly(mq).ints):
        for t, geom in _geometric_pieces(s, k, mq):
            for r in _rational_roots(t):
                t = _quo(t, [-r.numerator, r.denominator])
                classes.append(EigenClass(complex(float(r)), k, geom, r, Fraction(0)))
            if len(t) > 3:
                for mu in _rational_roots(_squares(t)):
                    pair = [-mu.numerator, 0, mu.denominator]
                    t = _quo(t, pair)
                    classes += _pair_classes(pair, k, geom)
            if len(t) == 3:
                classes += _pair_classes(t, k, geom)
            elif len(t) > 1:
                got, got_notes = _numeric_classes(t, k, geom, mq)
                classes += got
                notes += got_notes
    classes.sort(key=lambda c: (c.value.real, c.value.imag))
    total = sum(c.alg_mult for c in classes)
    if total != n:
        raise AssertionError(f"multiplicities sum to {total}, expected {n}")
    return Spectrum(classes=tuple(classes), dim=n, ill_conditioned=bool(notes),
                    notes=tuple(notes))
