"""Characteristic polynomials and per-eigenvalue semisimplicity analysis.

Two-tier arithmetic: the characteristic polynomial is always exact
(Berkowitz's recursion in integers; float entries are converted losslessly).
The chain of radicals splits it into coprime square-free factors s_k^k, so
algebraic multiplicities are exact and each factor has simple roots. One
exact rule gives every geometric multiplicity: for k > 1, D restricted to
ker s_k(D) is semisimple, and the same split of its characteristic
polynomial cuts s_k into pieces whose roots share one geometric
multiplicity. Roots of a piece are extracted exactly wherever the
factorization stays rational or quadratic (every rational root, by Hensel
lifting of the roots modulo a small prime; irreducible quadratic factors;
the pairs +-sqrt(mu) over the rational roots mu of the square map h(mu),
whose roots are the squares lambda^2 of a piece's roots, for every piece)
and numerically otherwise.
Only numeric roots of one piece closer than CLUSTER_GUARD merge into one
class, whose geometric multiplicity an SVD rank at RANK_TOL decides; such a
merged cluster is the one kind of ill-conditioning spectrum() flags, and
spectrum() serves display only: flow verdicts and the catalog cross-check
read only the exact characteristic polynomial, the verdicts through one
remainder sequence, which gives the square map and its Sturm sequence.
Every square-free part is the head of one such sequence, _sturm, the one
polynomial remainder loop here.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from . import _linalg
from ._record import Record
from .dersolve import DerivationMatrix, coerce_matrix
from .liealg import Matrix

# Numeric roots only (pieces with no rational or quadratic split): roots
# closer than CLUSTER_GUARD times max(1, largest |root|) merge into one class,
# whose SVD rank counts singular values above RANK_TOL times the largest.
CLUSTER_GUARD = 1e-6
RANK_TOL = 1e-9


class CharPoly(Record):
    """Characteristic polynomial in primitive integer form: ints[k] multiplies
    lambda^k and the leading coefficient is positive. coeffs[k] is the
    coefficient of the monic polynomial over Q."""

    ints: tuple[int, ...]

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(c, self.ints[-1]) for c in self.ints])


class EigenClass(Record):
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


class Spectrum(Record):
    classes: tuple[EigenClass, ...]
    dim: int
    ill_conditioned: bool = False
    notes: tuple[str, ...] = ()


def char_poly(mat) -> CharPoly:
    """Exact characteristic polynomial by Berkowitz's division-free recursion
    (S. J. Berkowitz, Inf. Process. Lett. 18(3), 1984) on the integer matrix
    B = dD, d the lcm of D's denominators. With B_r the leading r x r block,
    a, R and S the diagonal entry, row and column that extend it,
    det(xI - B_{r+1}) is det(xI - B_r) times the lower-triangular Toeplitz
    matrix with first column (1, -a, -RS, -RB_rS, ..., -RB_r^(r-1)S). Since
    det(xI - B) = d^n p(x/d), the integer polynomial d^n p has coefficients
    b_k d^k, b_k those of det(xI - B). B is the one integer form,
    `DerivationMatrix.scaled`, of `coerce_matrix(mat)`."""
    b, d = coerce_matrix(mat).scaled
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


def _poly_at(f: list[int], b: list[list[int]], d: int) -> tuple[list[list[int]], int]:
    """d^N f(B/d) and d^N for the integer polynomial f of degree N, lowest
    degree first, and the integer matrix B, left unchanged; f(D) is
    `_poly_at(f, *der.scaled)`. Horner with f_j d^(N-j) added on the diagonal,
    since d^N f(B/d) = sum_j f_j d^(N-j) B^j; its first step, f_N B, takes no
    product."""
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


def _square_free(p: list[int]) -> list[tuple[list[int], int]]:
    """The square-free factors s_k of p = prod s_k^k, up to a constant, by the
    chain of radicals: r_1 = rad(p), the head of _sturm(p), then r_{k+1} =
    rad(p / (r_1 ... r_k)) until the quotient is constant; r_k is the product
    of the s_j with j >= k, so s_k = r_k / r_{k+1} (K. O. Geddes, S. R. Czapor
    & G. Labahn, Algorithms for Computer Algebra, 1992, ch. 8).

    Returns the nonconstant s_k with their k, ascending; for a primitive p with
    a positive leading coefficient they are primitive with positive leading
    coefficients, square-free and pairwise coprime.
    """
    radicals = []
    while len(p) > 1:
        radicals.append(_sturm(p)[0])
        p = _quo(p, radicals[-1])
    return [(s, k) for k, s in enumerate(map(_quo, radicals, radicals[1:] + [[1]]), 1)
            if len(s) > 1]


def _squares(s: list[int]) -> tuple[list[int], list[list[int]]]:
    """The primitive square-free h(mu) whose roots are the squares of the roots
    of s, for any s, and its Sturm sequence, both from one remainder sequence:
    h = H / gcd(H, H') heads _sturm(H), H(lambda^2) being s(lambda) itself when
    s is even and s(lambda)s(-lambda) otherwise, by Dandelin-Graeffe root
    squaring (V. Pan, SIAM Review 39(2), 1997); the sign of h is H's."""
    if any(s[1::2]):
        prod = [0] * (2 * len(s) - 1)
        for i, a in enumerate(s):
            for j, b in enumerate(s):
                prod[i + j] += -a * b if j % 2 else a * b
        s = prod
    seq = _sturm(_primitive(s[0::2]))
    return seq[0], seq


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
    """Sturm sequence of the square-free s / g, g = gcd(s, s') with a positive
    leading coefficient, for any s != 0: s, s' and their signed remainders,
    each divided by g, the last nonzero one (Basu, Pollack & Roy, ch. 2). Its
    variations drop by the number of distinct roots of s in (a, b]."""
    seq = [s, _primitive(_deriv(s))]
    while len(seq[-1]) > 1:
        seq.append([-c for c in _rem(seq[-2], seq[-1])])
    if not seq[-1]:
        g = seq[-2] if seq[-2][-1] > 0 else [-c for c in seq[-2]]
        seq = [_quo(q, g) for q in seq[:-1]]
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


def _mod_at(p: list[int], x: int, m: int) -> int:
    acc = 0  # p(x) mod m, by Horner
    for c in reversed(p):
        acc = (acc * x + c) % m
    return acc


def _rational_roots(s: list[int]) -> list[Fraction]:
    """Every rational root of the primitive square-free polynomial s, ascending.

    A linear s has its root read at once. Otherwise a rational root is k/a,
    a = |lc(s)|, |k| < a + max|s_i| (Cauchy), and a root r of s mod q for the
    least prime q not dividing a at which all such r are simple (only the
    divisors of a disc(s) fail). Newton's step, with 1/s'(r) lifted alongside,
    takes each r to the one root modulo q^2, q^4, ... (Hensel's lemma), the
    last power the least above 2(a + max|s_i|); k = a*r in the symmetric range
    is kept when s(k/a) = 0 exactly (R. Loos, SIAM J. Comput. 12(2), 1983;
    von zur Gathen & Gerhard, Modern Computer Algebra, ch. 15).
    """
    if len(s) == 2:
        return [Fraction(-s[0], s[1])]
    a, ds, q = abs(s[-1]), _deriv(s), 1
    while True:
        q += 1
        if a % q and all(q % p for p in range(2, math.isqrt(q) + 1)):
            lifts = [r for r in range(q) if not _mod_at(s, r, q)]
            if all(_mod_at(ds, r, q) for r in lifts):
                break
    bound = 2 * (a + max(map(abs, s)))
    top = q ** round(math.log(bound, q))  # q^e or q^(e-1), q^e the least
    top *= q if top <= bound else 1  # power of q above bound
    roots = []
    for r in lifts:
        m, w = q, pow(_mod_at(ds, r, q), -1, q)
        while m <= bound:  # s(r) = 0 and w s'(r) = 1 mod m
            m = min(m * m, top)
            r = (r - _mod_at(s, r, m) * w) % m
            w = w * (2 - _mod_at(ds, r, m) * w) % m
        k = (a * r + m // 2) % m - m // 2
        if not _sign_at(s, k, a):
            roots.append(Fraction(k, a))
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


def _geometric_pieces(s: list[int], k: int,
                      der: DerivationMatrix) -> list[tuple[list[int], int]]:
    """The square-free factor s = s_k of multiplicity k split into pieces
    (t, geom) by the exact geometric multiplicity geom of the roots of t. s is
    square-free, so R = D|K on K = ker s(D) is semisimple, and its char_poly
    is prod (x - lambda)^geom(lambda) over the roots of s: its square-free
    factors are the split. Each nullspace basis vector v_i is 1 in its free
    column f_i, its last nonzero, where the others are 0, so R[i][j] is
    (D v_j)[f_i]."""
    if k == 1:
        return [(s, 1)]
    rows = [{c: v for c, v in enumerate(row) if v} for row in _poly_at(s, *der.scaled)[0]]
    nonzeros = [[(c, v) for c, v in enumerate(vec) if v]
                for vec in _linalg.nullspace(rows, der.dim)]
    mq = der.entries
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

    Each square-free factor s_k splits into pieces t of one exact geometric
    multiplicity. Each piece gives up its rational roots; then, if it is of
    degree above 2, a pair +-sqrt(mu) for each rational root mu of
    _squares(t): t has no rational root left, so lambda^2 - mu is irreducible
    and divides it. An irreducible quadratic rest is exact too; whatever is
    left goes to the numeric path. Exact classes carry their rational
    certificates; ill_conditioned is set, with a note, wherever numeric roots
    of one piece merge at CLUSTER_GUARD. Every kernel reads the one
    DerivationMatrix `coerce_matrix(mat)`.
    """
    der = coerce_matrix(mat)
    n = der.dim
    classes: list[EigenClass] = []
    notes: list[str] = []
    for s, k in _square_free(char_poly(der).ints):
        for t, geom in _geometric_pieces(s, k, der):
            for r in _rational_roots(t):
                t = _quo(t, [-r.numerator, r.denominator])
                classes.append(EigenClass(complex(float(r)), k, geom, r, Fraction(0)))
            if len(t) > 3:
                for mu in _rational_roots(_squares(t)[0]):
                    pair = [-mu.numerator, 0, mu.denominator]
                    t = _quo(t, pair)
                    classes += _pair_classes(pair, k, geom)
            if len(t) == 3:
                classes += _pair_classes(t, k, geom)
            elif len(t) > 1:
                got, got_notes = _numeric_classes(t, k, geom, der.entries)
                classes += got
                notes += got_notes
    classes.sort(key=lambda c: (c.value.real, c.value.imag))
    total = sum(c.alg_mult for c in classes)
    if total != n:
        raise AssertionError(f"multiplicities sum to {total}, expected {n}")
    return Spectrum(classes=tuple(classes), dim=n, ill_conditioned=bool(notes),
                    notes=tuple(notes))
