"""Seeded input generators and their construction-based oracle.

Every input is built from pieces whose spectral facts are known in closed
form, so the expected answer comes from the construction and never from
lieflow. Nothing here imports lieflow.

Inputs are plain JSON values: rationals are "p/q" strings, matrices are lists
of rows, algebras use lieflow's algebra-file dict format (1-based indices).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

TAG_PERIODIC = "PeriodicFlow"
TAG_NONE = "NoPeriodicOrbits"
TAG_IDENTITY = "IdentityFlow"
NONZERO_REAL_PART = "NonzeroRealPart"
REAL_NONZERO = "RealNonzeroEigenvalue"
NON_SEMISIMPLE = "NonSemisimpleEigenvalue"
IRRATIONAL_RATIO = "IrrationalRatio"

# The near-commensurable quartic of ROADMAP item 3: the mu-quadratic
# (mu + a^2)(mu + b^2) - EPS is irreducible over Q, so its roots are
# irrational although they sit within ~1e-13 of -a^2 and -b^2.
NEAR_EPS = F(1, 10**12)


# --- exact helpers ------------------------------------------------------------


def rational_sqrt(x: F) -> F | None:
    """sqrt(x) when x is the square of a rational, else None."""
    if x < 0:
        return None
    n, d = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if n * n == x.numerator and d * d == x.denominator:
        return F(n, d)
    return None


def identity(n: int) -> list[list[F]]:
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum((a[i][t] * b[t][j] for t in range(k)), F(0)) for j in range(m)]
            for i in range(n)]


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[F(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                out[at + i][at + j] = F(v)
        at += len(b)
    return out


def unimodular(n: int, rng: random.Random, dense: bool = False):
    """(P, P^-1) for P a product of transvections E_ij(c) between neighbours.

    The default is one transvection per neighbouring pair, oriented up or
    down at random, with a random sign. `dense` applies a full upper then a
    full lower band of E_ij(1), which fills P, and then flips the signs of
    seeded columns: the new basis vectors differ from a fixed dense basis
    only in sign, so every seed gives structure constants of the same size
    and an op's cost does not depend on the seed.
    """
    p, pinv = identity(n), identity(n)
    if dense:
        steps = [(i, i + 1) for i in range(n - 1)] + [(i + 1, i) for i in range(n - 1)]
        coeffs = [F(1)] * len(steps)
    else:
        steps = [(i, i + 1) if rng.random() < 0.5 else (i + 1, i) for i in range(n - 1)]
        coeffs = [rng.choice((F(-1), F(1))) for _ in steps]
    for (i, j), c in zip(steps, coeffs):
        # P <- P * E_ij(c): column j += c * column i.
        for r in range(n):
            p[r][j] += c * p[r][i]
        # P^-1 <- E_ij(-c) * P^-1: row i -= c * row j.
        pinv[i] = [a - c * b for a, b in zip(pinv[i], pinv[j])]
    if dense:
        for j in range(n):
            if rng.random() < 0.5:  # P <- P S, P^-1 <- S P^-1 with S = diag(+-1)
                for r in range(n):
                    p[r][j] = -p[r][j]
                pinv[j] = [-v for v in pinv[j]]
    return p, pinv


def norm1(m) -> float:
    """Maximum absolute column sum."""
    return float(max(sum(abs(row[c]) for row in m) for c in range(len(m))))


def to_json_matrix(m) -> list[list[str]]:
    return [[str(F(v)) for v in row] for row in m]


def from_json_matrix(m) -> list[list[F]]:
    return [[F(v) for v in row] for row in m]


# --- spectral pieces ------------------------------------------------------------
#
# A block contributes "atoms" to the oracle:
#   ("imag", q)   eigenvalues +-i*sqrt(q), q > 0 rational, semisimple
#   ("imag_irr",) a pair +-i*sqrt(-mu) with mu an irrational quadratic surd
#   ("cplx", key) a non-real pair off the imaginary axis
#   ("real",)     a real nonzero eigenvalue
#   ("zero",)     a zero eigenvalue
#   ("jordan",)   the block is not semisimple
# and irreducible quadratic factor keys, used to find repeated factors.


def rot(w: F):
    return [[0, -w], [w, 0]], [("imag", w * w)], [("q", w * w)]


def surd(c: F):
    return [[0, -c], [1, 0]], [("imag", c)], [("q", c)]


def realpart(a: F, b: F):
    return [[a, -b], [b, a]], [("cplx",)], [("rp", a, b)]


def real(r: F):
    return [[r]], [("real",)], []


def zero():
    return [[0]], [("zero",)], []


def nilpotent():
    return [[0, 1], [0, 0]], [("zero",), ("jordan",)], []


def jordan_rot(w: F):
    """[[R, I], [0, R]]: +-iw with algebraic multiplicity 2, geometric 1."""
    m = [[0, -w, 1, 0], [w, 0, 0, 1], [0, 0, 0, -w], [0, 0, w, 0]]
    return m, [("imag", w * w), ("jordan",)], [("q", w * w), ("q", w * w)]


def cc():
    """C (+) C with C = [[0,-1],[1,-1]]: (l^2 + l + 1)^2, Re l = -1/2."""
    c = [[0, -1], [1, -1]]
    return block_diag([c, c]), [("cplx",)], [("rp", F(-1, 2), F(3, 4)), ("rp", F(-1, 2), F(3, 4))]


def near_quartic(a: F, b: F):
    """companion(l^4 + (a^2+b^2) l^2 + a^2 b^2 - EPS); both mu-roots irrational."""
    c2, c0 = a * a + b * b, a * a * b * b - NEAR_EPS
    m = [[0, 0, 0, -c0], [1, 0, 0, 0], [0, 1, 0, -c2], [0, 0, 1, 0]]
    return m, [("imag_irr",), ("imag_irr",)], [("quartic", a, b)]


def expected_verdict(atoms) -> dict:
    """Verdict of e^{tD} in lieflow's documented reason order."""
    kinds = {a[0] for a in atoms}
    if "cplx" in kinds:
        return {"tag": TAG_NONE, "reason": NONZERO_REAL_PART}
    if "real" in kinds:
        return {"tag": TAG_NONE, "reason": REAL_NONZERO}
    if "jordan" in kinds:
        return {"tag": TAG_NONE, "reason": NON_SEMISIMPLE}
    qs = [a[1] for a in atoms if a[0] == "imag"]
    if "imag_irr" in kinds:
        return {"tag": TAG_NONE, "reason": IRRATIONAL_RATIO}
    if not qs:
        return {"tag": TAG_IDENTITY}
    return periodic_from_squares(qs)


def periodic_from_squares(qs) -> dict:
    """Minimal period for frequencies sqrt(q): T = 2*pi*lcm(den r_i)/sqrt(base)."""
    base = min(qs)
    lcm = 1
    for q in qs:
        r = rational_sqrt(q / base)
        if r is None:
            return {"tag": TAG_NONE, "reason": IRRATIONAL_RATIO}
        lcm = math.lcm(lcm, r.denominator)
    root = rational_sqrt(base)
    return {
        "tag": TAG_PERIODIC,
        "period": 2 * math.pi * lcm / math.sqrt(base),
        "period_over_pi": str(F(2 * lcm) / root) if root is not None else None,
    }


def _repeated(factors) -> bool:
    return len(factors) != len(set(factors))


# --- classify-mix ---------------------------------------------------------------

OMEGAS = [F(1), F(2), F(3), F(1, 2), F(3, 2), F(2, 3), F(5, 2), F(4, 3)]
SURDS = [F(2), F(3), F(5), F(6), F(7), F(10)]
REALS = [F(1), F(-1), F(2), F(-2), F(1, 2), F(-3)]


def _abelian_dict(n: int) -> dict:
    return {"dim": n, "brackets": []}


def heisenberg_dict(k: int) -> dict:
    """h_{2k+1}: basis x1, y1, ..., xk, yk, z with [x_i, y_i] = z."""
    n = 2 * k + 1
    return {"dim": n, "brackets": [{"i": 2 * i + 1, "j": 2 * i + 2, "k": n, "c": "1"}
                                   for i in range(k)]}


# Recipe name -> block kinds it uses. Abelian recipes are block-diagonal
# matrices on R^n conjugated by a seeded unimodular matrix; heis_* recipes
# are derivations of h_{2k+1} in the standard basis.
ABELIAN_RECIPES = {
    "rot": ("rot",),
    "rot_rot": ("rot", "rot"),
    "rot_surd": ("rot", "surd"),
    "surd_surd": ("surd", "surd"),
    "rot3_zero": ("rot", "rot", "rot", "zero"),
    "rot4": ("rot", "rot", "rot", "rot"),
    "rot2_surd2": ("rot", "rot", "surd", "surd"),
    "realpart_rot_zero": ("realpart", "rot", "zero"),
    "real_rot_zero": ("real", "rot", "zero"),
    "nilp_rot_rot": ("nilpotent", "rot", "rot"),
    "jrot_rot": ("jordan_rot", "rot"),
    "zero_zero": ("zero", "zero"),
    "cc_rot": ("cc", "rot"),
    "near_quartic": ("rot", "near_quartic"),
}
# Per pass of the pool: every abelian recipe 4x, heis_rot 4x, heis_surd 2x,
# heis_nonderivation 6x -> 56 + 12 = 68 inputs, fixed shares for every seed.
RECIPE_COUNTS = {**{name: 4 for name in ABELIAN_RECIPES},
                 "heis_rot": 4, "heis_surd": 2, "heis_nonderivation": 6}


def _abelian_input(recipe: str, prng: random.Random, rng: random.Random) -> dict:
    """Blocks and a unimodular conjugator drawn from `prng`, then a seeded
    signed permutation similarity from `rng` (see classify_inputs)."""
    pieces = []
    for kind in ABELIAN_RECIPES[recipe]:
        if kind == "rot":
            pieces.append(rot(F(1) if recipe == "near_quartic" else prng.choice(OMEGAS)))
        elif kind == "surd":
            c = prng.choice(SURDS)
            if recipe == "surd_surd" and pieces:
                # Second surd shares the first one's square class: ratio m.
                c = pieces[0][1][0][1] * prng.choice((F(4), F(9), F(1, 4), F(9, 4)))
            pieces.append(surd(c))
        elif kind == "realpart":
            pieces.append(realpart(prng.choice((F(1), F(-1), F(1, 2), F(-2))),
                                   prng.choice((F(1), F(2), F(3)))))
        elif kind == "real":
            pieces.append(real(prng.choice(REALS)))
        elif kind == "zero":
            pieces.append(zero())
        elif kind == "nilpotent":
            pieces.append(nilpotent())
        elif kind == "jordan_rot":
            pieces.append(jordan_rot(prng.choice(OMEGAS)))
        elif kind == "cc":
            pieces.append(cc())
        elif kind == "near_quartic":
            # With R(1) in front, (a, b) = (3/2, 2) is the ROADMAP repro.
            a, b = prng.choice(((F(3, 2), F(2)), (F(2), F(3)), (F(3, 2), F(5, 2)),
                               (F(2), F(5, 2))))
            pieces.append(near_quartic(a, b))
    prng.shuffle(pieces)
    blocks = [p[0] for p in pieces]
    atoms = [a for p in pieces for a in p[1]]
    factors = [f for p in pieces for f in p[2]]
    d = block_diag(blocks)
    n = len(d)
    p, pinv = unimodular(n, prng)
    conj = signed_permutation_similarity(mat_mul(mat_mul(p, d), pinv), rng)
    return {
        "recipe": recipe,
        "source": "abelian",
        "dim": n,
        "algebra": _abelian_dict(n),
        "matrix": to_json_matrix(conj),
        "norm1": norm1(conj),
        "blocks": list(ABELIAN_RECIPES[recipe]),
        "derivation": True,
        "repeated_factor": _repeated(factors),
        "near_commensurable": recipe == "near_quartic",
        "expect": expected_verdict(atoms),
    }


def _heis_input(recipe: str, k: int, prng: random.Random, rng: random.Random) -> dict:
    """D = [[A, 0], [phi, 0]] on h_{2k+1}: A is a sum of sl2 rotation blocks
    on the planes (x_i, y_i), phi is a free z-row. A is invertible, so the
    z eigenvalue 0 is simple and D is semisimple."""
    n = 2 * k + 1
    pieces = []
    for _ in range(k):
        if recipe == "heis_surd":
            pieces.append(surd(prng.choice(SURDS)))
        else:
            pieces.append(rot(prng.choice(OMEGAS)))
    # Permuting the planes (x_i, y_i) is an automorphism of h_{2k+1}.
    rng.shuffle(pieces)
    d = block_diag([p[0] for p in pieces] + [[[0]]])
    # The z-row's entries have sizes from `prng` and signs from `rng`; flipping
    # signs leaves ||D||_1, and with it the cost of an exponential, unchanged.
    for j in range(n - 1):
        d[n - 1][j] = F(prng.randint(0, 3) * rng.choice((1, -1)))
    atoms = [a for p in pieces for a in p[1]] + [("zero",)]
    expect = expected_verdict(atoms)
    if recipe == "heis_nonderivation":
        # D(z) gets an x1 component: [D z, y1] = [x1, y1] = z != D[z, y1] = 0.
        d[0][n - 1] = F(rng.choice((1, -1, 2)))
        expect = {"tag": "NotADerivation"}
    return {
        "recipe": recipe,
        "source": "heisenberg",
        "dim": n,
        "algebra": heisenberg_dict(k),
        "matrix": to_json_matrix(d),
        "norm1": norm1(d),
        "blocks": ["rot" if recipe != "heis_surd" else "surd"],
        "derivation": recipe != "heis_nonderivation",
        "repeated_factor": False,
        "near_commensurable": False,
        "expect": expect,
    }


def signed_permutation_similarity(m, rng: random.Random):
    """S Pi M Pi^T S for a seeded permutation Pi and signs S = diag(+-1).

    The result is conjugate to M by a unimodular matrix and has the same
    entries up to place and sign, so its cost is the same for every seed.
    """
    n = len(m)
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return [[signs[i] * signs[j] * m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


# Block parameters and the base conjugator come from this fixed stream, so
# the multiset of inputs, and with it the work per pass, is the same for
# every seed; the seed picks the signed permutation applied on top, the
# Heisenberg z-rows and plane order, and the order of the pool.
PARAMS_SEED = 20200219


def classify_inputs(rng: random.Random, recipes=None) -> list[dict]:
    counts = recipes or RECIPE_COUNTS
    prng = random.Random(PARAMS_SEED)
    out = []
    for recipe, count in counts.items():
        for i in range(count):
            if recipe in ABELIAN_RECIPES:
                out.append(_abelian_input(recipe, prng, rng))
            else:
                out.append(_heis_input(recipe, 1 + i % 3, prng, rng))
    rng.shuffle(out)
    return out


# --- evidence -------------------------------------------------------------------


def aff2_input(d: int, rng: random.Random) -> dict:
    """aff(2) = <H, Z | [H, Z] = Z> with D = [[0, 0], [c, d]], d in [300, 1400]:
    eigenvalues 0 and d, so NoPeriodicOrbits(RealNonzeroEigenvalue). The
    seeded c, |c| <= 3, leaves ||D||_1 = d and the cost unchanged."""
    m = [[F(0), F(0)], [F(rng.randint(-3, 3)), F(d)]]
    return {
        "recipe": "aff2_large_norm",
        "source": "aff2",
        "dim": 2,
        "algebra": {"dim": 2, "basis": ["H", "Z"],
                    "brackets": [{"i": 1, "j": 2, "k": 2, "c": "1"}]},
        "matrix": to_json_matrix(m),
        "norm1": norm1(m),
        "blocks": ["real"],
        "derivation": True,
        "repeated_factor": False,
        "near_commensurable": False,
        "expect": {"tag": TAG_NONE, "reason": REAL_NONZERO},
    }


# Evidence verifies verdicts, so it uses the classify-mix recipes that have a
# verdict today (C(+)C is refused and non-derivations are rejected) plus the
# large-norm aff(2) share: 52 + 8 + 8 = 68 inputs per pass.
EVIDENCE_COUNTS = {name: 4 for name in ABELIAN_RECIPES if name != "cc_rot"}
EVIDENCE_COUNTS.update({"heis_rot": 4, "heis_surd": 4})
# The scaling-and-squaring cost of e^{tD} grows with log ||tD||, so the norms
# are fixed, spread over 300..1400, for every seed.
EVIDENCE_AFF2_D = (300, 450, 600, 750, 900, 1050, 1200, 1400)


def evidence_inputs(rng: random.Random) -> list[dict]:
    out = classify_inputs(rng, EVIDENCE_COUNTS)
    out += [aff2_input(d, rng) for d in EVIDENCE_AFF2_D]
    rng.shuffle(out)
    return out


# --- derivation-solve -----------------------------------------------------------


def filiform_dict(n: int) -> dict:
    """Model filiform L_n: [e1, e_i] = e_{i+1} for i = 2..n-1."""
    return {"dim": n, "brackets": [{"i": 1, "j": i, "k": i + 1, "c": "1"}
                                   for i in range(2, n)]}


def sl2_plus_abelian_dict(m: int) -> dict:
    """sl(2,R) (+) R^m with lieflow's catalog sl2 brackets on E1..E3."""
    return {"dim": 3 + m, "brackets": [
        {"i": 1, "j": 2, "k": 1, "c": "2"}, {"i": 1, "j": 2, "k": 3, "c": "4"},
        {"i": 1, "j": 3, "k": 2, "c": "-1"}, {"i": 2, "j": 3, "k": 3, "c": "2"}]}


def parse_brackets(alg: dict) -> dict[tuple[int, int, int], F]:
    """0-based (i, j, k) -> c for i < j."""
    return {(b["i"] - 1, b["j"] - 1, b["k"] - 1): F(b["c"]) for b in alg["brackets"]}


def bracket(n: int, table, x, y) -> list[F]:
    out = [F(0)] * n
    for (i, j, k), c in table.items():
        coef = x[i] * y[j] - x[j] * y[i]
        if coef:
            out[k] += c * coef
    return out


def change_basis(alg: dict, rng: random.Random) -> dict:
    """Structure constants in the basis F_a = sum_i P[i][a] E_i."""
    n = alg["dim"]
    table = parse_brackets(alg)
    p, pinv = unimodular(n, rng, dense=True)
    cols = [[p[r][a] for r in range(n)] for a in range(n)]
    brackets = []
    for a in range(n):
        for b in range(a + 1, n):
            v = bracket(n, table, cols[a], cols[b])
            for k in range(n):
                c = sum((pinv[k][r] * v[r] for r in range(n)), F(0))
                if c:
                    brackets.append({"i": a + 1, "j": b + 1, "k": k + 1, "c": str(c)})
    return {"dim": n, "brackets": brackets}


# One pass: h_{2k+1} (k = 1..3), L_n (n = 4..8), sl2 + R^m (m = 1..3), five of
# them after a change of basis. h_7 and L_8 (standard basis, bound by the
# Leibniz post-check) are the two heaviest and cost about the same, so the
# tail percentile stays on them however many passes fit in a run; L_6 in a
# dense basis is bound by the RREF. A pass takes about 2.4 s of CPU on a
# 2-vCPU Xeon VM.
DENSE = {("heisenberg", 1), ("filiform", 5), ("filiform", 6), ("sl2_plus_abelian", 1),
         ("sl2_plus_abelian", 2)}


def derivation_families():
    """(family, size, algebra dict, closed-form dim Der)."""
    for k in range(1, 4):
        yield "heisenberg", k, heisenberg_dict(k), 2 * k * k + 3 * k + 1
    for n in range(4, 9):
        yield "filiform", n, filiform_dict(n), 2 * n - 1
    for m in range(1, 4):
        yield "sl2_plus_abelian", m, sl2_plus_abelian_dict(m), 3 + m * m


def derivation_inputs(rng: random.Random) -> list[dict]:
    out = []
    for family, size, alg, dim_der in derivation_families():
        dense = (family, size) in DENSE
        out.append({
            "recipe": f"{family}_{size}",
            "family": family,
            "basis": "dense" if dense else "standard",
            "dim": alg["dim"],
            "algebra": change_basis(alg, rng) if dense else alg,
            "expect": {"dim_der": dim_der},
        })
    rng.shuffle(out)
    return out


def leibniz_ok(alg: dict, basis) -> bool:
    """Exact Leibniz identity D[e_i,e_j] = [De_i,e_j] + [e_i,De_j] for every
    pair, checked with this module's own sparse bracket table."""
    n = alg["dim"]
    full: dict[tuple[int, int], list[tuple[int, F]]] = {}
    for (i, j, k), c in parse_brackets(alg).items():
        full.setdefault((i, j), []).append((k, c))
        full.setdefault((j, i), []).append((k, -c))
    for mat in basis:
        m = from_json_matrix(mat)
        cols = [[(r, m[r][c]) for r in range(n) if m[r][c]] for c in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                res: dict[int, F] = {}
                for mid, c in full.get((i, j), ()):
                    for r, v in cols[mid]:
                        res[r] = res.get(r, 0) + c * v
                for r, v in cols[i]:
                    for k, c in full.get((r, j), ()):
                        res[k] = res.get(k, 0) - v * c
                for r, v in cols[j]:
                    for k, c in full.get((i, r), ()):
                        res[k] = res.get(k, 0) - v * c
                if any(res.values()):
                    return False
    return True


def rank_mod_p(vectors, p: int = (1 << 61) - 1) -> int:
    """Rank over GF(p); a lower bound on the rank over Q."""
    rows = []
    for v in vectors:
        rows.append([(x.numerator * pow(x.denominator, -1, p)) % p for x in v])
    rank, ncols = 0, len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# --- small-dimension oracle (catalog verdict table) ------------------------------


def small_verdict(m) -> dict:
    """Exact verdict for a rational 2x2 or 3x3 matrix from its char poly.

    2x2: l^2 - t l + d. 3x3: l^3 - t l^2 + s l - d. A real 3x3 matrix has a
    real eigenvalue, so periodicity needs it to be 0 and the pair to be
    +-i*sqrt(s): t = d = 0 < s. A complex pair has zero real part exactly
    when the cubic factors as (l - t)(l^2 + s), i.e. d = t*s with s > 0.
    """
    m = [[F(v) for v in row] for row in m]
    n = len(m)
    is_zero = all(v == 0 for row in m for v in row)
    if n == 2:
        t, d = m[0][0] + m[1][1], m[0][0] * m[1][1] - m[0][1] * m[1][0]
        disc = t * t - 4 * d
        if disc < 0:
            if t != 0:
                return {"tag": TAG_NONE, "reason": NONZERO_REAL_PART}
            return periodic_from_squares([d])
        if t != 0 or d != 0:
            return {"tag": TAG_NONE, "reason": REAL_NONZERO}
    elif n == 3:
        t = m[0][0] + m[1][1] + m[2][2]
        s = (m[0][0] * m[1][1] - m[0][1] * m[1][0] + m[0][0] * m[2][2]
             - m[0][2] * m[2][0] + m[1][1] * m[2][2] - m[1][2] * m[2][1])
        d = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
             - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
             + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        # Discriminant of l^3 + a l^2 + b l + c with a=-t, b=s, c=-d.
        a, b, c = -t, s, -d
        disc = 18 * a * b * c - 4 * a ** 3 * c + a * a * b * b - 4 * b ** 3 - 27 * c * c
        if disc < 0:  # one real root and a complex pair
            if not (s > 0 and d == t * s):
                return {"tag": TAG_NONE, "reason": NONZERO_REAL_PART}
            if t != 0:
                return {"tag": TAG_NONE, "reason": REAL_NONZERO}
            return periodic_from_squares([s])
        if t != 0 or s != 0 or d != 0:
            return {"tag": TAG_NONE, "reason": REAL_NONZERO}
    else:
        raise ValueError("small_verdict handles 2x2 and 3x3 matrices")
    return {"tag": TAG_IDENTITY} if is_zero else {"tag": TAG_NONE, "reason": NON_SEMISIMPLE}


def sl2_inner_verdict(a: F, b: F, c: F) -> dict:
    """Verdict for the invariant flow of X = aY + bH + cZ on SL(2,R).

    With Y = [[0,-1],[1,0]], H = diag(1,-1), Z = [[0,1],[0,0]], X has
    eigenvalues +-sqrt(b^2 + ac - a^2), so ad(X) has 0 and twice those.
    """
    nu_sq = a * a - a * c - b * b
    if nu_sq > 0:
        return periodic_from_squares([4 * nu_sq])
    if nu_sq < 0:
        return {"tag": TAG_NONE, "reason": REAL_NONZERO}
    if a == b == c == 0:
        return {"tag": "SpectralPeriodicInconclusive"}
    return {"tag": TAG_NONE, "reason": NON_SEMISIMPLE}


# --- cli-cold -------------------------------------------------------------------

# Documented cross-check ledger: the four printing issues the catalog lists
# plus the three the exact solvers find (ROADMAP, acceptance criterion 9).
FLAGGED_ENTRIES = {"sl2", "g33", "g35_a", "abelian3", "g31_heisenberg", "g32", "g34_a"}
CLI_KINDS = ("classify_inner", "classify_matrix", "classify_nonderivation",
             "derivations", "cross_check", "verdict_table", "simulate")


def _inner_triple(rng: random.Random, periodic: bool) -> tuple[F, F, F]:
    while True:
        a, b, c = (F(rng.randint(-3, 3)) for _ in range(3))
        nu_sq = a * a - a * c - b * b
        if (nu_sq > 0) == periodic and nu_sq != 0:
            return a, b, c


def cli_inputs(rng: random.Random, workdir: str) -> tuple[list[dict], dict[str, dict]]:
    """One command of each kind per pass; returns (inputs, files to write)."""
    files: dict[str, dict] = {}

    def file_arg(name: str, alg: dict) -> str:
        path = f"{workdir}/{name}.json"
        files[path] = alg
        return path

    def csv(values) -> str:
        return ",".join(str(v) for v in values)

    out = []
    a, b, c = _inner_triple(rng, periodic=rng.random() < 0.5)
    out.append({"kind": "classify_inner", "argv": ["classify", "--catalog", "sl2",
                f"--inner={csv((a, b, c))}"], "expect": {"exit": 0,
                "verdict": sl2_inner_verdict(a, b, c)}})

    heis = _heis_input("heis_rot", 2, rng, rng)
    out.append({"kind": "classify_matrix", "argv": [
        "classify", "--file", file_arg("h5", heis["algebra"]),
        "--matrix=" + csv(v for row in heis["matrix"] for v in row)],
        "expect": {"exit": 0, "verdict": heis["expect"]}})

    bad = _heis_input("heis_nonderivation", 1, rng, rng)
    out.append({"kind": "classify_nonderivation", "argv": [
        "classify", "--file", file_arg("h3", bad["algebra"]),
        "--matrix=" + csv(v for row in bad["matrix"] for v in row)],
        "expect": {"exit": 2}})

    alg = change_basis(filiform_dict(5), rng)
    out.append({"kind": "derivations", "argv": [
        "derivations", "--file", file_arg("l5_dense", alg)],
        "expect": {"exit": 0, "dim_der": 9, "algebra": alg}})

    out.append({"kind": "cross_check", "argv": ["catalog", "cross-check", "all"],
                "expect": {"exit": 0, "flagged": sorted(FLAGGED_ENTRIES)}})
    out.append({"kind": "verdict_table", "argv": ["catalog", "verdict-table"],
                "expect": {"exit": 0}})

    # sl2 inner (w, 0, 0): ad has +-2iw, so T = pi/w; T/2 flips the plane.
    w = F(rng.randint(1, 3))
    half = rng.random() < 0.5
    period = f"{1 / (2 * w) if half else 1 / w}pi"
    out.append({"kind": "simulate", "argv": [
        "simulate", "--catalog", "sl2", f"--inner={csv((w, 0, 0))}",
        "--check-period", period], "expect": {"exit": 1 if half else 0,
                                              "passed": not half}})
    return out, files


# --- self-check -----------------------------------------------------------------


def selfcheck_cases() -> list[dict]:
    """Fixed cases that check the oracle itself against lieflow.

    Known-good cases must agree. The three ROADMAP repros are expected to
    disagree today; a later fix flips them to agreement and the benchmark
    reports that, with no edit here.
    """
    sl2 = sl2_plus_abelian_dict(0)
    cases = [{"name": "sl2_inner_1_0_0", "kind": "invariant", "algebra": sl2,
              "inner": ["1", "0", "0"], "expect": sl2_inner_verdict(F(1), F(0), F(0)),
              "repro": False}]
    for ws in ((F(1), F(2)), (F(1, 2), F(3, 2)), (F(2), F(3), F(4))):
        pieces = [rot(w) for w in ws]
        cases.append({
            "name": "rotations_" + "_".join(str(w).replace("/", "over") for w in ws),
            "kind": "linear", "algebra": _abelian_dict(2 * len(ws)),
            "matrix": to_json_matrix(block_diag([p[0] for p in pieces])),
            "expect": expected_verdict([a for p in pieces for a in p[1]]), "repro": False})
    cc_block = cc()
    cases.append({"name": "repro_cc_refusal", "kind": "linear",
                  "algebra": _abelian_dict(4), "matrix": to_json_matrix(cc_block[0]),
                  "expect": expected_verdict(cc_block[1]), "repro": True})
    r1, q = rot(F(1)), near_quartic(F(3, 2), F(2))
    cases.append({"name": "repro_near_commensurable_quartic", "kind": "linear",
                  "algebra": _abelian_dict(6),
                  "matrix": to_json_matrix(block_diag([r1[0], q[0]])),
                  "expect": expected_verdict(r1[1] + q[1]), "repro": True})
    aff = aff2_input(1000, random.Random(0))
    aff["matrix"] = to_json_matrix([[0, 0], [0, 1000]])
    cases.append({"name": "repro_aff2_infinity_pass", "kind": "evidence",
                  "algebra": aff["algebra"], "matrix": aff["matrix"],
                  "expect": aff["expect"], "repro": True})
    return cases
