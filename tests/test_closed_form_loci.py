"""Every small input, checked against a closed form of its characteristic
polynomial that shares no code with lieflow."""

import itertools
import math
from fractions import Fraction

from lieflow import classify_flow


def test_every_3x3_matrix_with_entries_in_minus_one_to_one_matches_its_closed_form():
    # p = l^3 + c1 l^2 + c2 l + c3. A real 3x3 D != 0 has a periodic flow
    # exactly when p = l (l^2 + c2) with c2 > 0: its roots 0, +-i sqrt(c2) are
    # distinct, so D is semisimple, and T = 2 pi / sqrt(c2).
    periodic = 0
    for entries in itertools.product((-1, 0, 1), repeat=9):
        m = [entries[0:3], entries[3:6], entries[6:9]]
        c1 = -(m[0][0] + m[1][1] + m[2][2])
        c2 = sum(m[i][i] * m[j][j] - m[i][j] * m[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
        c3 = -(m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        if not any(entries):
            want = "IdentityFlow"
        elif c1 == c3 == 0 and c2 > 0:
            want = "PeriodicFlow"
        else:
            want = "NoPeriodicOrbits"
        v = classify_flow(m)
        assert v.tag == want, (m, v)
        if want == "PeriodicFlow":
            periodic += 1
            root = math.isqrt(c2)
            assert v.period_over_pi == (Fraction(2, root) if root * root == c2 else None), (m, v)
            assert math.isclose(v.period, 2 * math.pi / math.sqrt(c2), rel_tol=1e-12), (m, v)
    assert periodic == 290
