"""Reference LP solver that the polytope tests compare the package with.

Nothing here runs in the program.  It is the revised simplex over
Fractions that `polytope.lp_min` replaced: the same two phases, the same
Bland's rule and tie-breaks, and the same drive-out of artificials, with
every quantity an exact Fraction.  `polytope.lp_min` must return an
equal `LPResult` on every program.  The file is not named test_*.py, so
pytest imports it only through the tests that use it.
"""

from __future__ import annotations

from fractions import Fraction

from permhomology.errors import InvariantViolation
from permhomology.polytope import LPResult

ZERO = Fraction(0)
ONE = Fraction(1)


def _dot(a, b):
    s = ZERO
    for x, y in zip(a, b):
        if x and y:
            s += x * y
    return s


class _Simplex:
    """Minimize c . x over stored rows S x = b, b >= 0, x >= 0.

    Bland's rule: first negative reduced cost enters, leaving row
    breaks ratio ties by smallest basic index.  The basis inverse is
    the only dense state that changes per pivot.
    """

    def __init__(self, cols, b):
        self.cols = cols
        self.m = len(b)
        self.xB = list(b)
        self.Binv = [
            [ONE if i == j else ZERO for j in range(self.m)] for i in range(self.m)
        ]
        self.basis = []

    def column(self, j):
        B = self.Binv
        col = self.cols[j]
        return [_dot(row, col) for row in B]

    def pivot(self, i, j, d):
        piv = d[i]
        B = self.Binv
        if piv != 1:
            B[i] = [x / piv for x in B[i]]
            self.xB[i] /= piv
        base = B[i]
        xi = self.xB[i]
        for k in range(self.m):
            if k == i:
                continue
            f = d[k]
            if f:
                B[k] = [a - f * c for a, c in zip(B[k], base)]
                self.xB[k] -= f * xi
        self.basis[i] = j

    def run(self, c, blocked):
        basic = set(self.basis)
        while True:
            y = [ZERO] * self.m
            for i, bj in enumerate(self.basis):
                cb = c[bj]
                if cb:
                    col = self.Binv[i]
                    for k in range(self.m):
                        if col[k]:
                            y[k] += cb * col[k]
            enter = None
            for j in range(len(self.cols)):
                if j in basic or j in blocked:
                    continue
                if c[j] - _dot(y, self.cols[j]) < 0:
                    enter = j
                    break
            if enter is None:
                return
            d = self.column(enter)
            leave = None
            for i in range(self.m):
                if d[i] > 0:
                    ratio = self.xB[i] / d[i]
                    if leave is None or ratio < leave[0] or (
                        ratio == leave[0] and self.basis[i] < self.basis[leave[1]]
                    ):
                        leave = (ratio, i)
            if leave is None:
                raise InvariantViolation("linear program is unbounded")
            i = leave[1]
            basic.discard(self.basis[i])
            basic.add(enter)
            self.pivot(i, enter, d)


def lp_min(obj, A_ub, b_ub, A_eq, b_eq) -> LPResult:
    """Exact minimum of obj . x over A_ub x <= b_ub, A_eq x = b_eq, x >= 0.

    Two-phase revised simplex, Bland's rule throughout.  Returns the
    value, the minimizer, and one dual price per row; raises if
    infeasible or unbounded.
    """
    nv = len(obj)
    rows = [(list(a), Fraction(v), False) for a, v in zip(A_ub, b_ub)]
    rows += [(list(a), Fraction(v), True) for a, v in zip(A_eq, b_eq)]
    m = len(rows)
    flipped = []
    stored = []
    for a, v, eq in rows:
        a = [Fraction(x) for x in a] + [ZERO] * (nv - len(a))
        neg = v < 0
        flipped.append(neg)
        stored.append(([-x for x in a], -v, eq) if neg else (a, v, eq))

    cols = [[stored[k][0][j] for k in range(m)] for j in range(nv)]
    slack_of = {}
    for k, (_, _, eq) in enumerate(stored):
        if not eq:
            col = [ZERO] * m
            col[k] = -ONE if flipped[k] else ONE
            slack_of[k] = len(cols)
            cols.append(col)
    arts = {}
    basis = []
    for k in range(m):
        j = slack_of.get(k)
        if j is not None and not flipped[k]:
            basis.append(j)
        else:
            col = [ZERO] * m
            col[k] = ONE
            arts[k] = len(cols)
            basis.append(len(cols))
            cols.append(col)

    S = _Simplex(cols, [stored[k][1] for k in range(m)])
    S.basis = basis
    art_set = frozenset(arts.values())
    if arts:
        c1 = [ONE if j in art_set else ZERO for j in range(len(cols))]
        S.run(c1, frozenset())
        if sum(c1[bj] * v for bj, v in zip(S.basis, S.xB)):
            raise InvariantViolation("linear program is infeasible")
        for i in range(m):
            if S.basis[i] in art_set:
                # degenerate pivot to a real column, or the row is
                # redundant under this basis and can stay put
                for j in range(len(cols) - len(arts)):
                    if j in S.basis:
                        continue
                    d = S.column(j)
                    if d[i]:
                        S.pivot(i, j, d)
                        break

    c2 = [ZERO] * len(cols)
    for j in range(nv):
        c2[j] = Fraction(obj[j])
    S.run(c2, art_set)

    x = [ZERO] * nv
    for bj, v in zip(S.basis, S.xB):
        if bj < nv:
            x[bj] = v
    y = [ZERO] * m
    for i, bj in enumerate(S.basis):
        cb = c2[bj]
        if cb:
            for k in range(m):
                if S.Binv[i][k]:
                    y[k] += cb * S.Binv[i][k]
    yout = [-yk if neg else yk for yk, neg in zip(y, flipped)]
    value = sum(c2[bj] * v for bj, v in zip(S.basis, S.xB))
    return LPResult(value, tuple(x), tuple(yout))


def fraction_edge_program(points, i: int, j: int) -> tuple:
    """The dual support program for vertices i, j, built from the points'
    Fractions as the package built it before it moved to integers:
    (obj, A_ub, b_ub, A_eq, b_eq).  Its optimum is the edge gap."""
    u, v = points[i], points[j]
    n = len(u)
    others = [w for k, w in enumerate(points) if k != i and k != j]
    d0 = [a - b for a, b in zip(u, v)]
    nw = len(others)
    obj = [ZERO] * (nw + 2) + [ONE]
    A_ub = []
    for t in range(n):
        pos = [u[t] - w[t] for w in others] + [-d0[t], d0[t], -ONE]
        A_ub.append(pos)
        A_ub.append([-x for x in pos[:-1]] + [-ONE])
    return obj, A_ub, [ZERO] * (2 * n), [[ONE] * nw + [ZERO, ZERO, ZERO]], [ONE]
