"""Orbit polytopes of coordinate-permuting groups, with exact edge tests.

The points are one orbit of a rational vector under permutation of
coordinates, so they lie on a sphere and every point is a vertex of
their convex hull.  Whether two vertices span an edge is decided by a
linear program: maximize t such that some functional c takes equal
values on the pair and beats every other point by at least t, with
the 1-norm of c bounded.  The pair is an edge exactly when the
optimum is positive.

The program has a handful of genuine variables and one constraint per
point, so it is solved through its dual (one row per variable, one
column per point); by strong duality the reported optimum is the
exact value of the stated program.  The solver is a revised simplex
over Fractions with Bland's rule, which keeps only the basis inverse
dense: with thousands of degenerate pivots on these programs, pricing
columns lazily is what makes the exhaustive edge sweeps affordable.

The edge sweep at a vertex uses the symmetry: the vertex's stabilizer
permutes the other points and maps edges at the vertex to edges, so
one program per stabilizer orbit decides every point of that orbit.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceeded, InvariantViolation
from .permgroup import OrbitData, PermGroup

POINT_CAP = 100_000

ZERO = Fraction(0)
ONE = Fraction(1)


def act_vec(g: tuple, v: tuple) -> tuple:
    """Permute coordinates: position i moves to position g[i]."""
    out = [None] * len(v)
    for i, x in enumerate(v):
        out[g[i]] = x
    return tuple(out)


def orbit_points(G: PermGroup, v, cap: int = POINT_CAP) -> tuple:
    """Sorted orbit of v, as exact Fraction tuples on a common sphere."""
    if len(v) != G.degree:
        raise ValueError(f"vector length {len(v)} does not match degree {G.degree}")
    start = tuple(Fraction(x) for x in v)
    try:
        od = G.orbit_data(start, act_vec, cap)
    except CapExceeded as exc:
        raise CapExceeded(f"orbit exceeds {cap} points", exc.attained) from None
    norms = {sum(x * x for x in p) for p in od.states}
    if len(norms) != 1:
        raise InvariantViolation("orbit points do not share a norm")
    return tuple(sorted(od.states))


# -- exact revised simplex -----------------------------------------------


@dataclass(frozen=True)
class LPResult:
    value: Fraction
    x: tuple
    y: tuple  # one dual price per input row, ub rows first


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


# -- edge tests ----------------------------------------------------------


def edge_gap(points, i: int, j: int) -> Fraction:
    """Optimum of the support program for vertices i, j.

    Built and solved in dual form: one column per other point, rows
    indexed by the coordinates.  Positive gap means [i, j] is an edge
    of the hull.
    """
    u, v = points[i], points[j]
    if u == v:
        raise ValueError("edge test needs two distinct points")
    n = len(u)
    others = [w for k, w in enumerate(points) if k != i and k != j]
    d0 = [a - b for a, b in zip(u, v)]
    # dual: minimize z over mu >= 0 (one per other point) and a free
    # lam split in two, subject to sum(mu) = 1 and, per coordinate,
    # |sum_w mu_w (u - w) - lam (u - v)| <= z
    nw = len(others)
    obj = [ZERO] * (nw + 2) + [ONE]
    A_ub = []
    b_ub = []
    for t in range(n):
        pos = [u[t] - w[t] for w in others] + [-d0[t], d0[t], -ONE]
        neg = [-x for x in pos[:-1]] + [-ONE]
        A_ub.append(pos)
        A_ub.append(neg)
        b_ub += [ZERO, ZERO]
    A_eq = [[ONE] * nw + [ZERO, ZERO, ZERO]]
    res = lp_min(obj, A_ub, b_ub, A_eq, [ONE])
    gap = res.value
    # Certify the verdict from both sides before trusting it.  The primal
    # solution is a convex combination meeting the line through u and v up
    # to residual gap (upper bound); for a positive gap the row prices
    # yield a supporting functional worth at least gap (lower bound).
    # Both checks are plain rational arithmetic, so the answer does not
    # rest on the simplex implementation being bug free.
    mu = res.x[:nw]
    lam = res.x[nw] - res.x[nw + 1]
    if any(m < 0 for m in mu) or sum(mu) != 1:
        raise InvariantViolation("combination witness is not convex")
    for t in range(n):
        r = sum(m * (u[t] - w[t]) for m, w in zip(mu, others)) - lam * d0[t]
        if abs(r) > gap:
            raise InvariantViolation("combination witness exceeds the gap")
    if gap > 0:
        c = [res.y[2 * t + 1] - res.y[2 * t] for t in range(n)]
        if sum(abs(x) for x in c) > 1:
            raise InvariantViolation("support witness is not normalized")
        if sum(x * d for x, d in zip(c, d0)) != 0:
            raise InvariantViolation("support witness separates u from v")
        for w in others:
            if sum(x * (a - b) for x, a, b in zip(c, u, w)) < gap:
                raise InvariantViolation("support witness fails a hull point")
    return gap


def is_edge(points, i: int, j: int) -> bool:
    return edge_gap(points, i, j) > 0


def vertex_degree(points, i: int, gens=(), threads: int = 1) -> int:
    """Number of hull edges at vertex i.

    gens must fix points[i] and permute the points; whether [i, j] is
    an edge does not change under them.  So one program is solved per
    orbit of the group they generate on the other points, at its least
    index, and its verdict counts for the whole orbit.  With no
    generators every orbit is a single point.
    """
    u = points[i]
    if any(act_vec(g, u) != u for g in gens):
        raise InvariantViolation("a stabilizer generator moves the vertex")
    index = {p: k for k, p in enumerate(points)}

    def act(g, k):
        k = index.get(act_vec(g, points[k]))
        if k is None:
            raise InvariantViolation("a generator sends a point outside the set")
        return k

    work = []
    seen = {i}
    for j in range(len(points)):
        if j not in seen:
            orbit = OrbitData(j, gens, act, len(u)).states
            seen.update(orbit)
            work.append((j, len(orbit)))
    if sum(size for _, size in work) != len(points) - 1:
        raise InvariantViolation("orbit sizes do not sum to the other points")
    if threads <= 1:
        return _degree_chunk((points, i, work))
    chunks = [work[k::threads] for k in range(threads)]
    with ProcessPoolExecutor(max_workers=threads) as ex:
        parts = ex.map(_degree_chunk, [(points, i, c) for c in chunks])
    return sum(parts)


def _degree_chunk(args) -> int:
    points, i, work = args
    return sum(size for j, size in work if is_edge(points, i, j))


def edge_count(points, degree: int) -> int:
    """Edge total for a vertex-transitive hull from one vertex degree."""
    total = len(points) * degree
    if total % 2:
        raise InvariantViolation("odd degree sum cannot be halved")
    return total // 2


def points_csv(points, fh) -> None:
    """Stream the points as exact "p/q" strings, one point per row."""
    writer = csv.writer(fh)
    for p in points:
        writer.writerow([f"{x.numerator}/{x.denominator}" for x in p])
