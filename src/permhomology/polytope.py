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
exact value of the stated program.  The solver is a two-phase revised
simplex with Bland's rule that runs in Python ints only: each row is
scaled to integers once, and the basis inverse is held as the integer
matrix det(B) * B^-1, updated by exact division (Bareiss).  It takes
the same pivots as the same simplex over Fractions would and returns
the same exact values.  The programs need few pivots (615 for the 119
programs of the regular S5 orbit), so the cost lies in the arithmetic
of each pivot and of pricing, not in their number.

Every verdict is certified by exact witnesses from both sides, checked
in integer arithmetic on the points brought to one common denominator.

The edge sweep at a vertex uses the symmetry: the vertex's stabilizer
permutes the other points and maps edges at the vertex to edges, so
one program per stabilizer orbit decides every point of that orbit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import lcm
from operator import mul

from .errors import CapExceeded, InvariantViolation
from .permgroup import OrbitData, PermGroup

POINT_CAP = 100_000

ZERO = Fraction(0)


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


# -- exact fraction-free simplex ------------------------------------------


@dataclass(frozen=True)
class LPResult:
    value: Fraction
    x: tuple
    y: tuple  # one dual price per input row, ub rows first


def _integer_multiple(vals) -> tuple:
    """(s, [s * x for x in vals]) for the least s > 0 making all whole."""
    if set(map(type, vals)) <= {int}:
        return 1, list(vals)
    vals = [Fraction(x) for x in vals]
    s = lcm(*(x.denominator for x in vals))
    return s, [x.numerator * (s // x.denominator) for x in vals]


class _Simplex:
    """Minimize c . x over integer columns S x = b, b >= 0, x >= 0.

    The state is D = |det B| > 0, M = D * B^-1 and xB = D * B^-1 b, all
    integer; the first basis is the identity.  A pivot on entry p of the
    integer column M a makes |p| the new D, and each update divides
    exactly by the old one.  Reduced costs and ratios are compared in
    these integers, scaled by D, so their signs and order are those of
    the exact rationals.  Bland's rule: first negative reduced cost
    enters, leaving row breaks ratio ties by smallest basic index.
    """

    def __init__(self, cols, b, basis):
        self.cols = cols
        self.m = len(b)
        self.D = 1
        self.M = [[int(i == j) for j in range(self.m)] for i in range(self.m)]
        self.xB = list(b)
        self.basis = basis

    def column(self, j):
        col = self.cols[j]
        return [sum(map(mul, row, col)) for row in self.M]

    def prices(self, c):
        """D times the simplex multipliers c_B B^-1."""
        y = [0] * self.m
        for row, bj in zip(self.M, self.basis):
            cb = c[bj]
            if cb:
                y = [a + cb * b for a, b in zip(y, row)]
        return y

    def pivot(self, i, j, d):
        p, D = d[i], self.D
        M, xB = self.M, self.xB
        base, xi = M[i], xB[i]
        for k in range(self.m):
            if k == i:
                continue
            f = d[k]
            if f:
                M[k] = [(p * a - f * b) // D for a, b in zip(M[k], base)]
                xB[k] = (p * xB[k] - f * xi) // D
            elif p != D:
                M[k] = [p * a // D for a in M[k]]
                xB[k] = p * xB[k] // D
        if p < 0:
            # a degenerate drive-out pivot may be negative: det B
            # changed sign, so negate the state to keep D > 0
            p = -p
            self.M = [[-a for a in row] for row in M]
            self.xB = [-a for a in xB]
        self.D = p
        self.basis[i] = j

    def run(self, c, blocked):
        basic = set(self.basis)
        cols = self.cols
        while True:
            y = self.prices(c)
            D = self.D
            enter = None
            for j, col in enumerate(cols):
                if j in basic or j in blocked:
                    continue
                if D * c[j] < sum(map(mul, y, col)):
                    enter = j
                    break
            if enter is None:
                return
            d = self.column(enter)
            xB, basis = self.xB, self.basis
            leave = None
            for i, di in enumerate(d):
                if di > 0:
                    if leave is None:
                        leave = i
                        continue
                    # xB[i] / di against xB[leave] / d[leave]
                    lhs, rhs = xB[i] * d[leave], xB[leave] * di
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave = i
            if leave is None:
                raise InvariantViolation("linear program is unbounded")
            basic.discard(basis[leave])
            basic.add(enter)
            self.pivot(leave, enter, d)


def lp_min(obj, A_ub, b_ub, A_eq, b_eq) -> LPResult:
    """Exact minimum of obj . x over A_ub x <= b_ub, A_eq x = b_eq, x >= 0.

    Two-phase revised simplex, Bland's rule throughout.  Returns the
    value, the minimizer, and one dual price per row; raises if
    infeasible or unbounded.

    Row k (right-hand side included, negated when that is negative) is
    scaled by the least s_k > 0 that makes it integer, and its slack and
    artificial keep the unit column, so they measure s_k times the
    original.  Phase one charges artificial k in proportion to 1 / s_k,
    and a positive rescaling of a variable or an objective changes no
    reduced-cost sign and no ratio order: the pivots are those of the
    unscaled program, and so are x, y and the value once unscaled.
    """
    nv = len(obj)
    rows = [(a, v, False) for a, v in zip(A_ub, b_ub)]
    rows += [(a, v, True) for a, v in zip(A_eq, b_eq)]
    m = len(rows)
    flipped = []
    scale = []
    stored = []
    for a, v, eq in rows:
        s, a = _integer_multiple(list(a) + [0] * (nv - len(a)) + [v])
        neg = a[-1] < 0
        flipped.append(neg)
        scale.append(s)
        stored.append([-x for x in a] if neg else a)

    cols = list(zip(*stored))[:nv] if m else [()] * nv
    slack_of = {}
    for k, (_, _, eq) in enumerate(rows):
        if not eq:
            col = [0] * m
            col[k] = -1 if flipped[k] else 1
            slack_of[k] = len(cols)
            cols.append(col)
    arts = {}
    basis = []
    for k in range(m):
        j = slack_of.get(k)
        if j is not None and not flipped[k]:
            basis.append(j)
        else:
            col = [0] * m
            col[k] = 1
            arts[k] = len(cols)
            basis.append(len(cols))
            cols.append(col)

    S = _Simplex(cols, [row[-1] for row in stored], basis)
    art_set = frozenset(arts.values())
    if arts:
        c1 = [0] * len(cols)
        unit = lcm(*(scale[k] for k in arts))
        for k, j in arts.items():
            c1[j] = unit // scale[k]
        S.run(c1, frozenset())
        if sum(c1[bj] * v for bj, v in zip(S.basis, S.xB)):
            raise InvariantViolation("linear program is infeasible")
        for i in range(m):
            if S.basis[i] in art_set:
                # degenerate pivot to a real column, or the row is
                # redundant under this basis and can stay put
                row = S.M[i]
                for j in range(len(cols) - len(arts)):
                    if j in S.basis:
                        continue
                    if sum(map(mul, row, cols[j])):
                        S.pivot(i, j, S.column(j))
                        break

    s_obj, c2 = _integer_multiple(obj)
    c2 += [0] * (len(cols) - nv)
    S.run(c2, art_set)

    D = S.D
    x = [ZERO] * nv
    for bj, v in zip(S.basis, S.xB):
        if bj < nv:
            x[bj] = Fraction(v, D)
    den = D * s_obj
    y = [
        Fraction(-yk * s if neg else yk * s, den)
        for yk, s, neg in zip(S.prices(c2), scale, flipped)
    ]
    value = Fraction(sum(c2[bj] * v for bj, v in zip(S.basis, S.xB)), den)
    return LPResult(value, tuple(x), tuple(y))


# -- edge tests ----------------------------------------------------------


class _ScaledPoints(tuple):
    """Points with their integer form: the least common denominator L of
    every coordinate, and ints, the points times L.  A sweep builds it
    once and passes it to every edge_gap call in place of the points."""

    def __new__(cls, points):
        self = super().__new__(cls, points)
        self.scale, flat = _integer_multiple([x for p in self for x in p])
        it = iter(flat)
        self.ints = tuple(tuple(islice(it, len(p))) for p in self)
        return self


def _scaled(points) -> _ScaledPoints:
    return points if isinstance(points, _ScaledPoints) else _ScaledPoints(points)


def edge_gap(points, i: int, j: int) -> Fraction:
    """Optimum of the support program for vertices i, j.

    Built and solved in dual form: one column per other point, rows
    indexed by the coordinates.  Positive gap means [i, j] is an edge
    of the hull.
    """
    points = _scaled(points)
    P = points.ints
    u, v = P[i], P[j]
    if u == v:
        raise ValueError("edge test needs two distinct points")
    n = len(u)
    others = [w for k, w in enumerate(P) if k != i and k != j]
    d0 = [a - b for a, b in zip(u, v)]
    # dual, on the points times L: minimize z over mu >= 0 (one per
    # other point) and a free lam split in two, subject to sum(mu) = 1
    # and, per coordinate, |sum_w mu_w (u - w) - lam (u - v)| <= z.
    # Its optimum is L times the gap of the points as given.
    nw = len(others)
    obj = [0] * (nw + 2) + [1]
    A_ub = []
    for t in range(n):
        ut = u[t]
        pos = [ut - w[t] for w in others] + [-d0[t], d0[t], -1]
        A_ub.append(pos)
        A_ub.append([-x for x in pos[:-1]] + [-1])
    res = lp_min(obj, A_ub, [0] * (2 * n), [[1] * nw + [0, 0, 0]], [1])
    gap = res.value
    # Certify the verdict from both sides before trusting it.  The primal
    # solution is a convex combination meeting the line through u and v up
    # to residual gap (upper bound); for a positive gap the row prices
    # yield a supporting functional worth at least gap (lower bound).
    # Both checks are plain integer arithmetic after clearing the
    # witnesses' denominators, so the answer does not rest on the
    # simplex implementation being bug free.
    support = [k for k in range(nw) if res.x[k]]
    lam = res.x[nw] - res.x[nw + 1]
    s, ints = _integer_multiple([res.x[k] for k in support] + [lam])
    mu, lam = ints[:-1], ints[-1]
    if any(a < 0 for a in mu) or sum(mu) != s:
        raise InvariantViolation("combination witness is not convex")
    # s * residual = s * u - sum_w mu_w w - lam d0, against s * gap
    bound = gap.numerator * s
    for t in range(n):
        r = s * u[t] - sum(a * others[k][t] for a, k in zip(mu, support))
        if abs(r - lam * d0[t]) * gap.denominator > bound:
            raise InvariantViolation("combination witness exceeds the gap")
    if gap > 0:
        s, c = _integer_multiple(
            [res.y[2 * t + 1] - res.y[2 * t] for t in range(n)]
        )
        if sum(map(abs, c)) > s:
            raise InvariantViolation("support witness is not normalized")
        if sum(map(mul, c, d0)):
            raise InvariantViolation("support witness separates u from v")
        # c . (u - w) >= gap at every other point w, times s
        cu = sum(map(mul, c, u))
        bound = gap.numerator * s
        for w in others:
            if (cu - sum(map(mul, c, w))) * gap.denominator < bound:
                raise InvariantViolation("support witness fails a hull point")
    return gap / points.scale


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
    points = _scaled(points)
    if threads <= 1:
        return _degree_chunk((points, i, work))
    # imported here: it costs every CLI start about 20 ms otherwise
    from concurrent.futures import ProcessPoolExecutor

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
