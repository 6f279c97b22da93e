import itertools
import random
from bisect import bisect_left
from fractions import Fraction
from math import gcd

import pytest

from permhomology import resolution
from permhomology.catalog import dihedral, symmetric
from permhomology.intlinalg import (
    ColumnSolver,
    ZSpan,
    _row_echelon,
    smith_diagonal_sparse,
    smith_normal_form,
    xgcd,
)


# -- the dense reference: the echelon engine on plain lists ---------------


def mat_vec(A: list, v) -> list:
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def identity_matrix(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(A: list, B: list) -> list:
    if not B:
        return [[] for _ in A]
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def row_echelon_dense(A: list):
    """Integer row echelon via xgcd row ops: returns (H, U, pivots) with
    U*A = H, pivots a list of (row, col), pivot entries positive, zeros
    below each pivot (entries above are not reduced)."""
    m = len(A)
    n = len(A[0]) if A else 0
    H = [list(row) for row in A]
    U = identity_matrix(m)
    pivots = []
    r = 0
    for c in range(n):
        k = next((i for i in range(r, m) if H[i][c]), None)
        if k is None:
            continue
        H[r], H[k] = H[k], H[r]
        U[r], U[k] = U[k], U[r]
        for i in range(r + 1, m):
            while H[i][c]:
                p, q = H[r][c], H[i][c]
                if q % p == 0:
                    f = q // p
                    H[i] = [a - f * b for a, b in zip(H[i], H[r])]
                    U[i] = [a - f * b for a, b in zip(U[i], U[r])]
                else:
                    g, x, y = xgcd(p, q)
                    a, b = p // g, q // g
                    hr, hi = H[r], H[i]
                    H[r] = [x * s + y * t for s, t in zip(hr, hi)]
                    H[i] = [-b * s + a * t for s, t in zip(hr, hi)]
                    ur, ui = U[r], U[i]
                    U[r] = [x * s + y * t for s, t in zip(ur, ui)]
                    U[i] = [-b * s + a * t for s, t in zip(ur, ui)]
        if H[r][c] < 0:
            H[r] = [-a for a in H[r]]
            U[r] = [-a for a in U[r]]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    return H, U, pivots


def rank_int(A: list) -> int:
    return len(row_echelon_dense(A)[2])


class DenseZSpan:
    """ZSpan's echelon insertion on dense rows of length n, with dense
    transforms over the tags range(m).  A row stored or changed is
    reduced at the leading column of every row below it, top down."""

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m
        self.rows = []
        self.transforms = []
        self.leads = []

    def _store(self, pos, row, t):
        for k in range(pos + 1, len(self.rows)):
            c = self.leads[k]
            q = row[c] // self.rows[k][c]
            row = [a - q * b for a, b in zip(row, self.rows[k])]
            t = [a - q * b for a, b in zip(t, self.transforms[k])]
        self.rows[pos], self.transforms[pos] = row, t

    def insert(self, v, tag) -> bool:
        v = list(v)
        t = [int(i == tag) for i in range(self.m)]
        grew = False
        while True:
            p = next((i for i, a in enumerate(v) if a), None)
            if p is None:
                return grew
            pos = bisect_left(self.leads, p)
            if pos == len(self.leads) or self.leads[pos] != p:
                if v[p] < 0:
                    v, t = [-a for a in v], [-a for a in t]
                self.rows.insert(pos, None)
                self.transforms.insert(pos, None)
                self.leads.insert(pos, p)
                self._store(pos, v, t)
                return True
            match, tm = self.rows[pos], self.transforms[pos]
            q, rem = divmod(v[p], match[p])
            if rem == 0:
                v = [a - q * b for a, b in zip(v, match)]
                t = [a - q * b for a, b in zip(t, tm)]
            else:
                g, x, y = xgcd(match[p], v[p])
                a, b = match[p] // g, v[p] // g
                new = [x * r + y * u for r, u in zip(match, v)]
                v = [-b * r + a * u for r, u in zip(match, v)]
                tn = [x * r + y * u for r, u in zip(tm, t)]
                t = [-b * r + a * u for r, u in zip(tm, t)]
                self._store(pos, new, tn)
                grew = True


def assert_span_matches(span, ref):
    """The sparse span holds the reference's rows and transforms."""
    assert sorted(span.rows) == ref.leads
    assert [as_dense(span.rows[c], ref.n) for c in ref.leads] == ref.rows
    assert [as_dense(span.transforms[c], ref.m) for c in ref.leads] == ref.transforms


def as_dense(v: dict, n: int) -> list:
    return [v.get(i, 0) for i in range(n)]


def as_sparse(v) -> dict:
    return {i: a for i, a in enumerate(v) if a}


def sparse_cols(A: list, n: int | None = None) -> list:
    """The columns of the dense m x n matrix A, in ColumnSolver's form."""
    if n is None:
        n = len(A[0])
    return [as_sparse(row[j] for row in A) for j in range(n)]


def solver_of(A: list, n: int | None = None) -> ColumnSolver:
    return ColumnSolver(sparse_cols(A, n), len(A))


def kernel_basis(A: list, n: int | None = None) -> list:
    """ColumnSolver's basis of the integer kernel of A, as dense lists."""
    solver = solver_of(A, n)
    return [as_dense(v, solver.n) for v in solver.kernel()]


def sparse_rows(A: list) -> list:
    return [as_sparse(row) for row in A]


def det(A):
    """Exact determinant by fraction-free expansion (tests only)."""
    n = len(A)
    if n == 0:
        return 1
    M = [[Fraction(x) for x in row] for row in A]
    sign = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            sign = -sign
        for r in range(c + 1, n):
            f = M[r][c] / M[c][c]
            M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    out = Fraction(sign)
    for i in range(n):
        out *= M[i][i]
    assert out.denominator == 1
    return out.numerator


def snf_oracle(A):
    """Smith diagonal via determinantal divisors: d_k = gcd of all k-minors,
    invariant factor s_k = d_k / d_{k-1}.  Only viable for tiny matrices,
    which is the point: it shares no code with the implementation."""
    m, n = len(A), len(A[0])
    out = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        dk = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                minor = det([[A[r][c] for c in cols] for r in rows])
                dk = gcd(dk, minor)
        if dk == 0:
            break
        out.append(dk // prev)
        prev = dk
    out += [0] * (min(m, n) - len(out))
    return out


def rand_matrix(rng, m, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def test_xgcd():
    rng = random.Random(1)
    for _ in range(200):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        g, x, y = xgcd(a, b)
        assert g == gcd(a, b) >= 0
        assert a * x + b * y == g


def entries_of(A: list) -> dict:
    return {(i, j): a for i, row in enumerate(A) for j, a in enumerate(row) if a}


def test_smith_matches_minor_oracle():
    rng = random.Random(2)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = rand_matrix(rng, m, n)
        diag, _, _ = smith_normal_form(A)
        assert diag == snf_oracle(A)
        assert smith_diagonal_sparse(entries_of(A)) == [d for d in diag if d]


def test_sparse_smith_matches_dense():
    # the entry point without transforms against the one with them, and
    # both against the minor oracle
    rng = random.Random(4)
    for _ in range(40):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        A = rand_matrix(rng, m, n, -4, 4)
        # thin it out to exercise the sparse paths
        for i in range(m):
            for j in range(n):
                if rng.random() < 0.5:
                    A[i][j] = 0
        dense = smith_normal_form(A)[0]
        assert dense == snf_oracle(A)
        assert smith_diagonal_sparse(entries_of(A)) == [d for d in dense if d]


def assert_smith_transforms(A: list) -> list:
    """smith_normal_form(A)'s diagonal, after checking U*A*V = D with
    U, V unimodular and the diagonal a divisibility chain."""
    m, n = len(A), len(A[0])
    diag, U, V = smith_normal_form(A)
    assert len(diag) == min(m, n)
    S = mat_mul(mat_mul(U, A), V)
    for i in range(m):
        for j in range(n):
            assert S[i][j] == (diag[i] if i == j and i < len(diag) else 0)
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1
    for i in range(len(diag) - 1):
        if diag[i]:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    return diag


def test_smith_transforms():
    rng = random.Random(3)
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        assert_smith_transforms(rand_matrix(rng, m, n))


def test_smith_transform_branches():
    # two coprime pivots: the chain merge takes diag(2, 3) to diag(1, 6)
    assert assert_smith_transforms([[2, 0], [0, 3]]) == [1, 6]
    # negative pivots, a unit and a non-unit, flip their U rows
    assert assert_smith_transforms([[-1, 0], [0, -4]]) == [1, 4]
    assert assert_smith_transforms([[-2, 0, 0], [0, 0, -6]]) == [2, 6]
    # wide: the pivot column is shorter than its row, so rows are cleared
    # and the rest of the pivot row goes to V; tall: the pivot row is
    # shorter, columns are cleared and the rest of the column goes to U.
    # The second nonzero row is twice the first in both.
    wide = [[0, 1, 0, 2, 3], [0, 0, 0, 0, 0], [0, 2, 0, 4, 6]]
    tall = [[0, 0], [1, 2], [0, 0], [2, 4], [3, 6]]
    assert assert_smith_transforms(wide) == [1, 0, 0]
    assert assert_smith_transforms(tall) == [1, 0]


def test_smith_known_values():
    diag, _, _ = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    assert diag == [2, 6, 12]
    diag, _, _ = smith_normal_form([[1, 0], [0, 1]])
    assert diag == [1, 1]
    diag, _, _ = smith_normal_form([[0, 0], [0, 0]])
    assert diag == [0, 0]


def test_rank():
    assert rank_int([[1, 2], [2, 4]]) == 1
    assert rank_int([[1, 0], [0, 1]]) == 2
    assert rank_int([[0]]) == 0
    rng = random.Random(5)
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = rand_matrix(rng, m, n)
        assert rank_int(A) == sum(1 for d in smith_normal_form(A)[0] if d)


def test_solver_finds_integer_solutions():
    rng = random.Random(6)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = rand_matrix(rng, m, n)
        x0 = [rng.randint(-5, 5) for _ in range(n)]
        b = mat_vec(A, x0)
        x = solver_of(A).solve(as_sparse(b))
        assert x is not None
        assert mat_vec(A, as_dense(x, n)) == b


def test_solver_rejects_unsolvable():
    assert solver_of([[2]]).solve({0: 1}) is None
    assert solver_of([[1, 0], [0, 0]]).solve({0: 3, 1: 1}) is None
    # solvable over Q but not Z
    assert solver_of([[2, 0], [0, 3]]).solve({0: 1, 1: 3}) is None


def test_solver_deterministic():
    A = [[1, 2, 3], [0, 0, 0]]
    b = {0: 6}
    assert solver_of(A).solve(b) == solver_of(A).solve(b)


def test_kernel_basis():
    rng = random.Random(7)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = rand_matrix(rng, m, n)
        ker = kernel_basis(A)
        assert len(ker) == n - rank_int(A)
        for v in ker:
            assert mat_vec(A, v) == [0] * m
        if ker:
            # basis of the full integer kernel: stacked, its Smith
            # diagonal is all ones (the kernel lattice is saturated)
            diag, _, _ = smith_normal_form(ker)
            assert all(d == 1 for d in diag)


def test_zspan_membership_matches_brute_force():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(1, 4)
        vecs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        span = ZSpan(n)
        for t, v in enumerate(vecs):
            span.insert(as_sparse(v), t)
        # brute force: all small integer combinations
        combos = set()
        for coeffs in itertools.product(range(-4, 5), repeat=len(vecs)):
            w = tuple(sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(n))
            combos.add(w)
        for w in combos:
            if all(abs(a) <= 6 for a in w):
                assert span.contains(as_sparse(w))
        for _ in range(20):
            w = as_sparse(rng.randint(-6, 6) for _ in range(n))
            got = span.contains(w)
            # cross-check via integer solvability of (vecs)^T x = w
            solver = ColumnSolver([as_sparse(v) for v in vecs], n)
            assert got == (solver.solve(w) is not None)
            # solve names a combination of the inserted vectors summing to w
            x = span.solve(w)
            assert got == (x is not None)
            if got:
                total = [sum(x.get(t, 0) * v[i] for t, v in enumerate(vecs))
                         for i in range(n)]
                assert as_sparse(total) == w


def test_zspan_insert_reports_growth():
    span = ZSpan(3)
    assert span.insert({0: 2}, 0)
    assert not span.insert({0: 4}, 1)
    assert span.insert({0: 1}, 2)  # refines the existing row
    assert not span.insert({0: 3}, 3)
    assert span.insert({2: 5}, 4)
    assert span.rank == 2


def test_identity_matrix():
    assert identity_matrix(2) == [[1, 0], [0, 1]]
    assert mat_mul(identity_matrix(3), identity_matrix(3)) == identity_matrix(3)


def test_vectors_of_the_wrong_length_are_rejected():
    span = ZSpan(3)
    span.insert({0: 1}, 0)
    with pytest.raises(ValueError):
        span.contains({0: 1, 3: 5})
    with pytest.raises(ValueError):
        span.insert({3: 7}, 1)
    with pytest.raises(ValueError):
        span.contains({3: 1})
    with pytest.raises(ValueError):
        span.solve({3: 1})
    assert span.rows == {0: {0: 1}} and span.transforms == {0: {0: 1}}
    with pytest.raises(ValueError):
        solver_of([[1, 0], [0, 1]]).solve({0: 1, 1: 1, 2: 0})
    with pytest.raises(ValueError):
        solver_of([[1, 0], [0, 1]]).solve({2: 1})
    with pytest.raises(ValueError):
        ColumnSolver([{0: 1}, {2: 1}], 2)  # a row index past the row count


# -- the sparse engine against the dense reference -------------------------


def assert_echelon_matches(A: list, n: int):
    """The sparse engine gives the reference's (H, U, pivots) on A (dense
    rows of length n), and ColumnSolver's kernel is the reference's."""
    H, U, pivots = _row_echelon(sparse_rows(A), n)
    H0, U0, pivots0 = row_echelon_dense(A)
    assert pivots == pivots0
    assert [as_dense(row, n) for row in H] == H0
    assert [as_dense(row, len(A)) for row in U] == U0
    # ColumnSolver echelons the columns, the rows of the transpose: its
    # kernel is read from U
    At = [[A[i][j] for i in range(len(A))] for j in range(n)]
    _, Ut, pivots_t = row_echelon_dense(At)
    assert kernel_basis(A, n) == Ut[len(pivots_t):]


def random_sparse_matrix(rng, m, n):
    A = [[0] * n for _ in range(m)]
    density = rng.choice((0.1, 0.3, 0.7, 1.0))
    bound = rng.choice((1, 6, 1000))
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                A[i][j] = rng.randint(-bound, bound)
    if m and rng.random() < 0.4:
        A[rng.randrange(m)] = [0] * n
    if n and rng.random() < 0.4:
        j = rng.randrange(n)
        for row in A:
            row[j] = 0
    return A


def test_sparse_echelon_matches_dense_reference_on_random_matrices():
    rng = random.Random(9)
    shapes = [(0, 0), (0, 3), (1, 1), (3, 0)]
    shapes += [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(150)]
    assert any(m > n for m, n in shapes) and any(m < n for m, n in shapes)
    for m, n in shapes:
        A = random_sparse_matrix(rng, m, n)
        assert_echelon_matches(A, n)


def test_sparse_span_matches_dense_reference():
    rng = random.Random(10)
    for _ in range(60):
        n = rng.randint(1, 8)
        vecs = random_sparse_matrix(rng, rng.randint(1, 10), n)
        span, ref = ZSpan(n), DenseZSpan(n, len(vecs))
        for t, v in enumerate(vecs):
            assert span.insert(as_sparse(v), t) == ref.insert(v, t)
            assert_span_matches(span, ref)


def _record_resolution_small(monkeypatch, G, depth):
    """Every ZSpan that resolution_small(G, depth) builds, with the
    (vector, tag) pairs inserted into it, and the resolution."""
    spans = []

    class RecordingSpan(ZSpan):
        def __init__(self, n):
            super().__init__(n)
            self.inserted = []
            spans.append(self)

        def insert(self, v, t):
            self.inserted.append((dict(v), t))
            return super().insert(v, t)

    monkeypatch.setattr(resolution, "_small_memo", {})
    monkeypatch.setattr(resolution, "ZSpan", RecordingSpan)
    return resolution.resolution_small(G, depth), spans


@pytest.mark.parametrize("G, depth", [(symmetric(4), 3), (dihedral(12), 4)])
def test_sparse_engine_matches_dense_reference_on_resolution_boundaries(
    monkeypatch, G, depth
):
    R, spans = _record_resolution_small(monkeypatch, G, depth)
    n = R.G.n
    for k in range(1, depth + 1):
        # the translates of d_k's generators, one column per (generator,
        # element), with the rows of R_{k-1}
        cols = [resolution.translate_vec(R.G, e, R.boundary(k, j))
                for j in range(R.ranks[k]) for e in range(n)]
        m = n * R.ranks[k - 1]
        assert_echelon_matches([as_dense(c, m) for c in cols], m)
    # one span per degree, holding the translates of the generators
    # chosen so far, each tagged with its index in the next module
    assert len(spans) == depth
    for k, span in enumerate(spans):
        ref = DenseZSpan(span.n, n * R.ranks[k + 1])
        for v, t in span.inserted:
            ref.insert(as_dense(v, span.n), t)
        assert_span_matches(span, ref)
