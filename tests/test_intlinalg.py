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
    identity_matrix,
    kernel_basis,
    smith_diagonal_sparse,
    smith_normal_form,
    xgcd,
)


# -- the dense reference: the echelon engine on plain lists ---------------


def mat_vec(A: list, v) -> list:
    return [sum(a * x for a, x in zip(row, v)) for row in A]


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
    """ZSpan's echelon insertion on dense rows."""

    def __init__(self, n: int):
        self.n = n
        self.rows = []
        self.leads = []

    def insert(self, v) -> bool:
        v = list(v)
        grew = False
        while True:
            p = next((i for i, a in enumerate(v) if a), None)
            if p is None:
                return grew
            pos = bisect_left(self.leads, p)
            if pos == len(self.leads) or self.leads[pos] != p:
                if v[p] < 0:
                    v = [-a for a in v]
                self.rows.insert(pos, v)
                self.leads.insert(pos, p)
                return True
            match = self.rows[pos]
            q, rem = divmod(v[p], match[p])
            if rem == 0:
                v = [a - q * b for a, b in zip(v, match)]
            else:
                g, x, y = xgcd(match[p], v[p])
                a, b = match[p] // g, v[p] // g
                new = [x * s + y * t for s, t in zip(match, v)]
                v = [-b * s + a * t for s, t in zip(match, v)]
                self.rows[pos] = new
                grew = True


def as_dense(v: dict, n: int) -> list:
    return [v.get(i, 0) for i in range(n)]


def sparse_rows(A: list) -> list:
    return [{j: a for j, a in enumerate(row) if a} for row in A]


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


def test_smith_matches_minor_oracle():
    rng = random.Random(2)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = rand_matrix(rng, m, n)
        diag, _, _ = smith_normal_form(A)
        assert diag == snf_oracle(A)


def test_smith_transforms():
    rng = random.Random(3)
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = rand_matrix(rng, m, n)
        diag, U, V = smith_normal_form(A)
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


def test_smith_known_values():
    diag, _, _ = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    assert diag == [2, 6, 12]
    diag, _, _ = smith_normal_form([[1, 0], [0, 1]])
    assert diag == [1, 1]
    diag, _, _ = smith_normal_form([[0, 0], [0, 0]])
    assert diag == [0, 0]


def test_sparse_smith_matches_dense():
    rng = random.Random(4)
    for _ in range(40):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        A = rand_matrix(rng, m, n, -4, 4)
        # thin it out to exercise the sparse paths
        for i in range(m):
            for j in range(n):
                if rng.random() < 0.5:
                    A[i][j] = 0
        entries = {(i, j): A[i][j] for i in range(m) for j in range(n) if A[i][j]}
        dense = [d for d in smith_normal_form(A)[0] if d]
        assert smith_diagonal_sparse(entries) == dense


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
        x = ColumnSolver(A).solve(b)
        assert x is not None
        assert mat_vec(A, as_dense(x, n)) == b


def test_solver_rejects_unsolvable():
    assert ColumnSolver([[2]]).solve([1]) is None
    assert ColumnSolver([[1, 0], [0, 0]]).solve([3, 1]) is None
    # solvable over Q but not Z
    assert ColumnSolver([[2, 0], [0, 3]]).solve([1, 3]) is None


def test_solver_deterministic():
    A = [[1, 2, 3], [0, 0, 0]]
    b = [6, 0]
    assert ColumnSolver(A).solve(b) == ColumnSolver(A).solve(b)


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
        for v in vecs:
            span.insert(v)
        # brute force: all small integer combinations
        combos = set()
        for coeffs in itertools.product(range(-4, 5), repeat=len(vecs)):
            w = tuple(sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(n))
            combos.add(w)
        for w in combos:
            if all(abs(a) <= 6 for a in w):
                assert span.contains(w)
        for _ in range(20):
            w = [rng.randint(-6, 6) for _ in range(n)]
            got = span.contains(w)
            # cross-check via integer solvability of (vecs)^T x = w
            At = [[v[i] for v in vecs] for i in range(n)]
            assert got == (ColumnSolver(At).solve(w) is not None)


def test_zspan_insert_reports_growth():
    span = ZSpan(3)
    assert span.insert([2, 0, 0])
    assert not span.insert([4, 0, 0])
    assert span.insert([1, 0, 0])  # refines the existing row
    assert not span.insert([3, 0, 0])
    assert span.insert([0, 0, 5])
    assert span.rank == 2


def test_identity_matrix():
    assert identity_matrix(2) == [[1, 0], [0, 1]]
    assert mat_mul(identity_matrix(3), identity_matrix(3)) == identity_matrix(3)


def test_vectors_of_the_wrong_length_are_rejected():
    span = ZSpan(3)
    span.insert([1, 0, 0])
    with pytest.raises(ValueError):
        span.contains([1, 0, 0, 5])
    with pytest.raises(ValueError):
        span.insert([0, 0, 0, 7])
    with pytest.raises(ValueError):
        span.contains({3: 1})
    assert span.rows == [{0: 1}]
    with pytest.raises(ValueError):
        ColumnSolver([[1, 0], [0, 1]]).solve([1, 1, 0])
    with pytest.raises(ValueError):
        ColumnSolver([[1, 0], [0, 1]]).solve({2: 1})
    with pytest.raises(ValueError):
        ColumnSolver([[1, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        ColumnSolver([{0: 1}])  # sparse rows carry no column count


# -- the sparse engine against the dense reference -------------------------


def assert_echelon_matches(A: list, n: int):
    """The sparse engine gives the reference's (H, U, pivots) on A (dense
    rows of length n), and ColumnSolver's kernel is the reference's."""
    H, U, pivots = _row_echelon(sparse_rows(A), n)
    H0, U0, pivots0 = row_echelon_dense(A)
    assert pivots == pivots0
    assert [as_dense(row, n) for row in H] == H0
    assert [as_dense(row, len(A)) for row in U] == U0
    # ColumnSolver echelons the transpose: its kernel is read from U
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
        span, ref = ZSpan(n), DenseZSpan(n)
        for v in random_sparse_matrix(rng, rng.randint(1, 10), n):
            assert span.insert(v) == ref.insert(v)
            assert [as_dense(row, n) for row in span.rows] == ref.rows
            assert span.leads == ref.leads


def _record_resolution_small(monkeypatch, G, depth):
    """Every matrix handed to ColumnSolver and every ZSpan, with the
    vectors inserted into it, while resolution_small(G, depth) runs."""
    solved, spans = [], []

    def solver(A, n=None):
        solved.append((A, n))
        return ColumnSolver(A, n)

    class RecordingSpan(ZSpan):
        def __init__(self, n):
            super().__init__(n)
            self.inserted = []
            spans.append(self)

        def insert(self, v):
            self.inserted.append(dict(v))
            return super().insert(v)

    monkeypatch.setattr(resolution, "_small_memo", {})
    monkeypatch.setattr(resolution, "ColumnSolver", solver)
    monkeypatch.setattr(resolution, "ZSpan", RecordingSpan)
    resolution.resolution_small(G, depth)
    return solved, spans


@pytest.mark.parametrize("G, depth", [(symmetric(4), 3), (dihedral(12), 4)])
def test_sparse_engine_matches_dense_reference_on_resolution_boundaries(
    monkeypatch, G, depth
):
    solved, spans = _record_resolution_small(monkeypatch, G, depth)
    assert len(solved) == depth + 1
    for A, n in solved:
        rows = [as_dense(r, n) if isinstance(r, dict) else list(r) for r in A]
        # ColumnSolver echelons the transpose of the flattened boundary
        assert_echelon_matches([[row[j] for row in rows] for j in range(n)], len(rows))
    assert len(spans) == depth
    for span in spans:
        ref = DenseZSpan(span.n)
        for v in span.inserted:
            ref.insert(as_dense(v, span.n))
        assert [as_dense(row, span.n) for row in span.rows] == ref.rows
