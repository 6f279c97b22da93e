import itertools
import random
from fractions import Fraction
from math import gcd

from permhomology.intlinalg import (
    ColumnSolver,
    ZSpan,
    identity_matrix,
    kernel_basis,
    mat_mul,
    mat_vec,
    rank_int,
    smith_diagonal_sparse,
    smith_normal_form,
    xgcd,
)


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
        assert mat_vec(A, x) == b


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
