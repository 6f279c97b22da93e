"""Integer linear algebra: Smith and Hermite forms, kernels, span tracking,
and the prime factorisation the other modules read primes from.

Plain Python ints throughout (no overflow), matrices as lists of rows.
An m x n matrix maps Z^n to Z^m acting on column vectors.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from math import gcd


def factor(n: int) -> dict:
    """Prime factorisation {p: e} of n >= 1, primes ascending."""
    out: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def p_part(n: int, p: int) -> int:
    """The largest power of the prime p dividing n >= 1."""
    return p ** factor(n).get(p, 0)


def xgcd(a: int, b: int):
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def identity_matrix(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_vec(A: list, v) -> list:
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def mat_mul(A: list, B: list) -> list:
    if not B:
        return [[] for _ in A]
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def smith_normal_form(A: list):
    """Diagonalize over Z: returns (diag, U, V) with U*A*V diagonal,
    U and V unimodular, diag a divisibility chain d1 | d2 | ... >= 0.

    diag has length min(m, n) including trailing zeros.
    """
    m = len(A)
    n = len(A[0]) if A else 0
    S = [list(row) for row in A]
    U = identity_matrix(m)
    V = identity_matrix(n)

    def rowcombine(i, k, x, y, z, w):
        # rows i, k <- (x*row_i + y*row_k, z*row_i + w*row_k); det = xw - yz = +-1
        for M in (S, U):
            ri, rk = M[i], M[k]
            M[i] = [x * a + y * b for a, b in zip(ri, rk)]
            M[k] = [z * a + w * b for a, b in zip(ri, rk)]

    def colcombine(j, k, x, y, z, w):
        for M in (S, V):
            for row in M:
                a, b = row[j], row[k]
                row[j] = x * a + y * b
                row[k] = z * a + w * b

    def swap_rows(i, k):
        if i != k:
            rowcombine(i, k, 0, 1, 1, 0)

    def swap_cols(j, k):
        if j != k:
            colcombine(j, k, 0, 1, 1, 0)

    t = 0
    while True:
        best = None
        for i in range(t, m):
            row = S[i]
            for j in range(t, n):
                v = row[j]
                if v and (best is None or abs(v) < abs(best[2])):
                    best = (i, j, v)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            if S[t][t] < 0:
                S[t] = [-a for a in S[t]]
                U[t] = [-a for a in U[t]]
            p = S[t][t]
            k = next((i for i in range(t + 1, m) if S[i][t]), None)
            if k is not None:
                q = S[k][t]
                if q % p == 0:
                    rowcombine(t, k, 1, 0, -(q // p), 1)
                else:
                    g, x, y = xgcd(p, q)
                    rowcombine(t, k, x, y, -(q // g), p // g)
                continue
            k = next((j for j in range(t + 1, n) if S[t][j]), None)
            if k is not None:
                q = S[t][k]
                if q % p == 0:
                    colcombine(t, k, 1, 0, -(q // p), 1)
                else:
                    g, x, y = xgcd(p, q)
                    colcombine(t, k, x, y, -(q // g), p // g)
                continue
            # row and column t are clear; enforce that the pivot divides
            # the rest of the matrix before moving on
            bad = None
            for i in range(t + 1, m):
                row = S[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            rowcombine(t, bad, 1, 1, 0, 1)
        t += 1
    diag = [S[i][i] for i in range(min(m, n))]
    return diag, U, V


def _row_echelon(A: list):
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
    return len(_row_echelon(A)[2])


class ColumnSolver:
    """Solve A x = b over Z, and read off the integer kernel of A.

    Precomputes a column Hermite form A V = H once, so repeated solves
    against the same matrix are cheap.  ``solve`` returns the unique
    echelon-determined solution (or None), so results are reproducible.
    """

    def __init__(self, A: list, n: int | None = None):
        m = len(A)
        if n is None:
            n = len(A[0]) if A else 0
        At = [[A[i][j] for i in range(m)] for j in range(n)]
        Ht, Ut, pivots = _row_echelon(At)
        self.m, self.n = m, n
        # A V = H with V = Ut^T, H = Ht^T column echelon
        self.H = [[Ht[j][i] for j in range(n)] for i in range(m)]
        self.V = [[Ut[j][i] for j in range(n)] for i in range(n)]
        self.pivots = [(c, r) for r, c in pivots]  # (pivot row in H, column)
        self.kernel_cols = list(range(len(pivots), n))
        # only pivot columns are touched during solves; store them sparse
        self._hcols = {}
        self._vcols = {}
        for r, c in self.pivots:
            self._hcols[c] = [(i, self.H[i][c]) for i in range(m) if self.H[i][c]]
            self._vcols[c] = [(i, self.V[i][c]) for i in range(n) if self.V[i][c]]

    def solve(self, b) -> list | None:
        b = list(b)
        hits = []
        for r, c in self.pivots:
            q, rem = divmod(b[r], self.H[r][c])
            if rem:
                return None
            if q:
                hits.append((c, q))
                for i, h in self._hcols[c]:
                    b[i] -= q * h
        if any(b):
            return None
        x = [0] * self.n
        for c, q in hits:
            for i, v in self._vcols[c]:
                x[i] += q * v
        return x

    def kernel(self) -> list:
        return [[self.V[i][j] for i in range(self.n)] for j in self.kernel_cols]


def kernel_basis(A: list, n: int | None = None) -> list:
    """Basis of {x in Z^n : A x = 0} (the full integer kernel, which is
    automatically saturated)."""
    return ColumnSolver(A, n).kernel()


class ZSpan:
    """Subgroup of Z^n spanned by inserted vectors, kept in echelon form.

    Rows are stored with strictly increasing leading columns, leading
    entries positive.  Insertion gcd-combines with the stored row of the
    same leading column, so membership testing is a single left-to-right
    reduction pass.
    """

    __slots__ = ("n", "rows", "leads")

    def __init__(self, n: int):
        self.n = n
        self.rows = []  # sorted by leading column
        self.leads = []  # cached leading column of each row

    @property
    def rank(self) -> int:
        return len(self.rows)

    @staticmethod
    def _lead(v):
        for i, a in enumerate(v):
            if a:
                return i
        return None

    def contains(self, v) -> bool:
        v = list(v)
        for p, row in zip(self.leads, self.rows):
            if v[p]:
                q, rem = divmod(v[p], row[p])
                if rem:
                    return False
                v[p:] = [a - q * b for a, b in zip(v[p:], row[p:])]
        return not any(v)

    def insert(self, v) -> bool:
        """Add v to the span; True if the span grew."""
        v = list(v)
        grew = False
        while True:
            p = self._lead(v)
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


def smith_diagonal_sparse(entries: dict) -> list:
    """Nonzero Smith diagonal of a sparse matrix {(i, j): value}.

    No transforms.  Pivoting prefers unit entries with the lowest
    Markowitz fill count (lazy heap); when no units remain the smallest
    entry is gcd-reduced into a local pivot first.  The collected
    diagonal is gcd/lcm-merged into a divisibility chain at the end.
    """
    rows: dict = {}
    cols: dict = {}
    for (i, j), v in entries.items():
        if v:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, {})[i] = v

    def set_entry(i, j, v):
        if v:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, {})[i] = v
        else:
            r = rows.get(i)
            if r and j in r:
                del r[j]
                if not r:
                    del rows[i]
                c = cols[j]
                del c[i]
                if not c:
                    del cols[j]

    heap = []

    def note_unit(i, j, v):
        if v in (1, -1):
            fill = (len(rows[i]) - 1) * (len(cols[j]) - 1)
            heapq.heappush(heap, (fill, i, j))

    for i, r in rows.items():
        for j, v in r.items():
            note_unit(i, j, v)

    def add_row_multiple(dst, src, f):
        # row_dst += f * row_src
        for j, v in list(rows.get(src, {}).items()):
            new = rows.get(dst, {}).get(j, 0) + f * v
            set_entry(dst, j, new)
            if new:
                note_unit(dst, j, new)

    def add_col_multiple(dst, src, f):
        # col_dst += f * col_src
        for i, v in list(cols.get(src, {}).items()):
            new = rows.get(i, {}).get(dst, 0) + f * v
            set_entry(i, dst, new)
            if new:
                note_unit(i, dst, new)

    def combine_rows(i0, i1, x, y, z, w):
        # (row_i0, row_i1) <- (x*row_i0 + y*row_i1, z*row_i0 + w*row_i1),
        # with x*w - y*z = +-1
        r0 = dict(rows.get(i0, {}))
        r1 = dict(rows.get(i1, {}))
        for j in set(r0) | set(r1):
            a, b = r0.get(j, 0), r1.get(j, 0)
            set_entry(i0, j, x * a + y * b)
            set_entry(i1, j, z * a + w * b)
        for j, v in rows.get(i0, {}).items():
            note_unit(i0, j, v)
        for j, v in rows.get(i1, {}).items():
            note_unit(i1, j, v)

    def combine_cols(j0, j1, x, y, z, w):
        c0 = dict(cols.get(j0, {}))
        c1 = dict(cols.get(j1, {}))
        for i in set(c0) | set(c1):
            a, b = c0.get(i, 0), c1.get(i, 0)
            set_entry(i, j0, x * a + y * b)
            set_entry(i, j1, z * a + w * b)
        for i, v in cols.get(j0, {}).items():
            note_unit(i, j0, v)
        for i, v in cols.get(j1, {}).items():
            note_unit(i, j1, v)

    diag = []

    def eliminate(i0, j0):
        # gcd-reduce until the pivot divides everything in its row and column
        while True:
            p = rows[i0][j0]
            bad = next((i for i, v in cols[j0].items() if i != i0 and v % p), None)
            if bad is not None:
                q = cols[j0][bad]
                g, x, y = xgcd(p, q)
                combine_rows(i0, bad, x, y, -(q // g), p // g)
                continue
            bad = next((j for j, v in rows[i0].items() if j != j0 and v % p), None)
            if bad is not None:
                q = rows[i0][bad]
                g, x, y = xgcd(p, q)
                combine_cols(j0, bad, x, y, -(q // g), p // g)
                continue
            break
        # clear the cheaper side with exact eliminations; the leftover side
        # then only touches the pivot row/column, so dropping it is the
        # same as applying the remaining column (row) operations
        pv = rows[i0][j0]
        if len(cols[j0]) <= len(rows[i0]):
            for i in [i for i in cols[j0] if i != i0]:
                add_row_multiple(i, i0, -(rows[i][j0] // pv))
        else:
            for j in [j for j in rows[i0] if j != j0]:
                add_col_multiple(j, j0, -(rows[i0][j] // pv))
        for j in list(rows.get(i0, {})):
            set_entry(i0, j, 0)
        for i in list(cols.get(j0, {})):
            set_entry(i, j0, 0)
        diag.append(abs(pv))

    while rows:
        i0 = j0 = None
        while heap:
            _, i, j = heapq.heappop(heap)
            if rows.get(i, {}).get(j, 0) in (1, -1):
                i0, j0 = i, j
                break
        if i0 is None:
            i0, j0 = min(
                ((i, j) for i, r in rows.items() for j in r),
                key=lambda ij: (abs(rows[ij[0]][ij[1]]), ij),
            )
        eliminate(i0, j0)

    # merge into a divisibility chain
    changed = True
    while changed:
        changed = False
        for a in range(len(diag)):
            if diag[a] == 1:
                continue
            for b in range(a + 1, len(diag)):
                if diag[b] % diag[a]:
                    g = gcd(diag[a], diag[b])
                    diag[a], diag[b] = g, diag[a] * diag[b] // g
                    changed = True
    return sorted(diag)
