"""Integer linear algebra: Smith and Hermite forms, kernels, span tracking,
and the prime factorisation the other modules read primes from.

Plain Python ints throughout (no overflow), matrices as lists of rows.
An m x n matrix maps Z^n to Z^m acting on column vectors.

The echelon engine behind ColumnSolver and ZSpan keeps its rows sparse,
as {column: value} dicts holding the nonzero entries: the free-module
boundaries it is fed are almost all zeros.  It takes the same pivots,
swaps, divmod and xgcd steps and sign normalisation a dense echelon
would, so every result is the one dense rows would give.  Dense vectors
and rows passed to it are converted on the way in; results come back
sparse.  smith_normal_form works on dense lists, smith_diagonal_sparse
on a dict of entries.
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


def _sparse(v, n: int) -> dict:
    """v as a sparse row {index: value} of Z^n holding its nonzero
    entries.  v is a dense sequence of length n or a dict with indices in
    range(n); anything else raises ValueError."""
    if isinstance(v, dict):
        if any(not 0 <= i < n for i in v):
            raise ValueError(f"sparse vector has an index outside range({n})")
        return {i: a for i, a in v.items() if a}
    v = list(v)
    if len(v) != n:
        raise ValueError(f"vector of length {len(v)}, expected {n}")
    return {i: a for i, a in enumerate(v) if a}


def _sub_multiple(v: dict, f: int, row: dict) -> None:
    """v -= f * row in place, dropping the entries that cancel."""
    for j, b in row.items():
        a = v.get(j, 0) - f * b
        if a:
            v[j] = a
        else:
            v.pop(j, None)


def _combine(r: dict, s: dict, x: int, y: int, z: int, w: int):
    """The rows (x*r + y*s, z*r + w*s)."""
    out_r, out_s = {}, {}
    for j in r.keys() | s.keys():
        a, b = r.get(j, 0), s.get(j, 0)
        c = x * a + y * b
        if c:
            out_r[j] = c
        c = z * a + w * b
        if c:
            out_s[j] = c
    return out_r, out_s


def _negate(r: dict) -> dict:
    return {j: -a for j, a in r.items()}


def _row_echelon(A: list, n: int):
    """Integer row echelon of the m x n matrix with sparse rows A, via
    xgcd row ops: returns (H, U, pivots) with U*A = H as sparse rows,
    pivots a list of (row, col), pivot entries positive, zeros below each
    pivot (entries above are not reduced).

    Column by column, the pivot row is the first row at or below the
    next pivot position with an entry in the column; it is swapped up, and
    each later row with an entry there is cleared, in row order.
    """
    m = len(A)
    H = [dict(row) for row in A]
    U = [{i: 1} for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        rows = [i for i in range(r, m) if c in H[i]]
        if not rows:
            continue
        k = rows[0]
        H[r], H[k] = H[k], H[r]
        U[r], U[k] = U[k], U[r]
        for i in rows[1:]:
            while H[i].get(c):
                p, q = H[r][c], H[i][c]
                if q % p == 0:
                    f = q // p
                    _sub_multiple(H[i], f, H[r])
                    _sub_multiple(U[i], f, U[r])
                else:
                    g, x, y = xgcd(p, q)
                    a, b = p // g, q // g
                    H[r], H[i] = _combine(H[r], H[i], x, y, -b, a)
                    U[r], U[i] = _combine(U[r], U[i], x, y, -b, a)
        if H[r][c] < 0:
            H[r] = _negate(H[r])
            U[r] = _negate(U[r])
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    return H, U, pivots


class ColumnSolver:
    """Solve A x = b over Z, and read off the integer kernel of A.

    Precomputes a column Hermite form A V = H once, so repeated solves
    against the same matrix are cheap.  ``solve`` returns the unique
    echelon-determined solution (or None), so results are reproducible.

    The rows of A may be dense lists or sparse {column: value} dicts, and
    so may the right-hand sides; dense input is converted on the way in.
    Inside, H and V are kept as sparse columns and transformed by the
    same xgcd operations, in the same order, as a dense echelon would.
    Solutions and kernel vectors come back sparse.
    """

    def __init__(self, A: list, n: int | None = None):
        m = len(A)
        if n is None:
            if A and isinstance(A[0], dict):
                raise ValueError("sparse rows need the column count n")
            n = len(A[0]) if A else 0
        At = [{} for _ in range(n)]
        for i, row in enumerate(A):
            for j, a in _sparse(row, n).items():
                At[j][i] = a
        Ht, Ut, pivots = _row_echelon(At, m)
        self.m, self.n = m, n
        # A V = H with V = Ut^T and H = Ht^T column echelon, so column c
        # of H (of V) is row c of Ht (of Ut)
        self.pivots = [(c, r) for r, c in pivots]  # (pivot row in H, column)
        self._hcols = {c: Ht[c] for _, c in self.pivots}
        self._vcols = {c: Ut[c] for _, c in self.pivots}
        self._kernel = Ut[len(pivots):]

    def solve(self, b) -> dict | None:
        """The sparse x with A x = b, or None when there is none over Z."""
        b = _sparse(b, self.m)
        hits = []
        for r, c in self.pivots:
            br = b.get(r)
            if not br:
                continue
            hcol = self._hcols[c]
            q, rem = divmod(br, hcol[r])
            if rem:
                return None
            hits.append((c, q))
            _sub_multiple(b, q, hcol)
        if b:
            return None
        x: dict = {}
        for c, q in hits:
            _sub_multiple(x, -q, self._vcols[c])
        return x

    def kernel(self) -> list:
        """A basis of the integer kernel, as sparse vectors."""
        return [dict(v) for v in self._kernel]


def kernel_basis(A: list, n: int | None = None) -> list:
    """Basis of {x in Z^n : A x = 0} as dense lists (the full integer
    kernel, which is automatically saturated)."""
    solver = ColumnSolver(A, n)
    return [[v.get(i, 0) for i in range(solver.n)] for v in solver.kernel()]


class ZSpan:
    """Subgroup of Z^n spanned by inserted vectors, kept in echelon form.

    Rows are stored with strictly increasing leading columns, leading
    entries positive.  Insertion gcd-combines with the stored row of the
    same leading column, so membership testing is a single left-to-right
    reduction pass.  Vectors may be dense lists or sparse {index: value}
    dicts; rows are stored sparse, and the reductions are the same
    divmod and xgcd steps a dense row would take.
    """

    __slots__ = ("n", "rows", "leads")

    def __init__(self, n: int):
        self.n = n
        self.rows = []  # sparse, sorted by leading column
        self.leads = []  # cached leading column of each row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        v = _sparse(v, self.n)
        while v:
            p = min(v)
            pos = bisect_left(self.leads, p)
            # rows led further right never reach column p
            if pos == len(self.leads) or self.leads[pos] != p:
                return False
            row = self.rows[pos]
            q, rem = divmod(v[p], row[p])
            if rem:
                return False
            _sub_multiple(v, q, row)
        return True

    def insert(self, v) -> bool:
        """Add v to the span; True if the span grew."""
        v = _sparse(v, self.n)
        grew = False
        while v:
            p = min(v)
            pos = bisect_left(self.leads, p)
            if pos == len(self.leads) or self.leads[pos] != p:
                if v[p] < 0:
                    v = _negate(v)
                self.rows.insert(pos, v)
                self.leads.insert(pos, p)
                return True
            match = self.rows[pos]
            q, rem = divmod(v[p], match[p])
            if rem == 0:
                _sub_multiple(v, q, match)
            else:
                g, x, y = xgcd(match[p], v[p])
                a, b = match[p] // g, v[p] // g
                self.rows[pos], v = _combine(match, v, x, y, -b, a)
                grew = True
        return grew


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
