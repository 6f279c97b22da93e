"""Integer linear algebra: Smith and Hermite forms, kernels, span tracking,
and the prime factorisation the other modules read primes from.

Plain Python ints throughout (no overflow).  Vectors are sparse
{index: value} dicts holding their nonzero entries, and an m x n matrix,
which maps Z^n to Z^m acting on column vectors, is the list of its n
columns in that form: cols[j] = {row: value} is the image of basis
vector j.  The free-module boundaries fed in are almost all zeros.

The echelon engines behind ColumnSolver and ZSpan keep their rows
sparse.  They take the same pivots, swaps, divmod and xgcd steps and
sign normalisation a dense echelon would, so every result is the one
dense rows would give.  ColumnSolver echelons a whole matrix at once.
ZSpan grows one vector at a time, each row carrying its combination of
the inserted vectors and reduced at the pivots below it, so that it
both tests membership and solves; a stored coefficient past
errors.SPAN_BITS_CAP bits raises CapExceeded.

There is one Smith engine, a sparse Markowitz elimination that keeps
the row and column transforms on request.  smith_diagonal_sparse reads
the diagonal of a dict of entries {(i, j): value} without transforms,
and every homology answer comes from it; smith_normal_form, the one
dense entry point, runs the engine on lists of rows with transforms and
returns dense U and V, for selftest's sweep.
"""

from __future__ import annotations

import heapq

from . import errors
from .errors import CapExceeded


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


def _sparse(v: dict, n: int) -> dict:
    """The sparse vector v {index: value} of Z^n without its zero
    entries, as a new dict; an index outside range(n) raises ValueError."""
    if any(not 0 <= i < n for i in v):
        raise ValueError(f"sparse vector has an index outside range({n})")
    return {i: a for i, a in v.items() if a}


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

    A is given as its n sparse columns {row: value} and its row count m;
    right-hand sides, solutions and kernel vectors are sparse vectors.
    The echelon runs on the columns as rows of A^T, so H and V are kept
    as sparse columns and transformed by the same xgcd operations, in the
    same order, as a dense echelon would.
    """

    def __init__(self, cols: list, m: int):
        n = len(cols)
        Ht, Ut, pivots = _row_echelon([_sparse(c, m) for c in cols], m)
        self.m, self.n = m, n
        # A V = H with V = Ut^T and H = Ht^T column echelon, so column c
        # of H (of V) is row c of Ht (of Ut)
        self.pivots = [(c, r) for r, c in pivots]  # (pivot row in H, column)
        self._hcols = {c: Ht[c] for _, c in self.pivots}
        self._vcols = {c: Ut[c] for _, c in self.pivots}
        self._kernel = Ut[len(pivots):]

    def solve(self, b: dict) -> dict | None:
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


class ZSpan:
    """Subgroup of Z^n spanned by tagged vectors, kept in echelon form.

    Rows are keyed by their leading column, leading entries positive,
    and each row carries its transform: the combination {tag: coefficient}
    of the inserted vectors that it equals.  Insertion gcd-combines with
    the stored row of the same leading column.  Whenever a row is stored
    or changed, its entries at the leading columns further right are
    reduced into [0, that row's leading entry), in column order, and its
    transform with it; this is what keeps coefficients from swelling.
    A stored row or transform with an entry past errors.SPAN_BITS_CAP
    bits raises CapExceeded.  Membership and solving are one left-to-right
    reduction pass.  Vectors, rows and transforms are sparse dicts.
    """

    __slots__ = ("n", "rows", "transforms")

    def __init__(self, n: int):
        self.n = n
        self.rows = {}  # leading column -> sparse row
        self.transforms = {}  # leading column -> the row's transform

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, v: dict):
        """Reduce v to zero by the rows in place: the (leading column,
        quotient) steps taken, or None when v is not in the span."""
        rows = self.rows
        steps = []
        while v:
            p = min(v)
            row = rows.get(p)
            if row is None:
                return None
            q, rem = divmod(v[p], row[p])
            if rem:
                return None
            _sub_multiple(v, q, row)
            steps.append((p, q))
        return steps

    def contains(self, v: dict) -> bool:
        return self._reduce(_sparse(v, self.n)) is not None

    def solve(self, b: dict) -> dict | None:
        """The combination {tag: coefficient} of the inserted vectors
        that sums to b, or None when b is not in the span."""
        steps = self._reduce(_sparse(b, self.n))
        if steps is None:
            return None
        x: dict = {}
        for p, q in steps:
            _sub_multiple(x, -q, self.transforms[p])
        return x

    def insert(self, v: dict, t) -> bool:
        """Add v, tagged t, to the span; True if the span grew."""
        v = _sparse(v, self.n)
        s = {t: 1}
        # s -= q * transforms[p] for each (p, q), applied only when s is
        # read: a vector that reduces to zero needs no transform
        steps = []
        rows, transforms = self.rows, self.transforms
        grew = False
        while v:
            p = min(v)
            row = rows.get(p)
            if row is None or v[p] % row[p]:
                for c, q in steps:
                    _sub_multiple(s, q, transforms[c])
                steps = []
            if row is None:
                if v[p] < 0:
                    v, s = _negate(v), _negate(s)
                self._store(p, v, s)
                return True
            q, rem = divmod(v[p], row[p])
            if rem == 0:
                _sub_multiple(v, q, row)
                steps.append((p, q))
            else:
                g, x, y = xgcd(row[p], v[p])
                a, b = row[p] // g, v[p] // g
                row, v = _combine(row, v, x, y, -b, a)
                r, s = _combine(transforms[p], s, x, y, -b, a)
                self._store(p, row, r)
                grew = True
        return grew

    def _store(self, p: int, row: dict, r: dict) -> None:
        """Store row, led at column p with transform r, after reducing
        its entries at the leading columns right of p."""
        rows, transforms = self.rows, self.transforms
        later = [c for c in row if c > p and c in rows]
        heapq.heapify(later)
        last = p
        while later:
            c = heapq.heappop(later)
            a = row.get(c)
            if c == last or a is None:
                continue
            last = c
            pivot = rows[c]
            q = a // pivot[c]
            if q:
                _sub_multiple(row, q, pivot)
                _sub_multiple(r, q, transforms[c])
                for c2 in pivot:
                    if c2 > c and c2 in rows:
                        heapq.heappush(later, c2)
        top = max(max(map(abs, row.values())), max(map(abs, r.values()), default=0))
        if top.bit_length() > errors.SPAN_BITS_CAP:
            raise CapExceeded(
                f"span coefficient of {top.bit_length()} bits exceeds "
                f"{errors.SPAN_BITS_CAP}"
            )
        rows[p], transforms[p] = row, r


def _smith(entries: dict, U: dict | None = None, V: dict | None = None) -> list:
    """The Smith engine: eliminate the sparse matrix {(i, j): value} down
    to its Smith diagonal, returned as a list of [d, i, j], d > 0 at
    position (i, j), forming a divisibility chain in list order.

    Pivoting prefers unit entries with the lowest Markowitz fill count
    (lazy heap); when no units remain the smallest entry is gcd-reduced
    into a local pivot first.  The collected diagonal is gcd/lcm-merged
    into a divisibility chain at the end.

    U and V, when given, are the row and column transforms as sparse rows
    {i: {k: coefficient}} and sparse columns {j: {k: coefficient}} over
    the original indices; every row (column) operation is applied to them
    in place, so U * A * V is the final diagonal matrix.
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

    def track_add(T, dst, src, f):
        # T[dst] += f * T[src] on a transform
        if T is not None:
            _sub_multiple(T[dst], -f, T[src])

    def track_combine(T, k0, k1, x, y, z, w):
        if T is not None:
            T[k0], T[k1] = _combine(T[k0], T[k1], x, y, z, w)

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
        track_add(U, dst, src, f)

    def add_col_multiple(dst, src, f):
        # col_dst += f * col_src
        for i, v in list(cols.get(src, {}).items()):
            new = rows.get(i, {}).get(dst, 0) + f * v
            set_entry(i, dst, new)
            if new:
                note_unit(i, dst, new)
        track_add(V, dst, src, f)

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
        track_combine(U, i0, i1, x, y, z, w)

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
        track_combine(V, j0, j1, x, y, z, w)

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
        # then only touches the pivot row/column, so its operations go to
        # the transforms alone
        pv = rows[i0][j0]
        if len(cols[j0]) <= len(rows[i0]):
            for i in [i for i in cols[j0] if i != i0]:
                add_row_multiple(i, i0, -(rows[i][j0] // pv))
            for j, v in rows[i0].items():
                if j != j0:
                    track_add(V, j, j0, -(v // pv))
        else:
            for j in [j for j in rows[i0] if j != j0]:
                add_col_multiple(j, j0, -(rows[i0][j] // pv))
            for i, v in cols[j0].items():
                if i != i0:
                    track_add(U, i, i0, -(v // pv))
        if pv < 0 and U is not None:
            U[i0] = _negate(U[i0])
        for j in list(rows.get(i0, {})):
            set_entry(i0, j, 0)
        for i in list(cols.get(j0, {})):
            set_entry(i, j0, 0)
        diag.append([abs(pv), i0, j0])

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

    # merge into a divisibility chain: with g = x*a + y*b, the row
    # operation [[x, y], [-b/g, a/g]] and the column operation
    # [[1, -y*b/g], [1, x*a/g]] take diag(a, b) to diag(g, a*b/g)
    changed = True
    while changed:
        changed = False
        for a in range(len(diag)):
            if diag[a][0] == 1:
                continue
            for b in range(a + 1, len(diag)):
                (da, ia, ja), (db, ib, jb) = diag[a], diag[b]
                if db % da:
                    g, x, y = xgcd(da, db)
                    track_combine(U, ia, ib, x, y, -(db // g), da // g)
                    track_combine(V, ja, jb, 1, 1, -y * (db // g), x * (da // g))
                    diag[a][0], diag[b][0] = g, da * db // g
                    changed = True
    diag.sort(key=lambda dij: dij[0])
    return diag


def smith_diagonal_sparse(entries: dict) -> list:
    """Nonzero Smith diagonal of a sparse matrix {(i, j): value}, as an
    ascending divisibility chain; no transforms are kept."""
    return [d for d, _, _ in _smith(entries)]


def smith_normal_form(A: list):
    """Diagonalize over Z: returns (diag, U, V) with U*A*V diagonal,
    U and V unimodular, diag a divisibility chain d1 | d2 | ... >= 0.

    diag has length min(m, n) including trailing zeros.
    """
    m = len(A)
    n = len(A[0]) if A else 0
    U = {i: {i: 1} for i in range(m)}
    V = {j: {j: 1} for j in range(n)}
    entries = {(i, j): v for i, row in enumerate(A) for j, v in enumerate(row) if v}
    pivots = _smith(entries, U, V)
    # pivot rows and columns first, in chain order, then the rest
    rows = [i for _, i, _ in pivots]
    rows += sorted(set(range(m)) - set(rows))
    cols = [j for _, _, j in pivots]
    cols += sorted(set(range(n)) - set(cols))
    diag = [d for d, _, _ in pivots] + [0] * (min(m, n) - len(pivots))
    return (
        diag,
        [[U[i].get(k, 0) for k in range(m)] for i in rows],
        [[V[j].get(k, 0) for j in cols] for k in range(n)],
    )
