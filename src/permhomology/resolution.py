"""Free ZG-resolutions of Z for small permutation groups.

SmallGroup pins one enumeration of the elements (the stabilizer chain
order) and multiplies by table lookup; everything downstream speaks
element indices.  A ZGWord is a formal sum of (coefficient, element,
generator) terms in canonical merged form.  FreeResolution carries the
boundaries, a contracting homotopy, and the augmentation, and the
constructors verify d.d = 0 and the homotopy identity before handing
anything back.

Three constructions.  bar_resolution writes down the normalized bar
complex with its textbook one-sided homotopy; it is the oracle
everything else is compared against.  resolution_small builds a much
smaller resolution degree by degree: integer kernel basis of the
flattened boundary, then ZG-generators picked greedily by support,
then the homotopy solved from a column Hermite form.  Exactness is by
construction (the selected ZG-span contains the whole kernel) and is
re-checked anyway.  tensor_resolution resolves a direct product of
two groups on disjoint points as the tensor product of their
resolutions, with the product homotopy written down (Ellis 2004);
its ranks are the convolution of the factors' ranks.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from functools import cached_property

from .errors import CapExceeded, InvariantViolation
from .intlinalg import ColumnSolver, ZSpan, kernel_basis, smith_normal_form
from .perm import conj, identity, inv, mul, precompose, support
from .permgroup import PermGroup, fingerprint

SMALL_GROUP_CAP = 128
BAR_RANK_CAP = 20_000
VERIFY_FULL_LIMIT = 2_000
VERIFY_SAMPLE = 200


class SmallGroup:
    """A finite group frozen as an element list with index arithmetic."""

    def __init__(self, group: PermGroup, cap: int = SMALL_GROUP_CAP):
        n = group.order()
        if n > cap:
            raise CapExceeded(f"group order {n} exceeds the small-group cap {cap}")
        self.group = group
        self.elements = tuple(group.elements())
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.n = n
        self.id = self.index[identity(group.degree)]
        self.inverse = tuple(self.index[inv(g)] for g in self.elements)
        index = self.index
        # row a, column b holds the index of mul(a, b)
        gets = [precompose(b) for b in self.elements]
        self._mul = [[index[f(a)] for f in gets] for a in self.elements]

    def mul(self, i: int, j: int) -> int:
        return self._mul[i][j]

    def fingerprint(self) -> str:
        return fingerprint(self.group)

    def __repr__(self):
        return f"SmallGroup(order={self.n}, degree={self.group.degree})"


@dataclass(frozen=True)
class ZGWord:
    """Formal sum of (coefficient, element index, generator index) terms.

    Terms are merged, nonzero, and sorted by (generator, element); the
    empty tuple is the zero word.
    """

    degree: int
    terms: tuple

    def __bool__(self):
        return bool(self.terms)


def word(degree: int, items) -> ZGWord:
    acc: dict = {}
    for c, e, g in items:
        k = (g, e)
        acc[k] = acc.get(k, 0) + c
    terms = tuple(
        (acc[k], k[1], k[0]) for k in sorted(acc) if acc[k]
    )
    return ZGWord(degree, terms)


def word_add(*ws: ZGWord) -> ZGWord:
    deg = ws[0].degree
    items = []
    for w in ws:
        if w.degree != deg:
            raise ValueError("degree mismatch")
        items.extend(w.terms)
    return word(deg, items)


def word_scale(c: int, w: ZGWord) -> ZGWord:
    if c == 0:
        return ZGWord(w.degree, ())
    return ZGWord(w.degree, tuple((c * a, e, g) for a, e, g in w.terms))


def _word_sum(G: SmallGroup, degree: int, terms) -> ZGWord:
    """The sum of c * (g . w) over the (c, g, w) in terms, as one word.

    One dict accumulates every term through the rows of G's table and
    is sorted once, into the canonical form word() gives.
    """
    acc: dict = {}
    get = acc.get
    for c, g, w in terms:
        row = G._mul[g]
        for a, e, j in w.terms:
            k = (j, row[e])
            acc[k] = get(k, 0) + c * a
    terms = tuple((acc[k], k[1], k[0]) for k in sorted(acc) if acc[k])
    return ZGWord(degree, terms)


def word_to_vec(G: SmallGroup, w: ZGWord) -> dict:
    """w as a sparse vector {j*|G| + e: coefficient} over Z."""
    return {j * G.n + e: c for c, e, j in w.terms}


def translate_vec(G: SmallGroup, g: int, w: ZGWord) -> dict:
    """word_to_vec(G, g . w), read off g's row of the table.

    Left multiplication by g permutes the elements, so the terms of the
    canonical word w stay distinct and nonzero and need no merge.
    """
    row = G._mul[g]
    n = G.n
    return {j * n + row[e]: c for c, e, j in w.terms}


def vec_to_word(G: SmallGroup, degree: int, v: dict) -> ZGWord:
    return word(degree, ((c, i % G.n, i // G.n) for i, c in v.items()))


class FreeResolution:
    """Resolution 0 <- Z <- R_0 <- ... <- R_n with a contracting homotopy.

    Boundaries are stored for degrees 1..n and the homotopy for degrees
    0..n-1, so homology of R (x) Z is available in degrees up to n-1 and
    the full homotopy identity is testable up to degree n-2.
    """

    def __init__(self, G: SmallGroup, ranks, d, aug, homotopy, verify: bool = True):
        self.G = G
        self.ranks = tuple(ranks)
        self.length = len(self.ranks) - 1
        self._d = d
        self.aug = tuple(aug)
        self._h = homotopy
        self._coords: dict = {}  # degree -> _HomologyCoords, see homology_action
        if len(self.aug) != self.ranks[0]:
            raise ValueError("augmentation must cover the degree-0 generators")
        if verify:
            self._verify()

    def boundary(self, k: int, j: int) -> ZGWord:
        return self._d[k][j]

    def conjugate(self, q) -> FreeResolution:
        """This resolution carried over to q G q^-1 by renaming elements.

        Element e of G becomes conj(q, e) at the same index.  Conjugation
        is an isomorphism and every word speaks element indices, so the
        table, inverses, identity, ranks, boundaries, augmentation and
        homotopy are shared as they are.  _verify reads only that index
        data, already verified when this resolution was built, so it is
        not run again.
        """
        G = self.G
        Gq = object.__new__(SmallGroup)
        Gq.group = PermGroup([conj(q, g) for g in G.group.generators], G.group.degree)
        Gq.elements = tuple(conj(q, e) for e in G.elements)
        Gq.index = {g: i for i, g in enumerate(Gq.elements)}
        Gq.n, Gq.id, Gq.inverse, Gq._mul = G.n, G.id, G.inverse, G._mul
        return FreeResolution(Gq, self.ranks, self._d, self.aug, self._h, verify=False)

    def h(self, k: int, elem: int, gen: int) -> ZGWord:
        return self._h(k, elem, gen)

    def section(self) -> ZGWord:
        return word(0, [(1, self.G.id, 0)])

    def augment(self, w: ZGWord) -> int:
        if w.degree != 0:
            raise ValueError("augmentation applies in degree 0")
        return sum(c * self.aug[j] for c, _, j in w.terms)

    def apply_d(self, k: int, w: ZGWord) -> ZGWord:
        d = self._d[k]
        return _word_sum(self.G, k - 1, ((c, e, d[j]) for c, e, j in w.terms))

    def apply_h(self, k: int, w: ZGWord) -> ZGWord:
        # the homotopy is not equivariant: each term is its own image
        one = self.G.id
        return _word_sum(
            self.G, k + 1, ((c, one, self._h(k, e, j)) for c, e, j in w.terms)
        )

    def boundary_matrix_z(self, k: int) -> list:
        """d_k with the group collapsed to Z (coefficient sums)."""
        M = [[0] * self.ranks[k] for _ in range(self.ranks[k - 1])]
        for j in range(self.ranks[k]):
            for c, _, i in self._d[k][j].terms:
                M[i][j] += c
        return M

    def _basis_sample(self, k: int, rng) -> list:
        G = self.G
        total = G.n * self.ranks[k]
        if total <= VERIFY_FULL_LIMIT:
            return [(e, j) for j in range(self.ranks[k]) for e in range(G.n)]
        return [
            (rng.randrange(G.n), rng.randrange(self.ranks[k]))
            for _ in range(VERIFY_SAMPLE)
        ]

    def _verify(self):
        rng = random.Random(0)
        for k in range(2, self.length + 1):
            d = self._d[k - 1]
            for e, j in self._basis_sample(k, rng):
                # d_{k-1}(e . d_k(j)): each term c f i of d_k(j) adds c ef . d_{k-1}(i)
                row = self.G._mul[e]
                terms = ((c, row[f], d[i]) for c, f, i in self._d[k][j].terms)
                if _word_sum(self.G, k - 2, terms):
                    raise InvariantViolation(f"d.d != 0 at degree {k}")
        for k in range(1, self.length):
            # h_{k-1} d_k + d_{k+1} h_k = 1 on R_k
            for e, j in self._basis_sample(k, rng):
                x = word(k, [(1, e, j)])
                lhs = word_add(
                    self.apply_h(k - 1, self.apply_d(k, x)),
                    self.apply_d(k + 1, self.apply_h(k, x)),
                )
                if lhs != x:
                    raise InvariantViolation(f"homotopy identity fails at degree {k}")
        for e, j in self._basis_sample(0, rng):
            x = word(0, [(1, e, j)])
            lhs = self.apply_d(1, self.apply_h(0, x))
            rhs = word_add(x, word_scale(-self.augment(x), self.section()))
            if lhs != rhs:
                raise InvariantViolation("d_1 h_0 != 1 - section.augmentation")


# -- the bar resolution --------------------------------------------------


def bar_resolution(G, n: int) -> FreeResolution:
    """Normalized bar resolution to degree n, with the standard homotopy.

    Degree-k generators are the tuples [g_1|...|g_k] with no identity
    entry, in lexicographic element order; rank (|G|-1)^k.
    """
    if isinstance(G, PermGroup):
        G = SmallGroup(G)
    if (G.n - 1) ** n > BAR_RANK_CAP:
        raise CapExceeded(f"bar rank ({G.n - 1})^{n} exceeds {BAR_RANK_CAP}")
    nonid = [i for i in range(G.n) if i != G.id]
    pos = {e: p for p, e in enumerate(nonid)}
    base = len(nonid)

    def gen_index(tup):
        out = 0
        for a in tup:
            out = out * base + pos[a]
        return out

    def tuples(k):
        out = [()]
        for _ in range(k):
            out = [t + (a,) for t in out for a in nonid]
        return out

    ranks = [(len(nonid)) ** k for k in range(n + 1)]
    ranks[0] = 1
    d = {1: tuple(word(0, [(1, a, 0), (-1, G.id, 0)]) for a in nonid)}
    for k in range(2, n + 1):
        imgs = []
        for t in tuples(k):
            items = [(1, t[0], gen_index(t[1:]))]
            sign = -1
            for i in range(k - 1):
                m = G.mul(t[i], t[i + 1])
                if m != G.id:
                    items.append((sign, G.id, gen_index(t[:i] + (m,) + t[i + 2 :])))
                sign = -sign
            items.append((sign, G.id, gen_index(t[:-1])))
            imgs.append(word(k - 1, items))
        d[k] = tuple(imgs)

    def homotopy(k, e, j):
        # h(g.[g_1|...|g_k]) = [g|g_1|...|g_k], zero on the identity coset
        if e == G.id:
            return ZGWord(k + 1, ())
        tup = []
        for _ in range(k):
            tup.append(nonid[j % base])
            j //= base
        tup.reverse()
        return word(k + 1, [(1, G.id, gen_index((e, *tup)))])

    return FreeResolution(G, ranks, d, (1,), homotopy)


# -- small resolutions by kernel generators ------------------------------


def _select_generators(G: SmallGroup, rank: int, kb: list):
    """Greedy ZG-generators of the integer span of kb, smallest support first."""
    size = G.n * rank
    cands = []
    for v in kb:
        if v[min(v)] < 0:
            v = {i: -a for i, a in v.items()}
        cands.append(v)
    # ties in support size go by the dense vectors' lexicographic order
    cands.sort(key=lambda v: (len(v), [v.get(i, 0) for i in range(size)]))
    span = ZSpan(size)
    chosen = []
    for v in cands:
        if span.contains(v):
            continue
        w = vec_to_word(G, 0, v)
        chosen.append(w)
        for g in range(G.n):
            span.insert(translate_vec(G, g, w))
    for v in cands:
        if not span.contains(v):
            raise InvariantViolation("selected generators do not span the kernel")
    return chosen


_small_memo: dict = {}


def resolution_small(G, n: int, cache_dir: str | None = None) -> FreeResolution:
    """Free resolution of Z over ZG to degree n, |G| capped at 128.

    Deterministic: same group generators, same resolution.  Results are
    memoized per fingerprint within a process; with cache_dir set, a
    JSON dump keyed by the fingerprint is reused across runs and
    reloads bit-identically.
    """
    if n < 1:
        raise ValueError(f"resolution length must be at least 1, not {n}")
    if isinstance(G, PermGroup):
        G = SmallGroup(G)
    memo_key = (G.fingerprint(), n)
    if cache_dir is None:
        hit = _small_memo.get(memo_key)
        if hit is not None:
            return hit
    if cache_dir is not None:
        path = os.path.join(cache_dir, f"res-{G.fingerprint()}-{n}.json")
        if os.path.exists(path):
            return load_resolution(path, G)

    ranks = [1]
    d: dict = {}
    solvers = []
    flat = [[1] * G.n]  # the augmentation, flattened
    for k in range(n):
        solver = ColumnSolver(flat, G.n * ranks[k])
        solvers.append(solver)
        kb = solver.kernel()
        chosen = _select_generators(G, ranks[k], kb)
        if not chosen:
            raise InvariantViolation("kernel collapsed early; finite groups never do")
        d[k + 1] = tuple(ZGWord(k, w.terms) for w in chosen)
        ranks.append(len(chosen))
        # d_{k+1} flattened: one column per (generator, element), as sparse rows
        flat = [{} for _ in range(G.n * ranks[k])]
        col = 0
        for w in d[k + 1]:
            for e in range(G.n):
                for i, c in translate_vec(G, e, w).items():
                    flat[i][col] = c
                col += 1
    solvers.append(ColumnSolver(flat, G.n * ranks[n]))

    # homotopy, degree by degree: solve d_{k+1} y = x - h_{k-1}(d_k x)
    table: dict = {}

    def homotopy(k, e, j):
        return table[(k, e, j)]

    res = FreeResolution(G, ranks, d, (1,), homotopy, verify=False)
    for k in range(n):
        for j in range(ranks[k]):
            for e in range(G.n):
                x = word(k, [(1, e, j)])
                if k == 0:
                    corr = word_scale(res.augment(x), res.section())
                else:
                    corr = res.apply_h(k - 1, res.apply_d(k, x))
                target = word_add(x, word_scale(-1, corr))
                y = solvers[k + 1].solve(word_to_vec(G, target))
                if y is None:
                    raise InvariantViolation("homotopy solve failed; kernel not spanned")
                table[(k, e, j)] = vec_to_word(G, k + 1, y)
    res._verify()

    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        save_resolution(res, path)
    else:
        _small_memo[memo_key] = res
    return res


# -- direct products -----------------------------------------------------


def tensor_resolution(F: FreeResolution, E: FreeResolution) -> FreeResolution:
    """F (x) E, a resolution over F.G x E.G for groups on disjoint points.

    Degree-k generators are the pairs (i, j) of F-generators in degree
    k1 and E-generators in degree k - k1, ordered by (k1, i, j); the
    length is the shorter of the two.  The boundary is
    d(x (x) y) = dx (x) y + (-1)^k1 x (x) dy and the contracting homotopy
    h = h_F (x) 1 + section.aug_F (x) h_E, filled in once as a table.
    """
    A, B = F.G, E.G
    degree = A.group.degree
    moved = [{x for g in K.group.generators for x in support(g)} for K in (A, B)]
    if B.group.degree != degree or moved[0] & moved[1]:
        raise ValueError("tensor factors must move disjoint sets of points")
    G = SmallGroup(PermGroup(A.group.generators + B.group.generators, degree))
    # pair[a][b] is the index of the product of A's a and B's b
    pair = [[G.index[mul(a, b)] for b in B.elements] for a in A.elements]
    split = [None] * G.n
    for a, row in enumerate(pair):
        for b, e in enumerate(row):
            split[e] = (a, b)
    n = min(F.length, E.length)
    gens = [
        [(k1, i, j) for k1 in range(k + 1)
         for i in range(F.ranks[k1]) for j in range(E.ranks[k - k1])]
        for k in range(n + 1)
    ]
    pos = [{g: x for x, g in enumerate(layer)} for layer in gens]
    # the index of b alone, and of a alone
    of_b, of_a = pair[A.id], [row[B.id] for row in pair]

    d = {}
    for k in range(1, n + 1):
        low = pos[k - 1]
        imgs = []
        for k1, i, j in gens[k]:
            items = []
            if k1:
                items += [
                    (c, of_a[a], low[(k1 - 1, i2, j)])
                    for c, a, i2 in F.boundary(k1, i).terms
                ]
            if k1 < k:
                sign = -1 if k1 % 2 else 1
                items += [
                    (sign * c, of_b[b], low[(k1, i, j2)])
                    for c, b, j2 in E.boundary(k - k1, j).terms
                ]
            imgs.append(word(k - 1, items))
        d[k] = tuple(imgs)

    table: dict = {}
    for k in range(n):
        up = pos[k + 1]
        for x, (k1, i, j) in enumerate(gens[k]):
            for e, (a, b) in enumerate(split):
                items = [
                    (c, pair[a2][b], up[(k1 + 1, i2, j)])
                    for c, a2, i2 in F.h(k1, a, i).terms
                ]
                if k1 == 0:
                    items += [
                        (F.aug[i] * c, of_b[b2], up[(0, 0, j2)])
                        for c, b2, j2 in E.h(k, b, j).terms
                    ]
                table[(k, e, x)] = word(k + 1, items)

    def homotopy(k, e, j):
        return table[(k, e, j)]

    aug = [F.aug[i] * E.aug[j] for _, i, j in gens[0]]
    return FreeResolution(G, [len(layer) for layer in gens], d, aug, homotopy)


def save_resolution(R: FreeResolution, path: str):
    data = {
        "fingerprint": R.G.fingerprint(),
        "ranks": list(R.ranks),
        "aug": list(R.aug),
        "d": {
            str(k): [[list(t) for t in R.boundary(k, j).terms] for j in range(R.ranks[k])]
            for k in range(1, R.length + 1)
        },
        "h": [
            [k, e, j, [list(t) for t in R.h(k, e, j).terms]]
            for k in range(R.length)
            for j in range(R.ranks[k])
            for e in range(R.G.n)
        ],
    }
    with open(path, "w") as f:
        json.dump(data, f)


def load_resolution(path: str, G: SmallGroup) -> FreeResolution:
    with open(path) as f:
        data = json.load(f)
    if data["fingerprint"] != G.fingerprint():
        raise ValueError("cached resolution belongs to a different group")
    d = {
        int(k): tuple(
            ZGWord(int(k) - 1, tuple(tuple(t) for t in terms)) for terms in imgs
        )
        for k, imgs in data["d"].items()
    }
    table = {
        (k, e, j): ZGWord(k + 1, tuple(tuple(t) for t in terms))
        for k, e, j, terms in data["h"]
    }
    return FreeResolution(
        G, data["ranks"], d, data["aug"], lambda k, e, j: table[(k, e, j)]
    )


# -- chain maps ----------------------------------------------------------


@dataclass(frozen=True)
class ChainMap:
    """Equivariant chain map between two resolutions along phi.

    maps[k][j] is the image of the degree-k source generator j, a
    ZGWord over the target group.
    """

    source: FreeResolution
    target: FreeResolution
    elem_map: tuple
    maps: tuple

    @property
    def length(self) -> int:
        return len(self.maps) - 1

    def push(self, w: ZGWord) -> ZGWord:
        """Image of a source word: phi on coefficients, maps on generators."""
        return _push(self.target.G, self.elem_map, self.maps, w)

    def matrix_z(self, k: int) -> list:
        M = [[0] * self.source.ranks[k] for _ in range(self.target.ranks[k])]
        for j in range(self.source.ranks[k]):
            for c, _, i in self.maps[k][j].terms:
                M[i][j] += c
        return M


def _push(T: SmallGroup, emap, maps, w: ZGWord) -> ZGWord:
    imgs = maps[w.degree]
    return _word_sum(T, w.degree, ((c, emap[e], imgs[j]) for c, e, j in w.terms))


def chain_map(phi, R_source: FreeResolution, R_target: FreeResolution) -> ChainMap:
    """Lift the homomorphism phi to a chain map, degree by degree.

    phi maps source group elements (permutation tuples) into the target
    group; it is sampled for the homomorphism property before lifting.
    f_k(x) = h_{k-1}(f_{k-1}(phi(d_k x))) commutes by construction, and
    the commutation is still checked on every generator.
    """
    S, T = R_source.G, R_target.G
    try:
        emap = tuple(T.index[phi(g)] for g in S.elements)
    except KeyError:
        raise ValueError("phi image leaves the target group")
    if emap[S.id] != T.id:
        raise ValueError("phi does not fix the identity")
    rng = random.Random(11)
    for _ in range(64):
        a, b = rng.randrange(S.n), rng.randrange(S.n)
        if T.mul(emap[a], emap[b]) != emap[S.mul(a, b)]:
            raise ValueError("phi is not a homomorphism")

    depth = min(R_source.length, R_target.length)
    maps = [tuple(word_scale(a, R_target.section()) for a in R_source.aug)]
    for k in range(1, depth + 1):
        imgs = []
        for j in range(R_source.ranks[k]):
            dx = R_source.apply_d(k, word(k, [(1, S.id, j)]))
            imgs.append(R_target.apply_h(k - 1, _push(T, emap, maps, dx)))
        maps.append(tuple(imgs))
    cm = ChainMap(R_source, R_target, emap, tuple(maps))

    for k in range(1, depth + 1):
        for j in range(R_source.ranks[k]):
            x = word(k, [(1, S.id, j)])
            lhs = R_target.apply_d(k, cm.maps[k][j])
            rhs = cm.push(R_source.apply_d(k, x))
            if lhs != rhs:
                raise InvariantViolation(f"chain map does not commute at degree {k}")
    return cm


def _unimodular_inverse(U: list) -> list:
    n = len(U)
    solver = ColumnSolver(U)
    cols = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        x = solver.solve(e)
        if x is None:
            raise InvariantViolation("matrix is not unimodular")
        cols.append(x)
    return [[cols[j].get(i, 0) for j in range(n)] for i in range(n)]


class _HomologyCoords:
    """Smith coordinates on H_k = ker d_k / im d_{k+1} of R (x) Z."""

    def __init__(self, R: FreeResolution, k: int):
        if k == 0:
            Dk = [list(R.aug)]
        else:
            Dk = R.boundary_matrix_z(k)
        kb = kernel_basis(Dk, R.ranks[k])
        self.cycles = kb
        self.kb_solver = ColumnSolver(
            [[v[i] for v in kb] for i in range(R.ranks[k])], len(kb)
        )
        Dk1 = R.boundary_matrix_z(k + 1)
        Y = []
        for j in range(R.ranks[k + 1]):
            col = [Dk1[i][j] for i in range(R.ranks[k])]
            y = self.kb_solver.solve(col)
            if y is None:
                raise InvariantViolation("boundary is not a cycle")
            Y.append(y)
        Ym = [[Y[j].get(i, 0) for j in range(len(Y))] for i in range(len(kb))]
        diag, U, _ = smith_normal_form(Ym)
        self.U = U
        self.orders = [
            diag[i] if i < len(diag) else 0 for i in range(len(kb))
        ]

    def coords(self, cycle) -> list:
        u = self.kb_solver.solve(list(cycle))
        if u is None:
            raise InvariantViolation("vector is not a cycle")
        out = []
        for i, row in enumerate(self.U):
            a = sum(row[j] * x for j, x in u.items())
            m = self.orders[i]
            out.append(a % m if m else a)
        return out

    @cached_property
    def _U_inverse(self) -> list:
        return _unimodular_inverse(self.U)

    def representative(self, i: int) -> list:
        Uinv = self._U_inverse
        col = [Uinv[r][i] for r in range(len(Uinv))]
        n = len(self.cycles[0]) if self.cycles else 0
        return [sum(self.cycles[j][r] * col[j] for j in range(len(col))) for r in range(n)]

    def invariants(self) -> tuple:
        return tuple(m for m in self.orders if m != 1)


def _homology_coords(R: FreeResolution, k: int) -> _HomologyCoords:
    """The Smith coordinates of R in degree k, built once per resolution;
    a FreeResolution's ranks, boundaries and augmentation never change
    after it is built."""
    coords = R._coords.get(k)
    if coords is None:
        coords = R._coords[k] = _HomologyCoords(R, k)
    return coords


def homology_action(cm: ChainMap, k: int):
    """Matrix of the induced map on H_k, in Smith coordinates.

    Returns (source invariants, target invariants, matrix); invariant 0
    means a free summand, m > 1 a Z/m summand, and matrix columns are
    target coordinates of the images of the source representatives.
    """
    src = _homology_coords(cm.source, k)
    tgt = _homology_coords(cm.target, k)
    F = cm.matrix_z(k)
    cols = []
    src_pos = [i for i, m in enumerate(src.orders) if m != 1]
    tgt_pos = [i for i, m in enumerate(tgt.orders) if m != 1]
    for i in src_pos:
        z = src.representative(i)
        fz = [sum(F[r][c] * z[c] for c in range(len(z))) for r in range(len(F))]
        co = tgt.coords(fz)
        cols.append([co[t] for t in tgt_pos])
    mat = [[cols[j][i] for j in range(len(cols))] for i in range(len(tgt_pos))]
    return src.invariants(), tgt.invariants(), mat
