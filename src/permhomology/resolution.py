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
flattened boundary, then ZG-generators picked greedily by support
until their translates span the kernel (equal echelon rank and
leading-entry product), then the homotopy solved from a column Hermite
form.  Exactness is by construction (the selected ZG-span is the whole
kernel) and is re-checked anyway.  tensor_resolution resolves a direct product of
two groups on disjoint points as the tensor product of their
resolutions, with the product homotopy written down (Ellis 2004);
its ranks are the convolution of the factors' ranks.
"""

from __future__ import annotations

import random

from . import errors
from .errors import CapExceeded, InvariantViolation
from .intlinalg import ColumnSolver, ZSpan
from .perm import conj, identity, inv, mul, precompose, support
from .permgroup import PermGroup, fingerprint

VERIFY_FULL_LIMIT = 2_000
VERIFY_SAMPLE = 200


class SmallGroup:
    """A finite group frozen as an element list with index arithmetic."""

    def __init__(self, group: PermGroup):
        n = group.order()
        if n > errors.SMALL_GROUP_CAP:
            raise CapExceeded(
                f"group order {n} exceeds the small-group cap {errors.SMALL_GROUP_CAP}"
            )
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

    def __repr__(self):
        return f"SmallGroup(order={self.n}, degree={self.group.degree})"


class ZGWord:
    """Formal sum of (coefficient, element index, generator index) terms.

    Terms are merged, nonzero, and sorted by (generator, element); the
    empty tuple is the zero word.  Words compare and hash by value and
    are never modified once built.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: tuple):
        self.degree = degree
        self.terms = terms

    def __eq__(self, other):
        if not isinstance(other, ZGWord):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        return hash((self.degree, self.terms))

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


def _accumulate(G: SmallGroup, terms, acc: dict) -> dict:
    """acc plus c * (g . w) for each (c, g, w) in terms, read through the
    rows of G's table; keys are (generator, element), and coefficients
    that cancel stay in as zeros."""
    get = acc.get
    for c, g, w in terms:
        row = G._mul[g]
        for a, e, j in w.terms:
            k = (j, row[e])
            acc[k] = get(k, 0) + c * a
    return acc


def _word_sum(G: SmallGroup, degree: int, terms) -> ZGWord:
    """The sum of c * (g . w) over the (c, g, w) in terms, as one word.

    One dict accumulates every term and is sorted once, into the
    canonical form word() gives.
    """
    acc = _accumulate(G, terms, {})
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
    the full homotopy identity is testable up to degree n-1.
    """

    def __init__(self, G: SmallGroup, ranks, d, aug, homotopy, verify: bool = True):
        self.G = G
        self.ranks = tuple(ranks)
        self.length = len(self.ranks) - 1
        self._d = d
        self.aug = tuple(aug)
        self._h = homotopy
        self._cycles: dict = {}  # k -> cycle_basis(k)
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

    def cycle_basis(self, k: int) -> list:
        """Integer kernel basis of d_k (x) Z as sparse columns, built
        once per degree: every chain map out of this resolution pushes
        the same cycles."""
        if k not in self._cycles:
            solver = ColumnSolver(self.boundary_matrix_z(k), self.ranks[k])
            self._cycles[k] = solver.kernel()
        return self._cycles[k]

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
        """Check d.d = 0 in degrees 2..n, h_{k-1} d_k + d_{k+1} h_k = 1 in
        degrees 1..n-1 and d_1 h_0 = 1 - section.augmentation, each on
        _basis_sample's basis elements e . j.  Each side is summed into
        one dict, with the right side subtracted, and must vanish."""
        G, d, h = self.G, self._d, self._h
        one = G.id
        rng = random.Random(0)
        for k in range(2, self.length + 1):
            for e, j in self._basis_sample(k, rng):
                # d_{k-1}(e . d_k(j)): each term c f i of d_k(j) adds c ef . d_{k-1}(i)
                row = G._mul[e]
                terms = ((c, row[f], d[k - 1][i]) for c, f, i in d[k][j].terms)
                if any(_accumulate(G, terms, {}).values()):
                    raise InvariantViolation(f"d.d != 0 at degree {k}")
        for k in range(1, self.length):
            for e, j in self._basis_sample(k, rng):
                # h_{k-1}(d_k(e . j)) takes each term c f i of d_k(j) to
                # c h_{k-1}(ef . i); d_{k+1}(h_k(e . j)) is equivariant
                row = G._mul[e]
                acc = _accumulate(
                    G, ((c, one, h(k - 1, row[f], i)) for c, f, i in d[k][j].terms),
                    {(j, e): -1},
                )
                terms = ((c, f, d[k + 1][i]) for c, f, i in h(k, e, j).terms)
                if any(_accumulate(G, terms, acc).values()):
                    raise InvariantViolation(f"homotopy identity fails at degree {k}")
        for e, j in self._basis_sample(0, rng):
            acc = {(j, e): -1}
            acc[(0, one)] = acc.get((0, one), 0) + self.aug[j]
            terms = ((c, f, d[1][i]) for c, f, i in h(0, e, j).terms)
            if any(_accumulate(G, terms, acc).values()):
                raise InvariantViolation("d_1 h_0 != 1 - section.augmentation")


# -- the bar resolution --------------------------------------------------


def bar_resolution(G, n: int) -> FreeResolution:
    """Normalized bar resolution to degree n, with the standard homotopy.

    Degree-k generators are the tuples [g_1|...|g_k] with no identity
    entry, in lexicographic element order; rank (|G|-1)^k.
    """
    if isinstance(G, PermGroup):
        G = SmallGroup(G)
    if (G.n - 1) ** n > errors.BAR_RANK_CAP:
        raise CapExceeded(f"bar rank ({G.n - 1})^{n} exceeds {errors.BAR_RANK_CAP}")
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


def _echelon_key(span: ZSpan) -> tuple:
    """(rank, product of the leading entries) of an echelon span.

    For lattices L inside K of the same rank, K's index over L is the
    quotient of their leading-entry products, so equal keys mean L = K.
    """
    prod = 1
    for row, lead in zip(span.rows, span.leads):
        prod *= row[lead]
    return span.rank, prod


def _select_generators(G: SmallGroup, rank: int, kb: list):
    """Greedy ZG-generators of the integer span of kb, smallest support first.

    A candidate already in the span of the translates chosen so far is
    skipped.  The translates span a lattice inside the kernel (d is
    equivariant, and _verify checks d.d = 0), so the selection stops as
    soon as that lattice's echelon key equals the kernel's: every later
    candidate would lie in the span.  A span that never reaches the
    kernel's key does not cover the kernel and raises.
    """
    size = G.n * rank
    cands = []
    kernel = ZSpan(size)
    for v in kb:
        if v[min(v)] < 0:
            v = {i: -a for i, a in v.items()}
        cands.append(v)
        kernel.insert(v)
    full = _echelon_key(kernel)
    # ties in support size go by the dense vectors' lexicographic order
    cands.sort(key=lambda v: (len(v), [v.get(i, 0) for i in range(size)]))
    span = ZSpan(size)
    chosen = []
    done = not kb  # a zero kernel needs no generators
    for v in cands:
        if done:
            break
        if span.contains(v):
            continue
        w = vec_to_word(G, 0, v)
        chosen.append(w)
        for g in range(G.n):
            grew = span.insert(translate_vec(G, g, w))
            if grew and span.rank == full[0] and _echelon_key(span) == full:
                done = True
                break
    if not done:
        raise InvariantViolation("selected generators do not span the kernel")
    return chosen


_small_memo: dict = {}


def resolution_small(G, n: int) -> FreeResolution:
    """Free resolution of Z over ZG to degree n, |G| capped at 128.

    G is a PermGroup or a SmallGroup.  Deterministic: same group
    generators, same resolution.  Results are memoized within a process,
    keyed by the fingerprint of the PermGroup and n, and the memo is
    read before the multiplication table of a SmallGroup is built.
    """
    if n < 1:
        raise ValueError(f"resolution length must be at least 1, not {n}")
    memo_key = (fingerprint(G if isinstance(G, PermGroup) else G.group), n)
    hit = _small_memo.get(memo_key)
    if hit is not None:
        return hit
    if isinstance(G, PermGroup):
        G = SmallGroup(G)

    ranks = [1]
    d: dict = {}
    solvers = []
    flat = [[1] * G.n]  # the augmentation, flattened
    for k in range(n):
        solver = ColumnSolver(flat, G.n * ranks[k])
        solvers.append(solver)
        kb = solver.kernel()
        chosen = _select_generators(G, ranks[k], kb)
        # over the trivial group Z is free, so ranks go (1, 0, ..., 0)
        if not chosen and G.n > 1:
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

    # homotopy, degree by degree: solve d_{k+1} y = x - h_{k-1}(d_k x),
    # with h_{-1} d_0 = section.augmentation; only the solutions are
    # stored as words
    table: dict = {}

    def homotopy(k, e, j):
        return table[(k, e, j)]

    res = FreeResolution(G, ranks, d, (1,), homotopy, verify=False)
    for k in range(n):
        solve = solvers[k + 1].solve
        for j in range(ranks[k]):
            for e in range(G.n):
                if k == 0:
                    acc = {(j, e): 1}
                    acc[(0, G.id)] = acc.get((0, G.id), 0) - res.aug[j]
                else:
                    row = G._mul[e]
                    acc = _accumulate(
                        G,
                        ((-c, G.id, table[(k - 1, row[f], i)]) for c, f, i in d[k][j].terms),
                        {(j, e): 1},
                    )
                y = solve({i * G.n + f: c for (i, f), c in acc.items()})
                if y is None:
                    raise InvariantViolation("homotopy solve failed; kernel not spanned")
                table[(k, e, j)] = vec_to_word(G, k + 1, y)
    res._verify()
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


# -- chain maps ----------------------------------------------------------


class ChainMap:
    """Equivariant chain map between two resolutions along phi.

    maps[k][j] is the image of the degree-k source generator j, a
    ZGWord over the target group.
    """

    def __init__(self, source: FreeResolution, target: FreeResolution,
                 elem_map: tuple, maps: tuple):
        self.source = source
        self.target = target
        self.elem_map = elem_map
        self.maps = maps

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


def homology_action(cm: ChainMap, k: int) -> list:
    """Images under cm of a basis of the k-cycles of the source (x) Z.

    Each image is a dense k-chain of the target (x) Z, one entry per
    degree-k target generator, and their classes span the image of
    H_k(source) in H_k(target).  The basis is the source's cycle_basis,
    so two chain maps out of one resolution push the same cycles in the
    same order.
    """
    if not 1 <= k <= cm.length:
        raise ValueError(f"induced maps need 1 <= k <= {cm.length}, not {k}")
    F = cm.matrix_z(k)
    return [[sum(row[j] * c for j, c in z.items()) for row in F]
            for z in cm.source.cycle_basis(k)]
