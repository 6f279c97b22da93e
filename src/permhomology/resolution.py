"""Free ZG-resolutions of Z for small permutation groups.

SmallGroup pins one enumeration of the elements (the stabilizer chain
order) and multiplies by table lookup; everything downstream speaks
element indices.  A chain in a free module of rank r has one form, the
sparse vector {j*|G| + e: coefficient} over Z^(r|G|) that ColumnSolver
and ZSpan take and return: term e . j sits at index j*|G| + e, zero
coefficients are left out, and the order of the terms means nothing.
FreeResolution carries the boundaries and the contracting homotopy as
such chains, with the augmentation, and the constructors verify
d.d = 0 and the homotopy identity before handing anything back.

Three constructions.  bar_resolution writes down the normalized bar
complex with its textbook one-sided homotopy; it is the oracle
everything else is compared against.  resolution_small builds a much
smaller resolution degree by degree from its own homotopy: the kernel
of d_k is spanned by the cycles x - h_{k-1}(d_k x), and each one, in a
fixed order, is solved on one ZSpan of the translates of the
generators chosen so far; the solution is h_k(x), and a cycle with no
solution becomes the next generator.  Exactness is by construction
(every cycle lies in the span) and is re-checked anyway.
tensor_resolution resolves a direct product of
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


def _accumulate(G: SmallGroup, terms, acc: dict) -> dict:
    """acc plus c * (g . v) for each (c, g, v) in terms, read through the
    rows of G's table; coefficients that cancel stay in as zeros."""
    get = acc.get
    n = G.n
    for c, g, v in terms:
        row = G._mul[g]
        for i, a in v.items():
            e = i % n
            k = i - e + row[e]
            acc[k] = get(k, 0) + c * a
    return acc


def _nonzero(acc: dict) -> dict:
    """acc without its zero coefficients, in the order it has."""
    return {i: c for i, c in acc.items() if c}


def _chain_sum(G: SmallGroup, terms) -> dict:
    """The sum of c * (g . v) over the (c, g, v) in terms, as one chain."""
    return _nonzero(_accumulate(G, terms, {}))


def _vector(pairs) -> dict:
    """The chain summed from (index, coefficient) pairs."""
    acc: dict = {}
    for i, c in pairs:
        acc[i] = acc.get(i, 0) + c
    return _nonzero(acc)


def translate_vec(G: SmallGroup, g: int, v: dict) -> dict:
    """g . v, read off g's row of the table.

    Left multiplication by g permutes the elements, so the terms of v
    stay distinct and nonzero and need no merge.
    """
    row = G._mul[g]
    n = G.n
    return {i - i % n + row[i % n]: c for i, c in v.items()}


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

    def boundary(self, k: int, j: int) -> dict:
        return self._d[k][j]

    def conjugate(self, q) -> FreeResolution:
        """This resolution carried over to q G q^-1 by renaming elements.

        Element e of G becomes conj(q, e) at the same index.  Conjugation
        is an isomorphism and every chain speaks element indices, so the
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

    def h(self, k: int, elem: int, gen: int) -> dict:
        return self._h(k, elem, gen)

    def apply_d(self, k: int, v: dict) -> dict:
        d, n = self._d[k], self.G.n
        return _chain_sum(self.G, ((c, i % n, d[i // n]) for i, c in v.items()))

    def apply_h(self, k: int, v: dict) -> dict:
        # the homotopy is not equivariant: each term is its own image
        one, n, h = self.G.id, self.G.n, self._h
        return _chain_sum(
            self.G, ((c, one, h(k, i % n, i // n)) for i, c in v.items())
        )

    def boundary_matrix_z(self, k: int) -> list:
        """d_k with the group collapsed to Z (coefficient sums), as one
        sparse column {generator: coefficient} per degree-k generator."""
        n = self.G.n
        return [_vector((i // n, c) for i, c in v.items()) for v in self._d[k]]

    def cycle_basis(self, k: int) -> list:
        """Integer kernel basis of d_k (x) Z as sparse vectors, built
        once per degree: every chain map out of this resolution pushes
        the same cycles."""
        if k not in self._cycles:
            solver = ColumnSolver(self.boundary_matrix_z(k), self.ranks[k - 1])
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
        one, n = G.id, G.n
        rng = random.Random(0)
        for k in range(2, self.length + 1):
            for e, j in self._basis_sample(k, rng):
                # d_{k-1}(e . d_k(j)): each term c f i of d_k(j) adds c ef . d_{k-1}(i)
                row = G._mul[e]
                terms = ((c, row[x % n], d[k - 1][x // n]) for x, c in d[k][j].items())
                if any(_accumulate(G, terms, {}).values()):
                    raise InvariantViolation(f"d.d != 0 at degree {k}")
        for k in range(1, self.length):
            for e, j in self._basis_sample(k, rng):
                # h_{k-1}(d_k(e . j)) takes each term c f i of d_k(j) to
                # c h_{k-1}(ef . i); d_{k+1}(h_k(e . j)) is equivariant
                row = G._mul[e]
                acc = _accumulate(
                    G,
                    ((c, one, h(k - 1, row[x % n], x // n)) for x, c in d[k][j].items()),
                    {j * n + e: -1},
                )
                terms = ((c, x % n, d[k + 1][x // n]) for x, c in h(k, e, j).items())
                if any(_accumulate(G, terms, acc).values()):
                    raise InvariantViolation(f"homotopy identity fails at degree {k}")
        for e, j in self._basis_sample(0, rng):
            acc = {j * n + e: -1}
            acc[one] = acc.get(one, 0) + self.aug[j]
            terms = ((c, x % n, d[1][x // n]) for x, c in h(0, e, j).items())
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
    one, size = G.id, G.n
    d = {1: tuple({a: 1, one: -1} for a in nonid)}
    for k in range(2, n + 1):
        imgs = []
        for t in tuples(k):
            pairs = [(gen_index(t[1:]) * size + t[0], 1)]
            sign = -1
            for i in range(k - 1):
                m = G.mul(t[i], t[i + 1])
                if m != one:
                    face = gen_index(t[:i] + (m,) + t[i + 2 :])
                    pairs.append((face * size + one, sign))
                sign = -sign
            pairs.append((gen_index(t[:-1]) * size + one, sign))
            imgs.append(_vector(pairs))
        d[k] = tuple(imgs)

    def homotopy(k, e, j):
        # h(g.[g_1|...|g_k]) = [g|g_1|...|g_k], zero on the identity coset
        if e == one:
            return {}
        tup = []
        for _ in range(k):
            tup.append(nonid[j % base])
            j //= base
        tup.reverse()
        return {gen_index((e, *tup)) * size + one: 1}

    return FreeResolution(G, ranks, d, (1,), homotopy)


# -- small resolutions from their own homotopy ---------------------------


def _element_orders(G: SmallGroup) -> list:
    """The order of each element, by index."""
    out = []
    for g in range(G.n):
        k, x, row = 1, g, G._mul[g]
        while x != G.id:
            x, k = row[x], k + 1
        out.append(k)
    return out


_small_memo: dict = {}


def resolution_small(G, n: int) -> FreeResolution:
    """Free resolution of Z over ZG to degree n, |G| capped at 128.

    G is a PermGroup or a SmallGroup.  Deterministic: same group
    generators, same resolution.  Results are memoized within a process,
    keyed by the fingerprint of the PermGroup and n, and the memo is
    read before the multiplication table of a SmallGroup is built.
    A span coefficient past errors.SPAN_BITS_CAP bits raises CapExceeded
    with the ranks of the degrees finished as ``attained``.
    """
    if n < 1:
        raise ValueError(f"resolution length must be at least 1, not {n}")
    memo_key = (fingerprint(G if isinstance(G, PermGroup) else G.group), n)
    hit = _small_memo.get(memo_key)
    if hit is not None:
        return hit
    if isinstance(G, PermGroup):
        G = SmallGroup(G)

    one, size = G.id, G.n
    ranks = [1]
    d: dict = {}
    table: dict = {}
    try:
        for k in range(n):
            # pi(e . j) = e . j - h_{k-1}(d_k(e . j)), with h_{-1} d_0 =
            # section.augmentation; the pi span the kernel of d_k
            cands = []
            for j in range(ranks[k]):
                for e in range(size):
                    if k == 0:
                        acc = {e: 1}
                        acc[one] = acc.get(one, 0) - 1
                    else:
                        row = G._mul[e]
                        acc = _accumulate(
                            G,
                            ((-c, one, table[(k - 1, row[x % size], x // size)])
                             for x, c in d[k][j].items()),
                            {j * size + e: 1},
                        )
                    cands.append((e, j, _nonzero(acc)))
            # one fixed order, the only one measured that stalled on no
            # case: unsorted, A5 to depth 3 took 13 s, and sorted by the
            # dense vectors, D12 to depth 8 ran past 15 s
            if k == 0:
                order = _element_orders(G)
                cands.sort(key=lambda c: (-order[c[0]], c[0]))
            else:
                cands.sort(key=lambda c: (len(c[2]), c[1], c[0]))
            # h_k(e . j) solves d_{k+1} y = pi(e . j) on the translates
            # of the generators so far, each tagged with its index in
            # R_{k+1}; a pi outside their span is the next generator
            span = ZSpan(size * ranks[k])
            chosen = []
            for e, j, v in cands:
                y = span.solve(v)
                if y is None:
                    g = len(chosen) * size
                    chosen.append(v)
                    for a in range(size):
                        span.insert(translate_vec(G, a, v), g + a)
                    y = {g + one: 1}
                table[(k, e, j)] = y
            # over the trivial group Z is free, so ranks go (1, 0, ..., 0)
            if not chosen and size > 1:
                raise InvariantViolation("kernel collapsed early; finite groups never do")
            d[k + 1] = tuple(chosen)
            ranks.append(len(chosen))
    except CapExceeded as exc:
        raise CapExceeded(
            f"{exc} resolving degree {len(ranks)}", attained=list(ranks)
        ) from None

    def homotopy(k, e, j):
        return table[(k, e, j)]

    res = FreeResolution(G, ranks, d, (1,), homotopy)
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

    size, na, nb = G.n, A.n, B.n
    d = {}
    for k in range(1, n + 1):
        low = pos[k - 1]
        imgs = []
        for k1, i, j in gens[k]:
            pairs = []
            if k1:
                pairs += [
                    (low[(k1 - 1, y // na, j)] * size + of_a[y % na], c)
                    for y, c in F.boundary(k1, i).items()
                ]
            if k1 < k:
                sign = -1 if k1 % 2 else 1
                pairs += [
                    (low[(k1, i, y // nb)] * size + of_b[y % nb], sign * c)
                    for y, c in E.boundary(k - k1, j).items()
                ]
            imgs.append(_vector(pairs))
        d[k] = tuple(imgs)

    table: dict = {}
    for k in range(n):
        up = pos[k + 1]
        for x, (k1, i, j) in enumerate(gens[k]):
            for e, (a, b) in enumerate(split):
                pairs = [
                    (up[(k1 + 1, y // na, j)] * size + pair[y % na][b], c)
                    for y, c in F.h(k1, a, i).items()
                ]
                if k1 == 0:
                    pairs += [
                        (up[(0, 0, y // nb)] * size + of_b[y % nb], F.aug[i] * c)
                        for y, c in E.h(k, b, j).items()
                    ]
                table[(k, e, x)] = _vector(pairs)

    def homotopy(k, e, j):
        return table[(k, e, j)]

    aug = [F.aug[i] * E.aug[j] for _, i, j in gens[0]]
    return FreeResolution(G, [len(layer) for layer in gens], d, aug, homotopy)


# -- chain maps ----------------------------------------------------------


class ChainMap:
    """Equivariant chain map between two resolutions along phi.

    maps[k][j] is the image of the degree-k source generator j, a
    chain over the target group.
    """

    def __init__(self, source: FreeResolution, target: FreeResolution,
                 elem_map: tuple, maps: list):
        self.source = source
        self.target = target
        self.elem_map = elem_map
        self.maps = maps

    @property
    def length(self) -> int:
        return len(self.maps) - 1

    def push(self, k: int, v: dict) -> dict:
        """Image of a degree-k source chain: phi on coefficients, maps on
        generators."""
        n, emap, imgs = self.source.G.n, self.elem_map, self.maps[k]
        return _chain_sum(
            self.target.G, ((c, emap[i % n], imgs[i // n]) for i, c in v.items())
        )

    def matrix_z(self, k: int) -> list:
        """The degree-k map with both groups collapsed to Z, as one
        sparse column {target generator: coefficient} per source
        generator."""
        n = self.target.G.n
        return [_vector((i // n, c) for i, c in v.items()) for v in self.maps[k]]


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
    # degree 0: section . augmentation; each degree's images extend cm
    maps = [tuple({T.id: a} if a else {} for a in R_source.aug)]
    cm = ChainMap(R_source, R_target, emap, maps)
    for k in range(1, depth + 1):
        maps.append(tuple(
            R_target.apply_h(k - 1, cm.push(k - 1, R_source.boundary(k, j)))
            for j in range(R_source.ranks[k])
        ))

    for k in range(1, depth + 1):
        for j in range(R_source.ranks[k]):
            lhs = R_target.apply_d(k, cm.maps[k][j])
            rhs = cm.push(k - 1, R_source.boundary(k, j))
            if lhs != rhs:
                raise InvariantViolation(f"chain map does not commute at degree {k}")
    return cm


def homology_action(cm: ChainMap, k: int) -> list:
    """Images under cm of a basis of the k-cycles of the source (x) Z.

    Each image is a sparse k-chain {generator: coefficient} of the
    target (x) Z, and their classes span the image of H_k(source) in
    H_k(target).  The basis is the source's cycle_basis, so two chain
    maps out of one resolution push the same cycles in the same order.
    """
    if not 1 <= k <= cm.length:
        raise ValueError(f"induced maps need 1 <= k <= {cm.length}, not {k}")
    F = cm.matrix_z(k)
    return [_vector((i, c * a) for j, c in z.items() for i, a in F[j].items())
            for z in cm.source.cycle_basis(k)]
