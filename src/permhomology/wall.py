"""Free resolutions assembled from complexes of permutation modules.

A NonFreeComplex is a chain complex whose degree-p module is a direct
sum of coset modules Z[G/H] (x) Z_chi, one per cell orbit, twisted by
the character chi by which H acts on the orientation of its cell, with
boundary coefficients carrying explicit group elements (Wall 1961;
Ellis 2004, "Computing group resolutions").  Each summand is resolved
by a free resolution R of its stabilizer, twisted: R (x) Z_chi is R
conjugated by the Z-linear map h.e -> chi(h) h.e, so it has the same
free generators and a contracting homotopy.  Inducing that up to G
gives a vertical strip of free modules per orbit, and the assembled
resolution in total degree n is the direct sum of the blocks with
p + q = n.

The total differential is d0 (induced stabilizer boundaries) plus
horizontal components d_i moving i columns left, built one generator
at a time through the induced contracting homotopies:

    d_1 = section . complex boundary . augmentation      on q = 0
    d_i = -h( sum_{j=1}^{i-1} d_j d_{i-j}  +  d_i d0 )   otherwise

No sign conventions enter anywhere else; the recursion generates them.
d.d = 0 is then checked literally on every generator before anything
is returned, and a failure aborts: it means an orientation or
homotopy fault upstream, never something to paper over.

Any ZH-resolution will do for a column, and a resolution of H serves
every conjugate gHg^-1 once its elements are renamed.  So one
wall_assemble call resolves one stabilizer per standard form (the
stabilizer relabelled so its orbits fill consecutive blocks, longest
first), at the depth of its first and deepest column, and carries that
resolution over by conjugation to every other stabilizer with the same
form; it never resolves a relabelled group itself, whose element
enumeration, and so its cost, can differ wildly.  The default resolver
splits a stabilizer that is the direct product of its restrictions to
one orbit and to the other points, as the Young-type stabilizers of
the flags complexes are, and takes the tensor product of the factors'
resolutions (Ellis 2004); any other stabilizer goes to
resolution_small.

Solid complexes with a trivial rank-one top module splice into a periodic
complex (the top cell's boundary re-enters below degree zero), and a
group extension feeds in as the quotient's resolution viewed as a
complex of Z[G/N]-modules, every orbit stabilized by N: the assembled
result is the twisted tensor product of the two resolutions.
"""

from __future__ import annotations

from . import errors
from .errors import CapExceeded, InvariantViolation
from .homology import chain_homology
from .perm import conj, identity, inv, mul, precompose
from .permgroup import PermGroup
from .resolution import FreeResolution, _vector, resolution_small, tensor_resolution


class OrbitSummand:
    """One Z[G/H] (x) Z_chi summand: sorted stabilizer elements, the
    boundary word ((coeff, g, orbit_below), ...) of its generating
    coset, and the character {element: +-1} of H, None when trivial."""

    def __init__(self, stab: tuple, boundary: tuple, chi=None):
        self.stab = stab
        self.boundary = boundary
        self.chi = chi


class NonFreeComplex:
    """Complex of direct sums of coset modules, possibly periodic.

    layers[p] lists the orbit summands of C_p.  A periodic complex
    stores one window plus the splice word: layer p reduces mod the
    window length and the boundary at each positive multiple is the
    spliced top-cell boundary (the same word for every degree-0 orbit,
    whose augmentation is 1).
    """

    def __init__(self, group: PermGroup, layers, splice_word=None):
        self.group = group
        self.layers = tuple(tuple(layer) for layer in layers)
        if not self.layers or not self.layers[0]:
            raise ValueError("need at least a degree-0 layer")
        self.splice_word = splice_word

    @property
    def periodic(self) -> bool:
        return self.splice_word is not None

    def available(self, p: int) -> bool:
        return self.periodic or p < len(self.layers)

    def layer(self, p: int):
        if self.periodic:
            return self.layers[p % len(self.layers)]
        return self.layers[p]

    def boundary(self, p: int, o: int):
        if p == 0:
            return ()
        if self.periodic and p % len(self.layers) == 0:
            return self.splice_word
        return self.layer(p)[o].boundary


def _summands(layers) -> list:
    return [
        tuple(
            OrbitSummand(tuple(sorted(c.stab.elements())), tuple(c.boundary),
                         c.character() if -1 in c.chi else None)
            for c in layer
        )
        for layer in layers
    ]


def from_cells(ecc) -> NonFreeComplex:
    """Orbit complex from an equivariant cell decomposition."""
    return NonFreeComplex(ecc.group, _summands(ecc.orbits))


def splice(ecc) -> NonFreeComplex:
    """Periodic complex from a solid whose top module is Z.

    The top cells must be one orbit stabilized by all of G with trivial
    character; its boundary word becomes the splice map.  The window is
    checked to be exact by expanding to integer matrices (homology of a
    point).
    """
    from .equivariant import expand_chain

    top = ecc.orbits[-1]
    if len(ecc.orbits) < 2 or len(top) != 1:
        raise InvariantViolation("splice needs a single top cell orbit")
    cell = top[0]
    if cell.stab.order() != ecc.group.order() or -1 in cell.chi:
        raise InvariantViolation("top module is not trivial of rank one")
    sizes, mats = expand_chain(ecc)
    H = chain_homology(sizes, mats)
    point = [h.free == 0 and not h.torsion for h in H]
    if H[0].as_list() != [0] or not all(point[1:]):
        raise InvariantViolation("solid does not expand to a point")
    return NonFreeComplex(
        ecc.group, _summands(ecc.orbits[:-1]), splice_word=tuple(cell.boundary)
    )


class AssembledResolution:
    """Free ZG-resolution in block form.

    gens[k] lists the degree-k generators as (p, q, orbit, t); d[k][j]
    is the full boundary of generator j, a tuple of (coeff, g, index
    into gens[k-1]).  Degree-0 generators all augment to 1.
    """

    def __init__(self, group: PermGroup, gens: tuple, d: tuple):
        self.group = group
        self.gens = gens
        self.d = d

    @property
    def ranks(self) -> tuple:
        return tuple(len(g) for g in self.gens)

    @property
    def length(self) -> int:
        return len(self.gens) - 1

    def boundary_matrix_z(self, k: int) -> list:
        """d_k collapsed to Z, as one sparse column {generator:
        coefficient} per degree-k generator."""
        return [_vector((i, c) for c, _, i in word) for word in self.d[k - 1]]


class _Column:
    """Induced vertical strip over one orbit: Z[G] (x)_{ZH} (R^H (x) Z_chi).

    R^H (x) Z_chi has R^H's free generators; every boundary, homotopy
    and section term is multiplied by chi of the stabilizer element it
    carries.  R comes from resolve, which hands every stabilizer with
    the same standard form one shared resolution, carried over by
    conjugation (see _shared_resolver); a trivial stabilizer resolves
    to rank 1 in degree 0 with a zero homotopy.
    """

    def __init__(self, stab: tuple, depth: int, resolve, chi):
        self.stab = stab
        self._cosets: dict = {}
        # depth 0 would leave the stabilizer resolution without a
        # homotopy level; one extra degree is cheap and memoized
        self.R = resolve(stab, max(depth, 1))
        if self.R.ranks[0] != 1 or self.R.aug != (1,):
            raise InvariantViolation("column resolution must augment Z[G/H]")
        els = self.R.G.elements
        # g -> mul(g, h) for each h, in the resolution's element order
        self._right = [precompose(h) for h in els]
        self._chi = [chi[h] for h in els] if chi else [1] * len(els)

    def rank(self, q: int) -> int:
        return self.R.ranks[q] if q < len(self.R.ranks) else 0

    def _coset(self, g):
        """(r, e): r the least element of gH, e the index of r^-1 g."""
        hit = self._cosets.get(g)
        if hit is None:
            # r = g h for exactly one h, so r^-1 g is h^-1
            r, i = min((f(g), i) for i, f in enumerate(self._right))
            hit = self._cosets[g] = (r, self.R.G.inverse[i])
        return hit

    def section(self, g):
        """(sign, r) with g (x) 1 = sign * r (x) 1 and r the least
        element of gH."""
        r, e = self._coset(g)
        return self._chi[e], r

    def d0(self, q: int, t: int):
        """Stabilizer boundary of generator t at height q, as (c, g, t')."""
        els, n, chi = self.R.G.elements, self.R.G.n, self._chi
        return tuple(
            (c * chi[x % n], els[x % n], x // n) for x, c in self.R.boundary(q, t).items()
        )

    def h(self, q: int, c: int, g, t: int):
        """Homotopy applied to one term at height q, as (c, g, t')."""
        r, e = self._coset(g)
        right, n, chi = self._right, self.R.G.n, self._chi
        c *= chi[e]
        return tuple(
            (c * c2 * chi[x % n], right[x % n](r), x // n)
            for x, c2 in self.R.h(q, e, t).items()
        )


def _orbits(H: PermGroup) -> list:
    """H's orbits, longest first and ties by least point, each sorted."""
    return sorted(H.orbits(), key=lambda o: (-len(o), o[0]))


def _standard_labels(H: PermGroup) -> tuple:
    """The relabelling pi that sends the orbits of H, in _orbits order,
    onto consecutive blocks of 0..degree-1, each orbit's points in
    increasing order."""
    pi = [0] * H.degree
    label = 0
    for orbit in _orbits(H):
        for x in orbit:
            pi[x] = label
            label += 1
    return tuple(pi)


def _shared_resolver(degree: int, resolver):
    """resolve(stab, depth) for the columns of one assembly.

    The first stabilizer with a given standard form (under
    _standard_labels) goes to resolver exactly as it comes; each later
    one with that form gets the first one's resolution carried over by
    conjugation.  Columns are built from p = 0 with depth top - p, so
    the first request for a form is its deepest, and a shallower column
    reads only the heights up to its own depth.
    """
    seen: dict = {}  # standard form -> (labels, resolution) of the first stabilizer

    def resolve(stab: tuple, depth: int) -> FreeResolution:
        H = PermGroup(list(stab[1:]), degree)
        pi = _standard_labels(H)
        key = tuple(sorted(conj(pi, h) for h in stab))
        hit = seen.get(key)
        if hit is None:
            R = resolver(H, depth)
            seen[key] = (pi, R)
        else:
            pi0, R0 = hit
            # pi H pi^-1 = pi0 H0 pi0^-1, so q H0 q^-1 = H
            R = R0.conjugate(mul(inv(pi), pi0))
        if R.length < depth:
            raise InvariantViolation(
                f"column needs depth {depth}, its resolution has {R.length}"
            )
        if tuple(sorted(R.G.elements)) != stab:
            how = "conjugated" if hit else "resolver's"
            raise InvariantViolation(f"{how} resolution is not over the stabilizer")
        return R

    return resolve


def _merge(items):
    acc: dict = {}
    for c, g, key in items:
        k = (key, g)
        acc[k] = acc.get(k, 0) + c
    return tuple((v, g, key) for (key, g), v in sorted(acc.items()) if v)


def _restrict(g: tuple, points) -> tuple:
    """g on points, the identity elsewhere."""
    return tuple(g[x] if x in points else x for x in range(len(g)))


def _orbit_split(H: PermGroup):
    """(H on O, H off O) for the first orbit O, in _orbits order, with
    |H| = |H on O| * |H off O|, so that H is the direct product of the
    two restrictions; None when no orbit splits H so."""
    orbits = [o for o in _orbits(H) if len(o) > 1]
    if len(orbits) < 2:
        return None
    for orbit in orbits:
        on = set(orbit)
        off = set(range(H.degree)) - on
        A = PermGroup([_restrict(g, on) for g in H.generators], H.degree)
        B = PermGroup([_restrict(g, off) for g in H.generators], H.degree)
        if A.order() * B.order() == H.order():
            return A, B
    return None


def _default_resolver(H: PermGroup, depth: int) -> FreeResolution:
    """The tensor product of the resolutions of H's two restrictions
    when H splits over an orbit (_orbit_split), each resolved the same
    way; resolution_small(H, depth) otherwise."""
    split = _orbit_split(H)
    if split is None:
        return resolution_small(H, depth)
    return tensor_resolution(*(_default_resolver(K, depth) for K in split))


def wall_assemble(
    C: NonFreeComplex,
    n: int,
    resolver=_default_resolver,
) -> AssembledResolution:
    """Assembled free resolution through total degree n + 1.

    Homology is then available in degrees <= n, valid wherever C is
    exact.  resolver(H, depth) supplies the stabilizer resolutions.
    """
    G = C.group
    top = n + 1
    resolve = _shared_resolver(G.degree, resolver)
    cols = []
    for p in range(top + 1):
        if not C.available(p):
            break
        depth = top - p
        cols.append([_Column(s.stab, depth, resolve, s.chi) for s in C.layer(p)])

    gens: list = [[] for _ in range(top + 1)]
    for p in range(len(cols)):
        for o, col in enumerate(cols[p]):
            for q in range(top - p + 1):
                for t in range(col.rank(q)):
                    gens[p + q].append((p, q, o, t))
    while gens and not gens[-1]:
        gens.pop()  # finite complex ran out of blocks; the resolution ends
    cap = errors.WALL_RANK_CAP
    for k, layer in enumerate(gens):
        layer.sort()
        if len(layer) > cap:
            raise CapExceeded(f"assembled rank {len(layer)} at degree {k} exceeds {cap}")

    comp: dict = {}  # (i, p, q, o, t) -> word of (c, g, (p', q', o', t'))

    def apply_comp(i: int, word):
        out = []
        for c, g, (p, q, o, t) in word:
            for c2, g2, key in comp.get((i, p, q, o, t), ()):
                out.append((c * c2, mul(g, g2), key))
        return _merge(out)

    def apply_h(word):
        """Column homotopy, one height and one column up; the word must
        live in a single block."""
        out = []
        for c, g, (p, q, o, t) in word:
            for c2, g2, t2 in cols[p][o].h(q, c, g, t):
                out.append((c2, g2, (p, q + 1, o, t2)))
        return _merge(out)

    idn = identity(G.degree)
    for p in range(len(cols)):
        for q in range(top - p + 1):
            for o, col in enumerate(cols[p]):
                for t in range(col.rank(q)):
                    key = (p, q, o, t)
                    if q > 0:
                        comp[(0,) + key] = _merge(
                            (c, g, (p, q - 1, o, t2)) for c, g, t2 in col.d0(q, t)
                        )
                    for i in range(1, p + 1):
                        if i == 1 and q == 0:
                            # section . boundary . augmentation
                            terms = []
                            for c, g, o2 in C.boundary(p, o):
                                sign, r = cols[p - 1][o2].section(g)
                                terms.append((c * sign, r, (p - 1, 0, o2, 0)))
                            word = _merge(terms)
                        else:
                            x = ((1, idn, key),)
                            acc = []
                            if q > 0:
                                acc.extend(apply_comp(i, apply_comp(0, x)))
                            for j in range(1, i):
                                acc.extend(apply_comp(j, apply_comp(i - j, x)))
                            word = _merge((-c, g, k2) for c, g, k2 in _merge(acc))
                            word = apply_h(word)
                        comp[(i,) + key] = word

    index = [
        {key: j for j, key in enumerate(layer)} for layer in gens
    ]
    d = []
    for k in range(1, len(gens)):
        words = []
        for key in gens[k]:
            p, q, o, t = key
            total = []
            for i in range(p + 1):
                for c, g, key2 in comp.get((i,) + key, ()):
                    total.append((c, g, index[k - 1][key2]))
            words.append(_merge(total))
        d.append(tuple(words))
    res = AssembledResolution(G, tuple(tuple(l) for l in gens), tuple(d))
    _verify(res)
    return res


def _verify(res: AssembledResolution):
    for word in res.d[0]:
        if sum(c for c, _, _ in word):
            raise InvariantViolation("d_1 does not land in the augmentation kernel")
    for k in range(2, res.length + 1):
        lower = res.d[k - 2]
        for j, word in enumerate(res.d[k - 1]):
            out = []
            for c, g, i in word:
                for c2, g2, i2 in lower[i]:
                    out.append((c * c2, mul(g, g2), i2))
            if _merge(out):
                raise InvariantViolation(
                    f"d.d != 0 at degree {k}, generator {j}; "
                    "orientation or homotopy fault upstream"
                )


# -- group extensions ----------------------------------------------------


def quotient_complex(G: PermGroup, N: PermGroup, depth: int) -> NonFreeComplex:
    """Resolution of G/N viewed as a complex of Z[G/N]-modules.

    The quotient acts through its regular permutation representation;
    boundary coefficients lift to the minimal coset representatives in
    G.  Every orbit summand has stabilizer N.
    """
    nels = sorted(N.elements())
    nset = frozenset(nels)
    for g in G.generators:
        for x in N.generators:
            if mul(g, mul(x, inv(g))) not in nset:
                raise ValueError("N is not normal in G")
    reps = sorted({min(mul(g, h) for h in nels) for g in G.elements()})
    k = len(reps)
    if k == 1:
        raise ValueError("G/N is trivial; use a resolution of N directly")
    pos = {r: i for i, r in enumerate(reps)}

    def coset(g):
        return pos[min(mul(g, h) for h in nels)]

    perms = {r: tuple(coset(mul(r, s)) for s in reps) for r in reps}
    Q = PermGroup([p for r, p in perms.items() if p != tuple(range(k))], k)
    if Q.order() != k:
        raise InvariantViolation("regular representation has the wrong order")
    RQ = resolution_small(Q, depth)
    i0 = coset(identity(G.degree))
    lift = {perm: reps[perm[i0]] for perm in RQ.G.elements}

    stab = tuple(sorted(nset))
    layers = []
    for p in range(len(RQ.ranks)):
        layer = []
        for j in range(RQ.ranks[p]):
            if p == 0:
                layer.append(OrbitSummand(stab, ()))
                continue
            els, size = RQ.G.elements, RQ.G.n
            word = tuple(
                (c, lift[els[x % size]], x // size)
                for x, c in RQ.boundary(p, j).items()
            )
            layer.append(OrbitSummand(stab, word))
        layers.append(tuple(layer))
    return NonFreeComplex(G, layers)


def twisted_tensor(G: PermGroup, N: PermGroup, n: int,
                   resolver=_default_resolver) -> AssembledResolution:
    """Free ZG-resolution from resolutions of N and of G/N.

    Rank in total degree n is the convolution of the two rank
    sequences; the homotopy corrections carry the extension data, so a
    nonsplit extension does not collapse to the direct-product answer.
    """
    C = quotient_complex(G, N, n + 1)
    return wall_assemble(C, n, resolver=resolver)
