"""Local structure at a prime: normalizers of cyclic subgroups, the
normalizer's image in the automorphisms of Z/m, p-subgroup ascent,
double cosets.

The workhorse is a backtrack search for N = N_G(<x>) over the images of
a base (Sims' method; Holt, Eick and O'Brien, Handbook of Computational
Group Theory, section 4.6).  The base of G is re-chosen to start with
the cycles of x, longest first, each listed in x-order, so that its
first L base points are the points x moves.  An element g lies in N,
with g x g^-1 = x^a, exactly when

    g(x(b)) = x^a(g(b))   for every point b.

So the image of a cycle's first point fixes g on the whole cycle once
a is known, and the image of its second point fixes a modulo the cycle
length.  For an x of composite order a shorter cycle fixes a only
modulo its length; a is kept as a residue class modulo the lcm of the
cycle lengths seen so far, which is m after the last cycle.  Every
partial image is pruned by the stabilizer-chain transversals: the
image of base[j] must lie in h(Delta_j), for h the product of the
transversal elements chosen above it and Delta_j the basic orbit.
Once every moved point has its image, h itself conjugates x to x^a
(it maps the fixed points of x among themselves), and that relation
is checked on each element found.

The pointwise stabilizer of the moved points centralizes x, so the
search starts from it and works up the chain: at level l it knows
K = N meet G^(l+1) and looks for elements of N meet G^(l) that carry
base[l] outside its K-orbit, trying one image per orbit of the K built
so far.  An image that fails rules out its whole K-orbit, and one that
succeeds adds a generator to K.  |N| is the product of the orbit sizes,
and the orbit of <x> under conjugation has |G| / |N| members.  The
search costs one step per base image tried, however large N is; a
budget on those steps is its cap.

Double cosets H\\G/H are the H-orbits on the left cosets G/H (Handbook,
section 4.6).  Each coset xH is kept as its least element, read off a
stabilizer chain of H on the base 0, 1, ..., n-1 (the least coset
representative walk; Seress, Permutation Group Algorithms, 2003): at
base point b, of basic orbit O, the least image x(b) over xH^(b) is
x(o) for the o in O with the least x(o), and x times the transversal
element carrying b to o stays in the coset with that least image at b.
A walk from H by left multiplication with the generators of G reaches
every coset, and the cosets are then taken in increasing order, each
not yet covered starting a new orbit whose first coset holds the least
element of its double coset.  Memory grows with |G:H|, never with |G|,
and the cap bounds that index.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import itemgetter

from . import errors
from .errors import CapExceeded, InvariantViolation
from .intlinalg import p_part
from .perm import conj, cycles, identity, mul, power, precompose
from .perm import order as perm_order
from .permgroup import OrbitData, PermGroup, schreier_stabilizer


def element_of_order(G: PermGroup, p: int, seed: int = 0) -> tuple:
    """An element of order exactly p, as a power of a random element."""
    stream = G.random_elements(seed)
    for _ in range(10000):
        g = next(stream)
        m = perm_order(g)
        if m % p == 0:
            return power(g, m // p)
    raise InvariantViolation(f"no element of order {p} found; is p | |G|?")


class CyclicConjOrbit:
    """N = N_G(<x>) by a base-image backtrack, and the size of the
    conjugation orbit of <x>, |G| / |N|.

    generators generate N, and residues[i] is the unit a mod m with
    generators[i] x generators[i]^-1 = x^a.
    """

    def __init__(self, G: PermGroup, x: tuple):
        self.G = G
        self.x = tuple(x)
        self.m = perm_order(self.x)
        if self.m < 2:
            raise ValueError("need a nontrivial cyclic subgroup")
        cycs = sorted(cycles(self.x), key=len, reverse=True)
        prefix = tuple(pt for c in cycs for pt in c)
        base, S, trans = PermGroup(G.generators, G.degree, base_prefix=prefix).chain()
        if base[: len(prefix)] != prefix:
            raise InvariantViolation("prefixed chain lost its prefix")
        self._base, self._trans = base, trans
        # the x-cycle through each point (a 1-tuple at a fixed point) and
        # the point's place on it
        self._cycle = [(pt,) for pt in range(G.degree)]
        self._place = [0] * G.degree
        for c in cycs:
            for i, pt in enumerate(c):
                self._cycle[pt], self._place[pt] = c, i
        # (cycle length, offset in the cycle) of each base point moved by x
        self._levels = [(len(c), i) for c in cycs for i in range(len(c))]
        self._steps = 0
        self._search(S)
        if G.order() % self.normalizer_order:
            raise InvariantViolation("normalizer order does not divide group order")
        self.size = G.order() // self.normalizer_order

    def _search(self, S):
        L, trans = len(self._levels), self._trans
        # G^(L) fixes every point x moves, so it centralizes x
        self.generators = list(S[L]) if L < len(S) else []
        self.residues = [1] * len(self.generators)
        # the generators found by the search: the others fix every moved
        # point, so these alone give the orbits of moved points
        found: list = []
        order = 1
        for t in trans[L:]:
            order *= len(t)
        # on G^(l), a = 1 mod M for M the lcm of the lengths of the cycles
        # whose first two points lie in base[:l]
        moduli = [1]
        for length, offset in self._levels:
            moduli.append(lcm(moduli[-1], length) if offset == 1 else moduli[-1])
        idn = identity(self.G.degree)
        for l in reversed(range(L)):
            b = self._base[l]
            reached, failed = {b}, set()
            for image, a, M in self._images(l, idn, 1, moduli[l]):
                if image in reached or image in failed:
                    continue
                # the order of the part of N found so far
                self._attained = order * len(reached)
                self._step()
                u = trans[l].get(image)
                hit = None if u is None else self._extend(l + 1, u, a, M)
                if hit is None:
                    failed.update(PermGroup(found, self.G.degree).orbit(image))
                else:
                    found.append(hit[0])
                    self.generators.append(hit[0])
                    self.residues.append(hit[1])
                    reached = set(PermGroup(found, self.G.degree).orbit(b))
            order *= len(reached)
        self.normalizer_order = order

    def _step(self):
        self._steps += 1
        cap = errors.NORMALIZER_SEARCH_CAP
        if self._steps > cap:
            raise CapExceeded(
                f"normalizer search exceeded cap {cap} base images",
                attained=self._attained,
            )

    def _images(self, j, h, a, M):
        """(image, a, M) for each image of base[j] that keeps the relation
        with x, given h on base[:j] and a fixed modulo M."""
        length, offset = self._levels[j]
        if offset == 0:
            for pt in self._trans[j]:
                if len(self._cycle[h[pt]]) == length:
                    yield h[pt], a, M
            return
        first = h[self._base[j - offset]]
        cycle, place = self._cycle[first], self._place[first]
        if offset == 1 and M % length:
            # each lift of a to the lcm that is a unit mod the cycle length
            M2 = lcm(M, length)
            for a2 in range(a % M, M2, M):
                if gcd(a2, length) == 1:
                    yield cycle[(place + a2) % length], a2, M2
        else:
            yield cycle[(place + a * offset) % length], a, M

    def _extend(self, j, h, a, M):
        """An element of N that agrees with h on base[:j], with its unit
        a, or None."""
        if j == len(self._levels):
            if conj(h, self.x) != power(self.x, a):
                raise InvariantViolation("search found an element outside the normalizer")
            return h, a
        t = self._trans[j]
        for image, a2, M2 in self._images(j, h, a, M):
            self._step()
            u = t.get(h.index(image))
            if u is None:
                continue
            hit = self._extend(j + 1, h if len(t) == 1 else mul(h, u), a2, M2)
            if hit is not None:
                return hit
        return None

    def witnesses(self) -> list:
        """(a, g) for each unit a of the normalizer's image, with g a
        product of the generators and g x g^-1 = x^a checked, in
        increasing order of a."""
        found = {1: identity(self.G.degree)}
        queue = [1]
        for r in queue:
            for g, a in zip(self.generators, self.residues):
                t = r * a % self.m
                if t not in found:
                    found[t] = mul(g, found[r])
                    queue.append(t)
        for a, g in found.items():
            if conj(g, self.x) != power(self.x, a):
                raise InvariantViolation("witness fails its conjugation relation")
        return sorted(found.items())

    def normalizer(self) -> PermGroup:
        """N_G(<x>) on the generators the search found."""
        N = PermGroup(self.generators, self.G.degree)
        if N.order() != self.normalizer_order:
            raise InvariantViolation("normalizer generators miss the searched order")
        return N


class WeylData:
    def __init__(self, p: int, exponent: int, normalizer_order: int,
                 orbit_size: int, element: tuple, witnesses: list):
        self.p = p
        self.exponent = exponent
        self.normalizer_order = normalizer_order
        self.orbit_size = orbit_size
        self.element = element
        self.witnesses = witnesses

    @property
    def pattern(self) -> str:
        """Degrees with p-torsion read as n = (2e)k - 1."""
        return f"{2 * self.exponent}k-1"


def weyl_exponent(G: PermGroup, p: int, seed: int = 0) -> WeylData:
    """Order of the image of N_G(P) in Aut(P) for P the Sylow p-subgroup,
    which must be of order exactly p (p divides |G| once)."""
    if G.order() % p:
        raise ValueError(f"{p} does not divide the group order")
    if p_part(G.order(), p) != p:
        raise ValueError(f"Sylow {p}-subgroup is not of prime order")
    x = element_of_order(G, p, seed)
    orb = CyclicConjOrbit(G, x)
    witnesses = orb.witnesses()
    e = len(witnesses)
    if (p - 1) % e:
        raise InvariantViolation("automorphism image size must divide p - 1")
    return WeylData(
        p=p,
        exponent=e,
        normalizer_order=orb.normalizer_order,
        orbit_size=orb.size,
        element=x,
        witnesses=witnesses,
    )


def subgroup_normalizer(G: PermGroup, H: PermGroup) -> PermGroup:
    """N_G(H) by conjugation orbit on the set of elements of H.

    H must be enumerable; the orbit is capped since each node stores the
    whole conjugated subgroup.
    """
    hels = H.elements()
    idn = identity(G.degree)
    seed = tuple(sorted(h for h in hels if h != idn))
    if not seed:
        return G

    def act(g, state):
        return tuple(sorted(conj(g, h) for h in state))

    od = OrbitData(seed, G.generators, act, G.degree, errors.SUBGROUP_ORBIT_CAP)
    return schreier_stabilizer(G, od)


def _ascend_within(N: PermGroup, Q: PermGroup, p: int) -> PermGroup:
    """Grow the p-subgroup Q towards a Sylow p-subgroup of N by scanning
    N's elements for normalizing p-elements outside Q."""
    els = N.elements()
    target = p_part(N.order(), p)
    qels = set(Q.elements())
    while len(qels) < target:
        grown = False
        for y in els:
            if y in qels:
                continue
            o = perm_order(y)
            if p_part(o, p) != o:
                continue
            if any(conj(y, q) not in qels for q in Q.generators):
                continue
            T = PermGroup(list(Q.generators) + [y], N.degree)
            if T.order() > len(qels):
                Q = T
                qels = set(T.elements())
                grown = True
                break
        if not grown:
            break
    return Q


def sylow_ascent(G: PermGroup, p: int, seed: int = 0) -> PermGroup:
    """A Sylow p-subgroup of G.

    Strategy: start from cyclic subgroups generated by p-power parts of
    random elements (several candidates, largest order first), take the
    normalizer of the best one, and ascend inside it by brute force.
    Repeat with generic normalizers if that stalls.  Raises CapExceeded
    carrying the largest p-subgroup attained when a normalizer is too
    big to handle.
    """
    pe = p_part(G.order(), p)
    if pe == 1:
        return PermGroup([], G.degree)
    stream = G.random_elements(seed)
    candidates: dict = {}
    for _ in range(400):
        g = next(stream)
        m = perm_order(g)
        k = p_part(m, p)
        if k == 1:
            continue
        x = power(g, m // k)
        key = min(power(x, j) for j in range(1, k) if gcd(j, p) == 1)
        if key not in candidates:
            candidates[key] = x
        if len(candidates) >= 6:
            break
    ranked = sorted(candidates.values(), key=perm_order, reverse=True)[:4]
    if not ranked:
        raise InvariantViolation("found no p-element at all")
    best = PermGroup([ranked[0]], G.degree)
    if best.order() == pe:
        return best
    for x in ranked:
        try:
            N = CyclicConjOrbit(G, x).normalizer()
        except CapExceeded:
            continue
        if N.order() > errors.ENUM_CAP:
            continue
        Q = _ascend_within(N, PermGroup([x], G.degree), p)
        if Q.order() == pe:
            return Q
        if Q.order() > best.order():
            best = Q
    Q = best
    while Q.order() < pe:
        try:
            N = subgroup_normalizer(G, Q)
        except CapExceeded as exc:
            raise CapExceeded(str(exc), attained=Q) from exc
        if N.order() > errors.ENUM_CAP:
            raise CapExceeded(
                f"normalizer of order {N.order()} exceeds enumeration cap",
                attained=Q,
            )
        Q2 = _ascend_within(N, Q, p)
        if Q2.order() == Q.order():
            raise InvariantViolation("p-subgroup failed to grow inside its normalizer")
        Q = Q2
    return Q


def coset_least(H: PermGroup):
    """The map x -> min(mul(x, b) for b in H), the least element of the
    left coset xH, walked down H's chain on the base 0, 1, ..., n-1.

    Each level with a nontrivial basic orbit costs one lookup per orbit
    point and at most one composition, instead of |H| compositions.
    """
    n = H.degree
    base, _, trans = PermGroup(H.generators, n, base_prefix=range(n)).chain()
    if base != tuple(range(n)):
        raise InvariantViolation("coset chain is not on the base 0..n-1")
    # (b, x -> x(O) for the orbit O of b, x -> x u_o for each o in O)
    levels = [
        (b, itemgetter(*t), {o: precompose(u) for o, u in t.items()})
        for b, t in zip(base, trans)
        if len(t) > 1
    ]

    def least(x):
        for b, images, times in levels:
            # x is a permutation, so its least value on O names one point
            o = x.index(min(images(x)))
            if o != b:
                x = times[o](x)
        return x

    return least


def double_cosets(G: PermGroup, H: PermGroup) -> list:
    """Representatives of H\\G/H, the lexicographically least element of
    each double coset, in increasing order.

    Walks the left cosets xH, each kept as its least element from
    coset_least, and never lists G: memory grows with the index |G:H|,
    which DOUBLE_COSET_CAP bounds.  The coset count and the orbits'
    cover of the cosets are both checked against |G:H|.
    """
    hels = H.elements()
    order = G.order()
    index = order // len(hels)
    cap = errors.DOUBLE_COSET_CAP
    if index > cap:
        raise CapExceeded(f"subgroup index {index} exceeds double-coset cap {cap}")
    least = coset_least(H)
    # the least element of H is the identity, the least permutation
    frontier = [identity(G.degree)]
    cosets = set(frontier)
    while frontier:
        nxt = []
        for c in frontier:
            for g in G.generators:
                d = least(mul(g, c))
                if d not in cosets:
                    cosets.add(d)
                    nxt.append(d)
        frontier = nxt
    if len(cosets) * len(hels) != order:
        raise InvariantViolation(
            f"{len(cosets)} cosets of a subgroup of order {len(hels)} "
            f"in a group of order {order}"
        )
    # HxH is the H-orbit of xH; the first coset of an orbit met in
    # increasing order holds the least element of its double coset
    left = set(cosets)
    reps = []
    covered = 0
    for c in sorted(cosets):
        if c not in left:
            continue
        reps.append(c)
        times_c = precompose(c)
        orbit = {least(times_c(a)) for a in hels}
        left.difference_update(orbit)
        covered += len(orbit)
    if covered != index:
        raise InvariantViolation(
            f"double-coset orbits cover {covered} of {index} cosets"
        )
    return reps
