"""Local structure at a prime: normalizers of cyclic subgroups, the
normalizer's image in the automorphisms of Z/m, p-subgroup ascent,
double cosets.

The workhorse is a conjugation-orbit BFS over cyclic subgroups.  A
subgroup is identified by the lexicographically least image tuple among
its generators, and each orbit node delta carries a unit c(delta) mod m
defined by

    t_delta x t_delta^{-1} = y_delta ** c(delta)

with t_delta the Schreier-tree transporter and y_delta the canonical
generator.  A non-tree edge delta -> epsilon via generator g then gives
the automorphism induced by one Schreier generator of the normalizer as

    a * c(delta) * c(epsilon)^{-1}  mod m,   where  g y_delta g^{-1} = y_epsilon ** a,

so the image of the whole normalizer in (Z/m)^* is assembled without
reconstructing a single group element.  Elements are only rebuilt (by
walking the tree) for the few witnesses we want to verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import CapExceeded, InvariantViolation
from .perm import conj, identity, inv, mul, power
from .perm import order as perm_order
from .permgroup import ENUM_CAP, OrbitData, PermGroup, generate_to_order, schreier_stabilizer

CYCLIC_ORBIT_CAP = 4 * 10**6
SUBGROUP_ORBIT_CAP = 200000
# closed orbit edges kept for normalizer()'s Schreier generators
CLOSED_EDGE_BUDGET = 2048


def p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def element_of_order(G: PermGroup, p: int, seed: int = 0) -> tuple:
    """An element of order exactly p, as a power of a random element."""
    stream = G.random_elements(seed)
    for _ in range(10000):
        g = next(stream)
        m = perm_order(g)
        if m % p == 0:
            return power(g, m // p)
    raise InvariantViolation(f"no element of order {p} found; is p | |G|?")


def _pack_rows(R):
    """Pack each row (up to 24 values < 32) into a (hi, lo) uint64 pair
    whose pairwise order equals row lex order."""
    n = R.shape[1]
    if n > 24:
        raise ValueError("degree > 24 not supported")
    hi = np.zeros(len(R), dtype=np.uint64)
    lo = np.zeros(len(R), dtype=np.uint64)
    for t in range(min(n, 12)):
        hi |= R[:, t].astype(np.uint64) << np.uint64(5 * (11 - t))
    for t in range(12, n):
        lo |= R[:, t].astype(np.uint64) << np.uint64(5 * (23 - t))
    return hi, lo


class CyclicConjOrbit:
    """Conjugation orbit of the cyclic subgroup <x> under G."""

    def __init__(self, G: PermGroup, x: tuple):
        self.G = G
        self.x = tuple(x)
        self.m = perm_order(self.x)
        if self.m < 2:
            raise ValueError("need a nontrivial cyclic subgroup")
        self._run()

    def _run(self):
        G, m = self.G, self.m
        n = G.degree
        gens = G.generators
        garr = [np.array(g, dtype=np.uint8) for g in gens]
        ginv = [np.array(inv(g), dtype=np.uint8) for g in gens]
        units = [j for j in range(1, m) if gcd(j, m) == 1]

        powers = [power(self.x, j) for j in range(1, m)]
        y0 = min(powers[j - 1] for j in units)
        self.root_gen = y0

        def key_of(row_hi, row_lo):
            return (int(row_hi) << 64) | int(row_lo)

        r0 = np.array([y0], dtype=np.uint8)
        h0, l0 = _pack_rows(r0)
        index = {key_of(h0[0], l0[0]): 0}
        parent = [-1]
        genidx = [-1]
        cval = [1]
        # residue -> first closed edge realizing it, for witness rebuilds
        self.residue_edges: dict = {}
        self.closed_edges: list = []
        frontier_rows = r0
        frontier_idx = [0]
        maxu = np.uint64(0xFFFFFFFFFFFFFFFF)
        while len(frontier_idx):
            next_rows = []
            next_idx = []
            for gi in range(len(gens)):
                Z = garr[gi][frontier_rows[:, ginv[gi]]]
                P = np.empty((m - 1, len(Z), n), dtype=np.uint8)
                P[0] = Z
                for j in range(1, m - 1):
                    P[j] = np.take_along_axis(Z, P[j - 1].astype(np.int64), axis=1)
                HI = np.empty((len(units), len(Z)), dtype=np.uint64)
                LO = np.empty_like(HI)
                for uj, j in enumerate(units):
                    HI[uj], LO[uj] = _pack_rows(P[j - 1])
                m1 = HI.min(axis=0)
                cand = HI == m1
                LOm = np.where(cand, LO, maxu)
                m2 = LOm.min(axis=0)
                ustar = (cand & (LOm == m2)).argmax(axis=0)
                Ycan = P[np.array(units)[ustar] - 1, np.arange(len(Z)), :]
                new_rows = []
                for r in range(len(Z)):
                    key = key_of(m1[r], m2[r])
                    delta = frontier_idx[r]
                    a = pow(units[int(ustar[r])], -1, m)
                    eps = index.get(key)
                    if eps is None:
                        eps = len(parent)
                        if eps >= CYCLIC_ORBIT_CAP:
                            raise CapExceeded(
                                "cyclic conjugation orbit exceeded cap "
                                f"{CYCLIC_ORBIT_CAP}",
                                attained=eps,
                            )
                        index[key] = eps
                        parent.append(delta)
                        genidx.append(gi)
                        cval.append(a * cval[delta] % m)
                        new_rows.append(r)
                        next_idx.append(eps)
                    else:
                        res = a * cval[delta] * pow(cval[eps], -1, m) % m
                        if res not in self.residue_edges:
                            self.residue_edges[res] = (delta, gi, eps)
                        if len(self.closed_edges) < CLOSED_EDGE_BUDGET:
                            self.closed_edges.append((delta, gi, eps))
                if new_rows:
                    next_rows.append(Ycan[new_rows])
            frontier_rows = (
                np.concatenate(next_rows) if next_rows else np.empty((0, n), np.uint8)
            )
            frontier_idx = next_idx
        self.size = len(parent)
        self.parent = parent
        self.genidx = genidx
        self.cval = cval
        if G.order() % self.size:
            raise InvariantViolation("orbit size does not divide group order")
        self.normalizer_order = G.order() // self.size

    def transporter(self, idx: int) -> tuple:
        word = []
        while self.parent[idx] >= 0:
            word.append(self.genidx[idx])
            idx = self.parent[idx]
        g = identity(self.G.degree)
        for gi in reversed(word):
            g = mul(self.G.generators[gi], g)
        return g

    def schreier_element(self, edge) -> tuple:
        delta, gi, eps = edge
        return mul(
            inv(self.transporter(eps)),
            mul(self.G.generators[gi], self.transporter(delta)),
        )

    def aut_image(self) -> set:
        """Image of the normalizer of <x> in (Z/m)^*, as a set of units."""
        E = {1}
        while True:
            new = {a * b % self.m for a in E for b in self.residue_edges} | E
            if new == E:
                return E
            E = new

    def witnesses(self) -> list:
        """(residue, group element) pairs, one per distinct closed-edge
        residue, each verified to conjugate x to the stated power."""
        out = []
        for res in sorted(self.residue_edges):
            s = self.schreier_element(self.residue_edges[res])
            if conj(s, self.x) != power(self.x, res):
                raise InvariantViolation("witness fails its conjugation relation")
            out.append((res, s))
        return out

    def normalizer(self) -> PermGroup:
        """N_G(<x>) from Schreier generators of the orbit stabilizer; an
        InvariantViolation here means the closed-edge budget was too small."""
        return generate_to_order(
            map(self.schreier_element, self.closed_edges),
            self.G.degree, self.normalizer_order,
        )


@dataclass
class WeylData:
    p: int
    exponent: int
    normalizer_order: int
    orbit_size: int
    element: tuple
    witnesses: list

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
    E = orb.aut_image()
    e = len(E)
    if (p - 1) % e:
        raise InvariantViolation("automorphism image size must divide p - 1")
    return WeylData(
        p=p,
        exponent=e,
        normalizer_order=orb.normalizer_order,
        orbit_size=orb.size,
        element=x,
        witnesses=orb.witnesses(),
    )


def normalizer_of_cyclic(G: PermGroup, x: tuple) -> PermGroup:
    return CyclicConjOrbit(G, x).normalizer()


def subgroup_normalizer(G: PermGroup, H: PermGroup) -> PermGroup:
    """N_G(H) by conjugation orbit on the set of elements of H.

    H must be enumerable; the orbit is capped since each node stores the
    whole conjugated subgroup.
    """
    hels = H.elements(ENUM_CAP)
    idn = identity(G.degree)
    seed = tuple(sorted(h for h in hels if h != idn))
    if not seed:
        return G

    def act(g, state):
        return tuple(sorted(conj(g, h) for h in state))

    od = OrbitData(seed, G.generators, act, G.degree, SUBGROUP_ORBIT_CAP)
    return schreier_stabilizer(G, od)


def _ascend_within(N: PermGroup, Q: PermGroup, p: int) -> PermGroup:
    """Grow the p-subgroup Q towards a Sylow p-subgroup of N by scanning
    N's elements for normalizing p-elements outside Q."""
    els = N.elements(ENUM_CAP)
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
            N = normalizer_of_cyclic(G, x)
        except CapExceeded:
            continue
        if N.order() > ENUM_CAP:
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
        if N.order() > ENUM_CAP:
            raise CapExceeded(
                f"normalizer of order {N.order()} exceeds enumeration cap",
                attained=Q,
            )
        Q2 = _ascend_within(N, Q, p)
        if Q2.order() == Q.order():
            raise InvariantViolation("p-subgroup failed to grow inside its normalizer")
        Q = Q2
    return Q


def double_cosets(G: PermGroup, H: PermGroup, cap: int = ENUM_CAP) -> list:
    """Representatives of H\\G/H, the lexicographically least element of
    each double coset, in increasing order."""
    els = sorted(G.elements(cap))
    hels = H.elements(cap)
    marked = set()
    reps = []
    for g in els:
        if g in marked:
            continue
        reps.append(g)
        for a in hels:
            ag = mul(a, g)
            for b in hels:
                marked.add(mul(ag, b))
    return reps
