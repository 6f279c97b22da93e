"""Permutation groups with a deterministic stabilizer chain.

The chain is built by the classic Schreier-Sims procedure with no
randomization: base points come from ``base_prefix`` first (in order,
even if the whole group fixes them), then smallest moved points as
needed, and all orbit BFS runs in fixed generator order.  Rebuilding a
group therefore always yields the identical chain, which keeps every
downstream computation reproducible.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from math import lcm

from .errors import CapExceeded, InvariantViolation
from .perm import identity, inv, mul, precompose

ENUM_CAP = 10**6
ORBIT_CAP = 2 * 10**7


def act_point(g: tuple, x: int) -> int:
    return g[x]


def act_set(g: tuple, s: tuple) -> tuple:
    """Action on a set stored as a sorted tuple."""
    return tuple(sorted(g[x] for x in s))


class OrbitData:
    """BFS orbit of one seed under a fixed generator list.

    States are arbitrary hashables; ``act(g, state)`` applies a
    generator.  Parent pointers form a Schreier tree, so ``transporter``
    can rebuild a group element carrying the seed to any state without
    storing one permutation per state.
    """

    __slots__ = ("seed", "gens", "act", "degree", "index", "states", "parent", "genidx")

    def __init__(self, seed, gens, act, degree, cap=ORBIT_CAP):
        self.seed = seed
        self.gens = list(gens)
        self.act = act
        self.degree = degree
        self.index = {seed: 0}
        self.states = [seed]
        self.parent = [-1]
        self.genidx = [-1]
        head = 0
        while head < len(self.states):
            s = self.states[head]
            for gi, g in enumerate(self.gens):
                t = act(g, s)
                if t not in self.index:
                    if len(self.states) >= cap:
                        raise CapExceeded(
                            f"orbit exceeded cap {cap}", attained=len(self.states)
                        )
                    self.index[t] = len(self.states)
                    self.states.append(t)
                    self.parent.append(head)
                    self.genidx.append(gi)
            head += 1

    def __len__(self):
        return len(self.states)

    def __contains__(self, state):
        return state in self.index

    def transporter(self, state) -> tuple:
        """Group element g with g.seed == state, read off the tree."""
        return tree_transporter(
            self.parent, self.genidx, self.gens, self.degree, self.index[state]
        )


def tree_transporter(parent, genidx, gens, degree: int, i: int) -> tuple:
    """Element carrying the root of a Schreier tree to node i.

    parent[i] is the node that gens[genidx[i]] carried to node i, and -1
    at the root; the element is the product of those generators along
    the path from the root.
    """
    word = []
    while parent[i] >= 0:
        word.append(genidx[i])
        i = parent[i]
    g = identity(degree)
    for gi in reversed(word):
        g = mul(gens[gi], g)
    return g


def schreier_generator(g: tuple, u: tuple, v: tuple) -> tuple:
    """v~ g u for the transporters u and v of the two ends of an edge
    that g walks: an element of the stabilizer of the root."""
    return mul(inv(v), mul(g, u))


class PermGroup:
    def __init__(self, generators, degree=None, base_prefix=(), name=None):
        gens = [tuple(g) for g in generators]
        if degree is None:
            if not gens:
                raise ValueError("degree required for a trivial group")
            degree = len(gens[0])
        idn = identity(degree)
        seen = set()
        keep = []
        for g in gens:
            if len(g) != degree:
                raise ValueError("generators of mixed degree")
            if g == idn or g in seen:
                continue
            seen.add(g)
            keep.append(g)
        self.degree = degree
        self.generators = tuple(keep)
        self.name = name
        self._base_prefix = tuple(base_prefix)
        self._chain = None
        self._order = None
        self._orbits = None

    def __repr__(self):
        label = self.name or f"{len(self.generators)} gens, degree {self.degree}"
        if self._order is not None:
            label += f", order {self._order}"
        return f"<PermGroup {label}>"

    # -- stabilizer chain ------------------------------------------------

    def _ensure_chain(self):
        if self._chain is not None:
            return
        n = self.degree
        idn = identity(n)
        base = list(self._base_prefix)
        for g in self.generators:
            if all(g[b] == b for b in base):
                base.append(min(i for i in range(n) if g[i] != i))
        if not base:
            base = [0]
        # S[i] generates the pointwise stabilizer of base[:i] once the
        # procedure finishes; seeded with the input generators that
        # already fix the prefix.
        S = [
            [g for g in self.generators if all(g[b] == b for b in base[:i])]
            for i in range(len(base))
        ]
        trans: list = [None] * len(base)
        # the inverse of each transversal element, so no sift inverts
        itrans: list = [None] * len(base)

        def orbit(i):
            t = {base[i]: idn}
            queue = [base[i]]
            for pt in queue:
                u = t[pt]
                for g in S[i]:
                    im = g[pt]
                    if im not in t:
                        t[im] = mul(g, u)
                        queue.append(im)
            trans[i] = t
            itrans[i] = {pt: inv(u) for pt, u in t.items()}

        def strip(g, start):
            for l in range(start, len(base)):
                ui = itrans[l].get(g[base[l]])
                if ui is None:
                    return g, l
                g = mul(ui, g)
            return g, len(base)

        for i in range(len(base)):
            orbit(i)
        i = len(base) - 1
        while i >= 0:
            restart = False
            for pt in list(trans[i]):
                u = trans[i][pt]
                for g in S[i]:
                    h0 = mul(itrans[i][g[pt]], mul(g, u))
                    if h0 == idn:
                        continue
                    h, j = strip(h0, i + 1)
                    if h == idn:
                        continue
                    if j == len(base):
                        base.append(min(x for x in range(n) if h[x] != x))
                        S.append([])
                        trans.append(None)
                        itrans.append(None)
                    for l in range(i + 1, j + 1):
                        S[l].append(h)
                        orbit(l)
                    i = j
                    restart = True
                    break
                if restart:
                    break
            if restart:
                continue
            i -= 1
        order = 1
        for t in trans:
            order *= len(t)
        self._chain = (tuple(base), S, trans)
        self._itrans = itrans
        self._order = order

    def order(self) -> int:
        self._ensure_chain()
        return self._order

    @property
    def base(self) -> tuple:
        self._ensure_chain()
        return self._chain[0]

    def chain(self) -> tuple:
        """(base, S, trans): S[i] generates the pointwise stabilizer of
        base[:i], and trans[i] maps each point of that stabilizer's orbit
        of base[i] to an element of it carrying base[i] there."""
        self._ensure_chain()
        return self._chain

    def sift(self, g: tuple) -> tuple:
        """Residue of g after stripping through the chain (identity iff g in G)."""
        self._ensure_chain()
        for b, itr in zip(self._chain[0], self._itrans):
            ui = itr.get(g[b])
            if ui is None:
                return g
            g = mul(ui, g)
        return g

    def contains(self, g) -> bool:
        g = tuple(g)
        if len(g) != self.degree:
            return False
        return self.sift(g) == identity(self.degree)

    def contains_group(self, other: "PermGroup") -> bool:
        return all(self.contains(g) for g in other.generators)

    # -- element access --------------------------------------------------

    def elements(self, cap: int = ENUM_CAP) -> list:
        """All elements, in a fixed chain-derived order."""
        if self.order() > cap:
            raise CapExceeded(
                f"group order {self.order()} exceeds enumeration cap {cap}"
            )
        base, _, trans = self._chain
        out = [identity(self.degree)]
        for i in reversed(range(len(base))):
            us = [trans[i][pt] for pt in sorted(trans[i])]
            # mul(u, x) for u in us for x in out, one getter per x
            gets = [precompose(x) for x in out]
            out = [f(u) for u in us for f in gets]
        return out

    def random_elements(self, seed: int = 0):
        """Endless product-replacement stream.

        Good enough for finding elements of given order; no uniformity
        claim.  Fully determined by the seed.
        """
        import random as _random

        rng = _random.Random(seed)
        if not self.generators:
            while True:
                yield identity(self.degree)
        gens = list(self.generators)
        pool = [gens[i % len(gens)] for i in range(max(10, len(gens)))]
        for _ in range(60):
            _pr_step(pool, rng)
        while True:
            yield _pr_step(pool, rng)

    def is_abelian(self) -> bool:
        gs = self.generators
        return all(
            mul(a, b) == mul(b, a) for a, b in itertools.combinations(gs, 2)
        )

    def exponent(self, cap: int = ENUM_CAP) -> int:
        from .perm import order as perm_order

        e = 1
        for g in self.elements(cap):
            e = lcm(e, perm_order(g))
        return e

    # -- orbits ----------------------------------------------------------

    def orbit(self, point: int) -> tuple:
        od = OrbitData(point, self.generators, act_point, self.degree)
        return tuple(sorted(od.states))

    def orbits(self) -> list:
        """The orbits in order of least point, each sorted; worked out
        once per group."""
        if self._orbits is None:
            seen = set()
            out = []
            for x in range(self.degree):
                if x in seen:
                    continue
                o = self.orbit(x)
                seen.update(o)
                out.append(o)
            self._orbits = tuple(out)
        return list(self._orbits)

    def orbit_data(self, seed, act, cap: int = ORBIT_CAP) -> OrbitData:
        return OrbitData(seed, self.generators, act, self.degree, cap)

    def set_orbit(self, pts, cap: int = ORBIT_CAP) -> OrbitData:
        seed = tuple(sorted(pts))
        return OrbitData(seed, self.generators, act_set, self.degree, cap)

    # -- stabilizers -----------------------------------------------------

    def point_stabilizer(self, points) -> "PermGroup":
        """Pointwise stabilizer of a tuple of points, off a prefixed chain."""
        points = tuple(points)
        if not points:
            return self
        H = self
        if self._chain is None or self._chain[0][: len(points)] != points:
            H = PermGroup(self.generators, self.degree, base_prefix=points)
        H._ensure_chain()
        base, S, _ = H._chain
        k = len(points)
        if base[:k] != points:
            raise InvariantViolation("prefixed chain lost its prefix")
        gens = S[k] if k < len(S) else []
        return PermGroup(gens, self.degree)

    def setwise_stabilizer(self, pts, orbit_data: OrbitData | None = None) -> "PermGroup":
        """Stabilizer of a point set, via Schreier generators on the set orbit."""
        seed = tuple(sorted(pts))
        od = orbit_data if orbit_data is not None else self.set_orbit(seed)
        return schreier_stabilizer(self, od)

    def chain_stabilizer(self, sets) -> "PermGroup":
        """Stabilizer of a nested chain of sets (each set fixed setwise)."""
        H = self
        for s in sorted(sets, key=len):
            H = H.setwise_stabilizer(s)
        return H


def schreier_stabilizer(group: PermGroup, od: OrbitData) -> PermGroup:
    """Stabilizer of od.seed inside `group`, from Schreier generators.

    Works for any BFS orbit built from group.generators, whatever the
    states are.  The predicted order |group| / |orbit| is known up
    front, so we stop adding Schreier generators as soon as the
    subgroup they generate reaches it; Schreier's lemma guarantees we
    get there by the end of the scan.
    """
    if len(od.gens) != len(group.generators) or any(
        a != b for a, b in zip(od.gens, group.generators)
    ):
        raise ValueError("orbit was not built from this group's generators")
    total = group.order()
    if total % len(od):
        raise InvariantViolation("orbit size does not divide the group order")

    def schreier_generators():
        for s in od.states:
            u = od.transporter(s)
            for g in group.generators:
                yield schreier_generator(g, u, od.transporter(od.act(g, s)))

    return generate_to_order(schreier_generators(), group.degree, total // len(od))


def generate_to_order(candidates, degree: int, target: int) -> PermGroup:
    """Group generated by the first candidates that reach order `target`,
    skipping identities and repeats; a lazy iterable is read no further."""
    if target == 1:
        return PermGroup([], degree)
    idn = identity(degree)
    gens: list = []
    have = set()
    for h in candidates:
        if h == idn or h in have:
            continue
        have.add(h)
        gens.append(h)
        H = PermGroup(gens, degree)
        if H.order() == target:
            return H
    raise InvariantViolation(f"generators fell short of the predicted order {target}")


def fingerprint(G: PermGroup) -> str:
    """Hash of degree, order and sorted generators; reports print it and
    resolution cache files are keyed by it, so it must not change."""
    data = json.dumps([G.degree, G.order(), sorted(G.generators)]).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _pr_step(pool: list, rng) -> tuple:
    i = rng.randrange(len(pool))
    j = rng.randrange(len(pool) - 1)
    if j >= i:
        j += 1
    g = pool[j] if rng.random() < 0.5 else inv(pool[j])
    pool[i] = mul(pool[i], g)
    return pool[i]
