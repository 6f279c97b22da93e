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

The BFS runs one level per numpy batch: the conjugates of every frontier
subgroup by every generator, their canonical generators and packed keys,
one np.unique over the batch and one searchsorted against the sorted keys
of the nodes already seen.  New nodes are numbered in order of first
occurrence in (generator, frontier row) order, so every table equals
the one a row-at-a-time walk builds.  Keys are exact: a 64-bit sort key
is only trusted after its full packed row matches.

The canonical generator of <z> is read off the first point i0 that z
moves.  Every power of z fixes the points below i0, so the lex-least
generator z**j is the one with the least z**j(i0) over the units j mod m.
When i0 lies on an m-cycle (always, for prime m) the values z**j(i0) are
distinct, so walking that one cycle fixes j, and z**j is then built by
binary powering and packed once.  Only a row of composite order whose i0
lies on a shorter cycle is settled by packing and comparing every unit
power.  Both ways give the same generator and exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import CapExceeded, InvariantViolation
from .intlinalg import p_part
from .perm import conj, identity, inv, mul, power
from .perm import order as perm_order
from .permgroup import (
    ENUM_CAP,
    OrbitData,
    PermGroup,
    generate_to_order,
    schreier_generator,
    schreier_stabilizer,
    tree_transporter,
)

CYCLIC_ORBIT_CAP = 4 * 10**6
SUBGROUP_ORBIT_CAP = 200000
# closed orbit edges kept for normalizer()'s Schreier generators
CLOSED_EDGE_BUDGET = 2048
# frontier rows conjugated and powered per numpy block, bounding memory
_BLOCK_ROWS = 1 << 12


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


def _unpack_rows(hi, lo, n: int):
    """Inverse of _pack_rows: the uint8 rows of degree n."""
    R = np.empty((len(hi), n), dtype=np.uint8)
    mask = np.uint64(31)
    for t in range(min(n, 12)):
        R[:, t] = (hi >> np.uint64(5 * (11 - t))) & mask
    for t in range(12, n):
        R[:, t] = (lo >> np.uint64(5 * (23 - t))) & mask
    return R


def _mix(hi, lo):
    """64-bit sort key of packed rows.  It equals hi below degree 13, where
    lo is 0; above, distinct rows may share it, so every match on it is
    checked against the full (hi, lo) pair."""
    return hi ^ (lo * np.uint64(0x9E3779B97F4A7C15))


def _least_powers(Z, unit_inv):
    """For each row z of Z (a permutation of order m = len(unit_inv)), the
    packed lex-least generator z**j of <z> and its exponent j.  unit_inv
    is nonzero exactly at the units mod m.  j is read off the cycle of
    the first moved point, as the module docstring explains; a row whose
    first moved point lies on a cycle shorter than m goes to
    _least_power_table instead."""
    c, n = Z.shape
    m = len(unit_inv)
    base = np.arange(c, dtype=np.int32)[:, None] * n
    # z(i) as the flat index r * n + z(i), so that z o w is np.take(step, w)
    step = Z + base
    # walk[j] = z**j(i0) as a flat index, for the first moved point i0
    walk = np.empty((m, c), dtype=np.int32)
    walk[0] = base[:, 0] + (Z != np.arange(n, dtype=Z.dtype)).argmax(axis=1)
    for j in range(1, m):
        np.take(step, walk[j - 1], out=walk[j])
    units = np.flatnonzero(unit_inv).astype(np.int32)
    # the unit j with the least z**j(i0): the least key m * z**j(i0) + j
    best = (walk[units] * np.int32(m) + units[:, None]).min(axis=0) % np.int32(m)
    # i0 back home before m steps: its cycle is shorter than m
    divisors = [j for j in range(2, m) if m % j == 0]
    short = (walk[divisors] == walk[0]).any(axis=0)
    # z**best by binary powering
    power = step.copy()
    e = best - 1
    while e.any():
        odd = np.flatnonzero(e & 1)
        power[odd] = np.take(step, power[odd])
        e >>= 1
        if e.any():
            step = np.take(step, step)
    hi, lo = _pack_rows((power - base).astype(np.uint8))
    if short.any():
        rows = np.flatnonzero(short)
        hi[rows], lo[rows], best[rows] = _least_power_table(Z[rows], unit_inv)
    return hi, lo, best


def _least_power_table(Z, unit_inv):
    """_least_powers by packing and comparing every unit power of each row."""
    c, n = Z.shape
    values = Z.ravel()
    # z(i) as a flat index into Z, so that z o w is one gather: step[w]
    step = (Z + np.arange(c, dtype=np.intp)[:, None] * n).ravel()
    hi, lo = _pack_rows(Z)
    best = np.ones(c, dtype=np.int32)
    cur = step  # z**(j-1) as flat indices
    for j in range(2, len(unit_inv)):
        if unit_inv[j]:
            h, l = _pack_rows(values[cur].reshape(c, n))
            better = (h < hi) | ((h == hi) & (l < lo))
            np.copyto(hi, h, where=better)
            np.copyto(lo, l, where=better)
            best[better] = j
        if j + 1 < len(unit_inv):
            cur = step[cur]
    return hi, lo, best


def _conjugates(rows, gens, unit_inv):
    """Packed canonical generators of g <y> g^-1 for every generator g and
    every row y, candidate gi * len(rows) + r for gens[gi] and rows[r],
    with the exponent j such that y_eps = (g y g^-1) ** j."""
    k = len(rows)
    hi = np.empty(len(gens) * k, dtype=np.uint64)
    lo = np.empty_like(hi)
    j = np.empty(len(hi), dtype=np.int32)
    for gi, g in enumerate(gens):
        garr = np.array(g, dtype=np.uint8)
        ginv = np.array(inv(g), dtype=np.uint8)
        for s in range(0, k, _BLOCK_ROWS):
            Z = garr[rows[s:s + _BLOCK_ROWS][:, ginv]]
            o = slice(gi * k + s, gi * k + s + len(Z))
            hi[o], lo[o], j[o] = _least_powers(Z, unit_inv)
    return hi, lo, j


class _RowIndex:
    """Ids of the packed rows seen so far, looked up a batch at a time.

    Sorted by the 64-bit _mix key; a key match counts only when the full
    (hi, lo) pair matches too, and any mismatch raises InvariantViolation,
    so two distinct rows never share an id."""

    def __init__(self):
        self.key = np.empty(0, dtype=np.uint64)
        self.hi = np.empty(0, dtype=np.uint64)
        self.lo = np.empty(0, dtype=np.uint64)
        self.id = np.empty(0, dtype=np.int32)
        self.size = 0

    def add(self, hi, lo):
        """The id of every row of the batch, in batch order, and the batch
        positions of the rows not seen before.  Those get the next ids in
        order of first occurrence."""
        key = _mix(hi, lo)
        ukey, first, back = np.unique(key, return_index=True, return_inverse=True)
        if (hi[first][back] != hi).any() or (lo[first][back] != lo).any():
            raise InvariantViolation("packed-row sort keys collide within a batch")
        pos = np.searchsorted(self.key, ukey)
        old = pos < len(self.key)
        old[old] = self.key[pos[old]] == ukey[old]
        op, of = pos[old], first[old]
        if (self.hi[op] != hi[of]).any() or (self.lo[op] != lo[of]).any():
            raise InvariantViolation("packed-row sort keys collide with a seen row")
        fresh = np.flatnonzero(~old)  # in key order
        new = np.sort(first[fresh])
        uid = np.empty(len(ukey), dtype=np.int32)
        uid[old] = self.id[op]
        uid[fresh] = self.size + np.searchsorted(new, first[fresh])
        ins = pos[fresh]
        self.key = np.insert(self.key, ins, ukey[fresh])
        self.hi = np.insert(self.hi, ins, hi[first[fresh]])
        self.lo = np.insert(self.lo, ins, lo[first[fresh]])
        self.id = np.insert(self.id, ins, uid[fresh])
        self.size += len(new)
        return uid[back], new


class CyclicConjOrbit:
    """Conjugation orbit of the cyclic subgroup <x> under G.

    Breadth first, one level at a time: every generator conjugates every
    frontier subgroup in one numpy batch, and the batch is deduplicated
    at once against itself and against the sorted keys of the nodes seen.
    Node ids follow first occurrence in (generator, frontier row) order,
    which is the order a row-at-a-time walk discovers them in.  Keys are
    exact: a shared sort key whose (hi, lo) rows differ raises
    InvariantViolation rather than merge two subgroups.

    parent, genidx and cval are int32 arrays indexed by node id; node 0
    is <x> itself, generated by root_gen.
    """

    def __init__(self, G: PermGroup, x: tuple):
        self.G = G
        self.x = tuple(x)
        self.m = perm_order(self.x)
        if self.m < 2:
            raise ValueError("need a nontrivial cyclic subgroup")
        self._run()

    def _run(self):
        G, m = self.G, self.m
        # inverse mod m of each unit; 0 at the non-units
        unit_inv = np.zeros(m, dtype=np.int64)
        for j in range(1, m):
            if gcd(j, m) == 1:
                unit_inv[j] = pow(j, -1, m)
        self.root_gen = min(power(self.x, j) for j in range(1, m) if unit_inv[j])
        rows = np.array([self.root_gen], dtype=np.uint8)
        index = _RowIndex()
        index.add(*_pack_rows(rows))
        self.parent = np.array([-1], dtype=np.int32)
        self.genidx = np.array([-1], dtype=np.int32)
        self.cval = np.array([1], dtype=np.int32)
        # residue -> first closed edge realizing it, for witness rebuilds
        self.residue_edges: dict = {}
        self.closed_edges: list = []
        while len(rows):
            rows = self._level(rows, index, unit_inv)
        self.size = len(self.parent)
        if G.order() % self.size:
            raise InvariantViolation("orbit size does not divide group order")
        self.normalizer_order = G.order() // self.size

    def _level(self, rows, index, unit_inv):
        """Walk every edge out of the frontier, the last len(rows) nodes,
        whose canonical generators are rows; return the new nodes' rows."""
        m, k = self.m, len(rows)
        start = len(self.parent) - k
        hi, lo, j = _conjugates(rows, self.G.generators, unit_inv)
        eps, tree = index.add(hi, lo)
        if index.size > CYCLIC_ORBIT_CAP:
            raise CapExceeded(
                f"cyclic conjugation orbit exceeded cap {CYCLIC_ORBIT_CAP}",
                attained=CYCLIC_ORBIT_CAP,
            )
        delta = start + tree % k
        self.parent = np.concatenate([self.parent, delta.astype(np.int32)])
        self.genidx = np.concatenate([self.genidx, (tree // k).astype(np.int32)])
        # g y_delta g^-1 = y_eps ** a with a the inverse of j mod m
        self.cval = np.concatenate(
            [self.cval, (unit_inv[j[tree]] * self.cval[delta] % m).astype(np.int32)]
        )
        closed = np.ones(len(hi), dtype=bool)
        closed[tree] = False
        cpos = np.flatnonzero(closed)
        cdelta, ceps = start + cpos % k, eps[cpos]
        res = unit_inv[j[cpos]] * self.cval[cdelta] % m * unit_inv[self.cval[ceps]] % m
        # first closed edge of each residue, and the first closed edges
        for f in np.sort(np.unique(res, return_index=True)[1]):
            self.residue_edges.setdefault(
                int(res[f]), (int(cdelta[f]), int(cpos[f] // k), int(ceps[f]))
            )
        room = CLOSED_EDGE_BUDGET - len(self.closed_edges)
        if room > 0:
            self.closed_edges += list(zip(
                cdelta[:room].tolist(), (cpos[:room] // k).tolist(),
                ceps[:room].tolist(),
            ))
        return _unpack_rows(hi[tree], lo[tree], self.G.degree)

    def transporter(self, idx: int) -> tuple:
        return tree_transporter(
            self.parent, self.genidx, self.G.generators, self.G.degree, idx
        )

    def schreier_element(self, edge) -> tuple:
        delta, gi, eps = edge
        return schreier_generator(
            self.G.generators[gi], self.transporter(delta), self.transporter(eps)
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
            N = CyclicConjOrbit(G, x).normalizer()
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
