"""Reference constructions that the coxeter tests compare the package with.

Nothing here runs in the program.  Blocking and closure by their
definitions, with the longest-chain height, check the closed form of
the essential poset; the materialized Wythoff complex checks the lazy
flag counts and orbit decompositions, and the small polytope boundaries
are fixtures for both.  The file is not named test_*.py, so pytest
imports it only through the tests that use it.
"""

from __future__ import annotations

from itertools import product as iter_product

from permhomology.coxeter import DComplex, _mask, _unmask, essential_poset
from permhomology.errors import BRUTE_GROUND_CAP, CapExceeded

# Safety valve for materialized Wythoff complexes.
MATERIALIZE_CAP = 200_000


# -- blocking and closure by definition ---------------------------------


def _path_mask(u: int, v: int) -> int:
    """The path between u and v on the ground {0..n-1}: an integer interval."""
    lo, hi = (u, v) if u <= v else (v, u)
    return ((1 << (hi + 1)) - 1) ^ ((1 << lo) - 1)


def blocks(blocker, blocked, V) -> bool:
    """True iff every path from a member of `blocked` to a member of V meets `blocker`."""
    bm = _mask(blocker)
    for u in blocked:
        for v in V:
            if not _path_mask(u, v) & bm:
                return False
    return True


def closure_mask(um, V, n) -> int:
    """Points s of {0..n-1} whose every path to every member of V meets um."""
    out = 0
    for s in range(n):
        for v in V:
            if not _path_mask(s, v) & um:
                break
        else:
            out |= 1 << s
    return out


def closure(U, V, n) -> frozenset:
    """Largest set blocked by U: the canonical maximal member of U's class."""
    return frozenset(_unmask(closure_mask(_mask(U), V, n)))


def blocking_cores(n, vlist) -> dict:
    """Each closed set's smallest member, over every nonempty subset.

    The members of one class are closed under intersection, so the
    smallest member is the intersection of all of them; it is checked
    to be a member itself.
    """
    if n > BRUTE_GROUND_CAP:
        raise CapExceeded(f"ground set of size {n} too large for subset enumeration")
    core = {}
    for um in range(1, 1 << n):
        c = closure_mask(um, vlist, n)
        core[c] = core.get(c, um) & um
    for c, um in core.items():
        assert closure_mask(um, vlist, n) == c, "a class has no smallest member"
    return core


def chain_heights(closed) -> list:
    """Per closed set, the longest chain of proper supersets among `closed`."""
    order = sorted(range(len(closed)), key=lambda i: -closed[i].bit_count())
    height = [0] * len(closed)
    for pos, i in enumerate(order):
        best = -1
        for j in order[:pos]:
            if closed[i] != closed[j] and closed[i] & ~closed[j] == 0:
                best = max(best, height[j])
        height[i] = best + 1
    return height


# -- poset and complex invariants ---------------------------------------


def poset_covers(poset):
    """Pairs (i, j) with class i < class j and nothing strictly between."""
    out = []
    for j in range(len(poset.classes)):
        lowers = [i for i in range(len(poset.classes)) if poset.less(i, j)]
        for i in lowers:
            if not any(poset.less(i, k) and poset.less(k, j) for k in lowers):
                out.append((i, j))
    return out


def is_graded(poset) -> bool:
    return all(poset.classes[j].height == poset.classes[i].height + 1
               for i, j in poset_covers(poset))


def face_counts(K: DComplex) -> dict:
    out = {}
    for dm in K.dims:
        out[dm] = out.get(dm, 0) + 1
    return out


def euler_characteristic(K: DComplex) -> int:
    return sum((-1) ** dm for dm in K.dims)


def flags_of_type(K: DComplex, tdims):
    """All chains of K with exactly the given dimension set."""
    pools = [K.faces_of_dim(k) for k in sorted(tdims)]
    prefix = []

    def rec(level):
        if level == len(pools):
            yield tuple(prefix)
            return
        for f in pools[level]:
            if not prefix or prefix[-1] in K.below[f]:
                prefix.append(f)
                yield from rec(level + 1)
                prefix.pop()

    yield from rec(0)


# -- polytope boundaries ------------------------------------------------


def simplex_boundary(n: int) -> DComplex:
    """Proper faces of the (n-1)-simplex: a sphere of dimension n-2."""
    if n > BRUTE_GROUND_CAP:
        raise CapExceeded(f"materializing 2^{n} faces")
    labels = []
    for m in range(1, (1 << n) - 1):
        labels.append(frozenset(_unmask(m)))
    labels.sort(key=lambda s: (len(s), sorted(s)))
    dims = [len(s) - 1 for s in labels]
    return DComplex.from_inclusions(labels, dims)


def hypercube_boundary(k: int) -> DComplex:
    """Proper faces of the k-cube, as vertex sets."""
    if k > 10:
        raise CapExceeded("cube dimension too large to materialize")
    labels = []
    dims = []
    for fixed in range(1, 1 << k):
        free = [i for i in range(k) if not fixed >> i & 1]
        bound = [i for i in range(k) if fixed >> i & 1]
        for vals in iter_product((0, 1), repeat=len(bound)):
            verts = []
            for fill in iter_product((0, 1), repeat=len(free)):
                v = [0] * k
                for i, b in zip(bound, vals):
                    v[i] = b
                for i, b in zip(free, fill):
                    v[i] = b
                verts.append(tuple(v))
            labels.append(frozenset(verts))
            dims.append(len(free))
    order = sorted(range(len(labels)), key=lambda i: (dims[i], sorted(labels[i])))
    return DComplex.from_inclusions([labels[i] for i in order],
                                    [dims[i] for i in order])


def cross_polytope_boundary(k: int) -> DComplex:
    """Proper faces of the k-dimensional cross polytope (k=3: octahedron)."""
    verts = [(i, s) for i in range(k) for s in (1, -1)]
    labels = []
    for m in range(1, 1 << len(verts)):
        sel = [verts[i] for i in _unmask(m)]
        axes = [a for a, _ in sel]
        if len(set(axes)) == len(axes) and len(sel) <= k:
            labels.append(frozenset(sel))
    labels.sort(key=lambda s: (len(s), sorted(s)))
    dims = [len(s) - 1 for s in labels]
    return DComplex.from_inclusions(labels, dims)


# -- the materialized Wythoff complex -----------------------------------


def chain_union(K: DComplex, f1, f2) -> bool:
    """Can the two flags be merged into one chain of K?"""
    merged = sorted(set(f1) | set(f2), key=lambda i: K.dims[i])
    for a, b in zip(merged, merged[1:]):
        if K.dims[a] == K.dims[b]:
            return False
        if a not in K.below[b]:
            return False
    return True


def wythoff_complex(K: DComplex, V, cap: int = MATERIALIZE_CAP) -> DComplex:
    """Materialize P(K, V): faces are flags of essential type.

    Incidence: F' < F iff the class of t(F') is below the class of t(F)
    and F' and F merge into a chain.  Only for small bases; the program
    counts and decomposes these complexes without building them.
    """
    poset = essential_poset(K.d + 1, V)
    labels = []
    dims = []
    class_of = []
    for ci, cls in enumerate(poset.classes):
        for flag in flags_of_type(K, cls.core):
            labels.append((cls.core, flag))
            dims.append(cls.height)
            class_of.append(ci)
            if len(labels) > cap:
                raise CapExceeded(f"Wythoff complex exceeds {cap} faces")
    below = [set() for _ in labels]
    for j in range(len(labels)):
        cj = class_of[j]
        for i in range(len(labels)):
            if poset.less(class_of[i], cj) and chain_union(K, labels[i][1], labels[j][1]):
                below[j].add(i)
    return DComplex(labels, dims, below)


def poset_isomorphic(A: DComplex, B: DComplex) -> bool:
    """Isomorphism test for small face posets: refine by cover profile, then match."""
    if len(A.labels) != len(B.labels) or sorted(A.dims) != sorted(B.dims):
        return False

    def neigh(C):
        up = [set() for _ in range(len(C.labels))]
        down = [set() for _ in range(len(C.labels))]
        for i, j in C.covers():
            up[i].add(j)
            down[j].add(i)
        return up, down

    ua, da = neigh(A)
    ub, db = neigh(B)

    ca = [("d", d) for d in A.dims]
    cb = [("d", d) for d in B.dims]
    for _ in range(len(ca)):
        key = {}

        def refine(cols, up, down):
            out = []
            for i in range(len(cols)):
                sig = (cols[i],
                       tuple(sorted(cols[j] for j in up[i])),
                       tuple(sorted(cols[j] for j in down[i])))
                out.append(key.setdefault(sig, len(key)))
            return out

        na = refine(ca, ua, da)
        nb = refine(cb, ub, db)
        if sorted(na) != sorted(nb):
            return False
        if len(set(na)) == len(set(ca)):
            ca, cb = na, nb
            break
        ca, cb = na, nb

    byc = {}
    for j, c in enumerate(cb):
        byc.setdefault(c, []).append(j)
    # rarest colour first, then breadth first over covers, so that each
    # element placed after a seed is adjacent to one already placed
    seeds = sorted(range(len(ca)), key=lambda i: (len(byc.get(ca[i], ())), i))
    rank = {i: r for r, i in enumerate(seeds)}
    order = []
    placed = set()
    for s in seeds:
        if s in placed:
            continue
        placed.add(s)
        pos = len(order)
        order.append(s)
        while pos < len(order):
            i = order[pos]
            pos += 1
            for k in sorted(ua[i] | da[i], key=rank.__getitem__):
                if k not in placed:
                    placed.add(k)
                    order.append(k)
    image = [-1] * len(ca)
    used = set()

    def consistent(i, j):
        for k in ua[i]:
            if image[k] != -1 and image[k] not in ub[j]:
                return False
        for k in da[i]:
            if image[k] != -1 and image[k] not in db[j]:
                return False
        for k2, j2 in enumerate(image):
            if j2 == -1 or k2 == i:
                continue
            if (k2 in ua[i]) != (j2 in ub[j]) or (k2 in da[i]) != (j2 in db[j]):
                return False
        return True

    def assign(pos):
        if pos == len(order):
            return True
        i = order[pos]
        for j in byc.get(ca[i], ()):
            if j not in used and consistent(i, j):
                image[i] = j
                used.add(j)
                if assign(pos + 1):
                    return True
                used.discard(j)
                image[i] = -1
        return False

    return assign(0)
