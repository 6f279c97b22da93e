"""Blocking relation, essential subsets, and Wythoff complexes.

The ground set {0..n-1} is the node set of a path-shaped Coxeter
diagram, or the dimension range of a face complex; paths between
points are integer intervals, which is all the blocking relation
needs.  Edge orders play no part in blocking, so the A and B diagrams
of one rank share a ground set.  Equivalence classes of subsets under
mutual blocking have a unique largest member (the closure) and a
unique smallest one (the core); cores index the faces of the Wythoff
complex, with class height as face dimension.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product as iter_product
from math import comb, factorial

from .errors import CapExceeded, InvariantViolation

# Brute-force subset enumeration is exponential in the ground set.
BRUTE_GROUND_CAP = 16
# Safety valve for materialized Wythoff complexes and closed-set counts.
MATERIALIZE_CAP = 200_000
CLOSED_SET_CAP = 1_000_000


def _mask(points) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def _unmask(m: int) -> tuple:
    out = []
    i = 0
    while m:
        if m & 1:
            out.append(i)
        m >>= 1
        i += 1
    return tuple(out)


class _Interval:
    """Path ground {0..n-1}; paths are integer intervals."""

    def __init__(self, n: int):
        self.n = n

    def path_mask(self, u: int, v: int) -> int:
        lo, hi = (u, v) if u <= v else (v, u)
        return ((1 << (hi + 1)) - 1) ^ ((1 << lo) - 1)


def _ground(base):
    if isinstance(base, bool) or not isinstance(base, int):
        raise TypeError(f"base must be a ground-set size, not {base!r}")
    if base < 1:
        raise ValueError("ground set must be nonempty")
    return _Interval(base)


def blocks(blocker, blocked, V, base) -> bool:
    """True iff every path from a member of `blocked` to a member of V meets `blocker`."""
    g = _ground(base)
    bm = _mask(blocker)
    for u in blocked:
        for v in V:
            if not g.path_mask(u, v) & bm:
                return False
    return True


def _closure_mask(um: int, vlist, g) -> int:
    out = 0
    for s in range(g.n):
        for v in vlist:
            if not g.path_mask(s, v) & um:
                break
        else:
            out |= 1 << s
    return out


def closure(U, V, base) -> frozenset:
    """Largest set blocked by U: the canonical maximal member of U's class."""
    g = _ground(base)
    return frozenset(_unmask(_closure_mask(_mask(U), list(V), g)))


def _closed_sets_interval(n, vlist):
    """Closed sets on a path ground, by region shape.

    Membership of a non-V point s is decided by the two nearest V points,
    so a closed set decomposes as: an arbitrary W inside V, a prefix left
    of min(V), a suffix right of max(V), and per gap between consecutive
    V points an interval attached to whichever endpoints lie in W.  Full
    regions are forced when the adjacent V point is present.
    """
    vs = sorted(vlist)
    lo, hi = vs[0], vs[-1]

    def prefixes(a, b, anchored):
        # contents of [a, b) that hug its left end
        full = _mask(range(a, b))
        if anchored:
            return [full]
        opts = [0]
        m = 0
        for t in range(a, b):
            m |= 1 << t
            opts.append(m)
        return opts

    def suffixes(a, b, anchored):
        full = _mask(range(a, b))
        if anchored:
            return [full]
        opts = [0]
        m = 0
        for t in range(b - 1, a - 1, -1):
            m |= 1 << t
            opts.append(m)
        return opts

    def gap_options(a, b, left_in, right_in):
        # interior (a, b); a, b are consecutive members of V
        if left_in and right_in:
            return [_mask(range(a + 1, b))]
        if left_in:
            return prefixes(a + 1, b, False)
        if right_in:
            return suffixes(a + 1, b, False)
        opts = [0]
        for x in range(a + 1, b):
            for y in range(x, b):
                opts.append(_mask(range(x, y + 1)))
        return opts

    out = []
    k = len(vs)
    for wbits in range(1 << k):
        wmask = 0
        inw = []
        for i in range(k):
            if wbits >> i & 1:
                wmask |= 1 << vs[i]
                inw.append(True)
            else:
                inw.append(False)
        spaces = [prefixes(0, lo, inw[0])]
        for i in range(k - 1):
            spaces.append(gap_options(vs[i], vs[i + 1], inw[i], inw[i + 1]))
        spaces.append(suffixes(hi + 1, n, inw[-1]))
        total = 1
        for sp in spaces:
            total *= len(sp)
        if total > CLOSED_SET_CAP:
            raise CapExceeded(f"closed-set enumeration would exceed {CLOSED_SET_CAP}")
        for choice in iter_product(*spaces):
            m = wmask
            for c in choice:
                m |= c
            if m:
                out.append(m)
        if len(out) > CLOSED_SET_CAP:
            raise CapExceeded(f"closed-set enumeration exceeded {CLOSED_SET_CAP}")
    return sorted(set(out))


def _closed_sets_brute(g, vlist):
    n = g.n
    if n > BRUTE_GROUND_CAP:
        raise CapExceeded(f"ground set of size {n} too large for subset enumeration")
    out = set()
    for um in range(1, 1 << n):
        cm = _closure_mask(um, vlist, g)
        out.add(cm)
    return sorted(out)


@dataclass(frozen=True)
class EssentialClass:
    core: tuple
    closed: tuple
    height: int


class EssentialPoset:
    """Classes of mutually blocking subsets, ordered with V's class at the bottom.

    One class per closed set; `core` is the smallest member and is the
    face type used by Wythoff complexes, `height` doubles as the face
    dimension.  Class i < class j iff closed(j) is a proper subset of
    closed(i).
    """

    def __init__(self, n, V, classes):
        self.n = n
        self.V = tuple(sorted(V))
        self.classes = tuple(classes)
        self._closed_masks = [_mask(c.closed) for c in self.classes]
        self._by_core = {c.core: i for i, c in enumerate(self.classes)}

    def __len__(self):
        return len(self.classes)

    def class_index(self, core) -> int:
        return self._by_core[tuple(sorted(core))]

    def less(self, i: int, j: int) -> bool:
        mi, mj = self._closed_masks[i], self._closed_masks[j]
        return mi != mj and mj & ~mi == 0

    @property
    def max_height(self) -> int:
        return max(c.height for c in self.classes)

    @property
    def bottom(self) -> int:
        return self._bottom

    def at_height(self, h: int):
        return [i for i, c in enumerate(self.classes) if c.height == h]

    def covers(self):
        """Pairs (i, j) with class i < class j and nothing strictly between."""
        out = []
        for j in range(len(self.classes)):
            lowers = [i for i in range(len(self.classes)) if self.less(i, j)]
            for i in lowers:
                if not any(self.less(i, k) and self.less(k, j) for k in lowers):
                    out.append((i, j))
        return out

    def is_graded(self) -> bool:
        return all(self.classes[j].height == self.classes[i].height + 1
                   for i, j in self.covers())


def essential_poset(base, V) -> EssentialPoset:
    """Essential-class poset of (base, V); base is the ground-set size."""
    g = _ground(base)
    vlist = sorted(set(V))
    if not vlist:
        raise ValueError("V must be nonempty")
    if vlist[0] < 0 or vlist[-1] >= g.n:
        raise ValueError("V outside the ground set")
    closed = _closed_sets_interval(g.n, vlist)

    cores = []
    for m in closed:
        core = 0
        for s in _unmask(m):
            if _closure_mask(m & ~(1 << s), vlist, g) != m:
                core |= 1 << s
        if _closure_mask(core, vlist, g) != m:
            raise InvariantViolation("core does not regenerate its closed set")
        cores.append(core)

    # height = longest chain below, walking proper supersets of the closed set
    order = sorted(range(len(closed)), key=lambda i: -bin(closed[i]).count("1"))
    height = [0] * len(closed)
    for pos, i in enumerate(order):
        best = -1
        for j in order[:pos]:
            if closed[i] != closed[j] and closed[i] & ~closed[j] == 0:
                if height[j] > best:
                    best = height[j]
        height[i] = best + 1

    full = (1 << g.n) - 1
    if closed.count(full) != 1:
        raise InvariantViolation("the full ground set must be the unique bottom closure")
    bottom_pos = closed.index(full)
    if cores[bottom_pos] != _mask(vlist) or height[bottom_pos] != 0:
        raise InvariantViolation("V must be the height-0 core of the bottom class")

    classes = [EssentialClass(core=_unmask(cores[i]), closed=_unmask(closed[i]),
                              height=height[i]) for i in range(len(closed))]
    perm = sorted(range(len(classes)), key=lambda i: (classes[i].height, classes[i].core))
    poset = EssentialPoset(g.n, vlist, [classes[i] for i in perm])
    poset._bottom = 0  # sorted by height; the unique height-0 class leads
    return poset


class DComplex:
    """Finite face poset with explicit dimensions.

    `below[j]` holds the indices of all faces strictly below j and must be
    transitively closed; dimensions must strictly increase along the
    order.  Maximal flags of uniform size d+1 are what make it a
    d-complex; `validate_complex` checks that.
    """

    def __init__(self, labels, dims, below):
        self.labels = list(labels)
        self.dims = list(dims)
        self.below = [frozenset(b) for b in below]
        if not (len(self.labels) == len(self.dims) == len(self.below)):
            raise ValueError("mismatched face data")
        for j, bs in enumerate(self.below):
            for i in bs:
                if self.dims[i] >= self.dims[j]:
                    raise ValueError("dimension must increase along the order")

    @classmethod
    def from_inclusions(cls, labels, dims):
        """Faces given as sets; the order is proper inclusion of labels."""
        idx = list(range(len(labels)))
        below = [set() for _ in idx]
        for j in idx:
            lj = labels[j]
            for i in idx:
                if i != j and labels[i] < lj:
                    below[j].add(i)
        return cls(labels, dims, below)

    @property
    def d(self) -> int:
        return max(self.dims) if self.dims else -1

    def __len__(self):
        return len(self.labels)

    def faces_of_dim(self, k):
        return [i for i, dm in enumerate(self.dims) if dm == k]

    def face_counts(self):
        out = {}
        for dm in self.dims:
            out[dm] = out.get(dm, 0) + 1
        return out

    def less(self, i: int, j: int) -> bool:
        return i in self.below[j]

    def euler_characteristic(self) -> int:
        return sum((-1) ** dm for dm in self.dims)

    def flags_of_type(self, tdims):
        """All chains with exactly the given dimension set (sorted ascending)."""
        tdims = sorted(tdims)
        pools = [self.faces_of_dim(k) for k in tdims]
        prefix = []

        def rec(level):
            if level == len(pools):
                yield tuple(prefix)
                return
            for f in pools[level]:
                if not prefix or prefix[-1] in self.below[f]:
                    prefix.append(f)
                    yield from rec(level + 1)
                    prefix.pop()

        yield from rec(0)

    def covers(self):
        out = []
        for j in range(len(self.labels)):
            for i in self.below[j]:
                if not any(i in self.below[k] for k in self.below[j]):
                    out.append((i, j))
        return out

    def validate_complex(self):
        """Raise unless this is a connected d-complex with unit cover steps."""
        n = len(self.labels)
        if n == 0:
            raise ValueError("empty complex")
        above = [set() for _ in range(n)]
        for j in range(n):
            for i in self.below[j]:
                above[i].add(j)
        d = self.d
        for i, j in self.covers():
            if self.dims[j] != self.dims[i] + 1:
                raise ValueError(f"cover {i}<{j} skips a dimension")
        for i in range(n):
            if not self.below[i] and self.dims[i] != 0:
                raise ValueError(f"minimal face {i} has dimension {self.dims[i]}")
            if not above[i] and self.dims[i] != d:
                raise ValueError(f"maximal face {i} has dimension {self.dims[i]} != {d}")
        seen = {0}
        queue = [0]
        for u in queue:
            for w in self.below[u] | above[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) != n:
            raise ValueError("complex is disconnected")

    def to_json(self) -> str:
        return json.dumps({
            "dims": self.dims,
            "covers": sorted(self.covers()),
            "labels": [str(l) for l in self.labels],
        })

    @classmethod
    def from_json(cls, text: str) -> "DComplex":
        data = json.loads(text)
        dims = data["dims"]
        below = [set() for _ in dims]
        # transitive closure of covers, in dimension order
        for i, j in sorted(data["covers"], key=lambda e: dims[e[1]]):
            below[j].add(i)
            below[j] |= below[i]
        return cls(data["labels"], dims, below)


def simplex_complex(n: int) -> DComplex:
    """All nonempty subsets of an n-set; dimension = cardinality - 1."""
    if n > BRUTE_GROUND_CAP:
        raise CapExceeded(f"materializing 2^{n} faces")
    labels = []
    for m in range(1, 1 << n):
        labels.append(frozenset(_unmask(m)))
    labels.sort(key=lambda s: (len(s), sorted(s)))
    dims = [len(s) - 1 for s in labels]
    return DComplex.from_inclusions(labels, dims)


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


def polygon_boundary(m: int) -> DComplex:
    """Vertices and edges of an m-gon."""
    if m < 3:
        raise ValueError("polygon needs at least 3 vertices")
    labels = [frozenset([i]) for i in range(m)]
    labels += [frozenset([i, (i + 1) % m]) for i in range(m)]
    dims = [0] * m + [1] * m
    return DComplex.from_inclusions(labels, dims)


def solidify(K: DComplex) -> DComplex:
    """Adjoin one top cell covering every face of a boundary complex.

    Labels must be frozensets; the new cell is labeled by their union,
    which therefore must not already be a face.
    """
    atoms = set()
    for lab in K.labels:
        atoms |= set(lab)
    top = frozenset(atoms)
    if top in K.labels:
        raise ValueError("complex already has a cell covering everything")
    labels = K.labels + [top]
    dims = K.dims + [K.d + 1]
    below = [set(b) for b in K.below] + [set(range(len(K.labels)))]
    return DComplex(labels, dims, below)


def polygon_solid(m: int) -> DComplex:
    return solidify(polygon_boundary(m))


def _chain_union(K: DComplex, f1, f2) -> bool:
    """Can the two flags be merged into one chain of K?"""
    merged = sorted(set(f1) | set(f2), key=lambda i: K.dims[i])
    for a, b in zip(merged, merged[1:]):
        if K.dims[a] == K.dims[b]:
            return False
        if a not in K.below[b]:
            return False
    return True


class WythoffComplex(DComplex):
    """Flags of essential type in a base complex, graded by class height."""

    def __init__(self, labels, dims, below, poset, class_of):
        super().__init__(labels, dims, below)
        self.poset = poset
        self.class_of = list(class_of)


def wythoff_complex(K: DComplex, V, cap: int = MATERIALIZE_CAP) -> WythoffComplex:
    """Materialize P(K, V): faces are flags of essential type.

    Incidence: F' < F iff the class of t(F') is below the class of t(F)
    and F' and F merge into a chain.  Only for small bases; large group
    actions go through the orbit decomposition instead of this.
    """
    poset = essential_poset(K.d + 1, V)
    labels = []
    dims = []
    class_of = []
    for ci, cls in enumerate(poset.classes):
        for flag in K.flags_of_type(cls.core):
            labels.append((cls.core, flag))
            dims.append(cls.height)
            class_of.append(ci)
            if len(labels) > cap:
                raise CapExceeded(f"Wythoff complex exceeds {cap} faces")
    below = [set() for _ in labels]
    for j in range(len(labels)):
        cj = class_of[j]
        for i in range(len(labels)):
            if poset.less(class_of[i], cj) and _chain_union(K, labels[i][1], labels[j][1]):
                below[j].add(i)
    return WythoffComplex(labels, dims, below, poset, class_of)


def poset_isomorphic(A: DComplex, B: DComplex) -> bool:
    """Isomorphism test for small face posets: refine by cover profile, then match."""
    if len(A) != len(B) or sorted(A.dims) != sorted(B.dims):
        return False

    def neigh(C):
        up = [set() for _ in range(len(C))]
        down = [set() for _ in range(len(C))]
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


# ---------------------------------------------------------------------------
# counting without materialization

def count_flags_simplex(n: int, tdims) -> int:
    """Chains of nonempty subsets of an n-set with dimension set tdims."""
    sizes = sorted(d + 1 for d in set(tdims))
    if not sizes or sizes[0] < 1 or sizes[-1] > n:
        raise ValueError("dimensions out of range")
    total = 1
    upper = n
    for s in reversed(sizes):
        total *= comb(upper, s)
        upper = s
    return total


def flag_extension_count(n: int, base_dims, tdims) -> int:
    """Flags of type tdims in the n-set subset poset compatible with a fixed
    flag of type base_dims.

    Shared dimensions force face equality and contribute factor 1; the
    remaining faces nest freely between the anchors of the fixed flag.
    """
    base_sizes = sorted(d + 1 for d in set(base_dims))
    free_sizes = sorted(d + 1 for d in set(tdims) - set(base_dims))
    anchors = [0] + base_sizes + [n]
    total = 1
    for lo, hi in zip(anchors, anchors[1:]):
        run = [s for s in free_sizes if lo < s < hi]
        ways = 1
        upper = hi
        for s in reversed(run):
            ways *= comb(upper - lo, s - lo)
            upper = s
        total *= ways
    return total


def symmetric_parabolic_order(n: int):
    """Order of the parabolic generated by a node subset of the A-type path
    with n-1 nodes: product of (run length + 1)! over consecutive runs."""

    def order(nodes) -> int:
        run = 0
        prev = None
        total = 1
        for s in sorted(nodes):
            if prev is not None and s == prev + 1:
                run += 1
            else:
                total *= factorial(run + 1)
                run = 1
            prev = s
        total *= factorial(run + 1)
        return total

    return order


def face_counts(poset: EssentialPoset, group_order: int, parabolic_order) -> dict:
    """Cells per class: group order over the parabolic order of the
    complement of the core in the ground set."""
    out = {}
    ground = set(range(poset.n))
    for i, cls in enumerate(poset.classes):
        stab = parabolic_order(ground - set(cls.core))
        if group_order % stab:
            raise InvariantViolation("parabolic order does not divide the group order")
        out[i] = group_order // stab
    return out


def simplex_face_counts(poset: EssentialPoset, n: int) -> dict:
    """Face counts for the boundary of the (n-1)-simplex; ground set {0..n-2}."""
    if poset.n != n - 1:
        raise ValueError("poset ground set does not match the simplex boundary")
    return face_counts(poset, factorial(n), symmetric_parabolic_order(n))


def vertex_degree(poset: EssentialPoset, n: int) -> int:
    """Edges through one vertex of the Wythoff complex over the (n-1)-simplex
    boundary: summed flag extensions of each height-1 type."""
    if poset.n != n - 1:
        raise ValueError("poset ground set does not match the simplex boundary")
    return sum(flag_extension_count(n, poset.V, poset.classes[i].core)
               for i in poset.at_height(1))
