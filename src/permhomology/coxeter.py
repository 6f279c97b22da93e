"""Essential posets, explicit face complexes, and Wythoff cell counts.

The ground set {0..n-1} is the node set of a path-shaped Coxeter
diagram, or the dimension range of a face complex; paths between
points are integer intervals, which is all the blocking relation
needs.  Edge orders play no part in blocking, so the A and B diagrams
of one rank share a ground set.  Equivalence classes of subsets under
mutual blocking have a unique largest member (the closure) and a
unique smallest one (the core); cores index the faces of the Wythoff
complex, with class height as face dimension.

The module holds what the program runs: `essential_poset`, the
`DComplex` face posets that `equivariant` decomposes (simplices and
polygons), and closed-form counts of Wythoff cells over the simplex
boundary.  Every count is one flag count, `flag_extension_count`.  The
materialized Wythoff construction, the brute-force closure and the
small polytope fixtures live in tests/coxeter_oracles.py, where they
check the lazy route.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from math import comb

from .errors import CapExceeded, InvariantViolation

# Materializing every subset of the ground set is exponential in its size.
BRUTE_GROUND_CAP = 16
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


def _path_mask(u: int, v: int) -> int:
    """The path between u and v on the ground {0..n-1}: an integer interval."""
    lo, hi = (u, v) if u <= v else (v, u)
    return ((1 << (hi + 1)) - 1) ^ ((1 << lo) - 1)


def _closure_mask(um: int, vlist, n: int) -> int:
    """Points s of {0..n-1} whose every path to V meets um."""
    out = 0
    for s in range(n):
        for v in vlist:
            if not _path_mask(s, v) & um:
                break
        else:
            out |= 1 << s
    return out


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

    def class_index(self, core) -> int:
        return self._by_core[tuple(sorted(core))]

    def less(self, i: int, j: int) -> bool:
        mi, mj = self._closed_masks[i], self._closed_masks[j]
        return mi != mj and mj & ~mi == 0

    @property
    def max_height(self) -> int:
        return max(c.height for c in self.classes)

    def at_height(self, h: int):
        return [i for i, c in enumerate(self.classes) if c.height == h]


def essential_poset(base, V) -> EssentialPoset:
    """Essential-class poset of (base, V); base is the ground-set size."""
    if isinstance(base, bool) or not isinstance(base, int):
        raise TypeError(f"base must be a ground-set size, not {base!r}")
    if base < 1:
        raise ValueError("ground set must be nonempty")
    n = base
    vlist = sorted(set(V))
    if not vlist:
        raise ValueError("V must be nonempty")
    if vlist[0] < 0 or vlist[-1] >= n:
        raise ValueError("V outside the ground set")
    closed = _closed_sets_interval(n, vlist)

    cores = []
    for m in closed:
        core = 0
        for s in _unmask(m):
            if _closure_mask(m & ~(1 << s), vlist, n) != m:
                core |= 1 << s
        if _closure_mask(core, vlist, n) != m:
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

    full = (1 << n) - 1
    if closed.count(full) != 1:
        raise InvariantViolation("the full ground set must be the unique bottom closure")
    bottom_pos = closed.index(full)
    if cores[bottom_pos] != _mask(vlist) or height[bottom_pos] != 0:
        raise InvariantViolation("V must be the height-0 core of the bottom class")

    classes = [EssentialClass(core=_unmask(cores[i]), closed=_unmask(closed[i]),
                              height=height[i]) for i in range(len(closed))]
    # sorted by height, so the unique height-0 class, V's, leads
    perm = sorted(range(len(classes)), key=lambda i: (classes[i].height, classes[i].core))
    return EssentialPoset(n, vlist, [classes[i] for i in perm])


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

    def faces_of_dim(self, k):
        return [i for i, dm in enumerate(self.dims) if dm == k]

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


# ---------------------------------------------------------------------------
# counting without materialization

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


def simplex_face_counts(poset: EssentialPoset, n: int) -> dict:
    """Cells per class of the Wythoff complex over the boundary of the
    (n-1)-simplex, ground set {0..n-2}: the flags of the class's core type."""
    if poset.n != n - 1:
        raise ValueError("poset ground set does not match the simplex boundary")
    return {i: flag_extension_count(n, (), cls.core)
            for i, cls in enumerate(poset.classes)}


def vertex_degree(poset: EssentialPoset, n: int) -> int:
    """Edges through one vertex of the Wythoff complex over the (n-1)-simplex
    boundary: summed flag extensions of each height-1 type."""
    if poset.n != n - 1:
        raise ValueError("poset ground set does not match the simplex boundary")
    return sum(flag_extension_count(n, poset.V, poset.classes[i].core)
               for i in poset.at_height(1))
