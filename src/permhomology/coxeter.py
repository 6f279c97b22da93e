"""Essential posets, explicit face complexes, and Wythoff cell counts.

The ground set {0..n-1} is the node set of a path-shaped Coxeter
diagram, or the dimension range of a face complex; edge orders play no
part, so the A and B diagrams of one rank share a ground set.  With
ringed nodes V, the faces of the Wythoff complex are in closed form
(Coxeter, Regular Polytopes; Champagne, Kjiri, Patera and Sharp 1995):
one class per proper node set J whose every connected component holds
a point of V, of height (face dimension) |J|.  Its core, the face type,
is V - J with the nodes next to J; its closed set is the complement of
J.  These are the smallest and largest members of the classes of
subsets that block each other; the blocking definitions stay in
tests/coxeter_oracles.py as the reference that checks the closed form.

The module holds what the program runs: `essential_poset`, the
`DComplex` face posets that `equivariant` decomposes (simplices and
polygons), and closed-form counts of Wythoff cells over the simplex
boundary.  Every count is one flag count, `flag_extension_count`.  The
materialized Wythoff construction and the small polytope fixtures live
in the same test file, where they check the lazy route.
"""

from __future__ import annotations

from math import comb

from . import errors
from .errors import CapExceeded, InvariantViolation


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


class EssentialClass:
    def __init__(self, core: tuple, closed: tuple, height: int):
        self.core = core
        self.closed = closed
        self.height = height


class EssentialPoset:
    """Essential classes of (n, V), ordered with V's class at the bottom.

    A class is a proper subset J of the path {0..n-1} whose every
    connected component holds a point of V.  `closed` is the complement
    of J, `core` is (V - J) with the nodes outside J next to J, and is
    the face type used by Wythoff complexes; `height` is |J| and doubles
    as the face dimension.  Class i < class j iff J_i is a proper subset
    of J_j, that is, closed(j) is a proper subset of closed(i).
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


def _class_count(n: int, vmask: int) -> int:
    """Proper subsets of the path {0..n-1} whose every component meets V.

    One pass over the nodes, counting the prefixes that end outside J,
    inside a component that has met V, and inside one that has not.
    """
    out, ringed, bare = 1, 0, 0
    for s in range(n):
        if vmask >> s & 1:
            out, ringed, bare = out + ringed, out + ringed + bare, 0
        else:
            out, ringed, bare = out + ringed, ringed, out + bare
    return out + ringed - 1


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
    vmask = _mask(vlist)
    count = _class_count(n, vmask)
    if count > errors.CLOSED_SET_CAP:
        raise CapExceeded(f"{count} essential classes exceed CLOSED_SET_CAP "
                          f"{errors.CLOSED_SET_CAP}")

    full = (1 << n) - 1
    found = [0]

    def grow(start, J):
        # each component [a, b] from start on that meets V, then the
        # components after a gap of at least one node
        for a in range(start, n):
            rest = vmask >> a
            if not rest:
                return
            for b in range(a + (rest & -rest).bit_length() - 1, n):
                K = J | (1 << (b + 1)) - (1 << a)
                if K != full:
                    found.append(K)
                    grow(b + 2, K)

    grow(0, 0)
    classes = [EssentialClass(core=_unmask((vmask | J << 1 | J >> 1) & ~J & full),
                              closed=_unmask(full & ~J), height=J.bit_count())
               for J in found]
    # sorted by height, so the unique height-0 class, V's, leads
    classes.sort(key=lambda c: (c.height, c.core))
    if classes[0].core != tuple(vlist) or (len(classes) > 1 and classes[1].height == 0):
        raise InvariantViolation("V must be the unique height-0 core")
    return EssentialPoset(n, vlist, classes)


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
    if n > errors.BRUTE_GROUND_CAP:
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
