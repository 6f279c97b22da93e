"""Orbit structure of a group action on a cell complex.

`orbit_decompose` returns one record per cell orbit: a representative,
its stabilizer, the orientation character of the stabilizer, and a
signed boundary written as (coefficient, translating element, target
orbit).  An orbit whose stabilizer reverses the orientation of its cell
is kept as it is: its chain module is the permutation module Z[G/H]
twisted by that character, which is how resolution assembly takes it.

A cell has one encoding throughout, the one `CellOrbit.rep` publishes
and `act_cell` moves.  A cell of an explicit `DComplex`, whose labels
are frozensets of points, is its label as a sorted tuple.  A cell of a
`SimplexFlags` complex is a chain of subsets of {0..n-1} of essential
type, each a sorted tuple; these are never materialized, and orbits
come from descending the stabilizer chain one subset size at a time,
which is what keeps groups like M24 (5.1M vertices, 58.7M edges) down
to a handful of orbit records.

Orientations follow the flag-coloring convention: the maximal internal
flags of a cell are 2-colored so adjacent flags differ, the
lexicographically least flag is +1, and every sign (incidence numbers,
characters, relative orientations of translated cells) is read off the
coloring.  All of it is re-verified numerically: d^2 = 0 with relative
orientations, coefficient sums vanish on edges, and orbit sizes sum to
the cell counts.
"""

from __future__ import annotations

from itertools import combinations

from .coxeter import DComplex, essential_poset, simplex_face_counts
from . import errors
from .errors import CapExceeded, InvariantViolation
from .perm import identity, inv, mul
from .permgroup import OrbitData, PermGroup, act_point, act_set, schreier_stabilizer


def act_cell(g, rep):
    """Apply a group element to a cell: a label tuple of points, or a
    chain of such tuples."""
    if rep and type(rep[0]) is tuple:
        return tuple(act_set(g, p) for p in rep)
    return act_set(g, rep)


def _new_orbits(seeds, group, act, table, filed):
    """Orbits of `group` through the seeds that `table` does not index yet.

    Yields (seed, stabilizer, orbit) for each new orbit, in seed order,
    after storing (len(filed), orbit) against every state of it; the
    caller files one entry in `filed` per orbit.
    """
    for seed in seeds:
        if seed in table:
            continue
        od = OrbitData(seed, group.generators, act, group.degree)
        stab = schreier_stabilizer(group, od)
        entry = (len(filed), od)
        for st in od.states:
            table[st] = entry
        yield seed, stab, od


# -- actions -------------------------------------------------------------


class SimplexFlags:
    """Wythoff complex of the boundary of the (n-1)-simplex, by n and V.

    Cells of dimension k are the chains of subsets of {0..n-1} whose
    type is the core of a height-k essential class; they are encoded as
    tuples of sorted tuples with strictly increasing sizes.
    """

    def __init__(self, n: int, V):
        self.n = n
        self.V = tuple(sorted(set(V)))
        if not self.V or self.V[0] < 0 or self.V[-1] >= n - 1:
            raise ValueError("V must be a nonempty subset of {0..n-2}")
        self.poset = essential_poset(n - 1, self.V)

    def __repr__(self):
        return f"SimplexFlags(n={self.n}, V={self.V})"


class _Node:
    """One orbit of partial flags in the descent tree."""

    __slots__ = ("chain", "stab", "children", "slot")

    def __init__(self, chain, stab):
        self.chain = chain
        self.stab = stab
        self.children = {}
        self.slot = None


def _compatible_chains(cell, sizes, n):
    """Chains with the given subset sizes, each member nesting with `cell`."""
    bysize = {len(p): p for p in cell}
    out = [()]
    ground = tuple(range(n))
    for s in sizes:
        below = max((p for p in cell if len(p) < s), key=len, default=())
        above = min((p for p in cell if len(p) > s), key=len, default=ground)
        new = []
        for partial in out:
            lo = set(below)
            if partial:
                lo |= set(partial[-1])
            if s in bysize:
                cand = bysize[s]
                if lo <= set(cand):
                    new.append(partial + (cand,))
                continue
            if not lo <= set(above):
                continue
            room = [x for x in above if x not in lo]
            need = s - len(lo)
            if need < 0:
                continue
            for extra in combinations(room, need):
                new.append(partial + (tuple(sorted(lo | set(extra))),))
        out = new
    return out


class _SimplexFlagAction:
    def __init__(self, flags: SimplexFlags, group: PermGroup):
        if group.degree != flags.n:
            raise ValueError("group degree must match the simplex vertex count")
        self.n = flags.n
        self.poset = flags.poset
        self.group = group
        self.root = _Node((), group)
        self._counts = simplex_face_counts(self.poset, self.n)
        self._orbits = {}

    @property
    def top_dim(self) -> int:
        return self.poset.max_height

    def dim(self, cell) -> int:
        t = tuple(sorted(len(p) - 1 for p in cell))
        return self.poset.classes[self.poset.class_index(t)].height

    def _grow(self, node: _Node, s: int):
        if s in node.children:
            return
        base = node.chain[-1] if node.chain else ()
        used = set(base)
        pool = [x for x in range(self.n) if x not in used]
        need = s - len(base)
        cands = sorted(tuple(sorted(base + extra)) for extra in combinations(pool, need))
        if len(cands) > errors.EXTENSION_CAP:
            raise CapExceeded(f"{len(cands)} flag extensions at size {s}")
        nodes = []
        table = {}
        for cand, stab, _ in _new_orbits(cands, node.stab, act_set, table, nodes):
            nodes.append(_Node(node.chain + (cand,), stab))
        node.children[s] = (nodes, table)

    def _leaves(self, sizes):
        nodes = [self.root]
        for s in sizes:
            grown = []
            for node in nodes:
                self._grow(node, s)
                grown.extend(node.children[s][0])
            nodes = grown
        return nodes

    def decompose(self, k: int):
        """Orbit reps (rep, stab, size) of dimension-k cells, descent order."""
        if k in self._orbits:
            return self._orbits[k]
        out = []
        gorder = self.group.order()
        for ci in self.poset.at_height(k):
            sizes = [t + 1 for t in self.poset.classes[ci].core]
            total = 0
            for leaf in self._leaves(sizes):
                leaf.slot = (k, len(out))
                size = gorder // leaf.stab.order()
                total += size
                out.append((leaf.chain, leaf.stab, size))
            if total != self._counts[ci]:
                raise InvariantViolation(
                    f"orbit sizes sum to {total}, class has {self._counts[ci]} cells"
                )
        self._orbits[k] = out
        return out

    def identify(self, cell):
        """(dimension, orbit index), g with g * rep == cell."""
        g = identity(self.n)
        node = self.root
        for part in cell:
            try:
                nodes, table = node.children[len(part)]
                pos, od = table[act_set(inv(g), part)]
            except KeyError:
                raise InvariantViolation("cell does not belong to a decomposed orbit")
            node = nodes[pos]
            g = mul(g, od.transporter(act_set(inv(g), part)))
        if node.slot is None:
            raise InvariantViolation("cell identified to an unregistered orbit")
        return node.slot, g

    def facets(self, cell):
        t = tuple(sorted(len(p) - 1 for p in cell))
        ci = self.poset.class_index(t)
        h = self.poset.classes[ci].height
        out = []
        for cj in self.poset.at_height(h - 1):
            if not self.poset.less(cj, ci):
                continue
            sizes = [t + 1 for t in self.poset.classes[cj].core]
            out.extend(_compatible_chains(cell, sizes, self.n))
        return out

    def cell_count(self, k: int) -> int:
        return sum(self._counts[ci] for ci in self.poset.at_height(k))


class _MaterializedAction:
    """Group acting on an explicit DComplex through its point labels."""

    def __init__(self, K: DComplex, group: PermGroup):
        K.validate_complex()
        self.K = K
        self.group = group
        for lab in K.labels:
            if not isinstance(lab, frozenset) or any(
                not isinstance(a, int) or a < 0 or a >= group.degree for a in lab
            ):
                raise TypeError("labels must be frozensets of points the group moves")
        self.cells = [tuple(sorted(lab)) for lab in K.labels]
        self._dims = dict(zip(self.cells, K.dims))
        if len(self._dims) != len(self.cells):
            raise ValueError("duplicate labels")
        for g in group.generators:
            if any(act_set(g, c) not in self._dims for c in self.cells):
                raise InvariantViolation("group action does not preserve the complex")
        self._facets = {
            c: sorted(self.cells[j] for j in K.below[i] if K.dims[j] == K.dims[i] - 1)
            for i, c in enumerate(self.cells)
        }
        self._where = {}
        self._orbits = {}

    @property
    def top_dim(self) -> int:
        return self.K.d

    def dim(self, cell) -> int:
        return self._dims[cell]

    def decompose(self, k: int):
        if k in self._orbits:
            return self._orbits[k]
        out = []
        seeds = sorted(self.cells[i] for i in self.K.faces_of_dim(k))
        for seed, stab, od in _new_orbits(seeds, self.group, act_set, self._where, out):
            out.append((seed, stab, len(od)))
        self._orbits[k] = out
        return out

    def identify(self, cell):
        pos, od = self._where[cell]
        return (self._dims[cell], pos), od.transporter(cell)

    def facets(self, cell):
        return self._facets[cell]

    def cell_count(self, k: int) -> int:
        return len(self.K.faces_of_dim(k))


# -- public records ------------------------------------------------------


class CellOrbit:
    """One orbit of cells: representative, stabilizer, character, boundary.

    `rep` is the cell in the engine's own encoding: a sorted label tuple
    for an explicit complex, a chain of sorted tuples for a flag complex;
    `act_cell` moves either.  `chi` lists the orientation character on
    stab.generators; `boundary` holds (coefficient, translating element,
    orbit index one dimension down).
    """

    def __init__(self, dim: int, rep, stab: PermGroup, chi: tuple, size: int,
                 boundary: tuple):
        self.dim = dim
        self.rep = rep
        self.stab = stab
        self.chi = chi
        self.size = size
        self.boundary = boundary

    @property
    def stab_order(self) -> int:
        return self.stab.order()

    def character(self) -> dict:
        """The orientation character {element: +-1} on every element of
        stab, walked out from chi on the generators; a walk that reaches
        one element with both signs is no homomorphism and raises."""
        one = identity(self.stab.degree)
        chi = {one: 1}
        queue = [one]
        for x in queue:
            for g, s in zip(self.stab.generators, self.chi):
                y = mul(x, g)
                if y not in chi:
                    chi[y] = chi[x] * s
                    queue.append(y)
                elif chi[y] != chi[x] * s:
                    raise InvariantViolation("orientation character is not a homomorphism")
        return chi


class EquivariantCellComplex:
    """The cell orbits of each dimension, `orbits[k]`, and the number of
    cells they cover, `counts[k]`."""

    def __init__(self, group: PermGroup, orbits: tuple, counts: tuple):
        self.group = group
        self.orbits = orbits
        self.counts = counts

    def stab_orders(self, k: int) -> tuple:
        return tuple(o.stab_order for o in self.orbits[k])


# -- the decomposition engine -------------------------------------------


class _Rec:
    """Mutable orbit record while the orbits are under construction."""

    __slots__ = ("rep", "stab", "size", "chi", "boundary", "ref", "col")

    def __init__(self, rep, stab, size):
        self.rep = rep
        self.stab = stab
        self.size = size
        self.chi = ()
        self.boundary = ()
        self.ref = None
        self.col = None


class _Engine:
    def __init__(self, action, group: PermGroup, max_dim: int):
        self.action = action
        self.group = group
        self.max_dim = min(max_dim, action.top_dim)
        self.recs = []
        self._flags = {}

    def _act_flag(self, g, flag):
        return tuple(act_cell(g, c) for c in flag)

    # -- flags and colorings --------------------------------------------

    def _flags_of(self, cell):
        if cell in self._flags:
            return self._flags[cell]
        if self.action.dim(cell) == 0:
            out = ((cell,),)
        else:
            out = tuple(
                fl + (cell,) for f in self.action.facets(cell) for fl in self._flags_of(f)
            )
            if len(out) > errors.FLAG_CAP:
                raise CapExceeded(f"{len(out)} internal flags in one cell")
        self._flags[cell] = out
        return out

    def _coloring(self, cell):
        """2-coloring of the maximal internal flags; least flag is +1."""
        flags = self._flags_of(cell)
        if len(flags) == 1:
            return flags[0], {flags[0]: 1}
        depth = len(flags[0]) - 1
        adj = {fl: [] for fl in flags}
        for level in range(depth):
            buckets = {}
            for fl in flags:
                buckets.setdefault(fl[:level] + fl[level + 1 :], []).append(fl)
            for pair in buckets.values():
                if len(pair) != 2:
                    raise InvariantViolation(
                        f"flag diamond has {len(pair)} members at level {level}"
                    )
                adj[pair[0]].append(pair[1])
                adj[pair[1]].append(pair[0])
        color = {flags[0]: 1}
        queue = [flags[0]]
        for fl in queue:
            for other in adj[fl]:
                if other not in color:
                    color[other] = -color[fl]
                    queue.append(other)
                elif color[other] != -color[fl]:
                    raise InvariantViolation("flag graph of a cell is not bipartite")
        if len(color) != len(flags):
            raise InvariantViolation("flag graph of a cell is disconnected")
        ref = min(flags)
        if color[ref] < 0:
            color = {fl: -c for fl, c in color.items()}
        return ref, color

    # -- records and signed boundaries ----------------------------------

    def _finish(self, rec: _Rec, dim):
        """Orient rec and file it, then sign and check its boundary."""
        rec.ref, rec.col = self._coloring(rec.rep)
        rec.chi = tuple(self._rel_orientation(rec, g) for g in rec.stab.generators)
        self.recs[dim].append(rec)
        if dim >= 1:
            rec.boundary = self._boundary_terms(rec, dim)
            if dim == 1 and sum(s for s, _, _ in rec.boundary) != 0:
                raise InvariantViolation("edge boundary does not augment to zero")
            if dim >= 2:
                self._check_dd(dim, rec)

    def _boundary_terms(self, rec: _Rec, dim):
        """(coeff, g, pos) over the orbits one dimension down; sign from
        rec's coloring."""
        terms = []
        for f in self.action.facets(rec.rep):
            (fd, pos), g = self.action.identify(f)
            if fd != dim - 1:
                raise InvariantViolation("facet dimension mismatch")
            target = self.recs[dim - 1][pos]
            sign = rec.col[self._act_flag(g, target.ref) + (rec.rep,)]
            terms.append((sign, g, pos))
        return tuple(terms)

    def _rel_orientation(self, rec: _Rec, u) -> int:
        """Sign of u's action on rec's orientation; u must stabilize the cell."""
        return rec.col[self._act_flag(u, rec.ref)]

    def _accumulate(self, acc, dim, pos, transport, coeff):
        """Add coeff * transport(orbit rep) to an oriented cell chain."""
        rec = self.recs[dim][pos]
        cell = act_cell(transport, rec.rep)
        k = (dim, pos, cell)
        if k in acc:
            h0, c = acc[k]
            rel = 1 if transport == h0 else self._rel_orientation(rec, mul(inv(h0), transport))
            acc[k] = (h0, c + coeff * rel)
        else:
            acc[k] = (transport, coeff)

    def _check_dd(self, dim, rec):
        acc = {}
        for s, g, j in rec.boundary:
            for s2, g2, i in self.recs[dim - 1][j].boundary:
                self._accumulate(acc, dim - 2, i, mul(g, g2), s * s2)
        if any(c for _, c in acc.values()):
            raise InvariantViolation(f"d^2 != 0 on an orbit of dimension {dim}")

    # -- main loop -------------------------------------------------------

    def run(self) -> EquivariantCellComplex:
        counts = []
        for k in range(self.max_dim + 1):
            self.recs.append([])
            total = 0
            for rep, stab, size in self.action.decompose(k):
                total += size
                self._finish(_Rec(rep, stab, size), k)
            if total != self.action.cell_count(k):
                raise InvariantViolation(
                    f"orbit sizes sum to {total} cells in dimension {k}, "
                    f"complex has {self.action.cell_count(k)}"
                )
            counts.append(total)
        orbits = tuple(
            tuple(CellOrbit(k, r.rep, r.stab, r.chi, r.size, r.boundary) for r in lay)
            for k, lay in enumerate(self.recs)
        )
        return EquivariantCellComplex(self.group, orbits, tuple(counts))


def expand_chain(ecc: EquivariantCellComplex):
    """Cell-level boundary matrices of the complex.

    Enumerates every cell, so this is for small complexes only: it is
    the independent cross-check that the orbit records really describe
    a complex (the matrices multiply to zero, and a solid base comes
    out with the homology of a point).  Each cell is oriented as u(rep),
    u the transporter of its orbit to it, so a face reached as v(rep)
    with v = u h, h in the face's stabilizer, enters with the sign
    chi(h).  Returns
    (sizes, mats) with mats[k] mapping dimension k+1 to dimension k, as
    one sparse column {cell: coefficient} per (k+1)-cell, in
    chain_homology's form.
    """
    if sum(ecc.counts) > errors.EXPAND_CAP:
        raise CapExceeded(f"{sum(ecc.counts)} cells is too many to expand")
    gens = ecc.group.generators
    deg = ecc.group.degree
    index = []
    orbits = []
    for layer in ecc.orbits:
        idx = {}
        ods = []
        for o in layer:
            od = OrbitData(o.rep, gens, act_cell, deg)
            if len(od) != o.size:
                raise InvariantViolation("orbit size does not match its record")
            for st in od.states:
                idx[st] = len(idx)
            ods.append((od, o.character()))
        index.append(idx)
        orbits.append(ods)
    mats = []
    for k in range(1, len(ecc.orbits)):
        # cells come in the order index[k] numbered them
        cols = []
        for o, (od, _) in zip(ecc.orbits[k], orbits[k]):
            for cell in od.states:
                u = od.transporter(cell)
                col: dict = {}
                for s, g, j in o.boundary:
                    v = mul(u, g)
                    face = act_cell(v, ecc.orbits[k - 1][j].rep)
                    od_j, chi_j = orbits[k - 1][j]
                    s *= chi_j[mul(inv(od_j.transporter(face)), v)]
                    i = index[k - 1][face]
                    col[i] = col.get(i, 0) + s
                cols.append(col)
        mats.append(cols)
    return [len(ix) for ix in index], mats


def orbit_decompose(base, group: PermGroup, max_dim: int):
    """Decompose a complex with a group action into cell orbits.

    `base` is either an explicit DComplex whose labels are frozensets of
    points, or a SimplexFlags descriptor for the lazy route.  The result
    is deterministic: orbits appear in descent (respectively label)
    order.  A cell of a flag complex can carry many internal flags;
    FLAG_CAP bounds the coloring work per cell.
    """
    if isinstance(base, SimplexFlags):
        action = _SimplexFlagAction(base, group)
    elif isinstance(base, DComplex):
        action = _MaterializedAction(base, group)
    else:
        raise TypeError("base must be a DComplex or a SimplexFlags descriptor")
    return _Engine(action, group, max_dim).run()


def flag_edge_orbits(G: PermGroup, dims) -> dict:
    """Edge orbits of the flag complex through one vertex, by counting
    in the star instead of enumerating the skeleton.

    Needs contiguous rings (0, 1, ..., k) and G transitive on flags,
    which for nested-set chains means transitive on ordered
    (k+1)-tuples of points.  A vertex is then a chain F_0 c ... c F_k;
    its edges either omit one inner ring (one per ring, fixed by the
    whole flag stabilizer S) or extend the chain by a set F_k + {x},
    classified by the S-orbits of x.  Each star class C gives one edge
    orbit of size |V| |C| / 2 because every edge has exactly two
    endpoint vertices, all in one G-orbit.
    """
    k = len(dims) - 1
    if tuple(dims) != tuple(range(k + 1)):
        raise ValueError("star counting needs rings 0..k")
    n = G.degree
    flag = tuple(range(k + 1))
    S = G.point_stabilizer(flag)
    orbit_v = G.order() // S.order()
    expected = 1
    for i in range(k + 1):
        expected *= n - i
    if orbit_v != expected:
        raise ValueError(
            f"group is not transitive on flags: vertex orbit {orbit_v}, "
            f"full flag count {expected}"
        )
    stab = S.order()
    if k and orbit_v % 2:
        raise InvariantViolation("odd vertex count cannot halve edge orbits")
    orbits = [{"kind": f"omit-{r}", "star_size": 1,
               "size": orbit_v // 2, "stabilizer_order": 2 * stab}
              for r in range(k)]
    ext = [o for o in S.orbits() if o[0] > k]
    # two extension classes are one G-orbit exactly when some g carries
    # the base flag to the other endpoint of the second edge; that
    # endpoint changes only the last level, so one transporter in the
    # stabilizer of the first k points decides it
    T = G.point_stabilizer(tuple(range(k)))
    od = T.orbit_data(k, act_point)
    parent = list(range(len(ext)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    members = [set(o) for o in ext]
    for a in range(len(ext)):
        for b in range(len(ext)):
            if a == b:
                continue
            t = od.transporter(ext[b][0])
            if t.index(k) in members[a]:
                parent[find(a)] = find(b)
    merged = {}
    for a in range(len(ext)):
        merged.setdefault(find(a), []).append(a)
    for group_ in sorted(merged.values()):
        m = sum(len(ext[a]) for a in group_)
        if (2 * stab) % m or (orbit_v * m) % 2:
            raise InvariantViolation(
                "star classes do not split the edge orbit evenly"
            )
        orbits.append({"kind": f"extend-{ext[group_[0]][0]}", "star_size": m,
                       "size": orbit_v * m // 2,
                       "stabilizer_order": 2 * stab // m})
    return {
        "vertex_count": orbit_v,
        "vertex_stabilizer_order": stab,
        "vertex_degree": k + sum(
            o["star_size"] for o in orbits if o["kind"].startswith("extend")
        ),
        "edge_count": sum(o["size"] for o in orbits),
        "orbits": orbits,
    }
