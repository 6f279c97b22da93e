"""Orbit structure of a group action on a cell complex.

`orbit_decompose` returns two views of the same complex.  The `raw`
layer has one record per cell orbit: a representative, its stabilizer,
the orientation character of the stabilizer, and a signed boundary
written as (coefficient, translating element, target orbit).  The
`chain` layer is what resolution assembly consumes: every orbit whose
stabilizer reverses orientation has been replaced there by the cone
over its boundary from a fresh apex vertex, so all chain-layer
stabilizers act with trivial character and the boundary maps are
honestly equivariant.

One pass over the dimensions suffices: a cone piece is determined by
its base cell and one boundary cell, its stabilizer fixes both, and a
boundary cell of a piece already survived the reversal check at its
own dimension.

A cell has one encoding throughout, the one `CellOrbit.rep` publishes
and `act_cell` moves.  A cell of an explicit `DComplex`, whose labels
are frozensets of points, is its label as a sorted tuple.  A cell of a
`SimplexFlags` complex is a chain of subsets of {0..n-1} of essential
type, each a sorted tuple; these are never materialized, and orbits
come from descending the stabilizer chain one subset size at a time,
which is what keeps groups like M24 (5.1M vertices, 58.7M edges) down
to a handful of orbit records.  Subdivision pieces are ("apex", base)
and ("cone", base, boundary cell).

Orientations follow the flag-coloring convention: the maximal internal
flags of a cell are 2-colored so adjacent flags differ, the
lexicographically least flag is +1, and every sign (incidence numbers,
characters, relative orientations of translated cells) is read off the
coloring.  All of it is re-verified numerically: d^2 = 0 on both
layers, coefficient sums vanish on edges, cone pieces tile their cell,
and the Euler characteristic survives subdivision.
"""

from __future__ import annotations

from itertools import combinations

from .coxeter import DComplex, essential_poset, simplex_face_counts
from . import errors
from .errors import CapExceeded, InvariantViolation
from .perm import identity, inv, mul
from .permgroup import OrbitData, PermGroup, act_point, act_set, schreier_stabilizer


def _is_composite(cell) -> bool:
    return len(cell) > 0 and type(cell[0]) is str


def _key(cell):
    """Sort key over all cells: plain cells first, then apexes, then cones."""
    if _is_composite(cell):
        return (cell[0],) + tuple(_key(c) for c in cell[1:])
    return ("", cell)


def act_cell(g, rep):
    """Apply a group element to a cell.

    Works on all three shapes that appear in CellOrbit.rep: a label
    tuple of points, a chain of such tuples, or an apex/cone composite.
    """
    if _is_composite(rep):
        return (rep[0],) + tuple(act_cell(g, r) for r in rep[1:])
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
    for an explicit complex, a chain of sorted tuples for a flag complex,
    and ("apex", base) or ("cone", base, boundary cell) for subdivision
    pieces; `act_cell` moves any of them.  `chi` lists the orientation
    character on stab.generators; `boundary` holds (coefficient,
    translating element, orbit index one dimension down).  `kind` is
    "cell" for geometric orbits, "apex" or "cone" for subdivision
    pieces; `source` points back at the raw orbit a piece came from.
    """

    def __init__(self, dim: int, rep, stab: PermGroup, chi: tuple, size: int,
                 boundary: tuple, kind: str = "cell", source: int | None = None):
        self.dim = dim
        self.rep = rep
        self.stab = stab
        self.chi = chi
        self.size = size
        self.boundary = boundary
        self.kind = kind
        self.source = source

    @property
    def stab_order(self) -> int:
        return self.stab.order()


class EquivariantCellComplex:
    def __init__(self, group: PermGroup, max_dim: int, raw: tuple, chain: tuple,
                 counts: tuple, chain_counts: tuple, replaced: tuple):
        self.group = group
        self.max_dim = max_dim
        self.raw = raw
        self.chain = chain
        self.counts = counts
        self.chain_counts = chain_counts
        self.replaced = replaced

    def stab_orders(self, k: int) -> tuple:
        return tuple(o.stab_order for o in self.raw[k])

    def chain_ranks(self) -> tuple:
        return tuple(len(layer) for layer in self.chain)


# -- the decomposition engine -------------------------------------------


class _Rec:
    """Mutable orbit record while the layers are under construction."""

    __slots__ = ("rep", "stab", "size", "chi", "boundary", "ref", "col", "kind", "source")

    def __init__(self, rep, stab, size, kind="cell", source=None):
        self.rep = rep
        self.stab = stab
        self.size = size
        self.chi = ()
        self.boundary = ()
        self.ref = None
        self.col = None
        self.kind = kind
        self.source = source


class _Engine:
    def __init__(self, action, group: PermGroup, max_dim: int):
        self.action = action
        self.group = group
        self.max_dim = min(max_dim, action.top_dim)
        self.raw = []
        self.chain = []
        self.layers = {"raw": self.raw, "chain": self.chain}
        self.kept = {}
        self.repl = {}
        self._bcells = {}
        self._cfacets = {}
        self._flags = {}

    # -- cells, composite or not ----------------------------------------

    def _dim(self, cell) -> int:
        if _is_composite(cell):
            if cell[0] == "apex":
                return 0
            return self._dim(cell[2]) + 1
        return self.action.dim(cell)

    def _act_flag(self, g, flag):
        return tuple(act_cell(g, c) for c in flag)

    # -- chain-layer face structure -------------------------------------

    def _boundary_cells(self, cell):
        """Chain-layer facets of an original cell: replaced facets expand
        into the top cone pieces that tile them."""
        if cell in self._bcells:
            return self._bcells[cell]
        out = []
        for f in self.action.facets(cell):
            slot, _ = self.action.identify(f)
            if slot in self.repl:
                out.extend(("cone", f, t) for t in self._boundary_cells(f))
            else:
                out.append(f)
        self._bcells[cell] = out
        return out

    def _chain_facets(self, cell):
        if cell in self._cfacets:
            return self._cfacets[cell]
        if _is_composite(cell):
            if cell[0] == "apex":
                out = []
            else:
                _, base, sub = cell
                if self._dim(sub) == 0:
                    out = [("apex", base), sub]
                else:
                    out = [sub] + [("cone", base, t) for t in self._chain_facets(sub)]
        else:
            out = self._boundary_cells(cell)
        self._cfacets[cell] = out
        return out

    def _facets(self, cell, layer):
        return self.action.facets(cell) if layer == "raw" else self._chain_facets(cell)

    # -- flags and colorings --------------------------------------------

    def _flags_of(self, cell, layer):
        k = (layer, cell)
        if k in self._flags:
            return self._flags[k]
        if self._dim(cell) == 0:
            out = ((cell,),)
        else:
            out = tuple(
                fl + (cell,) for f in self._facets(cell, layer) for fl in self._flags_of(f, layer)
            )
            if len(out) > errors.FLAG_CAP:
                raise CapExceeded(f"{len(out)} internal flags in one cell")
        self._flags[k] = out
        return out

    def _coloring(self, cell, layer):
        """2-coloring of the maximal internal flags; least flag is +1."""
        flags = self._flags_of(cell, layer)
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
        ref = min(flags, key=lambda fl: tuple(_key(c) for c in fl))
        if color[ref] < 0:
            color = {fl: -c for fl, c in color.items()}
        return ref, color

    # -- records and signed boundaries ----------------------------------

    def _finish(self, rec: _Rec, layer, dim, reversal=None) -> int:
        """Orient rec, file it in its layer, then sign and check its
        boundary; returns its position.  A character that is not trivial
        raises `reversal` when that is given."""
        rec.ref, rec.col = self._coloring(rec.rep, layer)
        rec.chi = tuple(self._rel_orientation(rec, g) for g in rec.stab.generators)
        if reversal and -1 in rec.chi:
            raise InvariantViolation(reversal)
        recs = self.layers[layer][dim]
        recs.append(rec)
        if dim >= 1:
            rec.boundary = self._boundary_terms(rec, layer, dim)
            if dim == 1 and sum(s for s, _, _ in rec.boundary) != 0:
                raise InvariantViolation(f"{layer} edge boundary does not augment to zero")
            if dim >= 2:
                self._check_dd(layer, dim, rec)
        return len(recs) - 1

    def _boundary_terms(self, rec: _Rec, layer, dim):
        """(coeff, g, pos) over the one-lower layer; sign from rec's coloring."""
        terms = []
        for f in self._facets(rec.rep, layer):
            if layer == "raw":
                (fd, pos), g = self.action.identify(f)
                if fd != dim - 1:
                    raise InvariantViolation("facet dimension mismatch")
            else:
                pos, g = self._identify_chain(f, dim - 1)
            target = self.layers[layer][dim - 1][pos]
            sign = rec.col[self._act_flag(g, target.ref) + (rec.rep,)]
            terms.append((sign, g, pos))
        return tuple(terms)

    def _identify_chain(self, cell, dim):
        if _is_composite(cell):
            base = cell[1]
            slot, u = self.action.identify(base)
            if slot not in self.repl:
                raise InvariantViolation("cone piece over a cell that was not replaced")
            apex_pos, table = self.repl[slot]
            if cell[0] == "apex":
                return apex_pos, u
            t = act_cell(inv(u), cell[2])
            try:
                pos, od = table[t]
            except KeyError:
                raise InvariantViolation("cone piece outside its replacement closure")
            return pos, mul(u, od.transporter(t))
        slot, g = self.action.identify(cell)
        if slot not in self.kept:
            raise InvariantViolation("boundary reached a replaced orbit directly")
        if slot[0] != dim:
            raise InvariantViolation("facet dimension mismatch on the chain layer")
        return self.kept[slot], g

    def _rel_orientation(self, rec: _Rec, u) -> int:
        """Sign of u's action on rec's orientation; u must stabilize the cell."""
        return rec.col[self._act_flag(u, rec.ref)]

    def _accumulate(self, acc, layer, dim, pos, transport, coeff):
        """Add coeff * transport(orbit rep) to an oriented cell chain."""
        rec = self.layers[layer][dim][pos]
        cell = act_cell(transport, rec.rep)
        k = (dim, pos, cell)
        if k in acc:
            h0, c = acc[k]
            rel = 1 if transport == h0 else self._rel_orientation(rec, mul(inv(h0), transport))
            acc[k] = (h0, c + coeff * rel)
        else:
            acc[k] = (transport, coeff)

    def _expand_boundary(self, acc, layer, dim, pos, transport, coeff):
        rec = self.layers[layer][dim][pos]
        for s, g, j in rec.boundary:
            self._accumulate(acc, layer, dim - 1, j, mul(transport, g), coeff * s)

    def _check_dd(self, layer, dim, rec):
        acc = {}
        for s, g, j in rec.boundary:
            self._expand_boundary(acc, layer, dim - 1, j, g, s)
        if any(c for _, c in acc.values()):
            raise InvariantViolation(f"d^2 != 0 on a {layer} orbit of dimension {dim}")

    # -- subdivision -----------------------------------------------------

    def _replace(self, k, raw_pos, rec: _Rec):
        """Cone rec's orbit over its (already emitted) boundary cells."""
        _, col = self._coloring(rec.rep, "chain")
        apex = _Rec(("apex", rec.rep), rec.stab, rec.size, kind="apex", source=raw_pos)
        table = {}
        self.repl[(k, raw_pos)] = (self._finish(apex, "chain", 0), table)

        closure = {}
        frontier = self._boundary_cells(rec.rep)
        while frontier:
            nxt = []
            for c in frontier:
                d = self._dim(c)
                if c not in closure.setdefault(d, set()):
                    closure[d].add(c)
                    nxt.extend(self._chain_facets(c))
            frontier = nxt

        gorder = self.group.order()
        for j in sorted(closure):
            seeds = sorted(closure[j], key=_key)
            filed = self.chain[j + 1]
            for seed, pstab, _ in _new_orbits(seeds, rec.stab, act_cell, table, filed):
                piece = _Rec(("cone", rec.rep, seed), pstab, gorder // pstab.order(),
                             kind="cone", source=raw_pos)
                self._finish(piece, "chain", j + 1, "a cone piece reversed orientation")

        self._check_tiling(k, rec.rep, col)

    def _check_tiling(self, k, cell, col):
        """The signed cone pieces must tile the cell: sum of their
        boundaries equals the boundary of the replaced cell itself."""
        acc = {}
        for tau in self._boundary_cells(cell):
            pos_t, g_t = self._identify_chain(tau, k - 1)
            facet = self.chain[k - 1][pos_t]
            s_cell = col[self._act_flag(g_t, facet.ref) + (cell,)]
            self._accumulate(acc, "chain", k - 1, pos_t, g_t, -s_cell)
            ppos, g_p = self._identify_chain(("cone", cell, tau), k)
            coeff_tau = 0
            for s, g, j in self.chain[k][ppos].boundary:
                if j != pos_t:
                    continue
                h = mul(g_p, g)
                if act_cell(h, facet.rep) != tau:
                    continue
                rel = 1 if h == g_t else self._rel_orientation(facet, mul(inv(g_t), h))
                coeff_tau += s * rel
            if coeff_tau not in (1, -1):
                raise InvariantViolation("cone piece does not meet its base facet once")
            self._expand_boundary(acc, "chain", k, ppos, g_p, s_cell * coeff_tau)
        if any(c for _, c in acc.values()):
            raise InvariantViolation("cone pieces do not tile the replaced cell")

    # -- main loop -------------------------------------------------------

    def run(self) -> EquivariantCellComplex:
        counts = []
        for k in range(self.max_dim + 1):
            self.raw.append([])
            self.chain.append([])
            total = 0
            for rep, stab, size in self.action.decompose(k):
                total += size
                rec = _Rec(rep, stab, size)
                raw_pos = self._finish(rec, "raw", k)
                if -1 in rec.chi:
                    self._replace(k, raw_pos, rec)
                else:
                    self.kept[(k, raw_pos)] = self._finish(
                        _Rec(rep, stab, size, source=raw_pos), "chain", k,
                        "kept orbit reverses on the chain layer",
                    )
            if total != self.action.cell_count(k):
                raise InvariantViolation(
                    f"orbit sizes sum to {total} cells in dimension {k}, "
                    f"complex has {self.action.cell_count(k)}"
                )
            counts.append(total)

        chain_counts = tuple(sum(r.size for r in lay) for lay in self.chain)
        euler_raw = sum((-1) ** k * c for k, c in enumerate(counts))
        euler_chain = sum((-1) ** k * c for k, c in enumerate(chain_counts))
        if euler_raw != euler_chain:
            raise InvariantViolation("subdivision changed the Euler characteristic")

        def publish(layer):
            return tuple(
                tuple(CellOrbit(k, r.rep, r.stab, r.chi, r.size, r.boundary, r.kind, r.source)
                      for r in lay)
                for k, lay in enumerate(layer)
            )

        return EquivariantCellComplex(
            group=self.group,
            max_dim=self.max_dim,
            raw=publish(self.raw),
            chain=publish(self.chain),
            counts=tuple(counts),
            chain_counts=chain_counts,
            replaced=tuple(sorted(self.repl)),
        )


def expand_chain(ecc: EquivariantCellComplex):
    """Cell-level boundary matrices of the chain layer.

    Enumerates every cell, so this is for small complexes only: it is
    the independent cross-check that the orbit records really describe
    a complex (the matrices multiply to zero, and a solid base comes
    out with the homology of a point).  Returns (sizes, mats) with
    mats[k] mapping dimension k+1 to dimension k, as one sparse column
    {cell: coefficient} per (k+1)-cell, in chain_homology's form.
    """
    if sum(ecc.chain_counts) > errors.EXPAND_CAP:
        raise CapExceeded(f"{sum(ecc.chain_counts)} cells is too many to expand")
    gens = ecc.group.generators
    deg = ecc.group.degree
    index = []
    orbits = []
    for layer in ecc.chain:
        idx = {}
        ods = []
        for o in layer:
            od = OrbitData(o.rep, gens, act_cell, deg)
            if len(od) != o.size:
                raise InvariantViolation("orbit size does not match its record")
            for st in od.states:
                idx[st] = len(idx)
            ods.append(od)
        index.append(idx)
        orbits.append(ods)
    mats = []
    for k in range(1, len(ecc.chain)):
        # cells come in the order index[k] numbered them
        cols = []
        for o, od in zip(ecc.chain[k], orbits[k]):
            for cell in od.states:
                u = od.transporter(cell)
                col: dict = {}
                for s, g, j in o.boundary:
                    i = index[k - 1][act_cell(mul(u, g), ecc.chain[k - 1][j].rep)]
                    col[i] = col.get(i, 0) + s
                cols.append(col)
        mats.append(cols)
    return [len(ix) for ix in index], mats


def orbit_decompose(base, group: PermGroup, max_dim: int):
    """Decompose a complex with a group action into cell orbits.

    `base` is either an explicit DComplex whose labels are frozensets of
    points, or a SimplexFlags descriptor for the lazy route.  Both
    layers of the result are deterministic: orbits appear in descent
    (respectively label) order, subdivision pieces right after the
    orbit they replace, appended by dimension and representative key.
    Subdivided cells of flag complexes can be flag-heavy; FLAG_CAP
    bounds the coloring work per cell.
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
