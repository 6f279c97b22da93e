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

Cells are kept abstract behind two actions.  `_MaterializedAction`
walks an explicit `DComplex` whose labels are frozensets of points.
`_SimplexFlagAction` never materializes anything: cells are chains of
subsets of {0..n-1} of essential type, and orbits come from descending
the stabilizer chain one subset size at a time, which is what keeps
groups like M24 (5.1M vertices, 58.7M edges) down to a handful of
orbit records.

Orientations follow the flag-coloring convention: the maximal internal
flags of a cell are 2-colored so adjacent flags differ, the
lexicographically least flag is +1, and every sign (incidence numbers,
characters, relative orientations of translated cells) is read off the
coloring.  All of it is re-verified numerically: d^2 = 0 on both
layers, coefficient sums vanish on edges, cone pieces tile their cell,
and the Euler characteristic survives subdivision.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .coxeter import DComplex, essential_poset, simplex_face_counts
from .errors import CapExceeded, InvariantViolation
from .perm import identity, inv, mul
from .permgroup import OrbitData, PermGroup, act_point, act_set, schreier_stabilizer

FLAG_CAP = 50_000
EXTENSION_CAP = 500_000

_APEX = "@"
_CONE = "#"


def _is_composite(cell) -> bool:
    return type(cell) is tuple and len(cell) > 0 and (cell[0] is _APEX or cell[0] is _CONE)


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

    def act(self, g, cell):
        return tuple(act_set(g, p) for p in cell)

    def key(self, cell):
        return cell

    def dim(self, cell) -> int:
        t = tuple(sorted(len(p) - 1 for p in cell))
        return self.poset.classes[self.poset.class_index(t)].height

    def describe(self, cell):
        return tuple(tuple(p) for p in cell)

    def _grow(self, node: _Node, s: int):
        if s in node.children:
            return
        base = node.chain[-1] if node.chain else ()
        used = set(base)
        pool = [x for x in range(self.n) if x not in used]
        need = s - len(base)
        cands = sorted(tuple(sorted(base + extra)) for extra in combinations(pool, need))
        if len(cands) > EXTENSION_CAP:
            raise CapExceeded(f"{len(cands)} flag extensions at size {s}")
        nodes = []
        table = {}
        for cand in cands:
            if cand in table:
                continue
            od = OrbitData(cand, node.stab.generators, act_set, self.n)
            child = _Node(node.chain + (cand,), schreier_stabilizer(node.stab, od))
            pos = len(nodes)
            nodes.append(child)
            for st in od.states:
                table[st] = (pos, od)
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
        self.index = {lab: i for i, lab in enumerate(K.labels)}
        if len(self.index) != len(K.labels):
            raise ValueError("duplicate labels")
        self._facets = [
            sorted(
                (j for j in K.below[i] if K.dims[j] == K.dims[i] - 1),
                key=lambda j: tuple(sorted(K.labels[j])),
            )
            for i in range(len(K.labels))
        ]
        self._where = {}
        self._orbits = {}

    @property
    def top_dim(self) -> int:
        return self.K.d

    def act(self, g, cell):
        lab = frozenset(g[a] for a in self.K.labels[cell])
        try:
            return self.index[lab]
        except KeyError:
            raise InvariantViolation("group action does not preserve the complex")

    def key(self, cell):
        return tuple(sorted(self.K.labels[cell]))

    def dim(self, cell) -> int:
        return self.K.dims[cell]

    def describe(self, cell):
        return tuple(sorted(self.K.labels[cell]))

    def decompose(self, k: int):
        if k in self._orbits:
            return self._orbits[k]
        out = []
        gorder = self.group.order()
        for seed in sorted(self.K.faces_of_dim(k), key=self.key):
            if seed in self._where:
                continue
            od = OrbitData(seed, self.group.generators, self.act, self.group.degree)
            stab = schreier_stabilizer(self.group, od)
            slot = (k, len(out))
            for st in od.states:
                self._where[st] = (slot, od)
            out.append((seed, stab, len(od)))
        self._orbits[k] = out
        return out

    def identify(self, cell):
        slot, od = self._where[cell]
        return slot, od.transporter(cell)

    def facets(self, cell):
        return list(self._facets[cell])

    def cell_count(self, k: int) -> int:
        return len(self.K.faces_of_dim(k))


# -- public records ------------------------------------------------------


@dataclass(frozen=True)
class CellOrbit:
    """One orbit of cells: representative, stabilizer, character, boundary.

    `chi` lists the orientation character on stab.generators; `boundary`
    holds (coefficient, translating element, orbit index one dimension
    down).  `kind` is "cell" for geometric orbits, "apex" or "cone" for
    subdivision pieces; `source` points back at the raw orbit a piece
    came from.
    """

    dim: int
    rep: object
    stab: PermGroup
    chi: tuple
    size: int
    boundary: tuple
    kind: str = "cell"
    source: int | None = None

    @property
    def reversing(self) -> bool:
        return -1 in self.chi

    @property
    def stab_order(self) -> int:
        return self.stab.order()


@dataclass(frozen=True)
class EquivariantCellComplex:
    group: PermGroup
    max_dim: int
    raw: tuple
    chain: tuple
    counts: tuple
    chain_counts: tuple
    replaced: tuple

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
    def __init__(self, action, group: PermGroup, max_dim: int,
                 flag_cap: int = FLAG_CAP):
        self.action = action
        self.group = group
        self.max_dim = min(max_dim, action.top_dim)
        self.flag_cap = flag_cap
        self.raw = []
        self.chain = []
        self.kept = {}
        self.repl = {}
        self._bcells = {}
        self._cfacets = {}
        self._flags = {}

    # -- cells, composite or not ----------------------------------------

    def _act(self, g, cell):
        if _is_composite(cell):
            if cell[0] is _APEX:
                return (_APEX, self._act(g, cell[1]))
            return (_CONE, self._act(g, cell[1]), self._act(g, cell[2]))
        return self.action.act(g, cell)

    def _key(self, cell):
        if _is_composite(cell):
            if cell[0] is _APEX:
                return (1, self._key(cell[1]))
            return (2, self._key(cell[1]), self._key(cell[2]))
        return (0, self.action.key(cell))

    def _dim(self, cell) -> int:
        if _is_composite(cell):
            if cell[0] is _APEX:
                return 0
            return self._dim(cell[2]) + 1
        return self.action.dim(cell)

    def _describe(self, cell):
        if _is_composite(cell):
            if cell[0] is _APEX:
                return ("apex", self._describe(cell[1]))
            return ("cone", self._describe(cell[1]), self._describe(cell[2]))
        return self.action.describe(cell)

    def _act_flag(self, g, flag):
        return tuple(self._act(g, c) for c in flag)

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
                out.extend((_CONE, f, t) for t in self._boundary_cells(f))
            else:
                out.append(f)
        self._bcells[cell] = out
        return out

    def _chain_facets(self, cell):
        if cell in self._cfacets:
            return self._cfacets[cell]
        if _is_composite(cell):
            if cell[0] is _APEX:
                out = []
            else:
                _, base, sub = cell
                if self._dim(sub) == 0:
                    out = [(_APEX, base), sub]
                else:
                    out = [sub] + [(_CONE, base, t) for t in self._chain_facets(sub)]
        else:
            out = self._boundary_cells(cell)
        self._cfacets[cell] = out
        return out

    # -- flags and colorings --------------------------------------------

    def _flags_of(self, cell, family):
        memo = self._flags
        k = (family, cell)
        if k in memo:
            return memo[k]
        if (family == "raw" and self.action.dim(cell) == 0) or (
            family == "chain" and self._dim(cell) == 0
        ):
            out = ((cell,),)
        else:
            facets = self.action.facets(cell) if family == "raw" else self._chain_facets(cell)
            out = tuple(
                fl + (cell,) for f in facets for fl in self._flags_of(f, family)
            )
            if len(out) > self.flag_cap:
                raise CapExceeded(f"{len(out)} internal flags in one cell")
        memo[k] = out
        return out

    def _coloring(self, cell, family):
        """2-coloring of the maximal internal flags; least flag is +1."""
        flags = self._flags_of(cell, family)
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
        ref = min(flags, key=lambda fl: tuple(self._key(c) for c in fl))
        if color[ref] < 0:
            color = {fl: -c for fl, c in color.items()}
        return ref, color

    # -- signed boundaries ----------------------------------------------

    def _layer_rec(self, layer, dim, pos) -> _Rec:
        return (self.raw if layer == "raw" else self.chain)[dim][pos]

    def _boundary_terms(self, cell, rec, layer):
        """(coeff, g, pos) over the one-lower layer; sign from rec's coloring."""
        if layer == "raw":
            facets = self.action.facets(cell)
            dim = self.action.dim(cell)
        else:
            facets = self._chain_facets(cell)
            dim = self._dim(cell)
        terms = []
        for f in facets:
            if layer == "raw":
                (fd, pos), g = self.action.identify(f)
                if fd != dim - 1:
                    raise InvariantViolation("facet dimension mismatch")
            else:
                pos, g = self._identify_chain(f, dim - 1)
            target = self._layer_rec(layer, dim - 1, pos)
            sign = rec.col[self._act_flag(g, target.ref) + (cell,)]
            terms.append((sign, g, pos))
        return tuple(terms)

    def _identify_chain(self, cell, dim):
        if _is_composite(cell):
            base = cell[1]
            slot, u = self.action.identify(base)
            if slot not in self.repl:
                raise InvariantViolation("cone piece over a cell that was not replaced")
            apex_pos, table = self.repl[slot]
            if cell[0] is _APEX:
                return apex_pos, u
            t = self._act(inv(u), cell[2])
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
        rec = self._layer_rec(layer, dim, pos)
        cell = self._act(transport, rec.rep)
        k = (dim, pos, cell)
        if k in acc:
            h0, c = acc[k]
            rel = 1 if transport == h0 else self._rel_orientation(rec, mul(inv(h0), transport))
            acc[k] = (h0, c + coeff * rel)
        else:
            acc[k] = (transport, coeff)

    def _expand_boundary(self, acc, layer, dim, pos, transport, coeff):
        rec = self._layer_rec(layer, dim, pos)
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
        ref, col = self._coloring(rec.rep, "chain")
        rec_chain = _Rec(rec.rep, rec.stab, rec.size)
        rec_chain.ref, rec_chain.col = ref, col
        slot = (k, raw_pos)

        apex = (_APEX, rec.rep)
        arec = _Rec(apex, rec.stab, rec.size, kind="apex", source=raw_pos)
        arec.chi = (1,) * len(rec.stab.generators)
        arec.ref, arec.col = (apex,), {(apex,): 1}
        apex_pos = len(self.chain[0])
        self.chain[0].append(arec)
        self.repl[slot] = (apex_pos, {})
        table = self.repl[slot][1]

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
            for seed in sorted(closure[j], key=self._key):
                if seed in table:
                    continue
                od = OrbitData(seed, rec.stab.generators, self._act, self.group.degree)
                pstab = schreier_stabilizer(rec.stab, od)
                piece = (_CONE, rec.rep, seed)
                prec = _Rec(piece, pstab, gorder // pstab.order(), kind="cone", source=raw_pos)
                prec.ref, prec.col = self._coloring(piece, "chain")
                prec.chi = tuple(
                    self._rel_orientation(prec, g) for g in pstab.generators
                )
                if -1 in prec.chi:
                    raise InvariantViolation("a cone piece reversed orientation")
                pos = len(self.chain[j + 1])
                for st in od.states:
                    table[st] = (pos, od)
                self.chain[j + 1].append(prec)
                prec.boundary = self._boundary_terms(piece, prec, "chain")
                if j + 1 == 1 and sum(s for s, _, _ in prec.boundary) != 0:
                    raise InvariantViolation("cone edge boundary does not augment to zero")
                if j + 1 >= 2:
                    self._check_dd("chain", j + 1, prec)

        self._check_tiling(k, rec_chain, slot)

    def _check_tiling(self, k, rec_chain: _Rec, slot):
        """The signed cone pieces must tile the cell: sum of their
        boundaries equals the boundary of the replaced cell itself."""
        acc = {}
        _, table = self.repl[slot]
        for tau in self._boundary_cells(rec_chain.rep):
            pos_t, g_t = self._identify_chain(tau, k - 1)
            s_cell = rec_chain.col[
                self._act_flag(g_t, self.chain[k - 1][pos_t].ref) + (rec_chain.rep,)
            ]
            self._accumulate(acc, "chain", k - 1, pos_t, g_t, -s_cell)
            ppos, g_p = self._identify_chain((_CONE, rec_chain.rep, tau), k)
            prec = self.chain[k][ppos]
            coeff_tau = 0
            for s, g, j in prec.boundary:
                if j != pos_t:
                    continue
                h = mul(g_p, g)
                if self._act(h, self.chain[k - 1][pos_t].rep) != tau:
                    continue
                rel = 1 if h == g_t else self._rel_orientation(
                    self.chain[k - 1][pos_t], mul(inv(g_t), h)
                )
                coeff_tau += s * rel
            if coeff_tau not in (1, -1):
                raise InvariantViolation("cone piece does not meet its base facet once")
            eps = s_cell * coeff_tau
            self._expand_boundary(acc, "chain", k, ppos, g_p, eps)
        if any(c for _, c in acc.values()):
            raise InvariantViolation("cone pieces do not tile the replaced cell")

    # -- main loop -------------------------------------------------------

    def run(self) -> EquivariantCellComplex:
        counts = []
        for k in range(self.max_dim + 1):
            layer = []
            self.raw.append(layer)
            self.chain.append([])
            total = 0
            for rep, stab, size in self.action.decompose(k):
                rec = _Rec(rep, stab, size)
                rec.ref, rec.col = self._coloring(rep, "raw")
                rec.chi = tuple(self._rel_orientation(rec, g) for g in stab.generators)
                raw_pos = len(layer)
                layer.append(rec)
                total += size
                if k >= 1:
                    rec.boundary = self._boundary_terms(rep, rec, "raw")
                    if k == 1 and sum(s for s, _, _ in rec.boundary) != 0:
                        raise InvariantViolation("edge boundary does not augment to zero")
                    if k >= 2:
                        self._check_dd("raw", k, rec)
                if -1 in rec.chi:
                    self._replace(k, raw_pos, rec)
                    continue
                crec = _Rec(rep, stab, size, source=raw_pos)
                if k == 0:
                    crec.ref, crec.col = rec.ref, rec.col
                else:
                    crec.ref, crec.col = self._coloring(rep, "chain")
                chi = tuple(self._rel_orientation(crec, g) for g in stab.generators)
                if -1 in chi:
                    raise InvariantViolation("kept orbit reverses on the chain layer")
                crec.chi = chi
                self.kept[(k, raw_pos)] = len(self.chain[k])
                self.chain[k].append(crec)
                if k >= 1:
                    crec.boundary = self._boundary_terms(rep, crec, "chain")
                    if k == 1 and sum(s for s, _, _ in crec.boundary) != 0:
                        raise InvariantViolation("edge boundary does not augment to zero")
                    if k >= 2:
                        self._check_dd("chain", k, crec)
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

        def publish(rec: _Rec, dim: int) -> CellOrbit:
            return CellOrbit(
                dim=dim,
                rep=self._describe(rec.rep),
                stab=rec.stab,
                chi=rec.chi,
                size=rec.size,
                boundary=rec.boundary,
                kind=rec.kind,
                source=rec.source,
            )

        return EquivariantCellComplex(
            group=self.group,
            max_dim=self.max_dim,
            raw=tuple(tuple(publish(r, k) for r in lay) for k, lay in enumerate(self.raw)),
            chain=tuple(tuple(publish(r, k) for r in lay) for k, lay in enumerate(self.chain)),
            counts=tuple(counts),
            chain_counts=chain_counts,
            replaced=tuple(sorted(self.repl)),
        )


def act_cell(g, rep):
    """Apply a group element to a described cell.

    Works on all three shapes that appear in CellOrbit.rep: a label
    tuple of points, a chain of such tuples, or an apex/cone composite.
    """
    if rep and rep[0] in ("apex", "cone"):
        return (rep[0],) + tuple(act_cell(g, r) for r in rep[1:])
    if rep and isinstance(rep[0], tuple):
        return tuple(act_set(g, p) for p in rep)
    return act_set(g, rep)


EXPAND_CAP = 100_000


def expand_chain(ecc: EquivariantCellComplex):
    """Cell-level boundary matrices of the chain layer.

    Enumerates every cell, so this is for small complexes only: it is
    the independent cross-check that the orbit records really describe
    a complex (the matrices multiply to zero, and a solid base comes
    out with the homology of a point).  Returns (sizes, mats) with
    mats[k] mapping dimension k+1 to dimension k, entries plain ints.
    """
    if sum(ecc.chain_counts) > EXPAND_CAP:
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
        M = [[0] * len(index[k]) for _ in range(len(index[k - 1]))]
        for o, od in zip(ecc.chain[k], orbits[k]):
            for cell in od.states:
                u = od.transporter(cell)
                col = index[k][cell]
                for s, g, j in o.boundary:
                    target = act_cell(mul(u, g), ecc.chain[k - 1][j].rep)
                    M[index[k - 1][target]][col] += s
        mats.append(M)
    return [len(ix) for ix in index], mats


def orbit_decompose(base, group: PermGroup, max_dim: int, flag_cap: int = FLAG_CAP):
    """Decompose a complex with a group action into cell orbits.

    `base` is either an explicit DComplex whose labels are frozensets of
    points, or a SimplexFlags descriptor for the lazy route.  Both
    layers of the result are deterministic: orbits appear in descent
    (respectively label) order, subdivision pieces right after the
    orbit they replace, appended by dimension and representative key.
    Subdivided cells of flag complexes can be flag-heavy; flag_cap
    bounds the coloring work per cell and is raised by callers that
    accept the cost.
    """
    if isinstance(base, SimplexFlags):
        action = _SimplexFlagAction(base, group)
    elif isinstance(base, DComplex):
        action = _MaterializedAction(base, group)
    else:
        raise TypeError("base must be a DComplex or a SimplexFlags descriptor")
    return _Engine(action, group, max_dim, flag_cap).run()


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
