"""Span tracing of permhomology's public functions, installed from outside.

The program is not edited: every traced function is replaced by a
wrapper in each place it is bound.  ``from .x import f`` copies the
name ``f`` into each importing module, so a function is rebound in
every ``permhomology.*`` module whose namespace holds that same object.
Methods are replaced on their class.

Per-element helpers (``perm.mul``, ``resolution.word`` and the like,
about 10**6 calls per request) are never wrapped; the targets below
are layer boundaries called at most a few thousand times per request.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "permhomology"


def _size(tracer, args, out):
    tracer.add("sylow.conj_orbit_nodes", args[0].size)


def _len_as(counter):
    def count(tracer, args, out):
        tracer.add(counter, len(out))
    return count


def _hermite(tracer, args, out):
    solver = args[0]
    tracer.add("intlinalg.hermite_cells", solver.m * solver.n)


def _sparse_nnz(tracer, args, out):
    tracer.add("intlinalg.snf_sparse_nnz", sum(1 for v in args[0].values() if v))


def _small(tracer, args, out):
    # identical object handed out again: the in-process memo hit
    if id(out) in tracer.seen:
        tracer.add("resolution.small_reused", 1)
    else:
        tracer.seen[id(out)] = out
        tracer.add("resolution.small_rank_sum", sum(out.ranks))


def _cell_orbits(tracer, args, out):
    tracer.add("equivariant.cell_orbits", sum(out.counts))


def _wall_ranks(tracer, args, out):
    tracer.add("wall.rank_sum", sum(out.ranks))


def _edge(tracer, args, out):
    if out > 0:
        tracer.add("polytope.edges_found", 1)


# (module, attribute or Class.method, span name, counter hook).  Spans
# with no metric of their own still keep their time out of cli.main's
# self time.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("catalog", "lookup", "catalog.lookup", None),
    ("catalog", "group_from_json", "catalog.lookup", None),
    ("permgroup", "PermGroup.elements", "permgroup.elements",
     _len_as("permgroup.elements_listed")),
    ("sylow", "CyclicConjOrbit.__init__", "sylow.conj_orbit", _size),
    ("sylow", "weyl_exponent", "sylow.weyl_exponent", None),
    ("sylow", "sylow_ascent", "sylow.ascent", None),
    ("sylow", "double_cosets", "sylow.double_cosets",
     _len_as("sylow.double_coset_reps")),
    ("homology", "cyclic_sylow_ppart", "homology.cyclic_ppart", None),
    ("homology", "ce_ppart_general", "homology.ce_ppart", None),
    ("homology", "resolution_homology", "homology.resolution_homology", None),
    ("resolution", "resolution_small", "resolution.small", _small),
    ("resolution", "chain_map", "resolution.chain_map", None),
    ("resolution", "homology_action", "resolution.homology_action", None),
    ("intlinalg", "ColumnSolver.__init__", "intlinalg.hermite", _hermite),
    ("intlinalg", "ZSpan.insert", "intlinalg.zspan_insert", None),
    ("intlinalg", "ZSpan.contains", "intlinalg.zspan_contains", None),
    ("intlinalg", "smith_normal_form", "intlinalg.snf_dense", None),
    ("intlinalg", "smith_diagonal_sparse", "intlinalg.snf_sparse", _sparse_nnz),
    ("coxeter", "essential_poset", "coxeter.poset", None),
    ("coxeter", "simplex_face_counts", "coxeter.face_counts", None),
    ("equivariant", "orbit_decompose", "equivariant.decompose", _cell_orbits),
    ("equivariant", "flag_edge_orbits", "equivariant.flag_edge_orbits", None),
    ("wall", "from_cells", "wall.complex", None),
    ("wall", "splice", "wall.complex", None),
    ("wall", "wall_assemble", "wall.assemble", _wall_ranks),
    ("polytope", "orbit_points", "polytope.orbit_points",
     _len_as("polytope.points")),
    ("polytope", "vertex_degree", "polytope.vertex_degree", None),
    ("polytope", "edge_gap", "polytope.edge_gap", _edge),
    ("polytope", "lp_min", "polytope.lp", None),
)


class Tracer:
    """Spans and counters of one request, kept in memory.

    A span is (id, name, start, end, parent id, request id); parent is
    -1 at the top.  ``install`` wraps every target and ``uninstall``
    puts the original objects back.
    """

    def __init__(self, request_id: int = 0):
        self.request_id = request_id
        self.spans: list = []
        self.counters: dict = {}
        self.seen: dict = {}  # id -> object, keeps ids unique while alive
        self._stack: list = []
        self._next = 0
        self._restore: list = []

    def add(self, counter: str, value) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def _wrap(self, fn, name, hook):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append(
                    (sid, name, start, end, parent, tracer.request_id)
                )
            if hook is not None:
                hook(tracer, args, out)
            return out

        return functools.wraps(fn)(traced)

    def _rebind(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for mod_name, *_ in TARGETS:
            importlib.import_module(f"{PACKAGE}.{mod_name}")
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))
        ]
        for mod_name, path, name, hook in TARGETS:
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                self._rebind(cls, meth, self._wrap(cls.__dict__[meth], name, hook))
                continue
            fn = getattr(mod, path)
            wrapper = self._wrap(fn, name, hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._rebind(m, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a name, so a name
    nested in itself is not counted twice.  Self time is a span's
    duration minus the durations of its direct children.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict = {}
    for sid, _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict = {}
    for sid, name, start, end, parent, _ in spans:
        rec = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        dur = end - start
        rec["self_s"] += dur - child_time.get(sid, 0.0)
        p = parent
        while p >= 0 and by_id[p][1] != name:
            p = by_id[p][4]
        if p < 0:
            rec["incl_s"] += dur
    return out
