"""The benchmark's tracer catches calls however the program reaches them."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from permhomology import catalog, homology, resolution, sylow, wall  # noqa: E402
from permhomology.coxeter import polygon_solid  # noqa: E402
from permhomology.equivariant import orbit_decompose  # noqa: E402

from tracer import Tracer, summarize  # noqa: E402


def _parents(tracer, name):
    names = {s[0]: s[1] for s in tracer.spans}
    return {names.get(s[4]) for s in tracer.spans if s[1] == name}


def _traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer


def test_small_resolution_caught_through_wall_default_resolver():
    G = catalog.dihedral(4)  # vertex and edge stabilizers of order 2
    C = wall.from_cells(orbit_decompose(polygon_solid(4), G, 2))
    tracer = _traced(lambda: wall.wall_assemble(C, 2))
    # _default_resolver is the only route from wall_assemble to resolution_small
    assert _parents(tracer, "resolution.small") == {"wall.assemble"}
    assert tracer.counters["wall.rank_sum"] > 0


def test_small_resolution_caught_through_ce_ppart_general():
    G = catalog.alternating(4)
    P = sylow.sylow_ascent(G, 2)
    tracer = _traced(
        lambda: homology.ce_ppart_general(G, P, 2, convention="intersect-right")
    )
    assert "homology.ce_ppart" in _parents(tracer, "resolution.small")
    assert summarize(tracer.spans)["resolution.small"]["calls"] >= 1


def test_uninstall_restores_every_binding():
    original = resolution.resolution_small
    _traced(lambda: None)
    assert wall.resolution_small is original
    assert homology.resolution_small is original
    assert not hasattr(sylow.CyclicConjOrbit.__init__, "__wrapped__")


def test_self_time_subtracts_children():
    spans = [
        (1, "inner", 1.0, 3.0, 0, 0),
        (0, "outer", 0.0, 10.0, -1, 0),
        (2, "outer", 4.0, 5.0, 0, 0),
    ]
    s = summarize(spans)
    assert s["outer"]["incl_s"] == 10.0  # the nested outer is not added again
    assert s["outer"]["self_s"] == 7.0 + 1.0
    assert s["inner"]["self_s"] == 2.0
