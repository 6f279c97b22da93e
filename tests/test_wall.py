"""Assembled resolutions: splices, twisted summands, twisted tensors.

Every homology value here is checked against the direct resolution of
the same group, so the assembly path (induced columns, correction
terms, splice periodicity) is exercised end to end.
"""

import pytest

from permhomology import coxeter as cx
from permhomology import errors, wall
from permhomology.catalog import alternating, cyclic, dihedral, klein_four, mathieu, symmetric
from permhomology.equivariant import SimplexFlags, orbit_decompose
from permhomology.errors import CapExceeded, InvariantViolation
from permhomology.homology import ce_ppart_general, cyclic_sylow_ppart, resolution_homology
from permhomology.intlinalg import p_part
from permhomology.perm import mul
from permhomology.permgroup import PermGroup
from permhomology.resolution import FreeResolution, bar_resolution, resolution_small
from permhomology.sylow import sylow_ascent
from permhomology.wall import (
    NonFreeComplex,
    from_cells,
    quotient_complex,
    splice,
    twisted_tensor,
    wall_assemble,
)


def oracle(G, kmax):
    R = resolution_small(G, kmax + 1)
    return [resolution_homology(R, k) for k in range(1, kmax + 1)]


def hexagon_s3():
    g = PermGroup([(2, 3, 4, 5, 0, 1), (1, 0, 5, 4, 3, 2)], 6)
    assert g.order() == 6
    return g


def test_trivial_group_is_passthrough():
    ecc = orbit_decompose(cx.simplex_complex(3), PermGroup([], 3), 2)
    R = wall_assemble(from_cells(ecc), 2)
    assert R.ranks == (3, 3, 1)
    assert str(resolution_homology(R, 0)) == "Z"
    assert str(resolution_homology(R, 1)) == "0"


def test_segment_z2():
    g = PermGroup([(1, 0)], 2)
    ecc = orbit_decompose(cx.simplex_complex(2), g, 1)
    R = wall_assemble(from_cells(ecc), 4)
    # the edge's summand is Z[G/G] twisted by the sign: Z2's periodic
    # resolution with every boundary sign flipped by the swap
    assert R.ranks == (1, 1, 1, 1, 1, 1)
    assert [resolution_homology(R, k) for k in range(1, 5)] == oracle(g, 4)


def test_polygon_splices():
    for m in (3, 4, 5, 6):
        ecc = orbit_decompose(cx.polygon_solid(m), cyclic(m), 2)
        C = splice(ecc)
        assert C.periodic
        R = wall_assemble(C, 5)
        assert R.ranks == (1,) * 7
        assert [resolution_homology(R, k) for k in range(1, 5)] == oracle(cyclic(m), 4)


def test_splice_rotation_subgroup():
    # half-turn subgroup on the square: top cell survives with the
    # smaller stabilizer, so the splice resolves Z2
    g = PermGroup([(2, 3, 0, 1)], 4)
    ecc = orbit_decompose(cx.polygon_solid(4), g, 2)
    R = wall_assemble(splice(ecc), 4)
    assert [resolution_homology(R, k) for k in range(1, 4)] == oracle(g, 3)


def test_splice_rejects_non_solids():
    ecc = orbit_decompose(cx.polygon_solid(4), dihedral(4), 2)
    with pytest.raises(InvariantViolation, match="top"):
        splice(ecc)
    ecc = orbit_decompose(cx.polygon_boundary(4), cyclic(4), 1)
    with pytest.raises(InvariantViolation, match="top"):
        splice(ecc)


def test_hexagon_s3():
    ecc = orbit_decompose(cx.polygon_solid(6), hexagon_s3(), 2)
    R = wall_assemble(from_cells(ecc), 4)
    assert R.ranks == (1, 2, 3, 4, 5, 6)
    assert [resolution_homology(R, k) for k in range(1, 4)] == oracle(hexagon_s3(), 3)


def test_tetrahedron_a4_splice():
    ecc = orbit_decompose(cx.simplex_complex(4), alternating(4), 3)
    C = splice(ecc)
    assert C.periodic
    R = wall_assemble(C, 4)
    assert [resolution_homology(R, k) for k in range(1, 4)] == oracle(alternating(4), 3)


def test_square_klein_four_and_dihedral():
    for G in (klein_four(), dihedral(4)):
        ecc = orbit_decompose(cx.polygon_solid(4), G, 2)
        R = wall_assemble(from_cells(ecc), 4)
        assert [resolution_homology(R, k) for k in range(1, 4)] == oracle(G, 3)


def test_assembly_is_deterministic():
    ecc = orbit_decompose(cx.polygon_solid(6), hexagon_s3(), 2)
    C = from_cells(ecc)
    A = wall_assemble(C, 3)
    B = wall_assemble(C, 3)
    assert A.gens == B.gens
    assert A.d == B.d


def test_rank_cap(monkeypatch):
    ecc = orbit_decompose(cx.polygon_solid(6), hexagon_s3(), 2)
    monkeypatch.setattr(errors, "WALL_RANK_CAP", 3)
    with pytest.raises(CapExceeded, match="assembled rank 4 at degree 3 exceeds 3"):
        wall_assemble(from_cells(ecc), 3)


def test_homology_degree_bounds():
    ecc = orbit_decompose(cx.polygon_solid(4), cyclic(4), 2)
    R = wall_assemble(splice(ecc), 2)
    with pytest.raises(ValueError):
        resolution_homology(R, 3)


def test_nonfree_complex_rejects_empty():
    with pytest.raises(ValueError):
        NonFreeComplex(cyclic(3), [])


def test_twisted_z4_keeps_extension():
    # Z4 as Z2 by Z2: the corrections must remember the extension, so
    # the answer is Z4 in odd degrees, never elementary abelian
    R = twisted_tensor(cyclic(4), PermGroup([(2, 3, 0, 1)], 4), 4)
    assert R.ranks == (1, 2, 3, 4, 5, 6)
    inv = [resolution_homology(R, k) for k in range(1, 4)]
    assert [i.torsion for i in inv] == [(4,), (), (4,)]
    assert inv == oracle(cyclic(4), 3)


def test_twisted_s3_split():
    R = twisted_tensor(symmetric(3), PermGroup([(1, 2, 0)], 3), 4)
    assert [resolution_homology(R, k) for k in range(1, 4)] == oracle(symmetric(3), 3)


def test_twisted_klein_product():
    G = klein_four()
    N = PermGroup([G.generators[0]], G.degree)
    R = twisted_tensor(G, N, 4)
    assert [resolution_homology(R, k) for k in range(1, 4)] == oracle(G, 3)


def test_twisted_rejects():
    with pytest.raises(ValueError, match="normal"):
        twisted_tensor(symmetric(3), PermGroup([(1, 0, 2)], 3), 2)
    with pytest.raises(ValueError, match="trivial"):
        twisted_tensor(cyclic(4), cyclic(4), 2)


def test_quotient_complex_layers():
    C = quotient_complex(cyclic(4), PermGroup([(2, 3, 0, 1)], 4), 3)
    assert not C.periodic
    assert all(len(s.stab) == 2 for layer in C.layers for s in layer)
    # lifted boundary coefficients are coset representatives, not
    # arbitrary elements of N
    for layer in C.layers[1:]:
        for s in layer:
            for _, g, _ in s.boundary:
                assert g in ((0, 1, 2, 3), (1, 2, 3, 0))


def test_twisted_sylow3_m12():
    P = sylow_ascent(mathieu(12), 3)
    assert P.order() == 27
    idn = tuple(range(P.degree))
    center = [z for z in P.elements()
              if all(mul(z, g) == mul(g, z) for g in P.generators)]
    assert len(center) == 3
    N = PermGroup([z for z in center if z != idn], P.degree)
    R = twisted_tensor(P, N, 5)
    tors = [resolution_homology(R, k).torsion for k in range(1, 6)]
    assert tors == [(3, 3), (3, 3), (3, 3, 3, 3), (3, 3, 3), (3, 3, 3, 3, 9)]
    assert all(resolution_homology(R, k).free == 0 for k in range(1, 6))


def flags_complex(m, n):
    """The Sym(m) flags complex of the CLI's default wall route (dims
    0,1) with the cells homology through degree n needs."""
    ecc = orbit_decompose(SimplexFlags(m, (0, 1)), symmetric(m), n + 1)
    return from_cells(ecc)


def test_conjugate_stabilizers_share_one_resolution(monkeypatch):
    # S6 flags: 7 orbits with 7 distinct stabilizers fall into 4
    # standard forms, each resolved once at its deepest column; the rest
    # are carried over
    C = flags_complex(6, 2)
    stabs = {s.stab for layer in C.layers for s in layer}
    calls = []
    built = []

    def counting(H, depth):
        R = resolution_small(H, depth)
        calls.append(tuple(sorted(H.elements())))
        built.append(R)
        return R

    columns = []

    class Recorded(wall._Column):
        def __init__(self, *args):
            super().__init__(*args)
            columns.append(self)

    monkeypatch.setattr(wall, "_Column", Recorded)
    wall_assemble(C, 2, resolver=counting)
    assert len(calls) == 4
    # only the layer's own stabilizers are resolved, never a relabelling
    assert all(els in stabs for els in calls)
    carried = 0
    for col in columns:
        els = col.R.G.elements
        assert tuple(sorted(els)) == col.stab
        if any(col.R is R for R in built):
            continue
        carried += 1
        table = col.R.G._mul
        for i, a in enumerate(els):
            for j, b in enumerate(els):
                assert mul(a, b) == els[table[i][j]]
    assert carried > 0


def test_carried_resolution_must_cover_the_stabilizer(monkeypatch):
    # a transport that forgets to rename the elements is caught
    monkeypatch.setattr(FreeResolution, "conjugate", lambda R, q: R)
    with pytest.raises(InvariantViolation, match="conjugated"):
        wall_assemble(flags_complex(5, 1), 1)


def test_resolver_must_resolve_the_stabilizer():
    # a resolver that drops all but the first orbit is caught
    def first_orbit(H, depth):
        on = set(wall._orbits(H)[0])
        K = PermGroup([wall._restrict(g, on) for g in H.generators], H.degree)
        return resolution_small(K, depth)

    with pytest.raises(InvariantViolation, match="resolver's"):
        wall_assemble(flags_complex(5, 1), 1, resolver=first_orbit)


def test_shallower_column_reads_the_deeper_resolution():
    # the deepest column comes first; a deeper request later is a fault
    resolve = wall._shared_resolver(4, resolution_small)
    pair = ((0, 1, 2, 3), (1, 0, 2, 3))
    other = ((0, 1, 2, 3), (0, 1, 3, 2))
    R = resolve(pair, 3)
    assert resolve(pair, 2).ranks == R.ranks
    assert resolve(other, 3).length == 3
    with pytest.raises(InvariantViolation, match="depth 4"):
        resolve(other, 4)


def sylow_part(G, p, degrees):
    if p_part(G.order(), p) == p:
        return cyclic_sylow_ppart(G, p, degrees)
    return ce_ppart_general(G, sylow_ascent(G, p), degrees)


def test_flags_route_matches_sylow_route():
    # degrees below G.degree - 2, where the flags complex is exact
    for m in (5, 6):
        R = wall_assemble(flags_complex(m, 2), 2)
        got = [resolution_homology(R, k) for k in (1, 2)]
        assert [h.as_list() for h in got] == [[2], [2]]
        for p in (2, 3):
            parts = sylow_part(symmetric(m), p, [1, 2])
            assert [h.ppart(p) for h in got] == [parts[1], parts[2]]


def on_blocks(*groups):
    """The direct product of the groups, each acting on its own block of
    consecutive points."""
    degree = sum(K.degree for K in groups)
    gens, off = [], 0
    for K in groups:
        rest = tuple(range(off + K.degree, degree))
        gens += [tuple(range(off)) + tuple(x + off for x in g) + rest
                 for g in K.generators]
        off += K.degree
    return PermGroup(gens, degree)


def splits_over_an_orbit(H):
    """Whether |H| = |H on O| * |H off O| for some orbit O, with H's
    elements restricted by brute force."""
    els = H.elements()
    for orbit in H.orbits():
        if len(orbit) == 1:
            continue
        on = {tuple(g[x] if x in orbit else x for x in range(H.degree)) for g in els}
        off = {tuple(x if x in orbit else g[x] for x in range(H.degree)) for g in els}
        if 1 < len(on) < len(els) and len(on) * len(off) == len(els):
            return True
    return False


def convolve(a, b):
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a)))


@pytest.mark.parametrize("factors, depth, bar_depth", [
    ((symmetric(2), symmetric(3)), 4, 3),
    ((symmetric(3), symmetric(3)), 3, 2),
    ((symmetric(2), symmetric(4)), 3, 2),
    ((cyclic(2), cyclic(2), cyclic(2)), 4, 4),
], ids=["S2xS3", "S3xS3", "S2xS4", "C2xC2xC2"])
def test_default_resolver_tensors_orbit_factors(factors, depth, bar_depth):
    H = on_blocks(*factors)
    A, B = wall._orbit_split(H)
    R = wall._default_resolver(H, depth)
    assert sorted(R.G.elements) == sorted(H.elements())
    # ranks convolve down the recursion, and match the twisted tensor
    # of H over its second factor
    FA, FB = (wall._default_resolver(K, depth) for K in (A, B))
    assert R.ranks == convolve(FA.ranks, FB.ranks)
    assert R.ranks == twisted_tensor(H, B, depth - 1).ranks
    # three factors: the second one splits again
    assert (wall._orbit_split(B) is not None) == (len(factors) == 3)
    got = [resolution_homology(R, k) for k in range(depth)]
    small = resolution_small(H, depth)
    assert got == [resolution_homology(small, k) for k in range(depth)]
    bar = bar_resolution(H, bar_depth)
    assert got[:bar_depth] == [resolution_homology(bar, k) for k in range(bar_depth)]


def test_default_route_never_resolves_a_product_directly(monkeypatch):
    # the S6 and S5 flags requests of the benchmark: every group that
    # splits over its orbits goes to tensor_resolution instead
    seen = []

    def recording(H, depth):
        seen.append(H)
        return resolution_small(H, depth)

    monkeypatch.setattr(wall, "resolution_small", recording)
    for m, n in ((6, 2), (5, 3)):
        R = wall_assemble(flags_complex(m, n), n)
        assert resolution_homology(R, 1).as_list() == [2]
    assert seen
    assert not any(splits_over_an_orbit(H) for H in seen)
    assert splits_over_an_orbit(on_blocks(symmetric(2), symmetric(4)))
