import hashlib
import json
import random
from itertools import combinations

import numpy as np
import pytest

import coxeter_oracles as oc
from permhomology import coxeter as cx
from permhomology.catalog import (
    alternating,
    cyclic,
    dihedral,
    klein_four,
    mathieu,
    symmetric,
)
from permhomology.equivariant import (
    CellOrbit,
    SimplexFlags,
    _compatible_chains,
    act_cell,
    expand_chain,
    orbit_decompose,
)
from permhomology.errors import InvariantViolation
from permhomology.intlinalg import smith_diagonal_sparse
from permhomology.permgroup import PermGroup


def expand_dense(ecc):
    """expand_chain's (sizes, mats), with each matrix as dense rows."""
    sizes, mats = expand_chain(ecc)
    dense = []
    for k, cols in enumerate(mats):
        M = [[0] * len(cols) for _ in range(sizes[k])]
        for j, col in enumerate(cols):
            for i, v in col.items():
                M[i][j] = v
        dense.append(M)
    return sizes, dense


def homology_of(sizes, mats):
    """(free rank, torsion) per degree, straight from the cell matrices."""
    diags = []
    for M in mats:
        entries = {(i, j): v for i, row in enumerate(M) for j, v in enumerate(row) if v}
        diags.append(smith_diagonal_sparse(entries))
    out = []
    for k in range(len(sizes)):
        rin = len(diags[k]) if k < len(mats) else 0
        rout = len(diags[k - 1]) if k >= 1 else 0
        # torsion comes from the incoming boundary d_{k+1}
        tors = tuple(x for x in (diags[k] if k < len(mats) else []) if x > 1)
        out.append((sizes[k] - rout - rin, tors))
    return out


def check_matrices(sizes, mats):
    for k, M in enumerate(mats):
        assert len(M) == sizes[k] and all(len(r) == sizes[k + 1] for r in M)
    for A, B in zip(mats, mats[1:]):
        assert not (np.array(A, dtype=np.int64) @ np.array(B, dtype=np.int64)).any()
    if mats:
        for col in zip(*mats[0]):
            assert sum(col) == 0


def test_triangle_trivial_group():
    ecc = orbit_decompose(oc.simplex_boundary(3), PermGroup([], 3), 1)
    assert [len(layer) for layer in ecc.orbits] == [3, 3]
    assert ecc.stab_orders(0) == (1, 1, 1)
    assert ecc.stab_orders(1) == (1, 1, 1)
    assert ecc.counts == (3, 3)
    for o in ecc.orbits[1]:
        assert sum(s for s, _, _ in o.boundary) == 0
        assert {s for s, _, _ in o.boundary} == {1, -1}


def test_segment_z2_twisted():
    g = PermGroup([(1, 0)], 2)
    ecc = orbit_decompose(cx.simplex_complex(2), g, 1)
    edge = ecc.orbits[1][0]
    assert edge.chi == (-1,)
    assert edge.character() == {(0, 1): 1, (1, 0): -1}
    inv = [(o.stab_order, o.size) for layer in ecc.orbits for o in layer]
    assert inv == [(1, 2), (2, 1)]
    sizes, mats = expand_dense(ecc)
    check_matrices(sizes, mats)
    assert homology_of(sizes, mats) == [(1, ()), (0, ())]


def test_square_rotations_untouched():
    ecc = orbit_decompose(cx.polygon_solid(4), cyclic(4), 2)
    assert [len(layer) for layer in ecc.orbits] == [1, 1, 1]
    assert ecc.orbits[2][0].chi == (1,)
    assert set(ecc.orbits[2][0].character().values()) == {1}
    assert ecc.counts == (4, 4, 1)


def test_square_dihedral_inventory():
    ecc = orbit_decompose(cx.polygon_solid(4), dihedral(4), 2)
    assert [o.chi for layer in ecc.orbits for o in layer] == [(1,), (-1,), (1, -1)]
    inv = [[(o.stab_order, o.size) for o in layer] for layer in ecc.orbits]
    assert inv == [[(2, 4)], [(2, 4)], [(8, 1)]]
    # the rotations keep the square's orientation, the reflections reverse it
    rotations = set(cyclic(4).elements())
    chi = ecc.orbits[2][0].character()
    assert set(chi) == set(dihedral(4).elements())
    assert all(s == (1 if h in rotations else -1) for h, s in chi.items())


def test_character_must_be_a_homomorphism():
    # a 3-cycle cannot reverse an orientation: its cube is the identity
    c3 = cyclic(3)
    assert CellOrbit(0, (0,), c3, (1,), 1, ()).character() == dict.fromkeys(c3.elements(), 1)
    with pytest.raises(InvariantViolation, match="homomorphism"):
        CellOrbit(0, (0,), c3, (-1,), 1, ()).character()


def test_square_klein_four():
    ecc = orbit_decompose(cx.polygon_solid(4), klein_four(), 2)
    assert ecc.counts == (4, 4, 1)
    assert [o.chi for layer in ecc.orbits for o in layer] == [(), (-1,), (-1,), (-1, 1)]
    sizes, mats = expand_dense(ecc)
    check_matrices(sizes, mats)
    assert homology_of(sizes, mats) == [(1, ()), (0, ()), (0, ())]


def test_tetrahedron_a4():
    ecc = orbit_decompose(cx.simplex_complex(4), alternating(4), 3)
    assert ecc.counts == (4, 6, 4, 1)
    assert ecc.orbits[1][0].chi == (-1,)
    assert ecc.orbits[3][0].chi == (1, 1)
    sizes, mats = expand_dense(ecc)
    check_matrices(sizes, mats)
    assert homology_of(sizes, mats) == [(1, ()), (0, ()), (0, ()), (0, ())]


def test_hexagon_s3():
    g = PermGroup([(2, 3, 4, 5, 0, 1), (1, 0, 5, 4, 3, 2)], 6)
    assert g.order() == 6
    ecc = orbit_decompose(cx.polygon_solid(6), g, 2)
    assert ecc.stab_orders(0) == (1,)
    assert -1 not in ecc.orbits[0][0].chi
    assert [o.chi for o in ecc.orbits[1]] == [(-1,), (-1,)]
    assert ecc.orbits[2][0].chi == (1, -1)
    sizes, mats = expand_dense(ecc)
    check_matrices(sizes, mats)
    assert homology_of(sizes, mats) == [(1, ()), (0, ()), (0, ())]


def test_more_solids_expand_to_point():
    cases = [
        (cx.polygon_solid(3), cyclic(3)),
        (cx.polygon_solid(6), cyclic(6)),
        (cx.simplex_complex(3), symmetric(3)),
    ]
    for K, g in cases:
        ecc = orbit_decompose(K, g, K.d)
        sizes, mats = expand_dense(ecc)
        check_matrices(sizes, mats)
        hom = homology_of(sizes, mats)
        assert hom[0] == (1, ())
        assert all(h == (0, ()) for h in hom[1:])


def test_lazy_counts_match_materialized():
    for V in [(0,), (1,), (0, 2), (0, 1, 2), (2, 3), (0, 3)]:
        sf = SimplexFlags(5, V)
        top = sf.poset.max_height
        ecc = orbit_decompose(sf, PermGroup([], 5), top)
        W = oc.wythoff_complex(oc.simplex_boundary(5), V)
        assert list(ecc.counts) == [len(W.faces_of_dim(k)) for k in range(top + 1)]
        assert all(o.stab_order == 1 for layer in ecc.orbits for o in layer)


def test_lazy_group_orbits():
    for g in [symmetric(5), alternating(5), cyclic(5)]:
        ecc = orbit_decompose(SimplexFlags(5, (0, 2)), g, 3)
        assert ecc.counts == (30, 90, 80, 20)
        for k, layer in enumerate(ecc.orbits):
            assert sum(o.size for o in layer) == ecc.counts[k]
    # odd order rules out orientation reversal outright
    ecc = orbit_decompose(SimplexFlags(5, (0, 2)), cyclic(5), 3)
    assert all(-1 not in o.chi for layer in ecc.orbits for o in layer)


def test_a5_full_flags_sphere():
    ecc = orbit_decompose(SimplexFlags(5, (0, 1, 2, 3)), alternating(5), 3)
    assert ecc.counts == (120, 240, 150, 30)
    sizes, mats = expand_dense(ecc)
    check_matrices(sizes, mats)
    assert homology_of(sizes, mats) == [(1, ()), (0, ()), (0, ()), (1, ())]


def test_m23_vertex_orbits():
    ecc = orbit_decompose(SimplexFlags(23, (0, 1, 2, 3, 4)), mathieu(23), 0)
    assert len(ecc.orbits[0]) == 2
    assert sorted(ecc.stab_orders(0)) == [3, 16]
    assert ecc.counts[0] == 23 * 22 * 21 * 20 * 19


def test_m22_vertex_orbit():
    ecc = orbit_decompose(SimplexFlags(22, (0, 1, 2)), mathieu(22), 0)
    assert len(ecc.orbits[0]) == 1
    assert ecc.stab_orders(0) == (48,)
    assert ecc.counts[0] == 22 * 21 * 20


def test_compatible_chains_counts():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(3, 9)
        sizes_all = sorted(rng.sample(range(1, n), rng.randint(1, min(4, n - 1))))
        cell_sizes = sorted(rng.sample(range(1, n), rng.randint(1, min(4, n - 1))))
        pool = list(range(n))
        rng.shuffle(pool)
        cell = []
        prev: list = []
        for s in cell_sizes:
            prev = sorted(prev + pool[len(prev):s])
            cell.append(tuple(prev))
        cell = tuple(cell)
        got = _compatible_chains(cell, sizes_all, n)
        assert len(set(got)) == len(got)
        want = cx.flag_extension_count(
            n, [s - 1 for s in cell_sizes], [s - 1 for s in sizes_all]
        )
        assert len(got) == want


def test_json_export():
    ecc = orbit_decompose(cx.polygon_solid(4), dihedral(4), 2)
    assert ecc.group.order() == 8
    assert ecc.counts == (4, 4, 1)
    assert len(ecc.orbits) == 3
    o = ecc.orbits[1][0]
    assert o.stab_order == 2 and o.chi == (-1,)
    for c, g, j in o.boundary:
        assert c in (1, -1) and len(g) == 4 and isinstance(j, int)


def test_act_cell_shapes():
    g = (1, 2, 0)
    assert act_cell(g, (0, 1)) == (1, 2)
    assert act_cell(g, ((0,), (0, 2))) == ((1,), (0, 1))


def test_materialized_rejects_bad_input():
    one_vertex = cx.DComplex([(0,)], [0], [set()])
    with pytest.raises(TypeError):
        orbit_decompose(one_vertex, PermGroup([], 1), 0)
    bad = PermGroup([(1, 0, 2, 3)], 4)
    with pytest.raises(InvariantViolation, match="does not preserve the complex"):
        orbit_decompose(cx.polygon_boundary(4), bad, 1)
    with pytest.raises(TypeError):
        orbit_decompose("triangle", PermGroup([], 3), 1)


def _published(ecc) -> str:
    """Every published field of the orbit records, as JSON."""
    def rec(o):
        return [o.dim, o.rep, [list(g) for g in o.stab.generators], o.chi, o.size,
                [[s, list(g), j] for s, g, j in o.boundary]]
    return json.dumps([[rec(o) for o in lay] for lay in ecc.orbits], separators=(",", ":"))


# sha256 of _published, recorded while the reversing orbits were still
# also coned into a second layer; same seeds in the same order must give
# the same stabilizer generators, characters, transporters and boundary
# words
@pytest.mark.parametrize("make, counts, sha256", [
    (lambda: orbit_decompose(cx.polygon_solid(12), dihedral(12), 2), (1, 1, 1),
     "21a1b71591a723c9e5bc8cd752b818b2b3594a79e66a752a45ff6bb7293ea111"),
    (lambda: orbit_decompose(cx.polygon_solid(4), cyclic(4), 2), (1, 1, 1),
     "702464a828ea923df49774abab2bbaa4a0b43b1ecfab81fa6c77eadf11f263f5"),
    (lambda: orbit_decompose(cx.simplex_complex(4), alternating(4), 3), (1, 1, 1, 1),
     "c7fbe692f1a048d4c420280f8a5951215b38d71e9c07941b7148407b8ac7b10c"),
    (lambda: orbit_decompose(SimplexFlags(5, (0, 1)), symmetric(5), 4), (1, 2, 2, 2),
     "2e349e3a3493367b96881a7ed89370bc149b131e5d170881fd059ab7f1feddef"),
    (lambda: orbit_decompose(SimplexFlags(5, (1, 2)), alternating(5), 4), (1, 2, 3, 2),
     "cc399be40d20095cb6671263f91e8f000dc9cf632c5f808ed94efcf9872ac34a"),
], ids=["D12-polygon", "C4-polygon", "A4-simplex", "S5-flags-01", "A5-flags-12"])
def test_published_records_are_pinned(make, counts, sha256):
    ecc = make()
    assert tuple(len(layer) for layer in ecc.orbits) == counts
    assert hashlib.sha256(_published(ecc).encode()).hexdigest() == sha256
