import random
from itertools import combinations
from math import comb, factorial

import pytest

from permhomology import coxeter as cx
from permhomology.errors import CapExceeded


def all_subsets(n):
    out = []
    for m in range(1, 1 << n):
        out.append([i for i in range(n) if m >> i & 1])
    return out


def test_blocking_reflexive():
    rng = random.Random(1)
    for _ in range(8):
        n = rng.randint(2, 7)
        V = rng.sample(range(n), rng.randint(1, n))
        for U in all_subsets(n):
            assert cx.blocks(U, U, V, n)


def test_blocking_transitive():
    rng = random.Random(2)
    for _ in range(4):
        n = rng.randint(3, 5)
        V = rng.sample(range(n), rng.randint(1, n))
        subs = all_subsets(n)
        rel = {}
        for a in range(len(subs)):
            for b in range(len(subs)):
                rel[a, b] = cx.blocks(subs[a], subs[b], V, n)
        for a in range(len(subs)):
            for b in range(len(subs)):
                if not rel[a, b]:
                    continue
                for c in range(len(subs)):
                    if rel[b, c]:
                        assert rel[a, c]


def test_blocking_v_equals_s_is_reverse_inclusion():
    rng = random.Random(3)
    for _ in range(6):
        n = rng.randint(2, 6)
        V = list(range(n))
        for U1 in all_subsets(n):
            for U2 in all_subsets(n):
                assert cx.blocks(U1, U2, V, n) == set(U2).issubset(set(U1))


def test_blocking_path_endpoint_case():
    # the A23 diagram is the interval ground {0..22}
    V = [0, 1, 2, 3, 4]
    assert not cx.blocks([5], [4], V, 23)
    assert cx.blocks([4], [5], V, 23)


def test_closure_operator_properties():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(2, 7)
        V = rng.sample(range(n), rng.randint(1, n))
        for _ in range(20):
            U = rng.sample(range(n), rng.randint(1, n))
            c = cx.closure(U, V, n)
            assert set(U) <= c
            assert cx.closure(c, V, n) == c
            U2 = set(U) | set(rng.sample(range(n), rng.randint(0, n)))
            assert c <= cx.closure(U2, V, n)
        # members of V are in a closure only when present themselves
        for v in V:
            U = [x for x in range(n) if x != v]
            assert v not in cx.closure(U, V, n)


def test_closed_sets_interval_matches_brute():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(1, 9)
        V = sorted(rng.sample(range(n), rng.randint(1, n)))
        fast = cx._closed_sets_interval(n, V)
        slow = cx._closed_sets_brute(cx._Interval(n), V)
        assert fast == slow


def test_essential_poset_mutual_blocking_classes():
    # cores and closures really are the min and max of blocking classes
    rng = random.Random(6)
    for _ in range(6):
        n = rng.randint(2, 6)
        V = rng.sample(range(n), rng.randint(1, n))
        p = cx.essential_poset(n, V)
        closures = {}
        for U in all_subsets(n):
            closures[tuple(U)] = cx.closure(U, V, n)
        assert set(closures.values()) == {frozenset(c.closed) for c in p.classes}
        for c in p.classes:
            members = [U for U, cl in closures.items() if cl == frozenset(c.closed)]
            small = min(members, key=len)
            big = max(members, key=len)
            assert set(small) == set(c.core)
            assert set(big) == set(c.closed)
            # the class is the inclusion interval [core, closure]
            for U in members:
                assert set(c.core) <= set(U) <= set(c.closed)


def test_equivalent_sets_meet_and_join():
    rng = random.Random(7)
    for _ in range(6):
        n = rng.randint(2, 6)
        V = rng.sample(range(n), rng.randint(1, n))
        subs = all_subsets(n)
        for U1 in subs:
            for U2 in subs:
                if cx.closure(U1, V, n) != cx.closure(U2, V, n):
                    continue
                meet = set(U1) & set(U2)
                join = set(U1) | set(U2)
                if meet:
                    assert cx.closure(meet, V, n) == cx.closure(U1, V, n)
                assert cx.closure(join, V, n) == cx.closure(U1, V, n)


def test_essential_poset_v_is_unique_bottom():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(1, 8)
        V = rng.sample(range(n), rng.randint(1, n))
        p = cx.essential_poset(n, V)
        assert p.classes[p.bottom].core == tuple(sorted(V))
        assert p.classes[p.bottom].height == 0
        assert len(p.at_height(0)) == 1
        assert p.is_graded()


def test_b3_diagram_truncated_cube():
    # blocking ignores edge orders, so the B3 diagram is the path {0, 1, 2}
    p = cx.essential_poset(3, [1, 2])
    got = sorted((c.core, c.height) for c in p.classes)
    assert got == [((0,), 2), ((0, 2), 1), ((1,), 1), ((1, 2), 0), ((2,), 2)]
    assert p.max_height == 2
    orders = {(): 1, (0,): 2, (1,): 2, (2,): 2, (0, 1): 6, (0, 2): 4,
              (1, 2): 8, (0, 1, 2): 48}
    fc = cx.face_counts(p, 48, lambda s: orders[tuple(sorted(s))])
    by_height = {}
    for i, v in fc.items():
        by_height[p.classes[i].height] = by_height.get(p.classes[i].height, 0) + v
    assert by_height == {0: 24, 1: 36, 2: 14}
    assert 24 - 36 + 14 == 2


def test_b3_solid_model_has_height_three():
    # dims of the solid cube complex {0..3}; the body dimension adds one level
    p = cx.essential_poset(4, [1, 2])
    assert len(p) == 8
    assert p.max_height == 3


def test_a23_posets_and_rank_one_types():
    expected = [(0, 1, 2, 3, 5), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4),
                (1, 2, 3, 4)]
    pb = cx.essential_poset(23, [0, 1, 2, 3, 4])
    assert len(pb) == 319
    assert pb.max_height == 22
    assert sorted(pb.classes[i].core for i in pb.at_height(1)) == expected
    pf = cx.essential_poset(24, [0, 1, 2, 3, 4])
    assert len(pf) == 335
    assert pf.max_height == 23
    assert sorted(pf.classes[i].core for i in pf.at_height(1)) == expected


def test_max_height_simplex_model_is_polytope_dimension():
    rng = random.Random(9)
    for n in range(2, 9):
        for _ in range(4):
            V = rng.sample(range(n), rng.randint(1, n))
            assert cx.essential_poset(n, V).max_height == n - 1
    # and the boundary model stops one lower
    for n in range(3, 9):
        V = rng.sample(range(n - 1), rng.randint(1, n - 1))
        assert cx.essential_poset(n - 1, V).max_height == n - 2


def test_permutahedron_poset_is_reverse_inclusion():
    p = cx.essential_poset(4, range(4))
    assert len(p) == 15
    for c in p.classes:
        assert c.core == c.closed
        assert c.height == 4 - len(c.core)
    fc = cx.face_counts(cx.essential_poset(2, [0, 1]),
                        6, cx.symmetric_parabolic_order(3))
    assert sorted(fc.values()) == [3, 3, 6]


def test_simplex_complex_counts():
    K = cx.simplex_complex(3)
    assert len(K) == 7
    assert K.face_counts() == {0: 3, 1: 3, 2: 1}
    K.validate_complex()
    K4 = cx.simplex_complex(4)
    assert K4.face_counts() == {k: comb(4, k + 1) for k in range(4)}
    B = cx.simplex_boundary(4)
    assert B.face_counts() == {0: 4, 1: 6, 2: 4}
    B.validate_complex()
    with pytest.raises(CapExceeded):
        cx.simplex_complex(24)


def test_flag_count_formula_against_enumeration():
    rng = random.Random(10)
    for n in (3, 4, 5, 6):
        K = cx.simplex_complex(n)
        for _ in range(6):
            dims = sorted(rng.sample(range(n), rng.randint(1, n)))
            want = sum(1 for _ in K.flags_of_type(dims))
            assert cx.count_flags_simplex(n, dims) == want


def test_flag_count_matches_parabolic_formula():
    # two independent routes to the same number
    rng = random.Random(11)
    for n in (4, 5, 6, 24):
        par = cx.symmetric_parabolic_order(n)
        for _ in range(10):
            dims = sorted(rng.sample(range(n - 1), rng.randint(1, min(n - 1, 6))))
            via_parabolic = factorial(n) // par(set(range(n - 1)) - set(dims))
            assert cx.count_flags_simplex(n, dims) == via_parabolic


def test_flag_extension_count_against_enumeration():
    rng = random.Random(12)
    for n in (4, 5, 6):
        K = cx.simplex_complex(n)
        for _ in range(8):
            vdims = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
            tdims = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
            base = next(K.flags_of_type(vdims))
            want = 0
            for flag in K.flags_of_type(tdims):
                if cx._chain_union(K, base, flag):
                    want += 1
            assert cx.flag_extension_count(n, vdims, tdims) == want


def test_m24_wythoff_counting():
    p = cx.essential_poset(23, [0, 1, 2, 3, 4])
    fc = cx.simplex_face_counts(p, 24)
    nv = sum(v for i, v in fc.items() if p.classes[i].height == 0)
    ne = sum(v for i, v in fc.items() if p.classes[i].height == 1)
    assert nv == 5100480
    assert ne == 58655520
    deg = cx.vertex_degree(p, 24)
    assert deg == 23
    assert nv * deg == 2 * ne


def test_wythoff_identity_on_cube():
    cube = cx.hypercube_boundary(3)
    w = cx.wythoff_complex(cube, [0])
    w.validate_complex()
    assert w.face_counts() == cube.face_counts()
    # the flags are singletons; order must match the original exactly
    back = {i: w.labels[i][1][0] for i in range(len(w))}
    for j in range(len(w)):
        assert {back[i] for i in w.below[j]} == set(cube.below[back[j]])


def test_wythoff_cube_dual_is_octahedron():
    cube = cx.hypercube_boundary(3)
    w = cx.wythoff_complex(cube, [2])
    w.validate_complex()
    octa = cx.cross_polytope_boundary(3)
    assert w.face_counts() == {0: 6, 1: 12, 2: 8}
    assert cx.poset_isomorphic(w, octa)
    assert not cx.poset_isomorphic(cube, octa)
    assert cx.poset_isomorphic(cube, cube)


def test_wythoff_b3_cube_model_matches_diagram_counts():
    cube = cx.hypercube_boundary(3)
    w = cx.wythoff_complex(cube, [1, 2])
    w.validate_complex()
    assert w.face_counts() == {0: 24, 1: 36, 2: 14}
    assert w.euler_characteristic() == 2


def test_wythoff_hexagon():
    tri = cx.simplex_boundary(3)
    h = cx.wythoff_complex(tri, [0, 1])
    h.validate_complex()
    assert h.face_counts() == {0: 6, 1: 6}
    endpoint = {}
    for i, j in h.covers():
        endpoint.setdefault(j, set()).add(i)
    assert all(len(v) == 2 for v in endpoint.values())
    # closed walk: the hexagon is a single cycle
    assert h.euler_characteristic() == 0


def test_wythoff_spheres_euler():
    cube = cx.hypercube_boundary(3)
    for V in ([0], [1], [2], [0, 1], [1, 2], [0, 2], [0, 1, 2]):
        w = cx.wythoff_complex(cube, V)
        w.validate_complex()
        assert w.euler_characteristic() == 2
    s4 = cx.simplex_boundary(4)
    for V in ([0], [0, 1], [0, 1, 2], [1, 2]):
        w = cx.wythoff_complex(s4, V)
        w.validate_complex()
        assert w.euler_characteristic() == 2
    s5 = cx.simplex_boundary(5)
    w = cx.wythoff_complex(s5, [0, 1, 2, 3])
    w.validate_complex()
    assert w.face_counts() == {0: 120, 1: 240, 2: 150, 3: 30}
    assert w.euler_characteristic() == 0


def test_dcomplex_json_roundtrip():
    cube = cx.hypercube_boundary(3)
    text = cube.to_json()
    back = cx.DComplex.from_json(text)
    assert back.dims == cube.dims
    assert sorted(back.covers()) == sorted(cube.covers())
    assert [frozenset(b) for b in back.below] == [frozenset(b) for b in cube.below]


def test_polygon_boundary():
    p = cx.polygon_boundary(6)
    p.validate_complex()
    assert p.face_counts() == {0: 6, 1: 6}
    with pytest.raises(ValueError):
        cx.polygon_boundary(2)


def test_solidify():
    for n in [2, 3, 4]:
        solid = cx.solidify(cx.simplex_boundary(n))
        solid.validate_complex()
        assert cx.poset_isomorphic(solid, cx.simplex_complex(n))
    sq = cx.polygon_solid(4)
    sq.validate_complex()
    assert sq.face_counts() == {0: 4, 1: 4, 2: 1}
    assert sq.euler_characteristic() == 1
    with pytest.raises(ValueError):
        cx.solidify(sq)
