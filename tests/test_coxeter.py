import random
from math import comb, factorial

import pytest

import coxeter_oracles as oc
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
            assert oc.blocks(U, U, V)


def test_blocking_transitive():
    rng = random.Random(2)
    for _ in range(4):
        n = rng.randint(3, 5)
        V = rng.sample(range(n), rng.randint(1, n))
        subs = all_subsets(n)
        rel = {}
        for a in range(len(subs)):
            for b in range(len(subs)):
                rel[a, b] = oc.blocks(subs[a], subs[b], V)
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
                assert oc.blocks(U1, U2, V) == set(U2).issubset(set(U1))


def test_blocking_path_endpoint_case():
    # the A23 diagram is the interval ground {0..22}
    V = [0, 1, 2, 3, 4]
    assert not oc.blocks([5], [4], V)
    assert oc.blocks([4], [5], V)


def test_closure_operator_properties():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(2, 7)
        V = rng.sample(range(n), rng.randint(1, n))
        for _ in range(20):
            U = rng.sample(range(n), rng.randint(1, n))
            c = oc.closure(U, V, n)
            assert set(U) <= c
            assert oc.closure(c, V, n) == c
            U2 = set(U) | set(rng.sample(range(n), rng.randint(0, n)))
            assert c <= oc.closure(U2, V, n)
        # members of V are in a closure only when present themselves
        for v in V:
            U = [x for x in range(n) if x != v]
            assert v not in oc.closure(U, V, n)


def test_closed_sets_interval_matches_brute():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(1, 9)
        V = sorted(rng.sample(range(n), rng.randint(1, n)))
        fast = cx._closed_sets_interval(n, V)
        slow = oc.closed_sets_brute(n, V)
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
            closures[tuple(U)] = oc.closure(U, V, n)
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
                if oc.closure(U1, V, n) != oc.closure(U2, V, n):
                    continue
                meet = set(U1) & set(U2)
                join = set(U1) | set(U2)
                if meet:
                    assert oc.closure(meet, V, n) == oc.closure(U1, V, n)
                assert oc.closure(join, V, n) == oc.closure(U1, V, n)


def test_essential_poset_v_is_unique_bottom():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(1, 8)
        V = rng.sample(range(n), rng.randint(1, n))
        p = cx.essential_poset(n, V)
        assert p.classes[0].core == tuple(sorted(V))
        assert p.classes[0].height == 0
        assert len(p.at_height(0)) == 1
        assert oc.is_graded(p)


def test_b3_diagram_truncated_cube():
    # blocking ignores edge orders, so the B3 diagram is the path {0, 1, 2}
    p = cx.essential_poset(3, [1, 2])
    got = sorted((c.core, c.height) for c in p.classes)
    assert got == [((0,), 2), ((0, 2), 1), ((1,), 1), ((1, 2), 0), ((2,), 2)]
    assert p.max_height == 2
    orders = {(): 1, (0,): 2, (1,): 2, (2,): 2, (0, 1): 6, (0, 2): 4,
              (1, 2): 8, (0, 1, 2): 48}
    # cells per class: group order over the parabolic of the core's complement
    by_height = {}
    for c in p.classes:
        v = 48 // orders[tuple(sorted({0, 1, 2} - set(c.core)))]
        by_height[c.height] = by_height.get(c.height, 0) + v
    assert by_height == {0: 24, 1: 36, 2: 14}
    assert 24 - 36 + 14 == 2


def test_b3_solid_model_has_height_three():
    # dims of the solid cube complex {0..3}; the body dimension adds one level
    p = cx.essential_poset(4, [1, 2])
    assert len(p.classes) == 8
    assert p.max_height == 3


def test_a23_posets_and_rank_one_types():
    expected = [(0, 1, 2, 3, 5), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4),
                (1, 2, 3, 4)]
    pb = cx.essential_poset(23, [0, 1, 2, 3, 4])
    assert len(pb.classes) == 319
    assert pb.max_height == 22
    assert sorted(pb.classes[i].core for i in pb.at_height(1)) == expected
    pf = cx.essential_poset(24, [0, 1, 2, 3, 4])
    assert len(pf.classes) == 335
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
    assert len(p.classes) == 15
    for c in p.classes:
        assert c.core == c.closed
        assert c.height == 4 - len(c.core)
    fc = cx.simplex_face_counts(cx.essential_poset(2, [0, 1]), 3)
    assert sorted(fc.values()) == [3, 3, 6]


def test_simplex_complex_counts():
    K = cx.simplex_complex(3)
    assert len(K.labels) == 7
    assert oc.face_counts(K) == {0: 3, 1: 3, 2: 1}
    K.validate_complex()
    K4 = cx.simplex_complex(4)
    assert oc.face_counts(K4) == {k: comb(4, k + 1) for k in range(4)}
    B = oc.simplex_boundary(4)
    assert oc.face_counts(B) == {0: 4, 1: 6, 2: 4}
    B.validate_complex()
    with pytest.raises(CapExceeded):
        cx.simplex_complex(24)


def test_flag_count_formula_against_enumeration():
    rng = random.Random(10)
    for n in (3, 4, 5, 6):
        K = cx.simplex_complex(n)
        for _ in range(6):
            dims = sorted(rng.sample(range(n), rng.randint(1, n)))
            want = sum(1 for _ in oc.flags_of_type(K, dims))
            assert cx.flag_extension_count(n, (), dims) == want


def test_flag_count_matches_parabolic_formula():
    # two independent routes to the same number: the parabolic generated
    # by a node set of the A path has order the product of (run + 1)!
    # over its runs of consecutive nodes
    def parabolic_order(nodes):
        total, run, prev = 1, 0, None
        for s in sorted(nodes):
            if prev is not None and s == prev + 1:
                run += 1
            else:
                total *= factorial(run + 1)
                run = 1
            prev = s
        return total * factorial(run + 1)

    rng = random.Random(11)
    for n in (4, 5, 6, 24):
        for _ in range(10):
            dims = sorted(rng.sample(range(n - 1), rng.randint(1, min(n - 1, 6))))
            via_parabolic = factorial(n) // parabolic_order(set(range(n - 1)) - set(dims))
            assert cx.flag_extension_count(n, (), dims) == via_parabolic


def test_flag_extension_count_against_enumeration():
    rng = random.Random(12)
    for n in (4, 5, 6):
        K = cx.simplex_complex(n)
        for _ in range(8):
            vdims = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
            tdims = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
            base = next(oc.flags_of_type(K, vdims))
            want = 0
            for flag in oc.flags_of_type(K, tdims):
                if oc.chain_union(K, base, flag):
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
    cube = oc.hypercube_boundary(3)
    w = oc.wythoff_complex(cube, [0])
    w.validate_complex()
    assert oc.face_counts(w) == oc.face_counts(cube)
    # the flags are singletons; order must match the original exactly
    back = {i: w.labels[i][1][0] for i in range(len(w.labels))}
    for j in range(len(w.labels)):
        assert {back[i] for i in w.below[j]} == set(cube.below[back[j]])


def test_wythoff_cube_dual_is_octahedron():
    cube = oc.hypercube_boundary(3)
    w = oc.wythoff_complex(cube, [2])
    w.validate_complex()
    octa = oc.cross_polytope_boundary(3)
    assert oc.face_counts(w) == {0: 6, 1: 12, 2: 8}
    assert oc.poset_isomorphic(w, octa)
    assert not oc.poset_isomorphic(cube, octa)
    assert oc.poset_isomorphic(cube, cube)


def test_wythoff_b3_cube_model_matches_diagram_counts():
    cube = oc.hypercube_boundary(3)
    w = oc.wythoff_complex(cube, [1, 2])
    w.validate_complex()
    assert oc.face_counts(w) == {0: 24, 1: 36, 2: 14}
    assert oc.euler_characteristic(w) == 2


def test_wythoff_hexagon():
    tri = oc.simplex_boundary(3)
    h = oc.wythoff_complex(tri, [0, 1])
    h.validate_complex()
    assert oc.face_counts(h) == {0: 6, 1: 6}
    endpoint = {}
    for i, j in h.covers():
        endpoint.setdefault(j, set()).add(i)
    assert all(len(v) == 2 for v in endpoint.values())
    # closed walk: the hexagon is a single cycle
    assert oc.euler_characteristic(h) == 0


def test_wythoff_spheres_euler():
    cube = oc.hypercube_boundary(3)
    for V in ([0], [1], [2], [0, 1], [1, 2], [0, 2], [0, 1, 2]):
        w = oc.wythoff_complex(cube, V)
        w.validate_complex()
        assert oc.euler_characteristic(w) == 2
    s4 = oc.simplex_boundary(4)
    for V in ([0], [0, 1], [0, 1, 2], [1, 2]):
        w = oc.wythoff_complex(s4, V)
        w.validate_complex()
        assert oc.euler_characteristic(w) == 2
    s5 = oc.simplex_boundary(5)
    w = oc.wythoff_complex(s5, [0, 1, 2, 3])
    w.validate_complex()
    assert oc.face_counts(w) == {0: 120, 1: 240, 2: 150, 3: 30}
    assert oc.euler_characteristic(w) == 0


def test_polygon_boundary():
    p = cx.polygon_boundary(6)
    p.validate_complex()
    assert oc.face_counts(p) == {0: 6, 1: 6}
    with pytest.raises(ValueError):
        cx.polygon_boundary(2)


def test_solidify():
    for n in [2, 3, 4]:
        solid = cx.solidify(oc.simplex_boundary(n))
        solid.validate_complex()
        assert oc.poset_isomorphic(solid, cx.simplex_complex(n))
    sq = cx.polygon_solid(4)
    sq.validate_complex()
    assert oc.face_counts(sq) == {0: 4, 1: 4, 2: 1}
    assert oc.euler_characteristic(sq) == 1
    with pytest.raises(ValueError):
        cx.solidify(sq)
