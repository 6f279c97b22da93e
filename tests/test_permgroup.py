import hashlib
import random

import pytest

from permhomology.catalog import mathieu
from permhomology.errors import CapExceeded
from permhomology.perm import (
    conj,
    format_cycles,
    from_images_1based,
    identity,
    inv,
    mul,
    order,
    parse_cycles,
    power,
)
from permhomology.permgroup import PermGroup
from permhomology.sylow import sylow_ascent


def to_images_1based(p: tuple) -> list:
    """The JSON input form of p, the inverse of from_images_1based."""
    return [a + 1 for a in p]


def mulclose(gens, degree, maxsize=200000):
    """Naive closure, the oracle for chain-based orders and membership."""
    els = {identity(degree)}
    frontier = list(els)
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                b = mul(a, g)
                if b not in els:
                    els.add(b)
                    new.append(b)
                    assert len(els) <= maxsize
        frontier = new
    return els


def sym(n):
    gens = [parse_cycles("(1,2)", n), parse_cycles("(" + ",".join(str(i) for i in range(1, n + 1)) + ")", n)]
    return PermGroup(gens, n)


def test_mul_applies_right_factor_first():
    p = parse_cycles("(1,2)", 3)
    q = parse_cycles("(2,3)", 3)
    # (p*q)(x) = p(q(x)): 3 -> 2 -> 1
    assert mul(p, q)[2] == 0


def test_inverse_and_power():
    p = parse_cycles("(1,2,3,4,5)", 6)
    assert mul(p, inv(p)) == identity(6)
    assert power(p, 5) == identity(6)
    assert power(p, -2) == power(inv(p), 2)
    assert order(p) == 5


def test_conj_moves_support():
    g = parse_cycles("(1,2)", 4)
    x = parse_cycles("(1,3,4)", 4)
    y = conj(g, x)
    # conjugating relabels points by g: cycle (1,3,4) becomes (2,3,4)
    assert y == parse_cycles("(2,3,4)", 4)


def test_cycle_string_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        img = list(range(9))
        rng.shuffle(img)
        p = tuple(img)
        assert parse_cycles(format_cycles(p), 9) == p
    assert format_cycles(identity(5)) == "()"
    assert parse_cycles("()", 5) == identity(5)


def test_cycle_string_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_cycles("(0,1)", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1,2)(2,3)", 4)
    with pytest.raises(ValueError):
        parse_cycles("1,2", 4)


def test_images_1based_roundtrip():
    p = parse_cycles("(1,3)(2,4)", 4)
    assert from_images_1based(to_images_1based(p)) == p
    with pytest.raises(ValueError):
        from_images_1based([1, 1, 2])


def test_symmetric_group_orders():
    for n in range(2, 8):
        import math

        assert sym(n).order() == math.factorial(n)


def test_order_against_closure_random_groups():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(4, 8)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            img = list(range(n))
            rng.shuffle(img)
            gens.append(tuple(img))
        G = PermGroup(gens, n)
        els = mulclose(gens, n)
        assert G.order() == len(els)
        for g in rng.sample(sorted(els), min(10, len(els))):
            assert G.contains(g)
        img = list(range(n))
        rng.shuffle(img)
        assert G.contains(tuple(img)) == (tuple(img) in els)


def test_elements_enumeration_matches_closure():
    G = sym(4)
    els = G.elements()
    assert len(els) == 24
    assert len(set(els)) == 24
    assert set(els) == mulclose(G.generators, 4)
    # deterministic order
    assert els == sym(4).elements()


def chain_order_elements(G):
    """G's elements in the chain order, by the per-product comprehension
    that element indices and saved resolutions were pinned with."""
    base, _, trans = G.chain()
    out = [identity(G.degree)]
    for i in reversed(range(len(base))):
        us = [trans[i][pt] for pt in sorted(trans[i])]
        out = [tuple(u[j] for j in x) for u in us for x in out]
    return out


@pytest.mark.parametrize("which", ["S5", "M11", "M11-sylow-2", "M11-sylow-3"])
def test_elements_order_pinned(which):
    if which == "S5":
        G = sym(5)
    else:
        G = mathieu(11)
        if which != "M11":
            G = sylow_ascent(G, int(which[-1]))
    els = G.elements()
    assert len(els) == G.order()
    assert els == chain_order_elements(G)
    if which == "M11":
        # the chain itself is pinned too: M11's list as first recorded
        digest = hashlib.sha256(repr(els).encode()).hexdigest()
        assert digest[:12] == "3d87d2e820da"


def test_elements_cap():
    with pytest.raises(CapExceeded):
        sym(13).elements(cap=10**6)


def test_point_stabilizer_orders():
    G = sym(5)
    assert G.point_stabilizer((0,)).order() == 24
    assert G.point_stabilizer((0, 1)).order() == 6
    H = G.point_stabilizer((2,))
    assert all(g[2] == 2 for g in H.generators)
    A4 = PermGroup([parse_cycles("(1,2,3)", 4), parse_cycles("(2,3,4)", 4)])
    assert A4.order() == 12
    assert A4.point_stabilizer((0,)).order() == 3


def test_base_prefix_kept_even_when_fixed():
    # the group fixes point 3; a prefixed chain must still report it
    G = PermGroup([parse_cycles("(1,2)", 4)], 4, base_prefix=(3,))
    assert G.base[0] == 3
    assert G.order() == 2
    assert G.point_stabilizer((3,)).order() == 2


def test_setwise_stabilizer():
    G = sym(4)
    H = G.setwise_stabilizer((0, 1))
    assert H.order() == 4
    assert all(sorted(g[x] for x in (0, 1)) == [0, 1] for g in H.generators)
    A4 = PermGroup([parse_cycles("(1,2,3)", 4), parse_cycles("(2,3,4)", 4)])
    assert A4.setwise_stabilizer((0, 1)).order() == 2


def test_setwise_stabilizer_against_closure():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randrange(4, 7)
        img = list(range(n))
        rng.shuffle(img)
        gens = [tuple(img), parse_cycles("(1,2)", n)]
        G = PermGroup(gens, n)
        s = tuple(sorted(rng.sample(range(n), rng.randrange(1, n))))
        expect = [g for g in mulclose(gens, n) if tuple(sorted(g[x] for x in s)) == s]
        assert G.setwise_stabilizer(s).order() == len(expect)


def test_chain_stabilizer_is_intersection():
    G = sym(5)
    H = G.chain_stabilizer([(0, 1), (0, 1, 2, 3)])
    # stabilize {0,1} and {0,1,2,3}: 2! * 2! * 1! = 4
    assert H.order() == 4


def test_orbits():
    G = PermGroup([parse_cycles("(1,2)", 4)], 4)
    assert G.orbits() == [(0, 1), (2,), (3,)]
    assert sym(5).orbit(3) == (0, 1, 2, 3, 4)


def test_orbits_are_worked_out_once(monkeypatch):
    G = PermGroup([parse_cycles("(1,2)(3,4)", 5)], 5)
    walks = []
    monkeypatch.setattr(G, "orbit", lambda x: walks.append(x) or PermGroup.orbit(G, x))
    first = G.orbits()
    first.append(None)  # a caller's list is its own
    assert G.orbits() == [(0, 1), (2, 3), (4,)]
    assert walks == [0, 2, 4]


def test_random_elements_deterministic_and_members():
    G = sym(5)
    it1 = G.random_elements(seed=3)
    it2 = G.random_elements(seed=3)
    sample = [next(it1) for _ in range(20)]
    assert sample == [next(it2) for _ in range(20)]
    assert all(G.contains(g) for g in sample)


def test_exponent_and_abelian():
    G = sym(3)
    assert not G.is_abelian()
    assert G.exponent() == 6
    C = PermGroup([parse_cycles("(1,2,3,4)", 4)])
    assert C.is_abelian()
    assert C.exponent() == 4

