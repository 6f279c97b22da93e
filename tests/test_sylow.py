import random

import pytest

from permhomology.catalog import (
    alternating,
    group_from_cycles,
    mathieu,
    symmetric,
)
from permhomology.perm import conj, parse_cycles, power
from permhomology.perm import order as perm_order
from permhomology.permgroup import PermGroup
from permhomology.sylow import (
    CyclicConjOrbit,
    double_cosets,
    element_of_order,
    p_part,
    subgroup_normalizer,
    sylow_ascent,
    weyl_exponent,
)


def brute_normalizer_image(G, x):
    """Scan the whole group: order of N_G(<x>) and the set of exponents m
    with g x g^-1 = x^m realized by some g."""
    m = perm_order(x)
    sub = {power(x, j): j for j in range(m)}
    norm = 0
    residues = set()
    for g in G.elements():
        y = conj(g, x)
        if y in sub:
            norm += 1
            residues.add(sub[y])
    return norm, residues


def test_p_part_helpers():
    assert p_part(720, 2) == 16
    assert p_part(720, 5) == 5
    assert p_part(7, 3) == 1
    assert p_part(27, 3) == 27
    assert p_part(12, 2) != 12
    assert p_part(1, 5) == 1


def test_element_of_order():
    for G, p in [(symmetric(5), 5), (symmetric(6), 3), (mathieu(11), 11)]:
        x = element_of_order(G, p)
        assert perm_order(x) == p
        assert G.contains(x)


def test_cyclic_orbit_against_brute_force():
    cases = [
        (symmetric(4), 3),
        (alternating(4), 3),
        (alternating(5), 5),
        (symmetric(5), 5),
        (symmetric(6), 5),
        (group_from_cycles(["(1,2,3,4,5,6,7)", "(2,3,5)(4,7,6)"], 7), 7),
    ]
    for G, p in cases:
        x = element_of_order(G, p)
        orb = CyclicConjOrbit(G, x)
        norm, residues = brute_normalizer_image(G, x)
        assert orb.normalizer_order == norm
        assert orb.aut_image() == residues
        assert orb.size == G.order() // norm


def test_cyclic_orbit_composite_order():
    orb = CyclicConjOrbit(symmetric(4), parse_cycles("(1,2,3,4)", 4))
    assert orb.size == 3
    assert orb.normalizer_order == 8
    assert orb.aut_image() == {1, 3}
    N = orb.normalizer()
    assert N.order() == 8
    x = parse_cycles("(1,2,3,4)", 4)
    sub = {power(x, j) for j in range(4)}
    assert all(conj(g, x) in sub for g in N.generators)


def test_weyl_exponent_values():
    w = weyl_exponent(symmetric(5), 5)
    assert w.exponent == 4
    assert w.normalizer_order == 20
    assert w.pattern == "8k-1"
    w = weyl_exponent(alternating(5), 5)
    assert w.exponent == 2
    assert w.pattern == "4k-1"
    w = weyl_exponent(alternating(4), 3)
    assert w.exponent == 1
    assert w.pattern == "2k-1"


def test_weyl_witnesses_verified():
    w = weyl_exponent(symmetric(6), 5)
    assert w.witnesses
    for m, g in w.witnesses:
        assert conj(g, w.element) == power(w.element, m)


def test_weyl_rejects_nonprime_sylow():
    with pytest.raises(ValueError):
        weyl_exponent(symmetric(4), 2)
    with pytest.raises(ValueError):
        weyl_exponent(symmetric(4), 5)


def test_weyl_mathieu_11():
    # small enough to keep here; the full table lives in the acceptance run
    w = weyl_exponent(mathieu(11), 11)
    assert w.exponent == 5
    assert w.normalizer_order == 55
    w = weyl_exponent(mathieu(11), 5)
    assert w.exponent == 4


def test_sylow_ascent_classic_groups():
    cases = [
        (symmetric(4), 2),
        (symmetric(4), 3),
        (alternating(4), 2),
        (symmetric(5), 2),
        (symmetric(6), 3),
        (symmetric(7), 7),
        (alternating(6), 2),
    ]
    for G, p in cases:
        P = sylow_ascent(G, p)
        assert P.order() == p_part(G.order(), p)
        assert G.contains_group(P)
        assert all(
            p_part(perm_order(g), p) == perm_order(g) for g in P.elements()
        )


def test_sylow_ascent_trivial():
    assert sylow_ascent(symmetric(4), 5).order() == 1


def test_sylow_ascent_mathieu_3():
    assert sylow_ascent(mathieu(11), 3).order() == 9
    P = sylow_ascent(mathieu(12), 3)
    assert P.order() == 27
    assert mathieu(12).contains_group(P)


def test_sylow_ascent_seed_deterministic():
    a = sylow_ascent(symmetric(6), 2, seed=5)
    b = sylow_ascent(symmetric(6), 2, seed=5)
    assert a.generators == b.generators


def test_subgroup_normalizer():
    S4 = symmetric(4)
    V4 = group_from_cycles(["(1,2)(3,4)", "(1,3)(2,4)"], 4)
    assert subgroup_normalizer(S4, V4).order() == 24
    assert subgroup_normalizer(S4, group_from_cycles(["(1,2)"], 4)).order() == 4
    A4 = alternating(4)
    C3 = group_from_cycles(["(1,2,3)"], 4)
    assert subgroup_normalizer(A4, C3).order() == 3


def test_double_cosets_partition():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randrange(3, 6)
        G = symmetric(n)
        h = tuple(rng.sample(range(n), n))
        H = PermGroup([h], n)
        reps = double_cosets(G, H)
        els = set(G.elements())
        hels = H.elements()
        # the double cosets of the reps partition G
        seen = set()
        for r in reps:
            from permhomology.perm import mul

            dc = {mul(a, mul(r, b)) for a in hels for b in hels}
            assert not (dc & seen)
            seen |= dc
        assert seen == els
        # reps are minimal in their cosets and sorted
        assert reps == sorted(reps)


def test_double_cosets_example():
    S3 = symmetric(3)
    H = group_from_cycles(["(1,2)"], 3)
    assert len(double_cosets(S3, H)) == 2
