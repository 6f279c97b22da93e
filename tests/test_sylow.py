import random
from math import gcd

import pytest

from double_coset_oracle import listing_double_cosets
from permhomology.catalog import (
    alternating,
    group_from_cycles,
    mathieu,
    symmetric,
)
from permhomology import sylow
from permhomology.errors import CapExceeded, InvariantViolation
from permhomology.intlinalg import factor, p_part
from permhomology.perm import conj, mul, parse_cycles, power
from permhomology.perm import order as perm_order
from permhomology.permgroup import PermGroup
from permhomology.sylow import (
    CyclicConjOrbit,
    double_cosets,
    element_of_order,
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


def least_unit_power(z):
    """The lex-least generator z**j of <z> over the units j mod |z|, and j."""
    m = perm_order(z)
    powers = [z]
    for _ in range(m - 2):
        powers.append(mul(z, powers[-1]))
    return min((powers[j - 1], j) for j in range(1, m) if gcd(j, m) == 1)


def reference_orbit(G, x):
    """The conjugation orbit of <x> walked one subgroup at a time, each
    keyed by its lex-least generator: the oracle for the search.

    Returns (orbit size, |N_G(<x>)|, image of N_G(<x>) in (Z/m)^*).  A node
    y with tree transporter t carries the unit c(y) with t x t^-1 = y**c(y);
    a closed edge y -> y' by g gives the Schreier generator
    t'^-1 g t, which conjugates x to x ** (c(y) c(y')^-1 / j) for
    g y g^-1 = y' ** (1/j), and those units generate the image.
    """
    m = perm_order(x)
    y0, j0 = least_unit_power(x)
    cval = {y0: pow(j0, -1, m)}
    queue = [y0]
    residues = {1}
    for y in queue:
        for g in G.generators:
            z, j = least_unit_power(conj(g, y))
            c = cval[y] * pow(j, -1, m) % m
            if z not in cval:
                cval[z] = c
                queue.append(z)
            else:
                residues.add(c * pow(cval[z], -1, m) % m)
    image = {1}
    while True:
        grown = image | {a * b % m for a in image for b in residues}
        if grown == image:
            break
        image = grown
    return len(queue), G.order() // len(queue), image


def check_search(G, x, want=None):
    """The search against the orbit walk, or against want = (size, |N|,
    image or None), and its normalizer generators against x."""
    orb = CyclicConjOrbit(G, x)
    want = want or reference_orbit(G, x)
    assert (orb.size, orb.normalizer_order) == want[:2]
    if want[2] is not None:
        assert orb.aut_image() == want[2]
    sub = {power(x, j) for j in range(orb.m)}
    N = orb.normalizer()
    assert all(conj(g, x) in sub for g in N.generators)
    assert N.order() == orb.normalizer_order
    return orb


@pytest.mark.parametrize("name", ["M11", "M12", "M21", "M22"])
def test_batched_orbit_matches_row_walk(name):
    # size, |N| and image of CyclicConjOrbit against the orbit walked row by row
    G = mathieu(int(name[1:]))
    for p in factor(G.order()):
        for seed in range(3):
            check_search(G, element_of_order(G, p, seed))


def mathieu_11_elements(orders, seed=0):
    stream = mathieu(11).random_elements(seed)
    found = {}
    while len(found) < len(orders):
        g = next(stream)
        if perm_order(g) in orders:
            found.setdefault(perm_order(g), g)
    return [found[o] for o in orders]


def test_batched_orbit_matches_row_walk_composite_orders():
    check_search(symmetric(4), parse_cycles("(1,2,3,4)", 4))
    # orders 4 and 8 in M11: the cyclic normalizers sylow_ascent takes
    for x in mathieu_11_elements((4, 8)):
        check_search(mathieu(11), x)
    # the base starts with the 3-cycle, so a is fixed mod 3 before the
    # 2-cycle is reached
    check_search(symmetric(6), parse_cycles("(1,2)(3,4,5)", 6))


# |N_G(<x>)| and the size of its image in (Z/p)^*, for x of order p
PINNED = {
    "M23": {5: (60, 4), 7: (42, 3), 11: (55, 5), 23: (253, 11)},
    "M24": {5: (240, 4), 7: (126, 3), 11: (110, 10), 23: (253, 11)},
}


@pytest.mark.parametrize("name", ["M23", "M24"])
@pytest.mark.parametrize("p", [5, 7, 11, 23])
def test_normalizer_order_pinned(name, p):
    G = mathieu(int(name[1:]))
    order, exponent = PINNED[name][p]
    orb = check_search(G, element_of_order(G, p, 0), (G.order() // order, order, None))
    assert len(orb.aut_image()) == exponent


def test_least_powers_composite_orders_in_s6():
    # every member of each class: the first moved point lies on a cycle
    # shorter than the order for some, and the base starts elsewhere; a
    # class holds every generator of each <y>, its least power among them
    S6 = symmetric(6)
    for cycles in ("(1,2)(3,4,5,6)", "(1,2)(3,4,5)", "(1,2,3,4)", "(1,2,3,4,5,6)"):
        x = parse_cycles(cycles, 6)
        norm, residues = brute_normalizer_image(S6, x)
        members = {conj(g, x) for g in S6.elements()}
        for y in sorted(members):
            assert least_unit_power(y)[0] in members
            check_search(S6, y, (720 // norm, norm, residues))


def test_least_powers_mathieu_11_order_eight():
    # each conjugate y and the least power of y generate one subgroup, and
    # list the 8-cycle in different orders at the head of the base
    M11 = mathieu(11)
    x = mathieu_11_elements((8,))[0]
    want = reference_orbit(M11, x)
    stream = M11.random_elements(2)
    for _ in range(40):
        y = conj(next(stream), x)
        check_search(M11, y, want)
        check_search(M11, least_unit_power(y)[0], want)


def test_search_verifies_each_element(monkeypatch):
    # an element that fails g x g^-1 = x^a is never taken into N
    monkeypatch.setattr(sylow, "conj", lambda g, x: g)
    with pytest.raises(InvariantViolation):
        CyclicConjOrbit(symmetric(5), parse_cycles("(1,2,3)", 5))


def test_orbit_cap_reports_attained(monkeypatch):
    monkeypatch.setattr(sylow, "NORMALIZER_SEARCH_CAP", 50)
    G = mathieu(22)
    with pytest.raises(CapExceeded) as info:
        CyclicConjOrbit(G, element_of_order(G, 7))
    # the part of N_G(<x>) (order 21) found before the cap
    assert info.value.attained == 3
    assert str(info.value) == "normalizer search exceeded cap 50 base images"


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
            assert r == min(dc)
            assert not (dc & seen)
            seen |= dc
        assert seen == els
        # reps are minimal in their cosets and sorted
        assert reps == sorted(reps)
        assert reps == listing_double_cosets(G, H)


@pytest.mark.parametrize("name", ["A6", "M11"])
def test_double_coset_reps_are_least(name):
    G = alternating(6) if name == "A6" else mathieu(11)
    P = sylow_ascent(G, 3)
    pels = P.elements()
    pset = set(pels)

    def compose(p, q):
        return tuple(p[i] for i in q)

    reps = double_cosets(G, P)
    assert reps == sorted(reps)
    total = 0
    for x in reps:
        dc = {compose(a, compose(x, b)) for a in pels for b in pels}
        assert x == min(dc)
        xi = tuple(sorted(range(G.degree), key=x.__getitem__))
        meet = sum(1 for k in pels if compose(xi, compose(k, x)) in pset)
        # |PxP| = |P|^2 / |P n xPx^-1|, and these sizes sum to |G|
        size = len(pels) ** 2 // meet
        assert len(dc) == size
        total += size
    assert total == G.order()


@pytest.mark.parametrize("m, p", [(11, 2), (11, 3), (12, 3), (21, 3)])
def test_double_cosets_match_listing_oracle(m, p):
    G = mathieu(m)
    P = sylow_ascent(G, p)
    assert double_cosets(G, P) == listing_double_cosets(G, P)


def test_double_cosets_never_list_the_group(monkeypatch):
    G = mathieu(12)
    P = sylow_ascent(G, 3)
    listed = PermGroup.elements

    def guarded(self, *args, **kwargs):
        if self.order() > P.order():
            raise AssertionError(f"listed a group of order {self.order()}")
        return listed(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "elements", guarded)
    assert len(double_cosets(G, P)) == 152


def test_double_cosets_cap_bounds_the_index():
    G = mathieu(11)
    P = sylow_ascent(G, 3)  # index 880
    assert len(double_cosets(G, P, cap=880)) == 112
    with pytest.raises(CapExceeded, match="index 880"):
        double_cosets(G, P, cap=879)


def test_double_cosets_check_the_coset_count():
    # a copy, so that the cached M11 keeps its order
    G = PermGroup(mathieu(11).generators, 11)
    P = sylow_ascent(G, 3)
    true_order = G.order()
    G.order = lambda: 2 * true_order
    with pytest.raises(InvariantViolation, match="cosets"):
        double_cosets(G, P)


def test_double_cosets_example():
    S3 = symmetric(3)
    H = group_from_cycles(["(1,2)"], 3)
    assert len(double_cosets(S3, H)) == 2
