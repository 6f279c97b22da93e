import random
from math import gcd

import numpy as np
import pytest

from permhomology.catalog import (
    alternating,
    group_from_cycles,
    mathieu,
    symmetric,
)
from permhomology import sylow
from permhomology.errors import CapExceeded, InvariantViolation
from permhomology.intlinalg import factor, p_part
from permhomology.perm import conj, inv, parse_cycles, power
from permhomology.perm import order as perm_order
from permhomology.permgroup import PermGroup
from permhomology.sylow import (
    CLOSED_EDGE_BUDGET,
    CyclicConjOrbit,
    _pack_rows,
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


def reference_orbit(G, x):
    """The orbit tables of CyclicConjOrbit, walked one candidate row at a
    time with a dict of exact keys: the oracle for the batched walk."""
    m = perm_order(x)
    n = G.degree
    gens = G.generators
    garr = [np.array(g, dtype=np.uint8) for g in gens]
    ginv = [np.array(inv(g), dtype=np.uint8) for g in gens]
    units = [j for j in range(1, m) if gcd(j, m) == 1]
    y0 = min(power(x, j) for j in units)
    r0 = np.array([y0], dtype=np.uint8)
    h0, l0 = _pack_rows(r0)
    index = {(int(h0[0]), int(l0[0])): 0}
    parent, genidx, cval = [-1], [-1], [1]
    residue_edges, closed_edges = {}, []
    frontier_rows, frontier_idx = r0, [0]
    while frontier_idx:
        next_rows, next_idx = [], []
        for gi in range(len(gens)):
            Z = garr[gi][frontier_rows[:, ginv[gi]]]
            P = [Z]
            for _ in range(m - 2):
                P.append(np.take_along_axis(Z, P[-1].astype(np.int64), axis=1))
            packed = [_pack_rows(P[j - 1]) for j in units]
            new_rows = []
            for r in range(len(Z)):
                key, uj = min(
                    ((int(h[r]), int(l[r])), uj) for uj, (h, l) in enumerate(packed)
                )
                delta = frontier_idx[r]
                a = pow(units[uj], -1, m)
                eps = index.get(key)
                if eps is None:
                    eps = len(parent)
                    index[key] = eps
                    parent.append(delta)
                    genidx.append(gi)
                    cval.append(a * cval[delta] % m)
                    new_rows.append(P[units[uj] - 1][r])
                    next_idx.append(eps)
                else:
                    res = a * cval[delta] * pow(cval[eps], -1, m) % m
                    residue_edges.setdefault(res, (delta, gi, eps))
                    if len(closed_edges) < CLOSED_EDGE_BUDGET:
                        closed_edges.append((delta, gi, eps))
            next_rows += new_rows
        frontier_rows = np.array(next_rows, dtype=np.uint8).reshape(-1, n)
        frontier_idx = next_idx
    return {
        "size": len(parent),
        "root_gen": y0,
        "parent": parent,
        "genidx": genidx,
        "cval": cval,
        "residue_edges": list(residue_edges.items()),
        "closed_edges": closed_edges,
    }


def orbit_tables(orb):
    return {
        "size": orb.size,
        "root_gen": orb.root_gen,
        "parent": orb.parent.tolist(),
        "genidx": orb.genidx.tolist(),
        "cval": orb.cval.tolist(),
        "residue_edges": list(orb.residue_edges.items()),
        "closed_edges": orb.closed_edges,
    }


@pytest.mark.parametrize("name", ["M11", "M12", "M21", "M22"])
def test_batched_orbit_matches_row_walk(name):
    G = mathieu(int(name[1:]))
    for p in factor(G.order()):
        for seed in range(3):
            x = element_of_order(G, p, seed)
            assert orbit_tables(CyclicConjOrbit(G, x)) == reference_orbit(G, x), (p, seed)


def test_batched_orbit_matches_row_walk_composite_orders():
    x = parse_cycles("(1,2,3,4)", 4)
    G = symmetric(4)
    assert orbit_tables(CyclicConjOrbit(G, x)) == reference_orbit(G, x)
    # orders 4 and 8 in M11: the cyclic normalizers sylow_ascent takes
    M11 = mathieu(11)
    stream = M11.random_elements(0)
    found = {}
    while len(found) < 2:
        g = next(stream)
        if perm_order(g) in (4, 8):
            found.setdefault(perm_order(g), g)
    for x in found.values():
        assert orbit_tables(CyclicConjOrbit(M11, x)) == reference_orbit(M11, x)


def least_unit_power(z):
    """The lex-least generator z**j of <z> over the units j mod |z|, and j:
    the pure-Python oracle for _least_powers."""
    m = perm_order(z)
    return min((power(z, j), j) for j in range(1, m) if gcd(j, m) == 1)


def check_least_powers(rows):
    m = perm_order(rows[0])
    unit_inv = np.array([pow(j, -1, m) if gcd(j, m) == 1 else 0 for j in range(m)])
    hi, lo, best = sylow._least_powers(np.array(rows, dtype=np.uint8), unit_inv)
    got = [tuple(r) for r in sylow._unpack_rows(hi, lo, len(rows[0])).tolist()]
    assert list(zip(got, best.tolist())) == [least_unit_power(z) for z in rows]


def conjugates(G, x, count, seed):
    stream = G.random_elements(seed)
    return [x] + [conj(next(stream), x) for _ in range(count)]


@pytest.mark.parametrize("name", ["M23", "M24"])
@pytest.mark.parametrize("p", [5, 7, 11, 23])
def test_least_powers_prime_order(name, p):
    # degree 23 and 24 rows: the lo word of the packed key is in play
    G = mathieu(int(name[1:]))
    check_least_powers(conjugates(G, element_of_order(G, p, 0), 300, 1))


def test_least_powers_composite_orders_in_s6():
    # whole classes: in the first two the first moved point of some rows
    # lies on a cycle shorter than the order, in the last two it never does
    S6 = symmetric(6)
    for cycles in ("(1,2)(3,4,5,6)", "(1,2)(3,4,5)", "(1,2,3,4)", "(1,2,3,4,5,6)"):
        x = parse_cycles(cycles, 6)
        rows = sorted({conj(g, x) for g in S6.elements()})
        check_least_powers(rows)


def test_least_powers_mathieu_11_order_eight():
    M11 = mathieu(11)
    stream = M11.random_elements(0)
    x = next(g for g in stream if perm_order(g) == 8)
    check_least_powers(conjugates(M11, x, 500, 2))


def test_orbit_cap_reports_attained(monkeypatch):
    monkeypatch.setattr(sylow, "CYCLIC_ORBIT_CAP", 1000)
    G = mathieu(22)
    with pytest.raises(CapExceeded) as info:
        CyclicConjOrbit(G, element_of_order(G, 7))
    assert info.value.attained == 1000
    assert str(info.value) == "cyclic conjugation orbit exceeded cap 1000"


def test_colliding_sort_keys_are_never_merged(monkeypatch):
    monkeypatch.setattr(sylow, "_mix", lambda hi, lo: np.zeros_like(hi))
    with pytest.raises(InvariantViolation):
        CyclicConjOrbit(symmetric(5), parse_cycles("(1,2,3)", 5))


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
