import os
import subprocess
import sys
from math import isqrt, prod

import pytest

import permhomology
from permhomology import homology
from permhomology.catalog import (
    alternating,
    cyclic,
    dihedral,
    klein_four,
    mathieu,
    symmetric,
)
from permhomology.errors import InvariantViolation
from permhomology.homology import (
    TRIVIAL,
    AbelianInvariants,
    ce_convention,
    ce_ppart_general,
    chain_homology,
    check_ce_convention,
    cyclic_sylow_ppart,
    factor,
    resolution_homology,
)
from permhomology.permgroup import PermGroup
from permhomology.resolution import bar_resolution, resolution_small
from permhomology.sylow import double_cosets, sylow_ascent


def test_abelian_invariants_canonical():
    assert AbelianInvariants.from_factors(0, (12,)).torsion == (4, 3)
    assert AbelianInvariants.from_factors(0, (2, 14)).torsion == (2, 2, 7)
    assert AbelianInvariants.from_factors(0, (6,)).torsion == (2, 3)
    assert AbelianInvariants.from_factors(2, ()) == AbelianInvariants(2, ())
    assert AbelianInvariants.from_factors(0, (4, 12)).torsion == (4, 4, 3)
    with pytest.raises(ValueError):
        AbelianInvariants.from_factors(0, (1,))
    assert AbelianInvariants(1, (4, 3)).as_list() == [0, 4, 3]
    assert str(AbelianInvariants(0, (4, 3))) == "Z/4 + Z/3"
    assert str(TRIVIAL) == "0"


def test_factor_property():
    mathieu_orders = (7920, 95040, 20160, 443520, 10200960, 244823040)
    for n in list(range(1, 5001)) + list(mathieu_orders):
        f = factor(n)
        assert prod(p**e for p, e in f.items()) == n
        assert all(p > 1 and all(p % d for d in range(2, isqrt(p) + 1)) for p in f)
        assert list(f) == sorted(f)
    assert factor(244823040) == {2: 10, 3: 3, 5: 1, 7: 1, 11: 1, 23: 1}


def test_ppart_examples():
    z12 = AbelianInvariants.from_factors(0, (12,))
    assert z12.ppart(2).torsion == (4,)
    assert z12.ppart(5) == TRIVIAL
    h5 = AbelianInvariants.from_factors(0, (2, 14))
    assert h5.ppart(7).torsion == (7,)
    assert AbelianInvariants(3, (2,)).ppart(2) == AbelianInvariants(0, (2,))


def test_sum_of_pparts_reconstructs():
    for grp in (symmetric(3), alternating(4), klein_four()):
        R = resolution_small(grp, 4)
        for k in range(4):
            inv_ = resolution_homology(R, k)
            merged = []
            for p in (2, 3, 5, 7):
                merged.extend(inv_.ppart(p).torsion)
            assert tuple(sorted(merged)) == tuple(sorted(inv_.torsion))


def test_chain_homology_circle():
    H = chain_homology((1, 1), [[[0]]])
    assert H == [AbelianInvariants(1, ()), AbelianInvariants(1, ())]


def test_chain_homology_torsion_placement():
    # disk glued along a double cover of the circle
    H = chain_homology((1, 1, 1), [[[0]], [[2]]])
    assert H[0] == AbelianInvariants(1, ())
    assert H[1] == AbelianInvariants(0, (2,))
    assert H[2] == TRIVIAL


def test_chain_homology_rejects():
    with pytest.raises(ValueError):
        chain_homology((2, 1), [[[1]]])
    with pytest.raises(ValueError):
        chain_homology((1, 1), [])
    with pytest.raises(InvariantViolation):
        chain_homology((1, 1, 1), [[[1]], [[1]]])


def test_chain_homology_of_bar_z12():
    R = bar_resolution(cyclic(12), 2)
    sizes = R.ranks[:3]
    mats = [R.boundary_matrix_z(1), R.boundary_matrix_z(2)]
    H = chain_homology(sizes, mats)
    assert H[0] == AbelianInvariants(1, ())
    assert H[1] == AbelianInvariants(0, (4, 3))


def test_resolution_homology_s3():
    R = resolution_small(symmetric(3), 4)
    assert resolution_homology(R, 3).torsion == (2, 3)
    assert resolution_homology(R, 0) == AbelianInvariants(1, ())


def test_cyclic_sylow_patterns():
    # (group, p, 2e): nontrivial p-part exactly at n = 2ek - 1
    for grp, p, period in (
        (symmetric(3), 3, 4),
        (mathieu(11), 5, 8),
        (mathieu(21), 5, 4),
        (mathieu(21), 7, 6),
    ):
        parts = cyclic_sylow_ppart(grp, p, range(1, 20))
        got = [n for n in range(1, 20) if parts[n].torsion]
        assert got == [period * k - 1 for k in range(1, 20) if period * k - 1 < 20]
        assert all(parts[n].torsion in ((), (p,)) for n in range(1, 8))


def test_cyclic_sylow_absent_prime():
    assert cyclic_sylow_ppart(mathieu(11), 7, 5)[5] == TRIVIAL
    assert cyclic_sylow_ppart(mathieu(22), 23, 21)[21] == TRIVIAL


def test_cyclic_sylow_rejects_higher_power():
    with pytest.raises(ValueError):
        cyclic_sylow_ppart(mathieu(11), 2, 1)
    with pytest.raises(ValueError):
        cyclic_sylow_ppart(alternating(4), 2, 1)


def test_cyclic_sylow_rejects_negative_degree():
    with pytest.raises(ValueError):
        cyclic_sylow_ppart(mathieu(23), 23, -1)
    with pytest.raises(ValueError):
        cyclic_sylow_ppart(mathieu(11), 7, (0, -1))
    assert cyclic_sylow_ppart(symmetric(3), 3, 0)[0] == TRIVIAL


def test_ce_convention_selected():
    assert ce_convention() == "intersect-right"
    check_ce_convention()  # the fixed convention matches the oracle


def test_ce_convention_computes_nothing():
    # a fresh interpreter, so that no earlier call has cached anything
    code = (
        "from permhomology import homology\n"
        "def boom(*a, **k):\n"
        "    raise RuntimeError('resolution_small called')\n"
        "homology.resolution_small = boom\n"
        "print(homology.ce_convention())\n"
    )
    src = os.path.dirname(os.path.dirname(permhomology.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "intersect-right\n"


def test_check_ce_convention_fails_hard(monkeypatch):
    wrong = AbelianInvariants(0, (5,))
    monkeypatch.setattr(
        homology, "ce_ppart_general",
        lambda G, P, degrees, **k: {n: wrong for n in degrees},
    )
    with pytest.raises(InvariantViolation, match="oracle"):
        check_ce_convention()


def test_ce_matches_oracle_small():
    for grp, p in ((symmetric(3), 3), (alternating(4), 2), (alternating(4), 3)):
        P = sylow_ascent(grp, p)
        R = resolution_small(grp, 4)
        for n in (1, 2, 3):
            want = resolution_homology(R, n).ppart(p)
            assert ce_ppart_general(grp, P, n)[n] == want


def test_ce_both_conventions_agree():
    grp = alternating(4)
    P = sylow_ascent(grp, 2)
    for n in (1, 2, 3):
        a = ce_ppart_general(grp, P, n, convention="intersect-right")[n]
        b = ce_ppart_general(grp, P, n, convention="intersect-left")[n]
        assert a == b


def test_ce_matches_closed_form_mathieu():
    for m, p in ((11, 5), (11, 11), (12, 5), (12, 11)):
        grp = mathieu(m)
        P = sylow_ascent(grp, p)
        closed = cyclic_sylow_ppart(grp, p, (1, 2, 3))
        for n in (1, 2, 3):
            assert ce_ppart_general(grp, P, n)[n] == closed[n]


def test_ce_rejects():
    grp = cyclic(4)
    sq = PermGroup([(2, 3, 0, 1)], 4)
    with pytest.raises(ValueError):
        ce_ppart_general(grp, sq, 1)  # not a Sylow subgroup
    P = sylow_ascent(symmetric(3), 3)
    with pytest.raises(ValueError):
        ce_ppart_general(symmetric(3), P, 0)
    with pytest.raises(ValueError):
        ce_ppart_general(symmetric(3), P, (1, 0, 2))
    with pytest.raises(ValueError):
        ce_ppart_general(symmetric(3), P, ())
    assert ce_ppart_general(symmetric(3), PermGroup([], 3), 2) == {2: TRIVIAL}
    assert ce_ppart_general(symmetric(3), PermGroup([], 3), (1, 3)) == {
        1: TRIVIAL, 3: TRIVIAL,
    }


@pytest.mark.parametrize("grp, p, top", [
    (symmetric(4), 2, 4), (symmetric(4), 3, 4),
    (alternating(4), 2, 4), (alternating(4), 3, 4),
    (symmetric(5), 2, 4), (symmetric(5), 3, 4),
    (dihedral(8), 2, 4), (dihedral(8), 3, 4),  # D8 by the catalog, order 16
    (mathieu(11), 3, 6),
], ids=["S4-2", "S4-3", "A4-2", "A4-3", "S5-2", "S5-3", "D8-2", "D8-3",
        "M11-3"])
def test_ce_range_matches_single_degrees(grp, p, top):
    P = sylow_ascent(grp, p)
    degrees = range(1, top + 1)
    got = ce_ppart_general(grp, P, degrees)
    assert sorted(got) == list(degrees)
    for n in degrees:
        assert got[n] == ce_ppart_general(grp, P, n)[n]
    # any iterable and any order give the same answer
    assert ce_ppart_general(grp, P, reversed(degrees)) == got


@pytest.mark.parametrize("m, top, want", [
    (11, 6, {n: TRIVIAL for n in range(1, 7)}),
    (21, 3, {1: TRIVIAL, 2: AbelianInvariants(0, (3,)), 3: TRIVIAL}),
])
def test_ce_builds_each_plain_inclusion_once(monkeypatch, m, top, want):
    grp = mathieu(m)
    P = sylow_ascent(grp, 3)
    pels = set(P.elements())
    # one conjugated inclusion per rep with K > 1, one plain one per K
    kernels = []
    for x in double_cosets(grp, P):
        phi = homology._conjugator(homology.CE_CONVENTION, x)
        K = frozenset(k for k in pels if phi(k) in pels)
        if len(K) > 1 and x != tuple(range(grp.degree)):
            kernels.append(K)
    calls = []
    built = homology.chain_map

    def counted(*args):
        calls.append(args)
        return built(*args)

    monkeypatch.setattr(homology, "chain_map", counted)
    assert ce_ppart_general(grp, P, range(1, top + 1)) == want
    assert len(calls) == len(kernels) + len(set(kernels))
    if m == 11:
        # all 15 nontrivial intersections are P itself
        assert (len(kernels), len(set(kernels))) == (15, 1)
