import math

import pytest

from permhomology.catalog import (
    alternating,
    cyclic,
    dihedral,
    group_from_json,
    klein_four,
    lookup,
    mathieu,
    symmetric,
)

MATHIEU_ORDERS = {
    10: 720,
    11: 7920,
    12: 95040,
    21: 20160,
    22: 443520,
    23: 10200960,
    24: 244823040,
}


def test_mathieu_orders():
    for n, expected in MATHIEU_ORDERS.items():
        G = mathieu(n)
        assert G.order() == expected
        assert G.degree == (10 if n == 10 else n)


def test_mathieu_transitive():
    for n in (11, 12, 21, 22, 23, 24):
        G = mathieu(n)
        assert G.orbit(0) == tuple(range(G.degree))


def test_mathieu_stabilizer_tower():
    # fixing the last point of M24 lands on a group of M23's order, and so on
    M24 = mathieu(24)
    assert M24.point_stabilizer((23,)).order() == MATHIEU_ORDERS[23]
    assert M24.point_stabilizer((23, 22)).order() == MATHIEU_ORDERS[22]
    assert M24.point_stabilizer((23, 22, 21)).order() == MATHIEU_ORDERS[21]


def test_classic_families():
    for n in range(1, 7):
        assert symmetric(n).order() == math.factorial(n)
    for n in range(3, 8):
        assert alternating(n).order() == math.factorial(n) // 2
    for n in range(1, 9):
        assert cyclic(n).order() == n
        assert cyclic(n).is_abelian()
    for n in range(3, 9):
        assert dihedral(n).order() == 2 * n
    V = klein_four()
    assert V.order() == 4 and V.is_abelian()


def test_lookup():
    assert lookup("M24").order() == 244823040
    assert lookup("m11").order() == 7920
    assert lookup("S5").order() == 120
    assert lookup("A4").order() == 12
    assert lookup("C6").order() == 6
    assert lookup("Z6").order() == 6
    assert lookup("D4").order() == 8
    assert lookup("V4").order() == 4
    with pytest.raises(ValueError):
        lookup("E8")
    with pytest.raises(ValueError):
        lookup("M13")


def test_group_from_json():
    G = group_from_json({"degree": 4, "generators": [[2, 1, 4, 3], "(1,3)(2,4)"]})
    assert G.order() == 4
    assert G.is_abelian()
