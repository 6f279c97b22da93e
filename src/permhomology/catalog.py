"""Named permutation groups: the Mathieu tower, small classics, input parsing.

Mathieu generators are frozen as cycle strings; M21, M22, M23 are the
iterated point stabilizers of M24 restricted to their supports, written
out explicitly so construction never depends on a stabilizer
computation.  Every catalog group is checked against its known order the
first time it is built.
"""

from __future__ import annotations

import functools

from .errors import InvariantViolation
from .perm import from_images_1based, parse_cycles
from .permgroup import PermGroup

_MATHIEU = {
    10: (10, 720, [
        "(1,9,6,7,5)(2,10,3,8,4)",
        "(1,10,7,8)(2,9,4,6)",
    ]),
    11: (11, 7920, [
        "(1,2,3,4,5,6,7,8,9,10,11)",
        "(3,7,11,8)(4,10,5,6)",
    ]),
    12: (12, 95040, [
        "(1,2,3,4,5,6,7,8,9,10,11)",
        "(3,7,11,8)(4,10,5,6)",
        "(1,12)(2,11)(3,6)(4,8)(5,9)(7,10)",
    ]),
    21: (21, 20160, [
        "(1,15,8,5,7)(2,11,12,17,3)(6,16,9,10,21)(13,18,20,19,14)",
        "(1,14,21,17,13)(2,19,20,4,9)(3,16,8,11,5)(7,10,15,12,18)",
    ]),
    22: (22, 443520, [
        "(2,16,9,6,8)(3,12,13,18,4)(7,17,10,11,22)(14,19,21,20,15)",
        "(1,15,8,5,7)(2,11,12,17,3)(6,16,9,10,21)(13,18,20,19,14)",
    ]),
    23: (23, 10200960, [
        "(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23)",
        "(3,17,10,7,9)(4,13,14,19,5)(8,18,11,12,23)(15,20,22,21,16)",
    ]),
    24: (24, 244823040, [
        "(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23)",
        "(3,17,10,7,9)(4,13,14,19,5)(8,18,11,12,23)(15,20,22,21,16)",
        "(1,24)(2,23)(3,12)(4,16)(5,18)(6,10)(7,20)(8,14)(9,21)(11,17)(13,22)(15,19)",
    ]),
}


@functools.lru_cache(maxsize=None)
def mathieu(n: int) -> PermGroup:
    if n not in _MATHIEU:
        raise ValueError(f"no Mathieu group M{n}")
    degree, expected, strings = _MATHIEU[n]
    G = group_from_cycles(strings, degree, name=f"M{n}")
    if G.order() != expected:
        raise InvariantViolation(f"M{n} generator data corrupt: order {G.order()}")
    return G


def group_from_cycles(strings, degree: int, name: str | None = None) -> PermGroup:
    return PermGroup([parse_cycles(s, degree) for s in strings], degree, name=name)


def group_from_json(obj) -> PermGroup:
    """Build from {"degree": n, "generators": [...]} with generators given
    either as 1-based image lists or as cycle strings.

    The degree must be an integer >= 1 (a bool is not one) and the
    generators a list; any other input raises ValueError.
    """
    degree = obj.get("degree") if isinstance(obj, dict) else None
    if type(degree) is not int or degree < 1:
        raise ValueError(f'"degree" must be an integer >= 1, not {degree!r}')
    gens = obj.get("generators")
    if not isinstance(gens, list):
        raise ValueError(f'"generators" must be a list, not {gens!r}')
    perms = []
    for g in gens:
        if isinstance(g, str):
            perms.append(parse_cycles(g, degree))
        elif isinstance(g, list) and all(type(a) is int for a in g):
            perms.append(from_images_1based(g, degree))
        else:
            raise ValueError(
                f"generator {g!r} is neither a cycle string nor a list of integers"
            )
    return PermGroup(perms, degree, name=obj.get("name"))


def symmetric(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("need n >= 1")
    gens = []
    if n >= 2:
        gens.append(parse_cycles("(1,2)", n))
    if n >= 3:
        gens.append(parse_cycles("(" + ",".join(map(str, range(1, n + 1))) + ")", n))
    return PermGroup(gens, n, name=f"S{n}")


def alternating(n: int) -> PermGroup:
    if n < 3:
        return PermGroup([], max(n, 1), name=f"A{n}")
    gens = [parse_cycles("(1,2,3)", n)]
    if n > 3:
        # the long cycle must be even: n-cycle for odd n, (n-1)-cycle for even n
        lo = 1 if n % 2 else 2
        gens.append(parse_cycles("(" + ",".join(map(str, range(lo, n + 1))) + ")", n))
    return PermGroup(gens, n, name=f"A{n}")


def cyclic(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return PermGroup([], 1, name="C1")
    return PermGroup(
        [parse_cycles("(" + ",".join(map(str, range(1, n + 1))) + ")", n)], n, name=f"C{n}"
    )


def dihedral(n: int) -> PermGroup:
    """Symmetries of the n-gon on its n vertices, order 2n (n >= 3)."""
    if n < 3:
        raise ValueError("need n >= 3")
    rot = tuple((i + 1) % n for i in range(n))
    refl = tuple((n - i) % n for i in range(n))
    return PermGroup([rot, refl], n, name=f"D{n}")


def klein_four() -> PermGroup:
    return group_from_cycles(["(1,2)(3,4)", "(1,3)(2,4)"], 4, name="V4")


def lookup(name: str) -> PermGroup:
    """Resolve a group name as used on the command line.

    Understood: M10..M24 (Mathieu), Sn, An, Cn or Zn (cyclic), Dn
    (dihedral, order 2n), V4.
    """
    s = name.strip().upper()
    if s == "V4":
        return klein_four()
    if len(s) >= 2 and s[0] in "MSACZD" and s[1:].isdigit():
        n = int(s[1:])
        if s[0] == "M":
            return mathieu(n)
        if s[0] == "S":
            return symmetric(n)
        if s[0] == "A":
            return alternating(n)
        if s[0] in "CZ":
            return cyclic(n)
        if s[0] == "D":
            return dihedral(n)
    raise ValueError(f"unknown group name {name!r}")
