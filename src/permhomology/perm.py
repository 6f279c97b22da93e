"""Permutations as tuples of images on {0, ..., n-1}.

A permutation on n points is a tuple p of length n with p[i] = image of i.
Composition is (p * q)(i) = p(q(i)), i.e. q acts first.  All public
constructors and formatters speak 1-based cycle notation, matching the
usual printed form; everything internal stays 0-based.

Composition is one C-level call: mul(p, q) is itemgetter(*q)(p), which
reads p at each entry of q.  Below degree 2 itemgetter would return a
scalar (or raise), so those degrees keep the tuple comprehension.  A
loop that multiplies many elements by the same right factor q builds
that getter once with precompose(q).
"""

from __future__ import annotations

from operator import itemgetter


def identity(n: int) -> tuple:
    return tuple(range(n))


def mul(p: tuple, q: tuple) -> tuple:
    """Compose: apply q first, then p."""
    if len(q) < 2:
        return tuple(p[i] for i in q)
    return itemgetter(*q)(p)


def precompose(q: tuple):
    """The map p -> mul(p, q), built once for many left factors p."""
    if len(q) < 2:
        return lambda p: tuple(p[i] for i in q)
    return itemgetter(*q)


def inv(p: tuple) -> tuple:
    r = [0] * len(p)
    for i, j in enumerate(p):
        r[j] = i
    return tuple(r)


def conj(g: tuple, x: tuple) -> tuple:
    """g x g^-1, the conjugate of x by g."""
    return mul(g, mul(x, inv(g)))


def power(p: tuple, k: int) -> tuple:
    n = len(p)
    if k < 0:
        return power(inv(p), -k)
    r = identity(n)
    b = p
    while k:
        if k & 1:
            r = mul(b, r)
        b = mul(b, b)
        k >>= 1
    return r


def order(p: tuple) -> int:
    """Multiplicative order, via cycle lengths."""
    from math import lcm

    n = len(p)
    seen = [False] * n
    ell = 1
    for i in range(n):
        if seen[i]:
            continue
        c = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            c += 1
        ell = lcm(ell, c)
    return ell


def cycles(p: tuple) -> list:
    """Cycle decomposition, 0-based, fixed points omitted.

    Each cycle starts at its smallest element; cycles sorted by that
    element.  Deterministic, so usable as a canonical form.
    """
    n = len(p)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(tuple(cyc))
    return out


def from_cycles(cyclist, n: int) -> tuple:
    """Build a permutation from 0-based cycles."""
    img = list(range(n))
    for cyc in cyclist:
        for a, b in zip(cyc, cyc[1:]):
            img[a] = b
        if cyc:
            img[cyc[-1]] = cyc[0]
    return tuple(img)


def parse_cycles(s: str, n: int) -> tuple:
    """Parse 1-based cycle notation like "(1,9,6)(2,10)".

    Whitespace is ignored; bare "()" or an empty string is the identity.
    """
    s = "".join(s.split())
    if s in ("", "()"):
        return identity(n)
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"not cycle notation: {s!r}")
    cyclist = []
    for part in s[1:-1].split(")("):
        pts = [int(t) for t in part.split(",")]
        if any(a < 1 or a > n for a in pts):
            raise ValueError(f"point out of range 1..{n} in {s!r}")
        cyc = tuple(a - 1 for a in pts)
        if len(set(cyc)) != len(cyc):
            raise ValueError(f"repeated point in cycle {part!r}")
        cyclist.append(cyc)
    flat = [a for c in cyclist for a in c]
    if len(set(flat)) != len(flat):
        raise ValueError(f"point appears in two cycles: {s!r}")
    return from_cycles(cyclist, n)


def format_cycles(p: tuple) -> str:
    """1-based cycle string; identity prints as "()"."""
    cs = cycles(p)
    if not cs:
        return "()"
    return "".join("(" + ",".join(str(a + 1) for a in c) + ")" for c in cs)


def from_images_1based(images, n: int | None = None) -> tuple:
    """Convert a 1-based image list (JSON input form) to a permutation."""
    if n is None:
        n = len(images)
    if sorted(images) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..n")
    return tuple(a - 1 for a in images)


def support(p: tuple) -> tuple:
    return tuple(i for i, j in enumerate(p) if i != j)
