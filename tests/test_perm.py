import random

import pytest

from permhomology.perm import identity, inv, mul, precompose

DEGREES = (0, 1, 2, 12, 24)


def ref_mul(p, q):
    """Composition read off the definition: q first, then p."""
    return tuple(p[i] for i in q)


def random_perms(n, count, seed):
    rng = random.Random(1000 * n + seed)
    out = []
    for _ in range(count):
        p = list(range(n))
        rng.shuffle(p)
        out.append(tuple(p))
    return out


@pytest.mark.parametrize("n", DEGREES)
def test_mul_matches_reference(n):
    ps = random_perms(n, 20, 0)
    qs = random_perms(n, 20, 1)
    for p, q in zip(ps, qs):
        pq = mul(p, q)
        assert type(pq) is tuple
        assert pq == ref_mul(p, q)
        assert precompose(q)(p) == pq
        # (p*q)(i) = p(q(i)): q acts first
        assert all(pq[i] == p[q[i]] for i in range(n))


@pytest.mark.parametrize("n", DEGREES)
def test_inv_matches_definition(n):
    idn = identity(n)
    for p in random_perms(n, 20, 2):
        pi = inv(p)
        assert type(pi) is tuple
        assert all(pi[p[i]] == i for i in range(n))
        assert mul(p, pi) == idn
        assert mul(pi, p) == idn
        assert inv(pi) == p


@pytest.mark.parametrize("n", DEGREES)
def test_mul_associative_with_identity(n):
    idn = identity(n)
    ps = random_perms(n, 30, 3)
    for p, q, r in zip(ps[0::3], ps[1::3], ps[2::3]):
        assert mul(mul(p, q), r) == mul(p, mul(q, r))
        assert mul(p, idn) == p == mul(idn, p)
