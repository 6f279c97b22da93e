"""Abelian invariants, chain-complex homology, and Sylow p-part routes.

AbelianInvariants is the canonical output form everywhere: free rank
plus prime-power torsion sorted by (prime, power), so Z12 prints as
[4, 3].  chain_homology reads a complex off its boundary matrices
after checking consecutive products vanish.

Two reductions compute the p-part of H_n(G) without resolving G
itself.  cyclic_sylow_ppart is the closed form for a Sylow subgroup
of prime order: Z_p exactly in degrees 2ek - 1 where e is the Weyl
exponent.  ce_ppart_general quotients H_n(P) by the stable-element
kernel: for each double coset PxP the two inclusions of K = P n xPx~
into P are lifted to chain maps and the differences of their induced
images are divided out.  It takes a whole range of degrees at once,
so the CLI calls it once per prime: the double cosets, the resolutions
and the chain maps are built once, to the top degree, and each degree
then costs only its induced maps and one Smith form.  The plain
inclusion depends on K alone, so RK, that inclusion and its induced
maps are built once per distinct K.  The double cosets come from a
walk over the |G:P| left cosets of P, so DOUBLE_COSET_CAP bounds that
index, not |G|.  Conjugating with x or with x~ both give well-defined
inclusions (with K intersected on the matching side) and, over the full
double-coset loop, the same quotient.  The route uses "intersect-right"
and reports it alongside results; check_ce_convention compares it with
the resolution oracle on small groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import alternating, symmetric
from .errors import InvariantViolation
from .perm import identity, inv, mul, precompose
from .permgroup import PermGroup
from .resolution import (
    chain_map,
    homology_action,
    resolution_small,
)
from .intlinalg import factor, p_part, smith_diagonal_sparse
from .sylow import double_cosets, sylow_ascent, weyl_exponent


@dataclass(frozen=True)
class AbelianInvariants:
    """Finitely generated abelian group in canonical form.

    torsion holds prime powers sorted by (prime, power); a Z/12 factor
    is stored as (4, 3).  Equal groups compare equal.
    """

    free: int
    torsion: tuple

    @classmethod
    def from_factors(cls, free: int, factors) -> "AbelianInvariants":
        parts = []
        for d in factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} is not a torsion order")
            for p, e in factor(d).items():
                parts.append((p, p**e))
        parts.sort()
        return cls(free, tuple(q for _, q in parts))

    def ppart(self, p: int) -> "AbelianInvariants":
        """Torsion p-part; free summands belong to no prime."""
        return AbelianInvariants(0, tuple(q for q in self.torsion if q % p == 0))

    def as_list(self) -> list:
        """GAP-style list, one 0 per free summand."""
        return [0] * self.free + list(self.torsion)

    def __str__(self):
        if self.free == 0 and not self.torsion:
            return "0"
        parts = ["Z"] * self.free + [f"Z/{q}" for q in self.torsion]
        return " + ".join(parts)


TRIVIAL = AbelianInvariants(0, ())


# -- homology straight from boundary matrices ----------------------------


def _sparse(M) -> dict:
    return {
        (i, j): v for i, row in enumerate(M) for j, v in enumerate(row) if v
    }


def chain_homology(sizes, mats) -> list:
    """AbelianInvariants of H_0..H_top of a chain complex.

    sizes[k] counts the degree-k generators; mats[k] is the matrix of
    d_{k+1} with sizes[k] rows and sizes[k+1] columns.  Consecutive
    boundaries must compose to zero.
    """
    sizes = list(sizes)
    if len(mats) != len(sizes) - 1:
        raise ValueError("need one boundary matrix per adjacent degree pair")
    sp = []
    for k, M in enumerate(mats):
        if len(M) != sizes[k] or any(len(row) != sizes[k + 1] for row in M):
            raise ValueError(f"boundary {k + 1} has the wrong shape")
        sp.append(_sparse(M))
    for k in range(len(sp) - 1):
        cols: dict = {}
        for (i, j), v in sp[k].items():
            cols.setdefault(j, []).append((i, v))
        prod: dict = {}
        for (j, l), w in sp[k + 1].items():
            for i, v in cols.get(j, ()):
                key = (i, l)
                prod[key] = prod.get(key, 0) + v * w
        if any(prod.values()):
            raise InvariantViolation(f"d_{k + 1} d_{k + 2} != 0")
    diags = [smith_diagonal_sparse(s) for s in sp]
    out = []
    for k in range(len(sizes)):
        rin = len(diags[k]) if k < len(diags) else 0
        rout = len(diags[k - 1]) if k >= 1 else 0
        tors = [x for x in (diags[k] if k < len(diags) else []) if x > 1]
        out.append(AbelianInvariants.from_factors(sizes[k] - rin - rout, tors))
    return out


def resolution_homology(R, k: int) -> AbelianInvariants:
    """H_k(R (x) Z) of a FreeResolution or an AssembledResolution.

    Reads ranks k-1..k+1 and the boundaries d_k, d_{k+1} through
    chain_homology, so their composite is checked too; needs k < length.
    """
    if not 0 <= k < R.length:
        raise ValueError(f"homology degree {k} needs boundaries up to {k + 1}")
    lo = max(k - 1, 0)
    mats = [R.boundary_matrix_z(i) for i in range(lo + 1, k + 2)]
    return chain_homology(R.ranks[lo : k + 2], mats)[k - lo]


# -- closed-form p-part for prime-order Sylow subgroups ------------------

def cyclic_sylow_ppart(G: PermGroup, p: int, degrees, seed: int = 0) -> dict:
    """p-parts of H_n(G) when the Sylow p-subgroup has order p (or 1).

    degrees is one degree or an iterable of them, all >= 0; the answer
    is {n: AbelianInvariants}.  Z_p exactly at n = 2ek - 1 for the Weyl
    exponent e and k >= 1; trivial otherwise.  e is computed once per
    call, from the element of order p that seed picks.  Raises
    ValueError when p^2 divides |G|.
    """
    degrees = sorted({degrees} if isinstance(degrees, int) else set(degrees))
    if not degrees or degrees[0] < 0:
        raise ValueError("homology degrees must be >= 0")
    order = G.order()
    if order % p:
        return {n: TRIVIAL for n in degrees}
    if p_part(order, p) != p:
        raise ValueError(f"Sylow {p}-subgroup is not of prime order")
    period = 2 * weyl_exponent(G, p, seed=seed).exponent
    return {
        n: AbelianInvariants(0, (p,)) if n >= 1 and (n + 1) % period == 0 else TRIVIAL
        for n in degrees
    }


# -- the general stable-element route ------------------------------------

DOUBLE_COSET_CAP = 200_000
CE_CONVENTION = "intersect-right"


def _conjugator(convention: str, x):
    """Conjugated inclusion into P for the double coset rep x.

    The same map doubles as the membership test for K: k lies in K
    exactly when its image lands back in P.
    """
    xi = inv(x)
    if convention == "intersect-right":
        # K = P n xPx~, included by k -> x~ k x
        left, right = xi, precompose(x)
    elif convention == "intersect-left":
        # K = P n x~Px, included by k -> x k x~
        left, right = x, precompose(xi)
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return lambda k: mul(left, right(k))


def ce_ppart_general(
    G: PermGroup,
    P: PermGroup,
    degrees,
    convention: str = CE_CONVENTION,
) -> dict:
    """p-parts of H_n(G) as quotients of H_n(P), P a Sylow p-subgroup.

    degrees is one degree or an iterable of them, all >= 1; the answer
    is {n: AbelianInvariants}.  For every double coset rep x with
    nontrivial K, generators of H_n(K) are pushed through the plain and
    the conjugated inclusion; H_n(P) modulo the differences is the
    answer.  The double cosets, the resolutions of P and of each K and
    the chain maps are built and checked once, to one past the top
    degree; they grow degree by degree, so each degree reads a prefix
    of them.  Needs the index |G:P| within the double-coset cap.
    """
    degrees = sorted({degrees} if isinstance(degrees, int) else set(degrees))
    if not degrees or degrees[0] < 1:
        raise ValueError("stable-element reduction applies in degrees >= 1")
    if P.order() == 1:
        return {n: TRIVIAL for n in degrees}
    po = P.order()
    p = min(factor(po))
    if p_part(po, p) != po or p_part(G.order(), p) != po:
        raise ValueError("P must be a Sylow p-subgroup of G")

    depth = degrees[-1] + 1
    pels = frozenset(P.elements())
    idn = identity(G.degree)
    RP = resolution_small(P, depth)
    orders: dict = {}
    rel_cols: dict = {n: [] for n in degrees}
    # K -> (RK, {n: induced map of the plain inclusion of K into P})
    plain: dict = {}
    for x in double_cosets(G, P, cap=DOUBLE_COSET_CAP):
        if x == idn:
            continue
        phi = _conjugator(convention, x)
        kels = tuple(sorted(k for k in pels if phi(k) in pels))
        if len(kels) == 1:
            continue
        if kels not in plain:
            if len(kels) == len(pels):
                RK = RP
            else:
                RK = resolution_small(
                    PermGroup([k for k in kels if k != idn], G.degree), depth
                )
            inc = chain_map(lambda k: k, RK, RP)
            plain[kels] = (RK, {n: homology_action(inc, n) for n in degrees})
        RK, induced = plain[kels]
        con = chain_map(phi, RK, RP)
        for n in degrees:
            s1, t1, M1 = induced[n]
            s2, t2, M2 = homology_action(con, n)
            if s1 != s2 or t1 != t2:
                raise InvariantViolation("induced-map coordinates disagree")
            orders[n] = t1
            rel_cols[n].extend(
                [M1[r][i] - M2[r][i] for r in range(len(t1))] for i in range(len(s1))
            )
    out = {}
    for n in degrees:
        tor = orders.get(n)
        if tor is None:
            tor = resolution_homology(RP, n).torsion
        out[n] = _quotient(tor, rel_cols[n])
    return out


def _quotient(orders, rel_cols: list) -> AbelianInvariants:
    """The group with Smith orders `orders` modulo the relation columns."""
    r = len(orders)
    ent: dict = {}
    for i, m in enumerate(orders):
        if m:
            ent[(i, i)] = m
    for j, col in enumerate(rel_cols):
        for i, v in enumerate(col):
            if v:
                ent[(i, r + j)] = v
    diag = smith_diagonal_sparse(ent)
    free = r - len(diag)
    if free:
        raise InvariantViolation("p-part of homology cannot have free rank")
    return AbelianInvariants.from_factors(0, [d for d in diag if d > 1])


def ce_convention() -> str:
    """The conjugation convention of the stable-element route, as reported
    in CLI metadata."""
    return CE_CONVENTION


def check_ce_convention() -> None:
    """Compare the stable-element route with the resolution oracle.

    S3 at p = 3 and A4 at p = 2 and 3, in degrees 1..3 from one range
    call each; any difference raises InvariantViolation.
    """
    for G, p in ((symmetric(3), 3), (alternating(4), 2), (alternating(4), 3)):
        P = sylow_ascent(G, p)
        R = resolution_small(G, 4)
        got_all = ce_ppart_general(G, P, (1, 2, 3))
        for k in range(1, 4):
            want = resolution_homology(R, k).ppart(p)
            got = got_all[k]
            if got != want:
                raise InvariantViolation(
                    f"stable elements give {got} for the {p}-part of H_{k} "
                    f"of a group of order {G.order()}, the oracle {want}"
                )
