"""Abelian invariants, chain-complex homology, and Sylow p-part routes.

AbelianInvariants is the canonical output form everywhere: free rank
plus prime-power torsion sorted by (prime, power), so Z12 prints as
[4, 3].  chain_homology reads a complex off its boundary matrices,
given as sparse columns, after checking consecutive products vanish.

Two reductions compute the p-part of H_n(G) without resolving G
itself.  cyclic_sylow_ppart is the closed form for a Sylow subgroup
of prime order: Z_p exactly in degrees 2ek - 1 where e is the Weyl
exponent.  ce_ppart_general reads H_n(G)_(p) as H_n(P) modulo the
stable-element relations, taken at chain level: each pair of
homomorphisms K -> P is lifted to chain maps RK -> RP, the
differences of their images of a cycle basis of RK (x) Z are cycles
of RP (x) Z, and the quotient is H_n of RP (x) Z with those cycles
added as extra columns of d_{n+1}.  So it is one resolution_homology
read, and every torsion order comes from a Smith diagonal; no Smith
transform is taken.  It takes a whole range of degrees at once, so the
CLI calls it once per prime: the resolutions and the chain maps are
built once, to the top degree, and each degree then costs only its
induced images and one homology read.

Which relations depends on P.  For abelian P, N_G(P) controls fusion,
so the p-part is the N_G(P)-coinvariants of H_n(P) (Swan 1960, "The
p-period of a finite group"): one chain map of the identity of P and
one of conjugation by each generator of N_G(P) that enlarges the group
generated by P and the generators kept before it.  The normalizer is
the stabilizer of P in its conjugation orbit, so SUBGROUP_ORBIT_CAP
bounds |G:N_G(P)|.  For nonabelian P the relations are the stable
elements: for each double coset PxP the two inclusions of
K = P n xPx~ into P.  The plain inclusion depends on K alone, so RK,
that inclusion and its images are built once per distinct K.
The double cosets come from a walk over the |G:P| left cosets of P,
so DOUBLE_COSET_CAP bounds that index, not |G|.

The route has one conjugation convention, "intersect-right"
(CE_CONVENTION, reported alongside results): K = P n xPx~, included
by k -> x~ k x.  Conjugating with x instead, with K intersected on
the other side, gives the same quotient over the full double-coset
loop, and on the abelian route im(1 - c_x) = im(1 - c_x~), so the
choice changes no answer.  check_ce_convention compares the route
with the resolution oracle on small groups, S4 at p = 2 among them,
whose Sylow subgroup D8 is nonabelian.
"""

from __future__ import annotations

from .catalog import alternating, symmetric
from .errors import InvariantViolation
from .perm import identity, inv, mul, precompose
from .permgroup import PermGroup
from .resolution import (
    _vector,
    chain_map,
    homology_action,
    resolution_small,
)
from .intlinalg import factor, p_part, smith_diagonal_sparse
from .sylow import (
    double_cosets,
    subgroup_normalizer,
    sylow_ascent,
    weyl_exponent,
)


class AbelianInvariants:
    """Finitely generated abelian group in canonical form.

    torsion holds prime powers sorted by (prime, power); a Z/12 factor
    is stored as (4, 3).  Equal groups compare and hash equal, and the
    fields cannot be reassigned.
    """

    __slots__ = ("free", "torsion")

    def __init__(self, free: int, torsion: tuple):
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "torsion", torsion)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: AbelianInvariants is immutable")

    def __eq__(self, other):
        if not isinstance(other, AbelianInvariants):
            return NotImplemented
        return self.free == other.free and self.torsion == other.torsion

    def __hash__(self):
        return hash((self.free, self.torsion))

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


def chain_homology(sizes, mats, start: int = 0) -> list:
    """AbelianInvariants of H_start..H_top of a chain complex.

    sizes[k] counts the degree-(start + k) generators; mats[k] is the
    matrix of d_{start+k+1} as its sizes[k+1] sparse columns, each
    {row: value} with rows in range(sizes[k]).  Consecutive boundaries
    must compose to zero; errors name the boundaries by their degrees.
    """
    sizes = list(sizes)
    if len(mats) != len(sizes) - 1:
        raise ValueError("need one boundary matrix per adjacent degree pair")
    for k, cols in enumerate(mats):
        if len(cols) != sizes[k + 1] or any(
            not 0 <= i < sizes[k] for col in cols for i in col
        ):
            raise ValueError(f"boundary {start + k + 1} has the wrong shape")
    for k in range(len(mats) - 1):
        lower = mats[k]
        for col in mats[k + 1]:
            image: dict = {}
            for j, w in col.items():
                for i, v in lower[j].items():
                    image[i] = image.get(i, 0) + v * w
            if any(image.values()):
                raise InvariantViolation(f"d_{start + k + 1} d_{start + k + 2} != 0")
    diags = [
        smith_diagonal_sparse(
            {(i, j): v for j, col in enumerate(cols) for i, v in col.items()}
        )
        for cols in mats
    ]
    out = []
    for k in range(len(sizes)):
        rin = len(diags[k]) if k < len(diags) else 0
        rout = len(diags[k - 1]) if k >= 1 else 0
        tors = [x for x in (diags[k] if k < len(diags) else []) if x > 1]
        out.append(AbelianInvariants.from_factors(sizes[k] - rin - rout, tors))
    return out


def resolution_homology(R, k: int, relations=()) -> AbelianInvariants:
    """H_k(R (x) Z) of a FreeResolution or an AssembledResolution,
    modulo the classes of `relations`.

    Reads ranks k-1..k+1 and the boundaries d_k, d_{k+1} through
    chain_homology, so their composite is checked too; needs k < length.
    Each relation is a sparse k-chain {generator: coefficient}, appended
    to d_{k+1} as one more column, so it is checked to be a cycle, and
    its indices to lie below the rank, the same way.
    """
    if not 0 <= k < R.length:
        raise ValueError(f"homology degree {k} needs boundaries up to {k + 1}")
    lo = max(k - 1, 0)
    mats = [R.boundary_matrix_z(i) for i in range(lo + 1, k + 2)]
    sizes = list(R.ranks[lo : k + 2])
    if relations:
        mats[-1] = mats[-1] + list(relations)
        sizes[-1] += len(relations)
    return chain_homology(sizes, mats, lo)[k - lo]


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

CE_CONVENTION = "intersect-right"


def _conjugator(x):
    """Conjugated inclusion k -> x~ k x of K = P n xPx~ into P for a
    double coset rep x, or the conjugation of P by an element x of
    N_G(P).

    The same map doubles as the membership test for K: k lies in K
    exactly when its image lands back in P.
    """
    xi, right = inv(x), precompose(x)
    return lambda k: mul(xi, right(k))


def ce_ppart_general(
    G: PermGroup, P: PermGroup, degrees, convention: str = CE_CONVENTION
) -> dict:
    """p-parts of H_n(G) as quotients of H_n(P), P a Sylow p-subgroup.

    degrees is one degree or an iterable of them, all >= 1; the answer
    is {n: AbelianInvariants}.  Each (K, inclusion) pair, from
    _normalizer_pairs for abelian P and _double_coset_pairs otherwise,
    adds relation cycles: the images of a cycle basis of RK (x) Z under
    the plain inclusion minus those under the pair's inclusion.  RK and
    the plain images are built once per distinct K, and every
    resolution and chain map once, to one past the top degree, so each
    degree reads a prefix of them.  `convention` may only name the
    route's own convention, CE_CONVENTION.
    """
    if convention != CE_CONVENTION:
        raise ValueError(f"the stable-element route uses {CE_CONVENTION!r} only")
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
    RP = resolution_small(P, depth)
    pels = tuple(sorted(RP.G.elements))
    pairs = _normalizer_pairs if P.is_abelian() else _double_coset_pairs
    # K's elements -> (RK, {n: images of the plain inclusion of K into P})
    plain: dict = {}
    relations: dict = {n: [] for n in degrees}
    for kels, phi in pairs(G, P, pels):
        if kels not in plain:
            if len(kels) == len(pels):
                RK = RP
            else:  # kels is sorted, so the identity comes first
                RK = resolution_small(PermGroup(list(kels[1:]), G.degree), depth)
            inc = chain_map(lambda k: k, RK, RP)
            plain[kels] = (RK, {n: homology_action(inc, n) for n in degrees})
        RK, fixed = plain[kels]
        con = chain_map(phi, RK, RP)
        for n in degrees:
            relations[n].extend(
                _vector([*u.items(), *((i, -c) for i, c in v.items())])
                for u, v in zip(fixed[n], homology_action(con, n), strict=True)
            )
    out = {}
    for n in degrees:
        out[n] = resolution_homology(RP, n, relations[n])
        if out[n].free:
            raise InvariantViolation("p-part of homology cannot have free rank")
    return out


def _normalizer_pairs(G, P, pels):
    """(K, inclusion) pairs for abelian P, where N_G(P) controls fusion.

    K is P itself, included by conjugation with each generator x of
    N_G(P) that enlarges the group generated by P and the generators
    kept before it; P itself acts trivially.  The map conjugates by x~;
    conjugating by x would give the same image, since
    1 - c_x~ = -(1 - c_x) c_x~ with c_x~ onto.
    """
    N = subgroup_normalizer(G, P)
    gens = list(P.generators)
    reached = P.order()
    for x in N.generators:
        if reached == N.order():
            return
        grown = PermGroup(gens + [x], G.degree).order()
        if grown > reached:
            gens.append(x)
            reached = grown
            yield pels, _conjugator(x)


def _double_coset_pairs(G, P, pels):
    """(K, inclusion) pairs over the double cosets PxP: the conjugated
    inclusion of K = P n xPx~ for each rep x != 1 with K nontrivial, and
    K as its sorted elements."""
    idn = identity(G.degree)
    pset = frozenset(pels)
    for x in double_cosets(G, P):
        if x == idn:
            continue
        phi = _conjugator(x)
        kels = tuple(k for k in pels if phi(k) in pset)
        if len(kels) > 1:
            yield kels, phi


def ce_convention() -> str:
    """The conjugation convention of the stable-element route, as reported
    in CLI metadata."""
    return CE_CONVENTION


def check_ce_convention() -> None:
    """Compare the stable-element route with the resolution oracle.

    S3 at p = 3, A4 at p = 2 and 3 and S4 at p = 2, in degrees 1..3
    from one range call each; any difference raises InvariantViolation.
    The first three have abelian Sylow subgroups; only S4 at p = 2
    (P = D8) reaches the double cosets, where the conjugated inclusion
    picks K.
    """
    for G, p in (
        (symmetric(3), 3),
        (alternating(4), 2),
        (alternating(4), 3),
        (symmetric(4), 2),
    ):
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
