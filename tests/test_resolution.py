import hashlib
import json
import random
import time
from collections import Counter

import pytest

from selection_oracle import scanning_select_generators
from permhomology.catalog import (
    alternating,
    cyclic,
    dihedral,
    klein_four,
    mathieu,
    symmetric,
)
from permhomology import errors, resolution
from permhomology.cli import main
from permhomology.errors import CapExceeded, InvariantViolation
from permhomology.homology import AbelianInvariants, resolution_homology
from permhomology.intlinalg import ColumnSolver
from permhomology.perm import conj, identity, inv, mul
from permhomology.permgroup import PermGroup, fingerprint
from permhomology.sylow import sylow_ascent
from permhomology.resolution import (
    _chain_sum,
    FreeResolution,
    SmallGroup,
    bar_resolution,
    chain_map,
    homology_action,
    resolution_small,
    tensor_resolution,
    translate_vec,
)


def power_map_homology_cyclic(p: int, m: int, k: int) -> int:
    """Multiplier of the power map x -> x^m on H_{2k-1} of a cyclic p-group."""
    if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise ValueError("p must be prime")
    if m % p == 0:
        raise ValueError("m must be prime to p")
    if k < 1:
        raise ValueError("k must be positive")
    return pow(m, k, p)


def invariants_through(R, kmax):
    out = [resolution_homology(R, k) for k in range(kmax + 1)]
    return [(h.free, h.torsion) for h in out]


# -- chains and the group table -------------------------------------------
#
# A chain is the sparse vector {j*|G| + e: coefficient}.  The oracles
# below sum formal words of terms c e.j by the definition, in a Counter.


def nonzero(counter):
    return {i: c for i, c in counter.items() if c}


def act_word(G, g, v):
    """g . v term by term: c e.j goes to c (ge).j.  The oracle for
    translate_vec."""
    out = Counter()
    for i, c in v.items():
        j, e = divmod(i, G.n)
        out[j * G.n + G.mul(g, e)] += c
    return nonzero(out)


def random_word(rng, G, rank, size):
    out = Counter()
    for _ in range(rng.randrange(size + 1)):
        out[rng.randrange(rank) * G.n + rng.randrange(G.n)] += rng.randrange(-3, 4)
    return nonzero(out)


def test_act_word_inverse():
    G = SmallGroup(dihedral(4))
    v = {1: 2, G.n + 5: -1}  # 2 (1 . 0) - (5 . 1)
    for g in range(G.n):
        assert act_word(G, G.inverse[g], act_word(G, g, v)) == v


def test_translate_vec_matches_act_word():
    rng = random.Random(5)
    for grp in (symmetric(4), dihedral(12)):
        G = SmallGroup(grp)
        for _ in range(20):
            v = random_word(rng, G, 3, 8)
            for g in range(G.n):
                assert translate_vec(G, g, v) == act_word(G, g, v)


# -- the one-dict sum against the Counter oracle ---------------------------


def word_sum_oracle(G, terms):
    """sum of c * (g . v) over the (c, g, v) in terms, one act_word per
    term, added up in a Counter."""
    out = Counter()
    for c, g, v in terms:
        for i, a in act_word(G, g, v).items():
            out[i] += c * a
    return nonzero(out)


GROUPS = pytest.mark.parametrize(
    "make", [lambda: symmetric(4), lambda: dihedral(12)], ids=["S4", "D12"]
)


@GROUPS
def test_word_sum_matches_word_oracle(make):
    G = SmallGroup(make())
    rng = random.Random(5)
    for _ in range(200):
        terms = [
            (rng.randrange(-3, 4), rng.randrange(G.n), random_word(rng, G, 3, 6))
            for _ in range(rng.randrange(6))
        ]
        assert _chain_sum(G, terms) == word_sum_oracle(G, terms)
    # terms that cancel leave the zero chain, with no zero entries
    v = random_word(rng, G, 2, 5)
    assert _chain_sum(G, [(2, 3, v), (-1, 3, v), (-1, 3, v)]) == {}


@GROUPS
def test_apply_and_push_match_word_oracle(make):
    grp = make()
    R = resolution_small(grp, 3)
    G = R.G
    t = grp.generators[0]
    cm = chain_map(lambda g: mul(t, mul(g, inv(t))), R, R)
    rng = random.Random(7)
    for k in range(R.length + 1):
        for _ in range(40):
            v = random_word(rng, G, R.ranks[k], 8)
            terms = [(c, *divmod(i, G.n)) for i, c in v.items()]  # (c, j, e)
            if k >= 1:
                want = word_sum_oracle(G, [(c, e, R.boundary(k, j))
                                           for c, j, e in terms])
                assert R.apply_d(k, v) == want
            if k < R.length:
                want = word_sum_oracle(G, [(c, G.id, R.h(k, e, j))
                                           for c, j, e in terms])
                assert R.apply_h(k, v) == want
            want = word_sum_oracle(
                G, [(c, cm.elem_map[e], cm.maps[k][j]) for c, j, e in terms]
            )
            assert cm.push(k, v) == want


def test_small_group_table():
    G = SmallGroup(klein_four())
    assert G.n == 4
    for i in range(G.n):
        assert G.mul(i, G.inverse[i]) == G.id
        assert G.mul(G.id, i) == i
    # resolution_small's memo is keyed by this value
    assert fingerprint(G.group) == "d85fc658b866d0c0"
    assert fingerprint(G.group) != fingerprint(cyclic(4))


def test_memo_hit_builds_no_small_group(monkeypatch):
    built = []

    class CountingGroup(SmallGroup):
        def __init__(self, group):
            built.append(group)
            super().__init__(group)

    monkeypatch.setattr(resolution, "_small_memo", {})
    monkeypatch.setattr(resolution, "SmallGroup", CountingGroup)
    R = resolution_small(symmetric(3), 2)
    assert resolution_small(symmetric(3), 2) is R
    assert resolution_small(R.G, 2) is R
    assert len(built) == 1


def test_caps():
    with pytest.raises(CapExceeded):
        SmallGroup(symmetric(6))
    with pytest.raises(CapExceeded):
        resolution_small(symmetric(6), 2)
    with pytest.raises(CapExceeded):
        bar_resolution(cyclic(12), 5)


# -- the bar resolution --------------------------------------------------


def test_bar_z2():
    R = bar_resolution(cyclic(2), 4)
    assert R.ranks == (1, 1, 1, 1, 1)
    assert invariants_through(R, 3) == [
        (1, ()),
        (0, (2,)),
        (0, ()),
        (0, (2,)),
    ]


def test_bar_z3():
    R = bar_resolution(cyclic(3), 4)
    assert R.ranks == (1, 2, 4, 8, 16)
    assert invariants_through(R, 3) == [
        (1, ()),
        (0, (3,)),
        (0, ()),
        (0, (3,)),
    ]


def test_bar_s3():
    R = bar_resolution(symmetric(3), 4)
    assert R.ranks == (1, 5, 25, 125, 625)
    assert invariants_through(R, 3) == [
        (1, ()),
        (0, (2,)),
        (0, ()),
        (0, (2, 3)),
    ]


def test_homology_degree_bound():
    R = bar_resolution(cyclic(2), 3)
    with pytest.raises(ValueError):
        resolution_homology(R, 3)


# -- small resolutions ---------------------------------------------------


def test_small_needs_positive_length():
    with pytest.raises(ValueError):
        resolution_small(symmetric(3), 0)


def test_small_z4_minimal():
    R = resolution_small(cyclic(4), 6)
    assert R.ranks == (1, 1, 1, 1, 1, 1, 1)
    assert invariants_through(R, 5) == [
        (1, ()),
        (0, (4,)),
        (0, ()),
        (0, (4,)),
        (0, ()),
        (0, (4,)),
    ]


def test_small_klein_four():
    R = resolution_small(klein_four(), 4)
    assert R.ranks == (1, 2, 3, 4, 5)
    assert invariants_through(R, 3) == [
        (1, ()),
        (0, (2, 2)),
        (0, (2,)),
        (0, (2, 2, 2)),
    ]


def test_small_agrees_with_bar():
    # same homology out of both constructions, degrees 0..3
    for make in (
        lambda: cyclic(2),
        lambda: cyclic(4),
        lambda: cyclic(6),
        lambda: klein_four(),
        lambda: symmetric(3),
        lambda: dihedral(4),
    ):
        grp = make()
        bar = bar_resolution(grp, 4)
        small = resolution_small(grp, 4)
        assert invariants_through(small, 3) == invariants_through(bar, 3)


# H_0..H_5 from the small resolution to depth 6, against the bar
# resolution as deep as it is cheap and the known values above that:
# H_q(D_2n) for n even is Z/2^2, Z/2, Z/2^2 + Z/n, Z/2^2, Z/2^4 (Handel),
# and S3, C6 are periodic of period 4 and 2
@pytest.mark.parametrize("make, bar_depth, want", [
    (lambda: symmetric(3), 4, [(2,), (), (2, 3), (), (2,)]),
    (lambda: cyclic(6), 4, [(2, 3), (), (2, 3), (), (2, 3)]),
    (lambda: dihedral(4), 4, [(2, 2), (2,), (2, 2, 4), (2, 2), (2, 2, 2, 2)]),
    (lambda: alternating(4), 3, [(3,), (2,), (2, 3), (), (2, 2, 3)]),
    (lambda: symmetric(4), 2, [(2,), (2,), (2, 4, 3), (2,), (2, 2, 2)]),
    (lambda: dihedral(12), 2, [(2, 2), (2,), (2, 2, 4, 3), (2, 2), (2, 2, 2, 2)]),
], ids=["S3", "C6", "D8", "A4", "S4", "D12"])
def test_small_homology_to_degree_five(make, bar_depth, want):
    grp = make()
    got = invariants_through(resolution_small(grp, 6), 5)
    assert got == [(1, ())] + [(0, t) for t in want]
    assert got[:bar_depth] == invariants_through(bar_resolution(grp, bar_depth), bar_depth - 1)


# depths at which the kernel-generator selection ran past 20 s (S4) and
# 22 s (D12); building from the homotopy takes 0.1 s for each
@pytest.mark.parametrize("make, depth, ranks, bound", [
    (lambda: symmetric(4), 5, (1, 2, 3, 4, 6, 9), 2.0),
    (lambda: dihedral(12), 8, (1, 2, 3, 4, 5, 6, 7, 8, 9), 3.0),
], ids=["S4-5", "D12-8"])
def test_small_resolutions_that_stalled_finish(monkeypatch, make, depth, ranks, bound):
    grp = make()
    monkeypatch.setattr(resolution, "_small_memo", {})
    start = time.perf_counter()
    R = resolution_small(grp, depth)
    assert time.perf_counter() - start < bound
    assert R.ranks == ranks


def test_homotopy_identity_public():
    R = resolution_small(klein_four(), 4)
    G = R.G
    for k in (1, 2):
        for j in range(R.ranks[k]):
            for e in range(G.n):
                x = {j * G.n + e: 1}
                got = Counter(R.apply_h(k - 1, R.apply_d(k, x)))
                got.update(R.apply_d(k + 1, R.apply_h(k, x)))
                assert nonzero(got) == x


def test_boundary_lands_in_augmentation_kernel():
    R = resolution_small(symmetric(3), 2)
    n = R.G.n
    for j in range(R.ranks[1]):
        for e in range(n):
            img = R.apply_d(1, {j * n + e: 1})
            assert img and sum(c * R.aug[i // n] for i, c in img.items()) == 0


def _stabilizer_in_s6(points):
    """The setwise stabilizer of points in S6, generated by all of its
    elements in sorted order, as the flags wall route builds it."""
    e = identity(6)
    return PermGroup(
        [g for g in sorted(symmetric(6).elements())
         if set(g[: len(points)]) == set(points) and g != e]
    )


def _terms(G, v):
    """The chain v as [coefficient, element, generator] terms, sorted by
    flat index, which is (generator, element) order."""
    return [[v[i], i % G.n, i // G.n] for i in sorted(v)]


def save_resolution(R: FreeResolution, path: str):
    """R as JSON: fingerprint, ranks, augmentation, boundaries and the
    homotopy table, in the layout the pinned hashes below were taken in."""
    data = {
        "fingerprint": fingerprint(R.G.group),
        "ranks": list(R.ranks),
        "aug": list(R.aug),
        "d": {
            str(k): [_terms(R.G, R.boundary(k, j)) for j in range(R.ranks[k])]
            for k in range(1, R.length + 1)
        },
        "h": [
            [k, e, j, _terms(R.G, R.h(k, e, j))]
            for k in range(R.length)
            for j in range(R.ranks[k])
            for e in range(R.G.n)
        ],
    }
    with open(path, "w") as f:
        json.dump(data, f)


# sha256 of the save_resolution JSON, recorded when resolution_small
# came to take its generators and homotopy from one span per degree;
# the invariants are checked against the bar resolution to degree 1
# and against their known values above that
@pytest.mark.parametrize("make, depth, ranks, invariants, sha256", [
    (lambda: symmetric(4), 3, (1, 2, 3, 4), [(1, ()), (0, (2,)), (0, (2,))],
     "6303cd93e6c2caac78b258ea308a975c6096eb0896882fead972ca707162db8c"),
    (lambda: _stabilizer_in_s6((0, 1)), 3, (1, 3, 7, 13),
     [(1, ()), (0, (2, 2)), (0, (2, 2))],
     "59fbb1596d24cfcc15dafc4c5874aacc3e5ca732e924260528ac9317b2329954"),
    (lambda: _stabilizer_in_s6((0, 1, 2, 3)), 3, (1, 3, 7, 13),
     [(1, ()), (0, (2, 2)), (0, (2, 2))],
     "fe2abbf1eda9530188484a4026ed9dcb619e79adca9754f2fb93c871fe049006"),
], ids=["S4", "S6-stab-pair", "S6-stab-4set"])
def test_small_resolutions_are_pinned(tmp_path, make, depth, ranks, invariants, sha256):
    grp = make()
    R = resolution_small(grp, depth)
    assert R.ranks == ranks
    assert invariants_through(R, depth - 1) == invariants
    assert invariants[:2] == invariants_through(bar_resolution(grp, 2), 1)
    path = tmp_path / "res.json"
    save_resolution(R, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


# sha256 of the save_resolution JSON: bar-S3 recorded while chains were
# still stored as sorted term tuples, tensor-S2xS3 when its small
# factors came to be built from their own homotopy
@pytest.mark.parametrize("build, ranks, sha256", [
    (lambda: bar_resolution(symmetric(3), 3), (1, 5, 25, 125),
     "053a045a23039e1fceeded25718e7ffdac9566f40c3b219e5e9efef9d0dce4ee"),
    (lambda: tensor_resolution(*s2_and_s3()), (1, 3, 6, 10),
     "c67c89df43c0a50bf60abd7331f171183efa46db3e26bbbc20268c414848e61e"),
], ids=["bar-S3", "tensor-S2xS3"])
def test_bar_and_tensor_resolutions_are_pinned(tmp_path, build, ranks, sha256):
    R = build()
    assert R.ranks == ranks
    assert invariants_through(R, 2) == invariants_through(bar_resolution(R.G.group, 3), 2)
    path = tmp_path / "res.json"
    save_resolution(R, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_verify_catches_a_broken_boundary():
    R = resolution_small(symmetric(3), 3)
    # d_2 of generator 0 replaced by a degree-1 generator, which is no cycle
    d = dict(R._d)
    d[2] = ({R.G.id: 1},) + d[2][1:]
    with pytest.raises(InvariantViolation, match="d.d != 0 at degree 2"):
        FreeResolution(R.G, R.ranks, d, R.aug, R.h)
    # the resolution itself passes the same check
    FreeResolution(R.G, R.ranks, R._d, R.aug, R.h)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_verify_catches_a_perturbed_homotopy(k):
    R = resolution_small(symmetric(3), 4)
    e, j = R.G.n - 1, 0
    # one entry of h_k gains a term; h_0 and h_1 are first read at degree 1
    bad = Counter(R.h(k, e, j))
    bad[R.G.id] += 1

    def h(k2, e2, j2):
        return bad if (k2, e2, j2) == (k, e, j) else R.h(k2, e2, j2)

    with pytest.raises(
        InvariantViolation, match=f"homotopy identity fails at degree {max(k, 1)}"
    ):
        FreeResolution(R.G, R.ranks, R._d, R.aug, h)


@pytest.mark.parametrize("make, depth", [
    (lambda: symmetric(4), 3),
    (lambda: alternating(5), 3),
    (lambda: dihedral(12), 4),
    (lambda: sylow_ascent(mathieu(12), 3), 3),
], ids=["S4", "A5", "D12", "M12-Sylow3"])
def test_select_generators_matches_the_full_scan(monkeypatch, make, depth):
    monkeypatch.setattr(resolution, "_small_memo", {})
    R = resolution_small(make(), depth)
    for k in range(depth):
        chosen = [R.boundary(k + 1, j) for j in range(R.ranks[k + 1])]
        assert chosen == scanning_select_generators(R, k)


@pytest.mark.parametrize("scale", [0, 2], ids=["zero", "doubled"])
def test_a_wrong_span_solution_fails_verification(monkeypatch, scale):
    # the homotopy values are the span's solutions as they come; zero or
    # doubled ones break d_1 h_0 = 1 - section.augmentation, and then the
    # next degree's generators x - h_0(d_1 x) are no cycles
    solve = resolution.ZSpan.solve

    def scaled(span, b):
        y = solve(span, b)
        return y if y is None else {t: scale * c for t, c in y.items() if scale}

    monkeypatch.setattr(resolution, "_small_memo", {})
    monkeypatch.setattr(resolution.ZSpan, "solve", scaled)
    with pytest.raises(InvariantViolation, match="d_1 h_0 != 1 - section.augmentation"):
        resolution_small(symmetric(3), 1)
    with pytest.raises(InvariantViolation, match="d.d != 0 at degree 2"):
        resolution_small(symmetric(3), 3)


def test_span_bits_cap_stops_the_resolution(monkeypatch, capsys):
    # S4's span coefficients pass 2 bits in degree 4, after degrees 0..3
    monkeypatch.setattr(resolution, "_small_memo", {})
    monkeypatch.setattr(errors, "SPAN_BITS_CAP", 2)
    with pytest.raises(CapExceeded, match="exceeds 2 resolving degree 4") as exc:
        resolution_small(symmetric(4), 4)
    assert exc.value.attained == [1, 2, 3, 4]
    assert main(["resolution", "S4", "--length", "4"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "cap-exceeded" and err["attained"] == [1, 2, 3, 4]


# -- chain maps and induced maps on homology -----------------------------


def _coinvariants(cm, k, other=None):
    """H_k of cm's target modulo the images of the source's k-cycles
    under cm, or under cm minus the chain map other."""
    rels = homology_action(cm, k)
    if other is not None:
        rels = [
            {i: u.get(i, 0) - v.get(i, 0) for i in u.keys() | v.keys()}
            for u, v in zip(rels, homology_action(other, k), strict=True)
        ]
    return resolution_homology(cm.target, k, rels)


def test_identity_map_s3():
    R = resolution_small(symmetric(3), 4)
    cm = chain_map(lambda g: g, R, R)
    for k, want in ((1, (2,)), (3, (2, 3))):
        # the identity's images are all of H_k, and differ from themselves
        # by nothing
        assert _coinvariants(cm, k) == AbelianInvariants(0, ())
        assert _coinvariants(cm, k, cm) == AbelianInvariants(0, want)


def test_inner_automorphism_trivial_on_homology():
    grp = symmetric(3)
    R = resolution_small(grp, 4)
    t = (1, 0, 2)
    ident = chain_map(lambda g: g, R, R)
    cm = chain_map(lambda g: mul(t, mul(g, inv(t))), R, R)
    for k in (1, 2, 3):
        assert _coinvariants(ident, k, cm) == resolution_homology(R, k)


def test_homology_action_builds_each_cycle_basis_once(monkeypatch):
    # the stable-element route pushes one source's cycles through many
    # chain maps; the kernel of d_k is solved once per degree
    R = bar_resolution(cyclic(3), 4)
    maps = [chain_map(lambda g: g, R, R), chain_map(lambda g: mul(g, g), R, R)]
    want = {
        k: ColumnSolver(R.boundary_matrix_z(k), R.ranks[k - 1]).kernel()
        for k in (1, 2, 3)
    }
    builds = []

    class CountingSolver(ColumnSolver):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(resolution, "ColumnSolver", CountingSolver)
    for _ in range(2):
        for cm in maps:
            for k in (1, 2, 3):
                F, r = cm.matrix_z(k), range(R.ranks[k])
                assert [[v.get(i, 0) for i in r] for v in homology_action(cm, k)] == [
                    [sum(F[j].get(i, 0) * c for j, c in z.items()) for i in r]
                    for z in want[k]
                ]
    assert len(builds) == 3


def test_inclusion_z2_in_z4():
    Rsub = resolution_small(cyclic(2), 4)
    Rbig = resolution_small(cyclic(4), 4)
    sq = mul((1, 2, 3, 0), (1, 2, 3, 0))

    def incl(g):
        return (0, 1, 2, 3) if g == (0, 1) else sq

    cm = chain_map(incl, Rsub, Rbig)
    # H_1 and H_3 of Z2 land on the subgroup of order 2 in Z4
    for k in (1, 3):
        assert _coinvariants(cm, k) == AbelianInvariants(0, (2,))
    assert _coinvariants(cm, 2) == AbelianInvariants(0, ())


def _power(g, m):
    out = identity(len(g))
    for _ in range(m):
        out = mul(out, g)
    return out


def test_power_map_matches_formula():
    for p, m in ((5, 2), (5, 4), (7, 3), (7, 6)):
        R = resolution_small(cyclic(p), 4)
        ident = chain_map(lambda g: g, R, R)
        cm = chain_map(lambda g: _power(g, m), R, R)
        for k in (1, 2):
            # x -> x^m multiplies H_{2k-1} = Z_p by m^k, so 1 - x^m
            # leaves Z_p exactly when m^k = 1 mod p
            fixed = power_map_homology_cyclic(p, m, k) == 1
            want = AbelianInvariants(0, (p,) if fixed else ())
            assert _coinvariants(ident, 2 * k - 1, cm) == want


def test_power_map_formula_values():
    assert power_map_homology_cyclic(5, 2, 1) == 2
    assert power_map_homology_cyclic(7, 3, 3) == 6
    assert power_map_homology_cyclic(11, 2, 3) == 8
    assert power_map_homology_cyclic(23, 1, 4) == 1
    with pytest.raises(ValueError):
        power_map_homology_cyclic(6, 5, 1)
    with pytest.raises(ValueError):
        power_map_homology_cyclic(5, 10, 1)
    with pytest.raises(ValueError):
        power_map_homology_cyclic(5, 2, 0)


def test_chain_map_rejects_bad_phi():
    R3 = resolution_small(symmetric(3), 2)
    with pytest.raises(ValueError):
        chain_map(lambda g: inv(g), R3, R3)  # antihomomorphism
    Rz = resolution_small(cyclic(3), 2)
    with pytest.raises(ValueError):
        chain_map(lambda g: g, R3, Rz)


def test_conjugate_renames_elements_and_shares_the_rest():
    G = dihedral(4)
    R = resolution_small(G, 4)
    q = (2, 0, 3, 1)
    Rq = R.conjugate(q)
    assert Rq.G.elements == tuple(conj(q, e) for e in R.G.elements)
    assert sorted(Rq.G.elements) == sorted(
        PermGroup([conj(q, g) for g in G.generators], 4).elements()
    )
    assert Rq.G._mul is R.G._mul and Rq.G.inverse is R.G.inverse
    assert Rq.ranks == R.ranks and Rq._d is R._d and Rq._h is R._h
    els = Rq.G.elements
    assert all(
        mul(a, b) == els[Rq.G.mul(i, j)]
        for i, a in enumerate(els)
        for j, b in enumerate(els)
    )
    Rq._verify()
    assert [resolution_homology(Rq, k) for k in range(1, 4)] == [
        resolution_homology(R, k) for k in range(1, 4)
    ]


# -- tensor products -----------------------------------------------------


def s2_and_s3():
    """Sym{0,1} and Sym{2,3,4}, resolved to depth 3."""
    A = PermGroup([(1, 0, 2, 3, 4)], 5)
    B = PermGroup([(0, 1, 3, 4, 2), (0, 1, 3, 2, 4)], 5)
    return resolution_small(A, 3), resolution_small(B, 3)


def product_boundaries(F, E, P, koszul=True):
    """d(x (x) y) = dx (x) y + (-1)^k1 x (x) dy, written out over P's
    group with P's generators (k1, i, j) in lexicographic order."""
    A, B = F.G, E.G
    at = lambda a, b: P.G.index[mul(A.elements[a], B.elements[b])]
    gens = [
        [(k1, i, j) for k1 in range(k + 1)
         for i in range(F.ranks[k1]) for j in range(E.ranks[k - k1])]
        for k in range(P.length + 1)
    ]
    d = {}
    for k in range(1, P.length + 1):
        low = gens[k - 1].index
        imgs = []
        for k1, i, j in gens[k]:
            img = Counter()
            if k1:
                for y, c in F.boundary(k1, i).items():
                    i2, a = divmod(y, A.n)
                    img[low((k1 - 1, i2, j)) * P.G.n + at(a, B.id)] += c
            if k1 < k:
                s = (-1) ** k1 if koszul else 1
                for y, c in E.boundary(k - k1, j).items():
                    j2, b = divmod(y, B.n)
                    img[low((k1, i, j2)) * P.G.n + at(A.id, b)] += s * c
            imgs.append(nonzero(img))
        d[k] = tuple(imgs)
    return d


def test_tensor_boundary_carries_the_koszul_sign():
    F, E = s2_and_s3()
    P = tensor_resolution(F, E)
    assert P.ranks == (1, 3, 6, 10) and P.aug == (1,)
    assert sorted(P.G.elements) == sorted(
        PermGroup(F.G.group.generators + E.G.group.generators, 5).elements()
    )
    assert P._d == product_boundaries(F, E, P)
    with pytest.raises(InvariantViolation, match="d.d != 0"):
        FreeResolution(P.G, P.ranks, product_boundaries(F, E, P, koszul=False),
                       P.aug, P.h)


def test_tensor_homotopy_needs_the_section_term():
    # h_E = 0 leaves h = h_F (x) 1, without section.aug_F (x) h_E
    F, E = s2_and_s3()
    flat = FreeResolution(E.G, E.ranks, E._d, E.aug,
                          lambda k, e, j: {}, verify=False)
    with pytest.raises(InvariantViolation, match="homotopy identity|d_1 h_0"):
        tensor_resolution(F, flat)


def test_tensor_factors_must_be_disjoint():
    F, _ = s2_and_s3()
    with pytest.raises(ValueError, match="disjoint"):
        tensor_resolution(F, F)
