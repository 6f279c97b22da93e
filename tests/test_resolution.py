import hashlib
import random

import pytest

from permhomology.catalog import (
    alternating,
    cyclic,
    dihedral,
    klein_four,
    symmetric,
)
from permhomology.errors import CapExceeded, InvariantViolation
from permhomology.homology import resolution_homology
from permhomology.perm import conj, identity, inv, mul
from permhomology.permgroup import PermGroup, fingerprint
from permhomology.resolution import (
    _word_sum,
    ChainMap,
    FreeResolution,
    SmallGroup,
    ZGWord,
    bar_resolution,
    chain_map,
    homology_action,
    load_resolution,
    resolution_small,
    save_resolution,
    tensor_resolution,
    translate_vec,
    vec_to_word,
    word,
    word_add,
    word_scale,
    word_to_vec,
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


# -- words and the group table -------------------------------------------


def test_word_canonical_form():
    w = word(1, [(1, 0, 0), (2, 0, 0), (-3, 0, 0)])
    assert not w and w.terms == ()
    w = word(2, [(1, 3, 1), (1, 0, 0), (2, 3, 1)])
    assert w.terms == ((1, 0, 0), (3, 3, 1))
    assert word_scale(0, w).terms == ()
    with pytest.raises(ValueError):
        word_add(word(1, [(1, 0, 0)]), word(2, [(1, 0, 0)]))


def test_word_vec_roundtrip():
    G = SmallGroup(symmetric(3))
    rng = random.Random(3)
    for _ in range(20):
        w = word(
            2,
            [
                (rng.randrange(-4, 5), rng.randrange(G.n), rng.randrange(3))
                for _ in range(6)
            ],
        )
        v = word_to_vec(G, w)
        assert all(0 <= i < 3 * G.n and c for i, c in v.items())
        assert vec_to_word(G, 2, v) == w


def act_word(G, g, w):
    """g . w as one sorted word: the oracle for translate_vec and _word_sum."""
    return word(w.degree, ((c, G.mul(g, e), j) for c, e, j in w.terms))


def test_act_word_inverse():
    G = SmallGroup(dihedral(4))
    w = word(1, [(2, 1, 0), (-1, 5, 1)])
    for g in range(G.n):
        back = act_word(G, G.inverse[g], act_word(G, g, w))
        assert back == w


def test_translate_vec_matches_act_word():
    G = SmallGroup(symmetric(4))
    rng = random.Random(5)
    for _ in range(20):
        w = random_word(rng, G, 1, 3, 8)
        for g in range(G.n):
            assert translate_vec(G, g, w) == word_to_vec(G, act_word(G, g, w))


# -- the one-dict merge against word_add/word_scale/act_word ---------------


def word_sum_oracle(G, degree, terms):
    """sum of c * (g . w), one sorted word per term, merged by word_add."""
    out = [word_scale(c, act_word(G, g, w)) for c, g, w in terms]
    return word_add(ZGWord(degree, ()), *out)


def random_word(rng, G, degree, rank, size):
    return word(degree, [
        (rng.randrange(-3, 4), rng.randrange(G.n), rng.randrange(rank))
        for _ in range(rng.randrange(size + 1))
    ])


@pytest.mark.parametrize("make", [lambda: symmetric(4), lambda: dihedral(12)],
                         ids=["S4", "D12"])
def test_word_sum_matches_word_oracle(make):
    G = SmallGroup(make())
    rng = random.Random(5)
    for _ in range(200):
        terms = [
            (rng.randrange(-3, 4), rng.randrange(G.n), random_word(rng, G, 2, 3, 6))
            for _ in range(rng.randrange(6))
        ]
        assert _word_sum(G, 2, terms) == word_sum_oracle(G, 2, terms)
    # terms that cancel leave the zero word
    w = random_word(rng, G, 1, 2, 5)
    assert _word_sum(G, 1, [(2, 3, w), (-1, 3, w), (-1, 3, w)]).terms == ()


@pytest.mark.parametrize("make", [lambda: symmetric(4), lambda: dihedral(12)],
                         ids=["S4", "D12"])
def test_apply_and_push_match_word_oracle(make):
    grp = make()
    R = resolution_small(grp, 3)
    G = R.G
    t = grp.generators[0]
    cm = chain_map(lambda g: mul(t, mul(g, inv(t))), R, R)
    rng = random.Random(7)
    for k in range(R.length + 1):
        for _ in range(40):
            w = random_word(rng, G, k, R.ranks[k], 8)
            if k >= 1:
                want = word_sum_oracle(G, k - 1, [
                    (c, e, R.boundary(k, j)) for c, e, j in w.terms
                ])
                assert R.apply_d(k, w) == want
            if k < R.length:
                want = word_add(ZGWord(k + 1, ()), *[
                    word_scale(c, R.h(k, e, j)) for c, e, j in w.terms
                ])
                assert R.apply_h(k, w) == want
            want = word_sum_oracle(G, k, [
                (c, cm.elem_map[e], cm.maps[k][j]) for c, e, j in w.terms
            ])
            assert cm.push(w) == want


def test_small_group_table():
    G = SmallGroup(klein_four())
    assert G.n == 4
    for i in range(G.n):
        assert G.mul(i, G.inverse[i]) == G.id
        assert G.mul(G.id, i) == i
    assert G.fingerprint() == SmallGroup(klein_four()).fingerprint()
    # resolution cache files are named by this value
    assert fingerprint(klein_four()) == G.fingerprint() == "d85fc658b866d0c0"
    assert G.fingerprint() != SmallGroup(cyclic(4)).fingerprint()


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


def test_homotopy_identity_public():
    R = resolution_small(klein_four(), 4)
    G = R.G
    for k in (1, 2):
        for j in range(R.ranks[k]):
            for e in range(G.n):
                x = word(k, [(1, e, j)])
                got = word_add(
                    R.apply_h(k - 1, R.apply_d(k, x)),
                    R.apply_d(k + 1, R.apply_h(k, x)),
                )
                assert got == x


def test_boundary_lands_in_augmentation_kernel():
    R = resolution_small(symmetric(3), 2)
    for j in range(R.ranks[1]):
        for e in range(R.G.n):
            img = R.apply_d(1, word(1, [(1, e, j)]))
            assert R.augment(img) == 0


# -- caching -------------------------------------------------------------


def test_cache_roundtrip(tmp_path):
    R1 = resolution_small(klein_four(), 3, cache_dir=str(tmp_path))
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    R2 = resolution_small(klein_four(), 3, cache_dir=str(tmp_path))
    assert R1.ranks == R2.ranks
    for k in range(1, 4):
        for j in range(R1.ranks[k]):
            assert R1.boundary(k, j) == R2.boundary(k, j)
    for k in range(3):
        for j in range(R1.ranks[k]):
            for e in range(R1.G.n):
                assert R1.h(k, e, j) == R2.h(k, e, j)
    assert invariants_through(R1, 2) == invariants_through(R2, 2)


def test_cache_wrong_group(tmp_path):
    R = resolution_small(klein_four(), 2)
    path = tmp_path / "res.json"
    save_resolution(R, str(path))
    with pytest.raises(ValueError):
        load_resolution(str(path), SmallGroup(cyclic(4)))
    back = load_resolution(str(path), R.G)
    assert back.ranks == R.ranks


def _stabilizer_in_s6(points):
    """The setwise stabilizer of points in S6, generated by all of its
    elements in sorted order, as the flags wall route builds it."""
    e = identity(6)
    return PermGroup(
        [g for g in sorted(symmetric(6).elements())
         if set(g[: len(points)]) == set(points) and g != e]
    )


# sha256 of the save_resolution JSON, recorded before the echelon engine
# went sparse; the engine must reproduce every resolution bit for bit
@pytest.mark.parametrize("make, depth, ranks, sha256", [
    (lambda: symmetric(4), 3, (1, 3, 6, 10),
     "dd6a9fef3bd86bb9cb550cceb9755644cc15977014c09654f0adfaf2f5667eb2"),
    (lambda: _stabilizer_in_s6((0, 1)), 3, (1, 4, 10, 20),
     "7ee719a57a46f3c40d3e4d0ae37a8a5c7dd3cecf995be4590dc4665f0fdc1c6b"),
    (lambda: _stabilizer_in_s6((0, 1, 2, 3)), 3, (1, 4, 10, 21),
     "c96c4ed8574951f82ea14e56e5deb3fb646495f93929793f322ba3a1053dd350"),
], ids=["S4", "S6-stab-pair", "S6-stab-4set"])
def test_small_resolutions_are_pinned(tmp_path, make, depth, ranks, sha256):
    R = resolution_small(make(), depth)
    assert R.ranks == ranks
    path = tmp_path / "res.json"
    save_resolution(R, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_verify_catches_a_broken_boundary():
    R = resolution_small(symmetric(3), 3)
    # d_2 of generator 0 replaced by a degree-1 generator, which is no cycle
    d = dict(R._d)
    d[2] = (word(1, [(1, R.G.id, 0)]),) + d[2][1:]
    with pytest.raises(InvariantViolation, match="d.d != 0 at degree 2"):
        FreeResolution(R.G, R.ranks, d, R.aug, R.h)
    # the resolution itself passes the same check
    FreeResolution(R.G, R.ranks, R._d, R.aug, R.h)


# -- chain maps and induced maps on homology -----------------------------


def test_identity_map_s3():
    R = resolution_small(symmetric(3), 4)
    cm = chain_map(lambda g: g, R, R)
    src, tgt, mat = homology_action(cm, 1)
    assert src == tgt == (2,)
    assert mat == [[1]]
    src, tgt, mat = homology_action(cm, 3)
    assert src == tgt == (6,)
    assert mat == [[1]]


def test_inner_automorphism_trivial_on_homology():
    grp = symmetric(3)
    R = resolution_small(grp, 4)
    t = (1, 0, 2)
    cm = chain_map(lambda g: mul(t, mul(g, inv(t))), R, R)
    for k in (1, 3):
        _, _, mat = homology_action(cm, k)
        assert mat == [[1]]


def test_inclusion_z2_in_z4():
    Rsub = resolution_small(cyclic(2), 3)
    Rbig = resolution_small(cyclic(4), 3)
    sq = mul((1, 2, 3, 0), (1, 2, 3, 0))

    def incl(g):
        return (0, 1, 2, 3) if g == (0, 1) else sq

    cm = chain_map(incl, Rsub, Rbig)
    src, tgt, mat = homology_action(cm, 1)
    assert src == (2,) and tgt == (4,)
    # the nontrivial element of Z2 is the square inside Z4
    assert mat[0][0] % 4 == 2


def test_power_map_matches_formula():
    for p, m in ((5, 2), (7, 3)):
        grp = cyclic(p)
        R = resolution_small(grp, 4)
        cm = chain_map(lambda g: mul(g, g) if m == 2 else mul(g, mul(g, g)), R, R)
        for k in (1, 2):
            src, tgt, mat = homology_action(cm, 2 * k - 1)
            assert src == tgt == (p,)
            assert mat[0][0] % p == power_map_homology_cyclic(p, m, k)


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
            items = []
            if k1:
                items += [(c, at(a, B.id), low((k1 - 1, i2, j)))
                          for c, a, i2 in F.boundary(k1, i).terms]
            if k1 < k:
                s = (-1) ** k1 if koszul else 1
                items += [(s * c, at(A.id, b), low((k1, i, j2)))
                          for c, b, j2 in E.boundary(k - k1, j).terms]
            imgs.append(word(k - 1, items))
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
                          lambda k, e, j: ZGWord(k + 1, ()), verify=False)
    with pytest.raises(InvariantViolation, match="homotopy identity|d_1 h_0"):
        tensor_resolution(F, flat)


def test_tensor_factors_must_be_disjoint():
    F, _ = s2_and_s3()
    with pytest.raises(ValueError, match="disjoint"):
        tensor_resolution(F, F)
