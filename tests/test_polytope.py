"""Orbit polytopes: exact points, support programs, edge counting."""

import csv
import io
import itertools
import json
import random
from fractions import Fraction

import pytest

import lp_oracle
from permhomology.catalog import alternating, cyclic, lookup, symmetric
from permhomology.cli import main
from permhomology.equivariant import flag_edge_orbits
from permhomology.errors import CapExceeded, InvariantViolation
from permhomology.permgroup import schreier_stabilizer
from permhomology import polytope as pt


def stabilizer_gens(G, pts, i):
    return schreier_stabilizer(G, G.orbit_data(pts[i], pt.act_vec)).generators


def cli_json(capsys, *argv):
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


@pytest.fixture
def edge_gap_calls(monkeypatch):
    calls = []
    solve = pt.edge_gap

    def counted(points, i, j):
        calls.append((i, j))
        return solve(points, i, j)

    monkeypatch.setattr(pt, "edge_gap", counted)
    return calls


def test_act_vec_moves_positions():
    assert pt.act_vec((1, 2, 0), (5, 6, 7)) == (7, 5, 6)


def test_lp_min_simple_bound():
    r = pt.lp_min([-1, -1], [[1, 1]], [1], [], [])
    assert r.value == -1
    assert sum(r.x) == 1
    assert r.y == (-1,)


def test_lp_min_with_equality():
    r = pt.lp_min([1, 0], [[1, 1]], [10], [[1, -1]], [2])
    assert r.value == 2
    assert r.x[0] - r.x[1] == 2


def test_lp_min_infeasible():
    with pytest.raises(InvariantViolation, match="infeasible"):
        pt.lp_min([0], [[1]], [-1], [], [])


def test_lp_min_unbounded():
    with pytest.raises(InvariantViolation, match="unbounded"):
        pt.lp_min([-1], [], [], [], [])


def test_orbit_points_square():
    pts = pt.orbit_points(cyclic(4), (1, 0, -1, 0))
    assert len(pts) == 4
    assert all(isinstance(x, Fraction) for p in pts for x in p)
    assert pts == tuple(sorted(pts))


def test_orbit_points_length_mismatch():
    with pytest.raises(ValueError):
        pt.orbit_points(cyclic(4), (1, 0, -1))


def test_orbit_points_cap():
    with pytest.raises(CapExceeded):
        pt.orbit_points(symmetric(4), (1, 2, 3, 4), cap=5)


def test_square_edges():
    # sorted orbit puts the two antipodal pairs at (0,3) and (1,2)
    pts = pt.orbit_points(cyclic(4), (1, 0, -1, 0))
    assert pt.edge_gap(pts, 0, 1) == 1
    assert pt.edge_gap(pts, 0, 2) == 1
    assert pt.edge_gap(pts, 0, 3) == 0
    assert not pt.is_edge(pts, 1, 2)


def test_edge_test_is_symmetric():
    pts = pt.orbit_points(symmetric(3), (1, 2, 3))
    for i in range(1, 6):
        assert pt.edge_gap(pts, 0, i) == pt.edge_gap(pts, i, 0)


def test_hexagon_degrees():
    pts = pt.orbit_points(symmetric(3), (1, 2, 3))
    assert len(pts) == 6
    degs = [pt.vertex_degree(pts, i) for i in range(6)]
    assert degs == [2] * 6
    assert pt.edge_count(pts, 2) == 6


def test_translation_invariance():
    G = symmetric(3)
    pts = pt.orbit_points(G, (1, 2, 3))
    for g in G.generators:
        for i, j in [(0, 1), (0, 3), (2, 5)]:
            gi = pts.index(pt.act_vec(g, pts[i]))
            gj = pts.index(pt.act_vec(g, pts[j]))
            assert pt.is_edge(pts, i, j) == pt.is_edge(pts, gi, gj)


def test_permutohedron_s4():
    # truncated octahedron: 24 vertices of degree 3, 36 edges
    pts = pt.orbit_points(symmetric(4), (1, 2, 3, 4))
    assert len(pts) == 24
    assert pt.vertex_degree(pts, 0) == 3
    assert pt.edge_count(pts, 3) == 36


def test_vertex_degree_threads_agree():
    pts = pt.orbit_points(symmetric(3), (1, 2, 3))
    assert pt.vertex_degree(pts, 0, threads=2) == pt.vertex_degree(pts, 0)
    # a stabilizer of order 2: the representatives, not the points, are
    # spread over the pool
    G = symmetric(4)
    pts = pt.orbit_points(G, (1, 1, 2, 3))
    gens = stabilizer_gens(G, pts, 5)
    assert len(gens) == 1
    one = pt.vertex_degree(pts, 5, gens)
    assert pt.vertex_degree(pts, 5, gens, threads=2) == one == 3


@pytest.mark.parametrize("n", [4, 5])
def test_pruned_degree_matches_wythoff_count(capsys, n):
    # ring r means coordinates r and r + 1 of the sorted vector differ
    for r in range(1, n):
        for rings in itertools.combinations(range(n - 1), r):
            v = [1]
            for k in range(n - 1):
                v.append(v[-1] + (k in rings))
            e = cli_json(capsys, "edge-degree", f"S{n}",
                         "--vector", ",".join(map(str, v)))
            w = cli_json(capsys, "wythoff", f"S{n}",
                         "--rings", ",".join(map(str, rings)))
            assert e["degree"] == w["vertex_degree"], (rings, v)
            if rings == (0, 2) and n == 5:
                assert v == [1, 2, 2, 3, 3] and e["degree"] == 6


def test_pruned_degree_matches_sweep_at_every_vertex():
    # vertex stabilizers of order 6 and 12 on the same ten points
    for G in (alternating(5), symmetric(5)):
        pts = pt.orbit_points(G, (1, 1, 1, 2, 2))
        for i in range(len(pts)):
            pruned = pt.vertex_degree(pts, i, stabilizer_gens(G, pts, i))
            assert pruned == pt.vertex_degree(pts, i) == 6


def test_pruned_degree_m11_two_sets():
    # M11 is transitive on the 55 points, so the hull is vertex
    # transitive and one sweep gives the degree at every vertex
    G = lookup("M11")
    pts = pt.orbit_points(G, (1, 1) + (0,) * 9)
    sweep = pt.vertex_degree(pts, 0)
    assert sweep == 18
    for i in range(len(pts)):
        assert pt.vertex_degree(pts, i, stabilizer_gens(G, pts, i)) == sweep


@pytest.mark.parametrize("name, k, want", [
    ("S5", 0, (5, 4, 10)),
    ("S5", 1, (20, 4, 40)),
    ("S5", 2, (60, 4, 120)),
    ("S6", 0, (6, 5, 15)),
    ("S6", 1, (30, 5, 75)),
    ("A6", 0, (6, 5, 15)),
    ("A6", 1, (30, 5, 75)),
    ("M11", 1, (110, 10, 550)),
])
def test_flag_edge_orbits_match_lp_sweep(name, k, want):
    # G is transitive on ordered (k+1)-tuples, so the G-orbit of
    # (k+1, k, ..., 1, 0, ..., 0) is its whole S_n-orbit, and star
    # counting in the flag complex must agree with the exact LP sweep
    G = lookup(name)
    v = tuple(range(k + 1, 0, -1)) + (0,) * (G.degree - k - 1)
    pts = pt.orbit_points(G, v)
    i = pts.index(v)
    deg = pt.vertex_degree(pts, i, stabilizer_gens(G, pts, i))
    star = flag_edge_orbits(G, range(k + 1))
    assert (len(pts), deg, pt.edge_count(pts, deg)) == want
    assert (star["vertex_count"], star["vertex_degree"], star["edge_count"]) == want


def test_one_program_per_stabilizer_orbit(capsys, edge_gap_calls):
    d = cli_json(capsys, "edge-degree", "M11",
                 "--vector", "1,1,1,0,0,0,0,0,0,0,0")
    assert (d["degree"], d["lp_count"], len(edge_gap_calls)) == (24, 164, 7)
    edge_gap_calls.clear()
    d = cli_json(capsys, "edge-degree", "S5", "--vector", "1,2,3,4,5")
    assert (d["degree"], d["lp_count"], len(edge_gap_calls)) == (4, 119, 119)


def test_vertex_degree_rejects_bad_generators():
    G = symmetric(4)
    pts = pt.orbit_points(G, (1, 1, 2, 3))
    moves = next(g for g in G.generators if pt.act_vec(g, pts[0]) != pts[0])
    with pytest.raises(InvariantViolation, match="moves the vertex"):
        pt.vertex_degree(pts, 0, [moves])
    # fixes pts[0] = (1, 1, 2, 3) but leaves the subset it is given
    swap = (1, 0, 2, 3)
    assert pt.act_vec(swap, pts[0]) == pts[0]
    subset = [p for p in pts if p[0] <= p[1]]
    with pytest.raises(InvariantViolation, match="outside the set"):
        pt.vertex_degree(subset, 0, [swap])


def test_edge_count_odd_sum():
    with pytest.raises(InvariantViolation):
        pt.edge_count([(0,)] * 5, 3)


def test_points_csv_round_trip():
    pts = pt.orbit_points(cyclic(4), (Fraction(1, 2), 0, Fraction(-1, 2), 0))
    buf = io.StringIO()
    pt.points_csv(pts, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    back = tuple(tuple(Fraction(s) for s in row) for row in rows)
    assert back == pts


def test_distinct_points_required():
    pts = pt.orbit_points(cyclic(4), (1, 0, -1, 0))
    with pytest.raises(ValueError):
        pt.edge_gap(pts, 2, 2)



# -- the integer simplex against the Fraction oracle ---------------------


def outcome(solve, *program):
    """The LPResult, or the message of the InvariantViolation raised."""
    try:
        return solve(*program)
    except InvariantViolation as exc:
        return str(exc)


@pytest.fixture
def lp_programs(monkeypatch):
    programs = []
    solve = pt.lp_min

    def recorded(*program):
        programs.append(program)
        return solve(*program)

    monkeypatch.setattr(pt, "lp_min", recorded)
    return programs, solve


@pytest.mark.parametrize("name, v, count", [
    ("S5", (1, 2, 3, 4, 5), 119),
    ("M11", (1, 1, 1) + (0,) * 8, 7),
])
def test_lp_min_matches_oracle_on_sweeps(lp_programs, name, v, count):
    programs, solve = lp_programs
    G = lookup(name)
    pts = pt.orbit_points(G, v)
    i = pts.index(v)
    pt.vertex_degree(pts, i, stabilizer_gens(G, pts, i))
    assert len(programs) == count
    for program in programs:
        assert solve(*program) == lp_oracle.lp_min(*program)


def test_edge_gap_matches_fraction_program():
    # the gap on the integer points, divided back, is the optimum of the
    # program built from the points' Fractions
    G = lookup("M11")
    v = (1, 1, 1) + (0,) * 8
    pts = pt.orbit_points(G, v)
    i = pts.index(v)
    for j in (k for k in (0, 1, 2, 5, 40, 100, 164) if k != i):
        want = lp_oracle.lp_min(*lp_oracle.fraction_edge_program(pts, i, j))
        assert pt.edge_gap(pts, i, j) == want.value


def random_fraction(rng):
    return Fraction(rng.randrange(-4, 5), rng.randrange(1, 5))


@pytest.mark.parametrize("seed", range(4))
def test_lp_min_matches_oracle_on_random_programs(seed):
    rng = random.Random(seed)
    solved = 0
    for _ in range(60):
        nv = rng.randrange(1, 5)
        nub, neq = rng.randrange(4), rng.randrange(3)
        # a zero objective makes x the point phase one reaches
        zero = rng.randrange(3) == 0
        program = (
            [0 if zero else random_fraction(rng) for _ in range(nv)],
            [[random_fraction(rng) for _ in range(nv)] for _ in range(nub)],
            [random_fraction(rng) for _ in range(nub)],
            [[random_fraction(rng) for _ in range(nv)] for _ in range(neq)],
            [random_fraction(rng) for _ in range(neq)],
        )
        got = outcome(pt.lp_min, *program)
        assert got == outcome(lp_oracle.lp_min, *program), program
        solved += isinstance(got, pt.LPResult)
    assert solved > 10


def test_lp_min_matches_oracle_on_flipped_rows():
    # negative right-hand sides: the rows are stored negated, their
    # artificials start the basis, and the prices come back negated
    obj, A_ub, b_ub, A_eq, b_eq = program = (
        [1, 2, Fraction(1, 3)],
        [[-1, -1, 0], [Fraction(-1, 2), 1, -2], [1, 0, 1]],
        [-2, Fraction(-3, 4), 5],
        [[1, -1, Fraction(2, 3)]], [Fraction(-1, 5)],
    )
    got = pt.lp_min(*program)
    assert got == lp_oracle.lp_min(*program)
    # x is feasible and its value is met by the prices: b . y = obj . x
    dot = lambda a, b: sum(p * q for p, q in zip(a, b))
    assert all(dot(a, got.x) <= b for a, b in zip(A_ub, b_ub))
    assert all(dot(a, got.x) == b for a, b in zip(A_eq, b_eq))
    assert got.value == dot(obj, got.x) == dot(b_ub + b_eq, got.y) == Fraction(67, 18)


def test_lp_min_phase_one_weighs_rows_as_given():
    # two flipped rows scaled by 3 and by 1: a feasibility program, so
    # x is wherever phase one stops, and that depends on the artificials
    # being charged as in the unscaled program
    program = ([0, 0, 0], [], [],
               [[2, Fraction(2, 3), -1], [-1, -2, 0]], [-1, -3])
    got = pt.lp_min(*program)
    assert got == lp_oracle.lp_min(*program)
    assert got.x == (0, Fraction(3, 2), 2)


@pytest.fixture
def oracle_bases(monkeypatch):
    bases = []
    run = lp_oracle._Simplex.run

    def recorded(self, c, blocked):
        run(self, c, blocked)
        bases.append((list(self.basis), len(self.cols)))

    monkeypatch.setattr(lp_oracle._Simplex, "run", recorded)
    return bases


def test_lp_min_keeps_a_redundant_row_artificial(oracle_bases):
    program = ([1, 1], [], [], [[1, 2], [2, 4]], [1, 2])
    got = pt.lp_min(*program)
    assert got == lp_oracle.lp_min(*program)
    assert got.value == Fraction(1, 2)
    # columns 2 and 3 are the two artificials; one is still basic
    basis, ncols = oracle_bases[-1]
    assert ncols == 4 and max(basis) >= 2


def test_lp_min_negative_drive_out_pivot(monkeypatch):
    # phase one ends with the artificial basic at zero and the first
    # real column has -2 in its row, so the drive-out pivot is negative
    seen = []
    pivot = pt._Simplex.pivot

    def recorded(self, i, j, d):
        seen.append(d[i])
        pivot(self, i, j, d)

    monkeypatch.setattr(pt._Simplex, "pivot", recorded)
    program = ([0, -2], [], [], [[-2, -2]], [0])
    got = pt.lp_min(*program)
    assert got == lp_oracle.lp_min(*program)
    assert seen[0] < 0
    assert got == pt.LPResult(Fraction(0), (Fraction(0), Fraction(0)),
                              (Fraction(1),))


# -- each certificate check fires on a doctored solution -----------------


def square_gap_with(monkeypatch, value, x, y=(0,) * 9):
    # u = (-1, 0, 1, 0), v = (0, -1, 0, 1): the other points are
    # (0, 1, 0, -1) and (1, 0, -1, 0), and x is (mu, mu, lam+, lam-, z)
    pts = pt.orbit_points(cyclic(4), (1, 0, -1, 0))
    result = pt.LPResult(Fraction(value), tuple(map(Fraction, x)),
                         tuple(map(Fraction, y)))
    monkeypatch.setattr(pt, "lp_min", lambda *program: result)
    return pt.edge_gap(pts, 0, 1)


@pytest.mark.parametrize("value, x, y, message", [
    (0, (Fraction(1, 2), 0, 0, 0, 0), (0,) * 9, "is not convex"),
    (0, (2, -1, 0, 0, 0), (0,) * 9, "is not convex"),
    (0, (1, 0, 0, 0, 1), (0,) * 9, "exceeds the gap"),
    (10, (1, 0, 0, 0, 10), (0, 1, 0, 1, 0, 0, 0, 0, 0), "is not normalized"),
    (10, (1, 0, 0, 0, 10), (0, 1, 0, 0, 0, 0, 0, 0, 0), "separates u from v"),
    (10, (1, 0, 0, 0, 10), (0, Fraction(1, 2), 0, Fraction(1, 2), 0, 0, 0, 0, 0),
     "fails a hull point"),
])
def test_certificate_checks_fire(monkeypatch, value, x, y, message):
    with pytest.raises(InvariantViolation, match=message):
        square_gap_with(monkeypatch, value, x, y)


# -- rational points -----------------------------------------------------


def test_rational_points_scale_out():
    G = symmetric(4)
    rat = pt.orbit_points(G, (Fraction(1, 2), Fraction(1, 3), 0, Fraction(-5, 6)))
    whole = pt.orbit_points(G, (3, 2, 0, -5))
    assert [tuple(6 * x for x in p) for p in rat] == list(whole)
    for i, j in [(0, k) for k in range(1, 24)] + [(5, 17), (23, 11)]:
        gap = pt.edge_gap(rat, i, j)
        assert gap == pt.edge_gap(whole, i, j) / 6
        want = lp_oracle.lp_min(*lp_oracle.fraction_edge_program(rat, i, j))
        assert gap == want.value
    i = 7
    gens = stabilizer_gens(G, rat, i)
    deg = pt.vertex_degree(rat, i, gens)
    assert deg == pt.vertex_degree(whole, i, stabilizer_gens(G, whole, i)) == 3
    assert pt.vertex_degree(rat, i, gens, threads=2) == deg
