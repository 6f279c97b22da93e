"""Known values of Mathieu group homology, end to end through the CLI.

H_2(M22) = Z/12 is the ATLAS Schur multiplier, so its 3-part is Z/3.
The ATLAS multiplier H_2(M12) = Z/2 is its own 2-part; it is read off
the double cosets of a nonabelian Sylow 2-subgroup of order 64, under
seed 0 and under seed 1; the second ran past 90 s while the small
resolutions picked kernel generators by support, and H_3(M11) under
seed 245 past 150 s.
H_3(M11) = Z/8 and H_5(M23) = Z/7 are named in the paper.  With the
ATLAS multiplier H_2(M23) = 1 they make the 3-part of H_n(M23) trivial
for n = 1..5; the Sylow 3-subgroup 3^2 is abelian, so that is read off
N_G(P), of index 70,840.  The Sylow 3-subgroup 3^{1+2} of M24 is not
abelian: its double cosets need the index 9,067,520, past the
double-coset cap, so that request must stop with exit 2.  So must the
normalizer route when its conjugation orbit outgrows its cap.
H_3(M11) and the whole of H_2(M12) also come from the paper's second
method, with no Sylow subgroup and so no seed: Wall assembly over the
flag complex with rings 0..4, each cell orbit entering as a permutation
module twisted by its orientation character.
"""

import json
import time

import pytest

from permhomology import errors
from permhomology.cli import main


@pytest.mark.parametrize("request_, degree, want", [
    ("homology M22 -n 2 -p 3", 2, [3]),
    ("homology M11 -n 3 -p 2", 3, [8]),
    ("homology M23 -n 5 --p-min 5", 5, [7]),
    ("homology M12 -n 2 -p 2 --seed 0", 2, [2]),
    ("homology M11 -n 3 --method wall --complex flags --dims 0,1,2,3,4", 3, [8]),
    ("homology M12 -n 2 --method wall --complex flags --dims 0,1,2,3,4", 2, [2]),
])
def test_known_value(capsys, request_, degree, want):
    assert main(request_.split()) == 0
    out = json.loads(capsys.readouterr().out)
    got = {r["degree"]: r["invariants"] for r in out["results"]}
    assert got == {degree: want}


@pytest.mark.parametrize("request_, want, bound", [
    ("homology M11 -n 1 --to 3 -p 2 --seed 245", {1: [], 2: [], 3: [8]}, 5.0),
    ("homology M12 -n 2 -p 2 --seed 1", {2: [2]}, 30.0),
])
def test_seeds_that_stalled_finish(capsys, request_, want, bound):
    start = time.perf_counter()
    assert main(request_.split()) == 0
    assert time.perf_counter() - start < bound
    out = json.loads(capsys.readouterr().out)
    assert {r["degree"]: r["invariants"] for r in out["results"]} == want


def test_m23_three_part_is_trivial_to_degree_five(capsys):
    assert main("homology M23 -n 1 --to 5 -p 3".split()) == 0
    out = json.loads(capsys.readouterr().out)
    got = {r["degree"]: r["invariants"] for r in out["results"]}
    assert got == {n: [] for n in range(1, 6)}
    assert {r["method"] for r in out["results"]} == {"sylow-ce"}


def test_m24_three_part_stops_at_the_index_cap(capsys):
    assert main("homology M24 -n 3 -p 3".split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "cap-exceeded"
    assert "index 9067520" in err["detail"]


def test_normalizer_route_stops_at_the_orbit_cap(capsys, monkeypatch):
    # the Sylow 3-subgroup of M11 has 55 conjugates
    monkeypatch.setattr(errors, "SUBGROUP_ORBIT_CAP", 54)
    assert main("homology M11 -n 2 -p 3".split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "cap-exceeded"
    assert err["detail"] == "orbit exceeded cap 54"
    assert err["attained"] == 54
    monkeypatch.setattr(errors, "SUBGROUP_ORBIT_CAP", 55)
    assert main("homology M11 -n 2 -p 3".split()) == 0
