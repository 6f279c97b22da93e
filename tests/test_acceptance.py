"""Known values of Mathieu group homology, end to end through the CLI.

H_2(M22) = Z/12 is the ATLAS Schur multiplier, so its 3-part is Z/3.
H_3(M11) = Z/8 and H_5(M23) = Z/7 are named in the paper.  The 3-part
of H_2(M23) needs the double cosets of a Sylow 3-subgroup of index
1,133,440, past the double-coset cap, so it must stop with exit 2.
"""

import json

import pytest

from permhomology.cli import main


@pytest.mark.parametrize("request_, degree, want", [
    ("homology M22 -n 2 -p 3", 2, [3]),
    ("homology M11 -n 3 -p 2", 3, [8]),
    ("homology M23 -n 5 --p-min 5", 5, [7]),
])
def test_known_value(capsys, request_, degree, want):
    assert main(request_.split()) == 0
    out = json.loads(capsys.readouterr().out)
    got = {r["degree"]: r["invariants"] for r in out["results"]}
    assert got == {degree: want}


def test_m23_three_part_stops_at_the_index_cap(capsys):
    assert main("homology M23 -n 2 -p 3".split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "cap-exceeded"
    assert "index 1133440" in err["detail"]
