"""Command line surface: formats, methods, exit codes, determinism."""

import json
import os

import pytest

from permhomology import cli, polytope, sylow
from permhomology.catalog import group_from_cycles
from permhomology.cli import main
from permhomology.errors import CapExceeded, InvariantViolation


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv)
    assert rc == 0
    return json.loads(out)


def test_homology_cyclic_formatting(capsys):
    d = run_json(capsys, "homology", "Z12", "-n", "3")
    (r,) = d["results"]
    assert r["invariants"] == [4, 3]
    assert r["method"] == "small"
    assert d["order"] == 12


def test_homology_m24_seven_part(capsys):
    d = run_json(capsys, "homology", "M24", "-n", "3", "-p", "7")
    assert d["results"][0]["invariants"] == []
    assert d["results"][0]["method"] == "sylow"
    assert d["p_restriction"] == 7


def test_homology_m23_degree_five_large_primes(capsys):
    d = run_json(capsys, "homology", "M23", "-n", "5", "--p-min", "5")
    assert d["results"][0]["invariants"] == [7]
    assert d["p_restriction"] == ">=5"


def test_homology_degree_range_with_restriction(capsys):
    d = run_json(capsys, "homology", "Z12", "-n", "1", "--to", "3", "-p", "2")
    got = {r["degree"]: r["invariants"] for r in d["results"]}
    assert got == {1: [4], 2: [], 3: [4]}


def test_restricted_small_route_matches_sylow(capsys):
    # the only path into the CLI's prime restriction of a resolution
    for restrict, want in ((["-p", "2"], {1: [4], 2: [], 3: [4]}),
                           (["--p-min", "3"], {1: [3], 2: [], 3: [3]})):
        got = {}
        for method in ("small", "sylow"):
            d = run_json(capsys, "homology", "Z12", "-n", "1", "--to", "3",
                         "--method", method, *restrict)
            got[method] = {r["degree"]: r["invariants"] for r in d["results"]}
        assert got["small"] == got["sylow"] == want


def test_wall_method_polygon(capsys):
    d = run_json(capsys, "homology", "Z4", "-n", "1", "--to", "3",
                 "--method", "wall")
    got = {r["degree"]: r["invariants"] for r in d["results"]}
    assert got == {1: [4], 2: [], 3: [4]}
    assert d["results"][0]["method"] == "wall"


def test_wall_polygon_splice_failure_is_not_rerouted(capsys, monkeypatch):
    # Z4 fixes the square's 2-cell, so the polygon route splices; a
    # failed splice must surface as exit 3, not fall back to from_cells
    def broken_splice(ecc):
        raise InvariantViolation("solid does not expand to a point")

    monkeypatch.setattr(cli, "splice", broken_splice)
    assert main(["homology", "Z4", "-n", "1", "--method", "wall"]) == 3


def test_wall_flags_max_dim_range(capsys):
    # the S4 complex with rings 0 has dimensions 0..2, and degree n
    # needs cells up to dimension n + 1
    base = ["homology", "S4", "-n", "1", "--method", "wall",
            "--complex", "flags", "--dims", "0"]
    assert main(base + ["--to", "2", "--max-dim", "1"]) == 2
    assert main(base + ["--to", "2", "--max-dim", "9"]) == 2
    d = run_json(capsys, *base, "--to", "1", "--max-dim", "2")
    assert d["results"][0]["invariants"] == [2]


def test_flags_options_need_the_flags_route(capsys):
    assert main(["homology", "Z4", "-n", "1", "--to", "3", "--method", "wall",
                 "--max-dim", "1", "--dims", "5"]) == 2
    assert main(["homology", "Z4", "-n", "1", "--to", "2", "--method",
                 "small", "--complex", "flags", "--max-dim", "1"]) == 2
    assert main(["homology", "Z4", "-n", "1", "--dims", "0"]) == 2
    err = capsys.readouterr().err
    assert err.count('"bad-input"') == 3
    assert "--dims applies only to --method wall --complex flags" in err
    # the flags route still defaults to rings 0,1
    base = ["homology", "S4", "-n", "1", "--method", "wall",
            "--complex", "flags"]
    assert run_json(capsys, *base) == run_json(capsys, *base, "--dims", "0,1")


def test_wall_options_need_the_wall_route(capsys):
    for argv, flag in (
        (["--method", "small", "--complex", "flags"], "--complex"),
        (["-p", "2", "--complex", "flags"], "--complex"),
        (["--method", "small", "--rank-cap", "5"], "--rank-cap"),
        (["--flag-cap", "9"], "--flag-cap"),
    ):
        assert main(["homology", "Z4", "-n", "1"] + argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "error": "bad-input",
            "detail": f"{flag} applies only to --method wall",
        }
    # on the wall route the defaults are filled in: polygon and both caps
    base = ["homology", "Z4", "-n", "1", "--to", "3", "--method", "wall"]
    explicit = base + ["--complex", "polygon", "--flag-cap", str(cli.CLI_FLAG_CAP),
                       "--rank-cap", str(cli.WALL_RANK_CAP)]
    assert run_json(capsys, *base) == run_json(capsys, *explicit)


def test_cap_error_reports_attained_count(capsys, monkeypatch):
    monkeypatch.setattr(sylow, "CYCLIC_ORBIT_CAP", 1000)
    assert main(["ppart-table", "--groups", "M22", "--primes", "7"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {
        "error": "cap-exceeded",
        "detail": "cyclic conjugation orbit exceeded cap 1000",
        "attained": 1000,
    }


def test_cap_error_reports_attained_subgroup(capsys, monkeypatch):
    Q = group_from_cycles(["(1,2)(3,4)", "(1,3)(2,4)"], 4)

    def capped(G, p, seed=0):
        raise CapExceeded("normalizer too big", attained=Q)

    monkeypatch.setattr(cli, "weyl_exponent", capped)
    assert main(["ppart-table", "--groups", "S4", "--primes", "3"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["attained"] == {"order": 4, "generators": ["(1,2)(3,4)", "(1,3)(2,4)"]}
    # nothing certified: no "attained" key at all
    assert main(["homology", "M24", "-n", "3"]) == 2
    assert "attained" not in json.loads(capsys.readouterr().err)


def test_bar_method(capsys):
    d = run_json(capsys, "homology", "Z4", "-n", "2", "--method", "bar")
    assert d["results"][0]["invariants"] == []


def test_report_envelope_and_determinism(capsys):
    rc1, out1 = run(capsys, "homology", "Z6", "-n", "3")
    rc2, out2 = run(capsys, "homology", "Z6", "-n", "3")
    assert (rc1, rc2) == (0, 0)
    assert out1 == out2
    d = json.loads(out1)
    for key in ("tool", "version", "seed", "ce_convention", "command"):
        assert key in d


def test_big_group_without_route_hits_cap(capsys):
    rc = main(["homology", "M24", "-n", "3"])
    assert rc == 2


def test_unknown_group_is_bad_input(capsys):
    rc = main(["homology", "NOSUCH", "-n", "1"])
    assert rc == 2


def test_ppart_table_csv(capsys):
    rc, out = run(capsys, "ppart-table", "--groups", "S3,S5",
                  "--primes", "3,5", "--csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "group,3,5"
    assert lines[1] == "S3,4k-1,-"
    assert lines[2].startswith("S5,")


def test_wythoff_m24_report(capsys):
    d = run_json(capsys, "wythoff", "M24", "--rings", "0,1,2,3,4")
    assert d["f_vector"]["0"] == 5100480
    assert d["f_vector"]["1"] == 58655520
    assert d["vertex_degree"] == 23
    eo = d["edge_orbits"]
    assert eo["vertex_stabilizer_order"] == 48
    assert sorted(o["stabilizer_order"] for o in eo["orbits"]) == \
        [6, 32, 96, 96, 96, 96]


def test_wythoff_orbit_mode(capsys):
    d = run_json(capsys, "wythoff", "M22", "--rings", "0,1,2",
                 "--orbit-dim", "0")
    orbits = d["orbits"]
    assert orbits["counts"] == [1]
    assert len(orbits["chain_ranks"]) == 1
    assert orbits["stabilizer_orders"] == [[48]]
    for k, stabs in enumerate(orbits["stabilizer_orders"]):
        assert len(stabs) == orbits["counts"][k]
        assert sum(d["order"] // s for s in stabs) == d["f_vector"][str(k)]


def test_wythoff_orbit_dim_range(capsys):
    # the S4 complex with rings 0 has dimensions 0..2
    assert main(["wythoff", "S4", "--rings", "0", "--orbit-dim", "-1"]) == 2
    assert main(["wythoff", "S4", "--rings", "0", "--orbit-dim", "3"]) == 2
    d = run_json(capsys, "wythoff", "S4", "--rings", "0", "--orbit-dim", "2")
    assert len(d["orbits"]["counts"]) == 3


def test_threads_bounded(capsys, monkeypatch):
    seen = []

    def fake_vertex_degree(pts, i, gens=(), threads=1):
        seen.append(threads)
        return 2

    monkeypatch.setattr(polytope, "vertex_degree", fake_vertex_degree)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    run_json(capsys, "edge-degree", "S3", "--vector", "1,2,3", "--threads", "64")
    run_json(capsys, "edge-degree", "S3", "--vector", "1,2,3")
    assert seen == [2, 1]
    assert main(["edge-degree", "S3", "--vector", "1,2,3", "--threads", "0"]) == 2
    assert seen == [2, 1]
    with pytest.raises(SystemExit):
        main(["homology", "Z4", "-n", "1", "--threads", "2"])


def test_edge_degree_hexagon(capsys, tmp_path):
    dump = tmp_path / "points.csv"
    d = run_json(capsys, "edge-degree", "S3", "--vector", "1,2,3",
                 "--dump-points", str(dump))
    assert d["points"] == 6
    assert d["degree"] == 2
    assert d["edges"] == 6
    assert len(dump.read_text().strip().splitlines()) == 6


def test_edge_degree_vertex_range(capsys):
    for vertex in ("6", "-1"):
        rc = main(["edge-degree", "S3", "--vector", "1,2,3", "--vertex", vertex])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "bad-input",
                       "detail": "--vertex must be in 0..5"}
    d = run_json(capsys, "edge-degree", "S3", "--vector", "1,2,3",
                 "--vertex", "5")
    assert (d["vertex_index"], d["degree"]) == (5, 2)


def test_edge_degree_matches_benchmark_record(capsys):
    # bench/expected.json holds the benchmark's recorded answers, keyed
    # by request without --seed; it is only read here
    request = "edge-degree M11 --vector 1,1,1,0,0,0,0,0,0,0,0"
    path = os.path.join(os.path.dirname(__file__), "..", "bench",
                        "expected.json")
    with open(path) as fh:
        want = json.load(fh)[request]
    d = run_json(capsys, *request.split())
    d.pop("seed")
    assert d == want


def test_resolution_report(capsys):
    d = run_json(capsys, "resolution", "Z6", "--length", "3")
    assert d["ranks"] == [1, 1, 1, 1]
    assert d["homology"][0] == {"degree": 1, "invariants": [2, 3]}
    h = run_json(capsys, "homology", "Z6", "-n", "1")
    assert d["group"] == h["group"]
    b = run_json(capsys, "resolution", "Z6", "--length", "3",
                 "--method", "bar")
    assert b["ranks"] == [1, 5, 25, 125]
    assert b["homology"][0] == {"degree": 1, "invariants": [2, 3]}
    assert b["group"] == h["group"]


def test_csv_homology(capsys):
    rc, out = run(capsys, "homology", "Z12", "-n", "3", "--csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,invariants,method"
    assert lines[1] == "3,4 3,small"
