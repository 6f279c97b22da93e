"""Command line surface: formats, methods, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys

import pytest

import permhomology
from permhomology import cli, errors, homology, intlinalg, wall
from permhomology.catalog import group_from_cycles, lookup
from permhomology.cli import main
from permhomology.errors import CapExceeded, InvariantViolation
from permhomology.homology import resolution_homology
from permhomology.resolution import bar_resolution


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
    request = "homology M23 -n 5 --p-min 5"
    d = run_json(capsys, *request.split())
    assert d["results"][0]["invariants"] == [7]
    assert d["p_restriction"] == ">=5"
    d.pop("seed")
    assert d == _benchmark_record(request)


@pytest.mark.parametrize("argv", [
    "homology S4 -n -1",
    "homology D4 -n -1 --method wall",
    "homology M23 -n -1 -p 23",
    "resolution S4 --length 0",
    "resolution S4 --length -1",
])
def test_out_of_range_degree_is_bad_input(capsys, argv):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "bad-input"


@pytest.mark.parametrize("argv, flag, value", [
    ("homology M11 -n 3 -p 4", "-p", 4),
    ("homology M11 -n 3 -p 9", "-p", 9),
    ("homology M11 -n 3 -p -2", "-p", -2),
    ("homology M11 -n 3 -p 0", "-p", 0),
    ("homology M11 -n 3 -p 1", "-p", 1),
    ("ppart-table --groups M11 --primes 0", "--primes", 0),
    ("ppart-table --groups M11 --primes 5,4", "--primes", 4),
])
def test_non_prime_is_bad_input(capsys, argv, flag, value):
    # -p 4 used to answer [] where the 2-part of H_3(M11) is [8], and
    # -p 0 died with ZeroDivisionError
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "bad-input", "detail": f"{flag} must be prime, not {value}",
    }


def test_flag_cap_bounds_both_wall_complexes(capsys, monkeypatch):
    base = ["homology", "D12", "-n", "1", "--to", "2", "--method", "wall",
            "--complex"]
    for kind in ("polygon", "flags"):
        d = run_json(capsys, *base, kind)
        got = {r["degree"]: r["invariants"] for r in d["results"]}
        assert got == {1: [2, 2], 2: [2]}
    monkeypatch.setattr(errors, "FLAG_CAP", 1)
    for kind in ("polygon", "flags"):
        assert main(base + [kind]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "cap-exceeded",
                       "detail": "2 internal flags in one cell"}


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

    monkeypatch.setattr(wall, "splice", broken_splice)
    assert main(["homology", "Z4", "-n", "1", "--method", "wall"]) == 3


def test_free_rank_in_a_positive_degree_exits_3(capsys):
    # the flags complex of A4 on rings 0,2 is a sphere, not a solid, so
    # the wall route reads a free Z into H_2, where the small route gives
    # [2]; H_n of a finite group is finite for n >= 1
    rc = main(["homology", "A4", "-n", "1", "--to", "2", "--method", "wall",
               "--complex", "flags", "--dims", "0,2"])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "invariant-violation",
                   "detail": "H_2 came out with free rank 1"}


@pytest.mark.xfail(
    strict=True,
    reason="the flags complex on d points is a (d-2)-sphere, so the wall "
    "route reads H_1 of a group of degree 3 from a complex that is not "
    "exact there and prints [2, 2]",
)
@pytest.mark.parametrize("group", ["S3", '{"degree": 3, "generators": ["(1,2)"]}'],
                         ids=["S3", "Z2-on-3-points"])
def test_flags_wall_route_h1_on_three_points(capsys, group):
    # H_1 = Z/2 for both groups; a fixed route either stops (exit 2) or
    # prints [2]
    rc = main(["homology", group, "-n", "1", "--method", "wall", "--complex", "flags"])
    out = capsys.readouterr().out
    assert rc == 2 or (rc == 0 and json.loads(out)["results"][0]["invariants"] == [2])


COMMON_OPTIONS = {"-h", "--help", "--seed", "--json"}

# every option of every subcommand; a new option has to be added here
OPTIONS = {
    "homology": {"-n", "--degree", "--to", "-p", "--prime", "--p-min",
                 "--method", "--complex", "--dims", "--csv"},
    "ppart-table": {"--groups", "--primes", "--csv"},
    "wythoff": {"--rings", "--orbit-dim", "--csv"},
    "edge-degree": {"--vector", "--vertex", "--dump-points", "--csv"},
    "resolution": {"--length"},
    "selftest": set(),
}


def test_option_sets_are_pinned():
    sub = next(a for a in cli._parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {o for a in p._actions for o in a.option_strings}
        for name, p in sub.choices.items()
    }
    assert got == {name: opts | COMMON_OPTIONS for name, opts in OPTIONS.items()}


@pytest.mark.parametrize("argv", [
    ["edge-degree", "S3", "--vector", "1,2,3", "--threads", "2"],
    ["resolution", "Z6", "--length", "3", "--cache-dir", "cache"],
    ["homology", "S4", "-n", "1", "--method", "wall", "--complex", "flags",
     "--dims", "0", "--max-dim", "2"],
    # caps are constants: no flag raises one for a run
    ["homology", "D12", "-n", "1", "--method", "wall", "--flag-cap", "9"],
    ["homology", "D12", "-n", "1", "--method", "wall", "--rank-cap", "9"],
    ["wythoff", "S4", "--rings", "0", "--orbit-dim", "1", "--flag-cap", "9"],
    ["edge-degree", "S3", "--vector", "1,2,3", "--orbit-cap", "9"],
    # the bar resolution is a test oracle, not a route
    ["homology", "Z4", "-n", "2", "--method", "bar"],
    ["resolution", "Z6", "--length", "3", "--method", "bar"],
    ["resolution", "Z6", "--length", "3", "--method", "small"],
])
def test_removed_options_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    # -p used to win over --p-min without a word
    ["homology", "S4", "-n", "1", "-p", "5", "--p-min", "3"],
    # resolution and selftest have no table form; --csv used to do the
    # work and then exit 1 with a traceback
    ["resolution", "Z6", "--length", "3", "--csv"],
    ["selftest", "--csv"],
])
def test_rejected_options_exit_2_before_any_work(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the options were checked")

    for name in ("_group", "_check_snf_transforms"):
        monkeypatch.setattr(cli, name, no_work)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_flags_options_need_the_flags_route(capsys):
    assert main(["homology", "Z4", "-n", "1", "--to", "3", "--method", "wall",
                 "--dims", "5"]) == 2
    assert main(["homology", "Z4", "-n", "1", "--to", "2", "--method",
                 "small", "--complex", "flags"]) == 2
    assert main(["homology", "Z4", "-n", "1", "--dims", "0"]) == 2
    err = capsys.readouterr().err
    assert err.count('"bad-input"') == 3
    assert "--dims applies only to --method wall --complex flags" in err
    # the flags route still defaults to rings 0,1
    base = ["homology", "S4", "-n", "1", "--method", "wall",
            "--complex", "flags"]
    assert run_json(capsys, *base) == run_json(capsys, *base, "--dims", "0,1")
    # degree n decomposes the complex to dimension n + 1; with rings 0
    # that is the whole S4 complex at n = 1
    d = run_json(capsys, *base, "--dims", "0", "--to", "1")
    assert d["results"][0]["invariants"] == [2]


def test_wall_options_need_the_wall_route(capsys):
    for argv in (
        ["--method", "small", "--complex", "flags"],
        ["-p", "2", "--complex", "flags"],
        ["--complex", "polygon"],
    ):
        assert main(["homology", "Z4", "-n", "1"] + argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "error": "bad-input",
            "detail": "--complex applies only to --method wall",
        }
    # on the wall route the complex defaults to the polygon
    base = ["homology", "Z4", "-n", "1", "--to", "3", "--method", "wall"]
    assert run_json(capsys, *base) == run_json(capsys, *base, "--complex", "polygon")


def test_cap_error_reports_attained_count(capsys, monkeypatch):
    monkeypatch.setattr(errors, "NORMALIZER_SEARCH_CAP", 50)
    assert main(["ppart-table", "--groups", "M22", "--primes", "7"]) == 2
    err = json.loads(capsys.readouterr().err)
    # attained: the order of the part of the normalizer found
    assert err == {
        "error": "cap-exceeded",
        "detail": "normalizer search exceeded cap 50 base images",
        "attained": 3,
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


def test_small_route_matches_bar_resolution(capsys):
    d = run_json(capsys, "homology", "Z4", "-n", "2")
    bar = resolution_homology(bar_resolution(lookup("Z4"), 3), 2).as_list()
    assert d["results"][0]["invariants"] == bar == []


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


@pytest.mark.parametrize("spec", [
    '{"degree": 2}',
    '{"degree": "2", "generators": ["(1,2)"]}',
    '{"degree": 2, "generators": 5}',
    '{"degree": 2, "generators": [[2.0, 1]]}',
    '{"degree": -1, "generators": []}',
    '{"degree": true, "generators": []}',
], ids=["no-generators", "string-degree", "number-generators", "float-image",
        "negative-degree", "bool-degree"])
def test_malformed_inline_group_is_bad_input(capsys, spec):
    assert main(["homology", spec, "-n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "bad-input"


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
    d.pop("seed")
    assert d == _benchmark_record("wythoff M24 --rings 0,1,2,3,4")


def test_wythoff_orbit_mode(capsys):
    d = run_json(capsys, "wythoff", "M22", "--rings", "0,1,2",
                 "--orbit-dim", "0")
    orbits = d["orbits"]
    assert orbits["counts"] == [1]
    assert orbits["stabilizer_orders"] == [[48]]
    for k, stabs in enumerate(orbits["stabilizer_orders"]):
        assert len(stabs) == orbits["counts"][k]
        assert sum(d["order"] // s for s in stabs) == d["f_vector"][str(k)]


def test_wythoff_orbit_mode_keeps_reversing_orbits_whole(capsys):
    # 17 orbits, 16 of them reversing their cells' orientation, and
    # each one record
    d = run_json(capsys, "wythoff", "M11", "--rings", "0,1", "--orbit-dim", "5")
    assert d["orbits"] == {
        "counts": [1, 2, 2, 3, 5, 4],
        "stabilizer_orders": [[72], [16, 144], [6, 48], [4, 24, 24],
                              [4, 20, 20, 20, 120], [4, 24, 20, 120]],
    }


def test_wythoff_orbit_dim_range(capsys):
    # the S4 complex with rings 0 has dimensions 0..2
    assert main(["wythoff", "S4", "--rings", "0", "--orbit-dim", "-1"]) == 2
    assert main(["wythoff", "S4", "--rings", "0", "--orbit-dim", "3"]) == 2
    d = run_json(capsys, "wythoff", "S4", "--rings", "0", "--orbit-dim", "2")
    assert len(d["orbits"]["counts"]) == 3


def test_wythoff_stops_at_the_class_cap(capsys, monkeypatch):
    # S12 ringed on every node has 2^11 - 1 essential classes; the count
    # is known before any class is listed
    monkeypatch.setattr(errors, "CLOSED_SET_CAP", 2000)
    assert main(["wythoff", "S12", "--rings", "0,1,2,3,4,5,6,7,8,9,10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert json.loads(captured.err) == {
        "error": "cap-exceeded",
        "detail": "2047 essential classes exceed CLOSED_SET_CAP 2000",
    }


def test_edge_degree_hexagon(capsys, tmp_path):
    dump = tmp_path / "points.csv"
    d = run_json(capsys, "edge-degree", "S3", "--vector", "1,2,3",
                 "--dump-points", str(dump))
    assert d["points"] == 6
    assert d["degree"] == 2
    assert d["edges"] == 6
    assert len(dump.read_text().strip().splitlines()) == 6


def test_edge_degree_unwritable_dump_path_is_bad_input(capsys, tmp_path):
    # an OSError opening the path is bad input, exit 2, not a traceback
    dump = tmp_path / "missing" / "points.csv"
    rc = main(["edge-degree", "S4", "--vector", "1,2,3,4", "--dump-points", str(dump)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    err = json.loads(err)
    assert err["error"] == "bad-input"
    assert "--dump-points" in err["detail"]
    assert not dump.parent.exists()


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


def test_edge_degree_zero_denominator_is_bad_input(capsys):
    # Fraction("1/0") raises ZeroDivisionError, not ValueError
    assert main(["edge-degree", "S4", "--vector", "1/0,2,3,4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "bad-input", "detail": "--vector has a zero denominator: 1/0,2,3,4",
    }


def test_edge_degree_orbit_stops_at_the_point_cap(capsys, monkeypatch):
    # the regular S4 orbit has 24 points
    monkeypatch.setattr(errors, "POINT_CAP", 5)
    assert main(["edge-degree", "S4", "--vector", "1,2,3,4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "cap-exceeded", "detail": "orbit exceeds 5 points", "attained": 5,
    }


def test_edge_degree_matches_benchmark_record(capsys):
    request = "edge-degree M11 --vector 1,1,1,0,0,0,0,0,0,0,0"
    d = run_json(capsys, *request.split())
    d.pop("seed")
    assert d == _benchmark_record(request)


def _benchmark_record(request):
    # bench/expected.json holds the benchmark's recorded answers, keyed
    # by request without --seed; it is only read here
    path = os.path.join(os.path.dirname(__file__), "..", "bench",
                        "expected.json")
    with open(path) as fh:
        return json.load(fh)[request]


@pytest.mark.parametrize("request_", [
    "homology M11 -n 1 --to 3 -p 2",
    "homology M21 -n 1 --to 3 -p 3",
])
def test_stable_element_range_matches_benchmark_record(capsys, request_):
    d = run_json(capsys, *request_.split())
    d.pop("seed")
    assert d == _benchmark_record(request_)


def _count_sylow_route(monkeypatch) -> dict:
    """Calls of each stage of the Sylow route, counted as they happen."""
    calls = dict.fromkeys(
        ("sylow_ascent", "double_cosets", "subgroup_normalizer", "ce_ppart_general"), 0
    )

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(cli, "sylow_ascent")
    counted(cli, "ce_ppart_general")
    counted(homology, "double_cosets")
    counted(homology, "subgroup_normalizer")
    return calls


def test_sylow_route_builds_once_per_prime(capsys, monkeypatch):
    # the Sylow 2-subgroup of M11 is SD16, so the route walks double cosets
    calls = _count_sylow_route(monkeypatch)
    d = run_json(capsys, "homology", "M11", "-n", "1", "--to", "3", "-p", "2")
    assert [r["degree"] for r in d["results"]] == [1, 2, 3]
    assert {r["method"] for r in d["results"]} == {"sylow-ce"}
    assert calls == {
        "sylow_ascent": 1, "double_cosets": 1, "subgroup_normalizer": 0,
        "ce_ppart_general": 1,
    }


def test_abelian_sylow_route_takes_one_normalizer(capsys, monkeypatch):
    # the Sylow 3-subgroup of M11 is 3^2: N_G(P), and no double cosets
    calls = _count_sylow_route(monkeypatch)
    d = run_json(capsys, "homology", "M11", "-n", "1", "--to", "6", "-p", "3")
    assert [r["degree"] for r in d["results"]] == [1, 2, 3, 4, 5, 6]
    assert {r["method"] for r in d["results"]} == {"sylow-ce"}
    assert calls == {
        "sylow_ascent": 1, "double_cosets": 0, "subgroup_normalizer": 1,
        "ce_ppart_general": 1,
    }


def test_stable_elements_take_no_smith_transform(capsys, monkeypatch):
    # the relation cycles are extra columns of a boundary, so every
    # answer is read off Smith diagonals; asking for U or V fails
    def refuse(*args, **kwargs):
        raise AssertionError("a Smith transform was asked for")

    smith = intlinalg._smith

    def diagonal_only(entries, U=None, V=None):
        if U is not None or V is not None:
            refuse()
        return smith(entries)

    monkeypatch.setattr(intlinalg, "smith_normal_form", refuse)
    monkeypatch.setattr(intlinalg, "_smith", diagonal_only)
    for request in (
        "homology M11 -n 1 --to 3 -p 2",
        "homology M11 -n 1 --to 6 -p 3",
        "homology M12 -n 1 --to 2 -p 3",
        "homology M21 -n 1 --to 3 -p 3",
    ):
        d = run_json(capsys, *request.split())
        d.pop("seed")
        assert d == _benchmark_record(request)
    d = run_json(capsys, "homology", "M12", "-n", "2", "-p", "2")
    # the ATLAS multiplier of M12
    assert d["results"] == [{"degree": 2, "invariants": [2], "method": "sylow-ce"}]


@pytest.mark.parametrize("group", ["S4", "M11"])
def test_degree_zero_on_the_stable_element_route(capsys, group):
    d = run_json(capsys, "homology", group, "-n", "0", "-p", "2")
    assert d["results"] == [{"degree": 0, "invariants": [], "method": "sylow-ce"}]


def test_degree_zero_range_matches_small_route(capsys):
    base = ["homology", "S4", "-n", "0", "--to", "3", "-p", "2"]
    sylow_ = run_json(capsys, *base)["results"]
    small = run_json(capsys, *base, "--method", "small")["results"]
    assert [r["invariants"] for r in sylow_] == [r["invariants"] for r in small]
    assert [r["invariants"] for r in small] == [[], [2], [2], [2, 4]]


def test_cyclic_route_passes_the_seed(capsys, monkeypatch):
    seeds = []
    original = homology.weyl_exponent

    def recorded(G, p, seed=0):
        seeds.append(seed)
        return original(G, p, seed=seed)

    monkeypatch.setattr(homology, "weyl_exponent", recorded)
    outs = []
    for seed in (0, 1, 2):
        d = run_json(capsys, "homology", "M11", "-n", "1", "--to", "9",
                     "-p", "11", "--seed", str(seed))
        assert d.pop("seed") == seed
        outs.append(d)
    assert seeds == [0, 1, 2]
    assert outs[0] == outs[1] == outs[2]
    assert outs[0]["results"][8] == {"degree": 9, "invariants": [11], "method": "sylow"}


@pytest.mark.parametrize("seed", [0, 1])
def test_ppart_table_matches_benchmark_record(capsys, seed):
    request = "ppart-table --groups M11,M12,M21,M22,M23 --primes 5,7,11,23"
    d = run_json(capsys, *request.split(), "--seed", str(seed))
    assert d.pop("seed") == seed
    assert d == _benchmark_record(request)


def test_ppart_table_m24(capsys):
    d = run_json(capsys, "ppart-table", "--groups", "M24", "--primes", "5,7,11,23")
    (row,) = d["rows"]
    assert row["patterns"] == {"5": "8k-1", "7": "6k-1", "11": "20k-1", "23": "22k-1"}


def _loaded_by_cli_import(*modules) -> list:
    """The given modules that importing permhomology.cli loads, seen in a
    fresh interpreter: the test suite itself imports many of them."""
    code = (
        "import sys, permhomology.cli\n"
        f"print(*sorted(m for m in {modules!r} if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(permhomology.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_cli_import_leaves_numpy_out():
    assert _loaded_by_cli_import("numpy") == []


def test_cli_import_leaves_process_pools_out():
    # no command runs a process pool, and importing one costs every CLI
    # start about 20 ms
    assert _loaded_by_cli_import("concurrent.futures", "multiprocessing") == []


def test_cli_import_generates_no_record_code():
    # the records are plain classes: dataclasses pulls in inspect, ast, dis
    # and tokenize and execs the methods of every record, about half of
    # the package's import time
    assert _loaded_by_cli_import("dataclasses", "inspect") == []


def test_cli_import_defers_the_layers_a_run_may_not_reach():
    # the Sylow route never runs them: fractions and decimal, OpenSSL
    # behind hashlib, csv and four layers cost about 6 ms of every start
    assert _loaded_by_cli_import(
        "fractions", "decimal", "csv", "_hashlib",
        "permhomology.polytope", "permhomology.coxeter",
        "permhomology.equivariant", "permhomology.wall",
    ) == []


def test_resolution_report(capsys):
    d = run_json(capsys, "resolution", "Z6", "--length", "3")
    assert d["ranks"] == [1, 1, 1, 1]
    assert d["homology"][0] == {"degree": 1, "invariants": [2, 3]}
    assert d["method"] == "small"
    h = run_json(capsys, "homology", "Z6", "-n", "1")
    assert d["group"] == h["group"]
    bar = bar_resolution(lookup("Z6"), 3)
    assert list(bar.ranks) == [1, 5, 25, 125]
    assert d["homology"] == [
        {"degree": k, "invariants": resolution_homology(bar, k).as_list()}
        for k in (1, 2)
    ]


@pytest.mark.parametrize("group", ["Z1", "S1", '{"degree": 3, "generators": []}'])
def test_trivial_group_small_route_matches_bar(capsys, group):
    # over the trivial group Z is free: the augmentation has zero kernel
    # and every rank past degree 0 is 0
    d = run_json(capsys, "homology", group, "-n", "0", "--to", "3")
    small = [(r["degree"], r["invariants"]) for r in d["results"]]
    bar = bar_resolution(cli._group(group), 4)
    assert small == [(n, resolution_homology(bar, n).as_list()) for n in range(4)]
    assert small == [(0, [0]), (1, []), (2, []), (3, [])]
    d = run_json(capsys, "resolution", group, "--length", "2")
    assert d["ranks"] == [1, 0, 0]
    assert d["homology"] == [{"degree": 1, "invariants": []}]


def test_csv_homology(capsys):
    rc, out = run(capsys, "homology", "Z12", "-n", "3", "--csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,invariants,method"
    assert lines[1] == "3,4 3,small"


def test_selftest_passes_without_the_snf_sweep(capsys, monkeypatch):
    # the SNF sweep is left out: its transforms swell and it runs for a
    # long time; every other check runs as `selftest` runs it
    swept = []
    monkeypatch.setattr(cli, "_check_snf_transforms", swept.append)
    d = run_json(capsys, "selftest", "--seed", "3")
    assert swept == [3]
    assert [c["check"] for c in d["checks"]] == [
        "snf-transforms", "resolution-identities", "cell-boundaries",
        "wall-vs-oracle", "ce-convention",
    ]
    assert all(c["ok"] for c in d["checks"])


def test_cell_boundary_check_needs_the_homology_of_a_point(monkeypatch):
    from permhomology import equivariant

    # a circle: one vertex and one edge with zero boundary, so d.d = 0
    # holds but H_1 = Z
    monkeypatch.setattr(equivariant, "expand_chain", lambda ecc: ([1, 1], [[{}]]))
    with pytest.raises(InvariantViolation, match="do not expand to a point"):
        cli._check_cell_boundaries()
