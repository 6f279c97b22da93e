#!/usr/bin/env python3
"""permhomology benchmark: CLI workloads, end-to-end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is taken from
``src/``).  Each request of the workload runs in a fresh interpreter,
one at a time, in a closed loop; its answer is checked against the
recorded output and the named reference values.  After one whole pass
over the workload, its requests go on in the same order while the next
one still fits in S seconds, going by its last time.  solve_s is the
sum over the requests of each one's median solve time.

The speed of a shared machine drifts by 10-30% over minutes.  Before
each untraced request and set-up probe, a fresh interpreter runs
calibrate.py, a fixed job that does not use the program.  solve_s and
setup_s are reported in seconds of a machine on which that job takes
REFERENCE_S: wall-clock time times REFERENCE_S over the run's median
calibration time.  The wall-clock figures are printed above the result
line.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced
and one traced pass and prints the per-layer metrics of the traced
pass, with the tracing overhead (traced minus untraced solve time).
The last line of stdout is the JSON result; the lines above it repeat
every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import summarize  # noqa: E402
from workloads import WORKLOADS, argv, check, load_expected  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")
# about the median calibrate.py time on the 2-vCPU VM the baseline was
# recorded on; a fixed unit, so runs on any machine compare
REFERENCE_S = 0.32
RUN_BUDGET_S = 170  # a run must end within 180 s, whatever happens
SETUP_SAMPLES = 12  # set-up is measured at least this often per run
CONFIRM_SEED = 1  # the second seed on which claims are confirmed


class Outcome:
    def __init__(self, request):
        self.request = request
        self.problems: list = []
        self.rec: dict = {}
        self.took = 0.0  # wall-clock seconds of the child, start to exit

    @property
    def ok(self) -> bool:
        return not self.problems


def _env(root: str) -> dict:
    env = dict(os.environ)
    # a cache directory would carry resolutions over between requests
    env.pop("PERMHOMOLOGY_CACHE", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn(cmd, env, root, deadline):
    """Run one child to completion; None when it ran past the deadline
    (subprocess.run kills and reaps it then)."""
    try:
        return subprocess.run(
            cmd, env=env, cwd=root, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return None


def _request(req, seed, trace_id, ctx) -> Outcome:
    """Run one request; trace_id is None for an untraced request."""
    out = Outcome(req)
    report = os.path.join(ctx["tmp"], "report.json")
    if os.path.exists(report):
        os.remove(report)
    flags = [] if trace_id is None else ["--trace", str(trace_id)]
    proc = _spawn(
        [sys.executable, CHILD, report, *flags, "--", *argv(req, seed)],
        ctx["env"], ctx["root"], ctx["deadline"],
    )
    if proc is None:
        out.problems.append("ran past the run's time budget")
        return out
    if proc.returncode != 0 or not os.path.exists(report):
        out.problems.append(f"child exited {proc.returncode}")
        return out
    with open(report) as fh:
        out.rec = json.load(fh)
    if out.rec["rc"] != 0:
        err = proc.stderr.strip().splitlines()
        out.problems.append(f"CLI exit {out.rec['rc']}: {err[-1] if err else ''}")
    else:
        out.problems += check(req, seed, proc.stdout, ctx["expected"])
    return out


def _setup_probe(ctx):
    """Set-up timings of one fresh interpreter that runs no request;
    None if it failed, which the requests then show as failures."""
    report = os.path.join(ctx["tmp"], "setup.json")
    proc = _spawn(
        [sys.executable, CHILD, report, "--setup-only", "--"],
        ctx["env"], ctx["root"], ctx["deadline"],
    )
    if proc is None or proc.returncode != 0:
        return None
    with open(report) as fh:
        return json.load(fh)


def _setup(rec) -> float:
    return rec["import_s"] + rec["convention_s"]


def _calibrate(ctx):
    """Seconds of one calibrate.py run, also kept in ctx; None if it failed."""
    proc = _spawn([sys.executable, CALIBRATE], ctx["env"], ctx["root"], ctx["deadline"])
    if proc is None or proc.returncode != 0:
        return None
    took = json.loads(proc.stdout)["calibration_s"]
    ctx["calibration"].append(took)
    return took


def _run_one(req, i, seed, trace, ctx) -> Outcome:
    calibration = None if trace else _calibrate(ctx)
    t0 = time.monotonic()
    o = _request(req, seed, i if trace else None, ctx)
    o.took = time.monotonic() - t0
    _report(o, seed, trace, calibration)
    return o


def _report(o, seed, trace, calibration):
    status = "ok" if o.ok else "FAIL " + "; ".join(o.problems)
    timing = ""
    if "solve_s" in o.rec:
        timing = (f" solve {o.rec['solve_s']:.3f} s, set-up "
                  f"{_setup(o.rec):.3f} s, "
                  f"rss {o.rec['maxrss_kb'] / 1024:.1f} MB")
    if calibration is not None:
        timing += f", after calibration {calibration:.3f} s"
    print(f"  {'traced ' if trace else ''}{o.request} --seed {seed}:{timing} {status}",
          flush=True)


def _pass(requests, seed, trace, ctx) -> list:
    done = []
    for i, req in enumerate(requests):
        if time.monotonic() >= ctx["deadline"]:
            break
        done.append(_run_one(req, i, seed, trace, ctx))
    return done


def _more(requests, seed, ctx, end, first) -> list:
    """Requests after the first pass, in workload order, while the next
    one is expected to end by `end`; a request is expected to take as
    long as it took last time."""
    if len(first) < len(requests):
        return []
    last = [o.took for o in first]
    done = []
    i = 0
    while time.monotonic() + last[i] <= min(end, ctx["deadline"]):
        o = _run_one(requests[i], i, seed, False, ctx)
        done.append(o)
        last[i] = o.took
        i = (i + 1) % len(requests)
    return done


def wall_clock(done, probes, requests) -> tuple:
    """(solve, setup) in wall-clock seconds: the sum over the requests
    of each one's median solve time, and the median set-up time times
    the number of requests."""
    timed = [o for o in done if "solve_s" in o.rec]
    setups = [_setup(o.rec) for o in timed] + [_setup(r) for r in probes]
    solve = sum(
        statistics.median(o.rec["solve_s"] for o in timed if o.request == req)
        for req in requests if any(o.request == req for o in timed))
    return solve, (statistics.median(setups) * len(requests) if setups else 0.0)


def end_to_end(done, probes, requests, scale) -> dict:
    timed = [o for o in done if "solve_s" in o.rec]
    attempted = len(done)
    failed = sum(1 for o in done if not o.ok)
    solve, setup = wall_clock(done, probes, requests)
    return {
        "solve_s": (solve * scale, "s"),
        "setup_s": (setup * scale, "s"),
        "peak_rss_mb": (max(o.rec["maxrss_kb"] for o in timed) / 1024
                        if timed else 0.0, "MB"),
        "ok_frac": ((attempted - failed) / attempted if attempted else 0.0, "ratio"),
    }


def per_layer(traced, untraced_solve) -> dict:
    spans: dict = {}
    counters: dict = {}
    n_spans = 0
    for o in traced:
        for name, rec in summarize(o.rec.get("spans", [])).items():
            acc = spans.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += rec[k]
        for k, v in o.rec.get("counters", {}).items():
            counters[k] = counters.get(k, 0) + v
        n_spans += len(o.rec.get("spans", []))

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def incl(*names):
        return sum(spans.get(n, {}).get("incl_s", 0.0) for n in names)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def count(name):
        return counters.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    solve = sum(o.rec.get("solve_s", 0.0) for o in traced)
    s, c, r = "s", "count", "ratio"
    return {
        "sylow.conj_orbit_calls": (calls("sylow.conj_orbit"), c),
        "sylow.conj_orbit_nodes": (count("sylow.conj_orbit_nodes"), c),
        "sylow.conj_orbit_s": (incl("sylow.conj_orbit"), s),
        "sylow.double_cosets_calls": (calls("sylow.double_cosets"), c),
        "sylow.double_coset_reps": (count("sylow.double_coset_reps"), c),
        "sylow.double_cosets_s": (incl("sylow.double_cosets"), s),
        "sylow.ascent_s": (incl("sylow.ascent"), s),
        "permgroup.elements_calls": (calls("permgroup.elements"), c),
        "permgroup.elements_listed": (count("permgroup.elements_listed"), c),
        "permgroup.elements_s": (incl("permgroup.elements"), s),
        "homology.ce_ppart_calls": (calls("homology.ce_ppart"), c),
        "homology.ce_ppart_s": (incl("homology.ce_ppart"), s),
        "homology.cyclic_ppart_calls": (calls("homology.cyclic_ppart"), c),
        "resolution.small_calls": (calls("resolution.small"), c),
        "resolution.small_reuse_ratio": (
            ratio(count("resolution.small_reused"), calls("resolution.small")), r),
        "resolution.small_rank_sum": (count("resolution.small_rank_sum"), c),
        "resolution.small_s": (incl("resolution.small"), s),
        "resolution.chain_map_s": (incl("resolution.chain_map"), s),
        "resolution.homology_action_s": (incl("resolution.homology_action"), s),
        "intlinalg.hermite_calls": (calls("intlinalg.hermite"), c),
        "intlinalg.hermite_cells": (count("intlinalg.hermite_cells"), c),
        "intlinalg.hermite_s": (incl("intlinalg.hermite"), s),
        "intlinalg.zspan_inserts": (calls("intlinalg.zspan_insert"), c),
        "intlinalg.zspan_s": (incl("intlinalg.zspan_insert", "intlinalg.zspan_contains"), s),
        "intlinalg.snf_dense_calls": (calls("intlinalg.snf_dense"), c),
        "intlinalg.snf_dense_s": (incl("intlinalg.snf_dense"), s),
        "intlinalg.snf_sparse_calls": (calls("intlinalg.snf_sparse"), c),
        "intlinalg.snf_sparse_nnz": (count("intlinalg.snf_sparse_nnz"), c),
        "intlinalg.snf_sparse_s": (incl("intlinalg.snf_sparse"), s),
        "equivariant.decompose_s": (incl("equivariant.decompose"), s),
        "equivariant.cell_orbits": (count("equivariant.cell_orbits"), c),
        "equivariant.flag_edge_orbits_s": (incl("equivariant.flag_edge_orbits"), s),
        "coxeter.poset_s": (incl("coxeter.poset"), s),
        "wall.assemble_s": (self_s("wall.assemble"), s),
        "wall.rank_sum": (count("wall.rank_sum"), c),
        "polytope.orbit_points_s": (incl("polytope.orbit_points"), s),
        "polytope.points": (count("polytope.points"), c),
        "polytope.lp_count": (calls("polytope.lp"), c),
        "polytope.lp_s": (incl("polytope.lp"), s),
        "polytope.lp_edge_ratio": (
            ratio(count("polytope.edges_found"), calls("polytope.lp")), r),
        "catalog.lookup_s": (incl("catalog.lookup"), s),
        "setup.import_s": (sum(o.rec.get("import_s", 0.0) for o in traced), s),
        "homology.ce_convention_s": (
            sum(o.rec.get("convention_s", 0.0) for o in traced), s),
        "cli.requests": (len(traced), c),
        "cli.failed": (sum(1 for o in traced if not o.ok), c),
        "cli.self_s": (self_s("cli.main"), s),
        "trace.spans": (n_spans, c),
        "trace.solve_s": (solve, s),
        "trace.overhead_s": (solve - untraced_solve, s),
    }


def _print_metrics(metrics):
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "permhomology", "cli.py")):
        print("no permhomology source under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    env = _env(root)
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    # byte-compile once, as an installed package would be; not timed
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(root, "src")],
        env=env, check=True, timeout=120,
    )
    requests = WORKLOADS[args.workload]
    print(f"workload {args.workload}, seed {args.seed} "
          f"(confirm claims with --seed {CONFIRM_SEED}), {len(requests)} requests",
          flush=True)
    with tempfile.TemporaryDirectory(dir=build) as tmp:
        ctx = {
            "root": root, "env": env, "tmp": tmp, "expected": load_expected(),
            "deadline": started + RUN_BUDGET_S, "calibration": [],
        }
        done = _pass(requests, args.seed, False, ctx)
        probes = []
        if not args.trace:
            done += _more(requests, args.seed, ctx, started + args.seconds, done)
            while (len(done) + len(probes) < SETUP_SAMPLES
                   and time.monotonic() < ctx["deadline"]):
                _calibrate(ctx)
                rec = _setup_probe(ctx)
                if rec is None:
                    break
                probes.append(rec)
        if not ctx["calibration"]:
            print("calibrate.py failed in every run of it", file=sys.stderr)
            return 1
        cal = statistics.median(ctx["calibration"])
        solve, setup = wall_clock(done, probes, requests)
        print(f"wall clock: solve {solve:.4f} s, set-up {setup:.4f} s; "
              f"calibration {cal:.4f} s (median of {len(ctx['calibration'])}), "
              f"scale {REFERENCE_S / cal:.4f}", flush=True)
        metrics = end_to_end(done, probes, requests, REFERENCE_S / cal)
        if args.trace:
            traced = _pass(requests, args.seed, True, ctx)
            done += traced
            metrics = per_layer(traced, solve)
            # spans are (id, name, start, end, parent, request index)
            dump = os.path.join(build, f"spans-{args.workload}-{args.seed}.json")
            with open(dump, "w") as fh:
                json.dump({"requests": requests,
                           "spans": [s for o in traced for s in o.rec.get("spans", [])]}, fh)
            print(f"spans written to {os.path.relpath(dump, root)}")
    attempted = len(done)
    failed = sum(1 for o in done if not o.ok)
    print(f"attempted {attempted}, failed {failed}, "
          f"fail_frac {failed / attempted if attempted else 1.0:.6g}")
    _print_metrics(metrics)
    result = {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
