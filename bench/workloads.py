"""The two benchmark workloads and the checks on their answers.

Each workload is a list of CLI requests run one after another, one
fresh interpreter per request, at the CLI default ``--threads 1``.
Every request gets the workload seed as ``--seed``.  The edge-degree
requests keep the CLI's default vertex; README.md says why.
"""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))


def argv(request: str, seed: int) -> list:
    """CLI arguments of a request; a request is keyed by its arguments
    without --seed."""
    return request.split() + ["--seed", str(seed)]


# Why each workload exists, and which layer it isolates, is in README.md.
WORKLOADS = {
    "sylow-route": [
        "ppart-table --groups M11,M12,M21,M22,M23 --primes 5,7,11,23",
        "homology M23 -n 5 --p-min 5",
        "homology M11 -n 1 --to 3 -p 2",
        "homology M11 -n 1 --to 6 -p 3",
        "homology M12 -n 1 --to 2 -p 3",
        "homology M21 -n 1 --to 3 -p 3",
    ],
    "wall-and-edge": [
        "edge-degree M11 --vector 1,1,1,0,0,0,0,0,0,0,0",
        "edge-degree S5 --vector 1,2,3,4,5",
        "homology S6 -n 1 --to 2 --method wall --complex flags --dims 0,1",
        "homology S5 -n 1 --to 3 --method wall --complex flags --dims 0,1",
        "homology D12 -n 1 --to 7 --method wall",
        "homology S4 -n 1 --to 3",
        "homology A5 -n 1 --to 2",
        "wythoff M24 --rings 0,1,2,3,4",
    ],
}


def _degree(out, n):
    return next(r["invariants"] for r in out["results"] if r["degree"] == n)


# Reference values named in the paper or fixed by hand, asserted on top
# of the comparison with the recorded output.
NAMED = {
    "homology M23 -n 5 --p-min 5": [
        ("H_5(M23) at p >= 5 is [7]", lambda o: _degree(o, 5) == [7]),
    ],
    "homology M11 -n 1 --to 3 -p 2": [
        ("2-part of H_3(M11) is [8]", lambda o: _degree(o, 3) == [8]),
    ],
    "homology S4 -n 1 --to 3": [
        ("H_3(S4) is [2, 4, 3]", lambda o: _degree(o, 3) == [2, 4, 3]),
    ],
    "homology S5 -n 1 --to 3 --method wall --complex flags --dims 0,1": [
        ("H_3(S5) on the wall route is [2, 2, 4, 3]",
         lambda o: _degree(o, 3) == [2, 2, 4, 3]),
    ],
    "homology A5 -n 1 --to 2": [
        ("H_2(A5) is [2]", lambda o: _degree(o, 2) == [2]),
    ],
    "ppart-table --groups M11,M12,M21,M22,M23 --primes 5,7,11,23": [
        ("M23 pattern row is 8k-1, 6k-1, 10k-1, 22k-1",
         lambda o: [o["rows"][4]["patterns"][str(p)] for p in (5, 7, 11, 23)]
         == ["8k-1", "6k-1", "10k-1", "22k-1"]),
    ],
    "edge-degree S5 --vector 1,2,3,4,5": [
        ("S5 vertex degree 4 with 240 edges",
         lambda o: (o["degree"], o["edges"]) == (4, 240)),
    ],
    "edge-degree M11 --vector 1,1,1,0,0,0,0,0,0,0,0": [
        ("M11 3-set degree 24 with 1980 edges",
         lambda o: (o["degree"], o["edges"]) == (24, 1980)),
    ],
}


def load_expected() -> dict:
    """Recorded CLI output per request key, without the echoed seed."""
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def check(request: str, seed: int, stdout: str, expected: dict) -> list:
    """Problems with one request's answer; empty when it is right."""
    try:
        out = json.loads(stdout)
    except ValueError:
        return ["stdout is not one JSON object"]
    problems = []
    if out.pop("seed", None) != seed:
        problems.append("seed not echoed")
    want = expected.get(request)
    if want is None:
        problems.append("no recorded output for this request")
    elif out != want:
        diff = sorted(k for k in set(out) | set(want) if out.get(k) != want.get(k))
        problems.append(f"differs from the recorded output in {diff}")
    for label, ok in NAMED.get(request, ()):
        try:
            good = ok(out)
        except (KeyError, IndexError, StopIteration, TypeError):
            good = False
        if not good:
            problems.append(f"reference value wrong: {label}")
    return problems
