"""Time a fixed start-up and compute job that does not use the program.

    python3 bench/calibrate.py

Prints one JSON object, ``{"calibration_s": ...}``: the seconds a fresh
interpreter takes to import numpy and a fixed set of standard-library
modules, and then to run a breadth-first search over tuple
permutations, a burst of dict inserts, and a pass that packs numpy
rows of a permutation orbit into 128-bit keys of a large dict.  That
is the kind of work a request's set-up and solve do, but nothing here
imports permhomology, so no change to the program changes its time.

run.py runs this between requests, in a fresh interpreter like a
request's own, and scales solve_s and setup_s by it; README.md says
why.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402,F401
import decimal  # noqa: E402,F401
import email.parser  # noqa: E402,F401
import fractions  # noqa: E402,F401
import json  # noqa: E402
import unittest  # noqa: E402,F401
import xml.dom.minidom  # noqa: E402,F401

import numpy as np  # noqa: E402


def _closure(n: int) -> int:
    """Order of the group generated by a transposition and an n-cycle
    (S_n), by breadth-first search over tuples."""
    gens = [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]
    start = tuple(range(n))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[i] for i in g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def _dict_inserts(n: int) -> int:
    d = {}
    for i in range(n):
        d[(i * 2654435761) & 0xFFFFFFFFFFFF] = (i, i + 1)
    return len(d)


def _packed_rows(n_rows: int) -> int:
    """Index rows of 24 points under two column permutations by their
    packed 120-bit keys, as the orbit searches do."""
    rng = np.random.default_rng(0)
    rows = np.argsort(rng.random((n_rows, 24)), axis=1).astype(np.uint8)
    shuffle = rng.permutation(24)
    index: dict = {}
    for _ in range(2):
        rows = rows[:, shuffle]
        hi = np.zeros(n_rows, dtype=np.uint64)
        lo = np.zeros(n_rows, dtype=np.uint64)
        for t in range(12):
            hi |= rows[:, t].astype(np.uint64) << np.uint64(5 * (11 - t))
            lo |= rows[:, 12 + t].astype(np.uint64) << np.uint64(5 * (11 - t))
        for h, lo_ in zip(hi.tolist(), lo.tolist()):
            index.setdefault((h << 64) | lo_, len(index))
    return len(index)


def main() -> int:
    assert _closure(7) == 5040
    assert _dict_inserts(50000) == 50000
    assert _packed_rows(40000) == 80000
    print(json.dumps({"calibration_s": time.perf_counter() - T0}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
