"""Command line driver with reproducible reports.

Every report embeds the tool version, the seed, the method that
produced each value, and the conjugation convention of the
stable-element route (fixed; `selftest` checks it against the
resolution oracle), so the same invocation yields byte-identical
output.  Caches change runtime, never results.

Exit codes: 0 on success, 2 when a resource cap stops the run, 3 when
an internal invariant fails.  Invariant failures are never downgraded
to warnings.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from fractions import Fraction

from . import catalog, polytope
from .coxeter import essential_poset, polygon_solid, simplex_face_counts
from .coxeter import vertex_degree as wythoff_vertex_degree
from .equivariant import (
    SimplexFlags,
    expand_chain,
    flag_edge_orbits,
    orbit_decompose,
)
from .errors import CapExceeded, InvariantViolation
from .homology import (
    AbelianInvariants,
    ce_convention,
    ce_ppart_general,
    check_ce_convention,
    cyclic_sylow_ppart,
    resolution_homology,
)
from .intlinalg import factor, p_part, smith_normal_form
from .perm import format_cycles
from .permgroup import PermGroup, fingerprint, schreier_stabilizer
from .resolution import SMALL_GROUP_CAP, bar_resolution, resolution_small
from .sylow import sylow_ascent, weyl_exponent
from .wall import WALL_RANK_CAP, from_cells, splice, wall_assemble
from . import __version__

# Above the library's equivariant.FLAG_CAP: a CLI user asked for the
# flag complex and accepts the coloring cost.
CLI_FLAG_CAP = 500_000

MATHIEU_NAMES = "M11,M12,M21,M22,M23,M24"


def _group(spec: str) -> PermGroup:
    """Catalog name, or inline JSON {"degree": n, "generators": [...]}."""
    if spec.lstrip().startswith("{"):
        return catalog.group_from_json(json.loads(spec))
    return catalog.lookup(spec)


def _prime_list(order: int, p: int | None, p_min: int | None) -> list:
    if p is not None:
        return [p]
    return [q for q in factor(order) if q >= (p_min or 0)]


def _restrict(inv: AbelianInvariants, primes) -> list:
    """Torsion entries whose prime lies in the restriction, sorted by
    (prime, power).  Free summands belong to no prime and drop out."""
    keep = set(primes)
    items = sorted(
        (p, q) for q in inv.torsion if (p := min(factor(q))) in keep
    )
    return [q for _, q in items]


# -- homology ------------------------------------------------------------


def _sylow_invariants(G, p, n, seed):
    if G.order() % p:
        return [], "sylow"
    if p_part(G.order(), p) == p:
        return list(cyclic_sylow_ppart(G, p, n).torsion), "sylow"
    P = sylow_ascent(G, p, seed=seed)
    return list(ce_ppart_general(G, P, n).torsion), "sylow-ce"


def _polygon_complex(G: PermGroup):
    m = G.degree
    if m < 3:
        raise ValueError("polygon complex needs degree >= 3")
    edges = {frozenset((i, (i + 1) % m)) for i in range(m)}
    for g in G.generators:
        for e in edges:
            if frozenset(g[i] for i in e) not in edges:
                raise ValueError(
                    "generators are not symmetries of the polygon; "
                    "pass a complex the group actually acts on"
                )
    return polygon_solid(m)


def _wall_resolution(G, base_kind, dims, n, max_dim, flag_cap, rank_cap):
    if base_kind == "polygon":
        ecc = orbit_decompose(_polygon_complex(G), G, 2)
        top = ecc.chain[-1]
        # a one-orbit top cell fixed by all of G closes up periodically
        if len(top) == 1 and top[0].stab.order() == G.order():
            return wall_assemble(splice(ecc), n, rank_cap=rank_cap)
        return wall_assemble(from_cells(ecc), n, rank_cap=rank_cap)
    flags = SimplexFlags(G.degree, dims if dims is not None else (0, 1))
    if max_dim is None:
        max_dim = n + 1
    elif not n + 1 <= max_dim <= flags.poset.max_height:
        raise ValueError(
            f"--max-dim {max_dim} is out of range: degree {n} needs cells up "
            f"to dimension {n + 1}, and the complex has dimensions "
            f"0..{flags.poset.max_height}"
        )
    ecc = orbit_decompose(flags, G, max_dim, flag_cap=flag_cap)
    return wall_assemble(from_cells(ecc), n, rank_cap=rank_cap)


def _cmd_homology(args):
    G = _group(args.group)
    top = args.to if args.to is not None else args.degree
    if top < args.degree:
        raise ValueError("--to must not be below --degree")
    degrees = list(range(args.degree, top + 1))
    if args.method != "wall":
        for flag, value in (
            ("--complex", args.complex),
            ("--flag-cap", args.flag_cap),
            ("--rank-cap", args.rank_cap),
        ):
            if value is not None:
                raise ValueError(f"{flag} applies only to --method wall")
    if (args.method, args.complex) != ("wall", "flags"):
        for flag, value in (("--max-dim", args.max_dim), ("--dims", args.dims)):
            if value is not None:
                raise ValueError(
                    f"{flag} applies only to --method wall --complex flags"
                )
    restriction = None
    if args.prime is not None:
        restriction = args.prime
    elif args.p_min is not None:
        restriction = f">={args.p_min}"

    method = args.method
    if method == "auto":
        if restriction is not None:
            method = "sylow"
        elif G.order() <= SMALL_GROUP_CAP:
            method = "small"
        else:
            raise CapExceeded(
                f"group order {G.order()} exceeds the resolution cap "
                f"{SMALL_GROUP_CAP}; restrict to a prime or pick "
                "--method wall with a complex"
            )

    results = []
    if method == "sylow":
        if restriction is None:
            raise ValueError("--method sylow needs -p or --p-min")
        primes = _prime_list(G.order(), args.prime, args.p_min)
        for n in degrees:
            parts = []
            used = "sylow"
            for p in primes:
                tor, used = _sylow_invariants(G, p, n, args.seed)
                parts += [(min(factor(q)), q) for q in tor]
            inv = [q for _, q in sorted(parts)]
            results.append({"degree": n, "invariants": inv, "method": used})
    else:
        if method == "small":
            R = resolution_small(G, top + 1, cache_dir=args.cache_dir)
        elif method == "bar":
            R = bar_resolution(G, top + 1)
        else:
            R = _wall_resolution(
                G, args.complex or "polygon", args.dims, top, args.max_dim,
                args.flag_cap if args.flag_cap is not None else CLI_FLAG_CAP,
                args.rank_cap if args.rank_cap is not None else WALL_RANK_CAP,
            )
        for n in degrees:
            inv = resolution_homology(R, n)
            if restriction is None:
                out = inv.as_list()
            else:
                out = _restrict(inv, _prime_list(G.order(), args.prime, args.p_min))
            results.append({"degree": n, "invariants": out, "method": method})

    return {
        "group": fingerprint(G),
        "group_name": args.group,
        "order": G.order(),
        "p_restriction": restriction,
        "results": results,
    }


# -- torsion pattern table -----------------------------------------------


def _cmd_ppart_table(args):
    primes = [int(s) for s in args.primes.split(",")]
    rows = []
    for name in args.groups.split(","):
        name = name.strip()
        G = _group(name)
        cells = {}
        for p in primes:
            if G.order() % p:
                cells[str(p)] = None
            else:
                cells[str(p)] = weyl_exponent(G, p, seed=args.seed).pattern
        rows.append({"group": name, "order": G.order(), "patterns": cells})
    return {"primes": primes, "rows": rows}


# -- flag complex reports ------------------------------------------------


def _cmd_wythoff(args):
    G = _group(args.group)
    dims = args.dims
    poset = essential_poset(G.degree - 1, dims)
    if args.orbit_dim is not None and not 0 <= args.orbit_dim <= poset.max_height:
        raise ValueError(f"--orbit-dim must be in 0..{poset.max_height}")
    counts = simplex_face_counts(poset, G.degree)
    order = G.order()
    classes = []
    f_vector = {}
    for i, cls in enumerate(poset.classes):
        c = counts[i]
        classes.append({
            "index": i,
            "height": cls.height,
            "core": sorted(cls.core),
            "count": c,
            "stabilizer_order": order // c if c and order % c == 0 else None,
        })
        f_vector[cls.height] = f_vector.get(cls.height, 0) + c
    payload = {
        "group": fingerprint(G),
        "group_name": args.group,
        "order": order,
        "rings": list(dims),
        "classes": classes,
        "f_vector": {str(h): v for h, v in sorted(f_vector.items())},
        "vertex_degree": wythoff_vertex_degree(poset, G.degree),
    }
    try:
        payload["edge_orbits"] = flag_edge_orbits(G, dims)
    except ValueError:
        payload["edge_orbits"] = None
    if args.orbit_dim is not None:
        ecc = orbit_decompose(
            SimplexFlags(G.degree, dims), G, args.orbit_dim,
            flag_cap=args.flag_cap,
        )
        payload["orbits"] = {
            "counts": [len(layer) for layer in ecc.raw],
            "chain_ranks": list(ecc.chain_ranks()),
            "stabilizer_orders": [
                list(ecc.stab_orders(k)) for k in range(len(ecc.raw))
            ],
        }
    return payload


# -- orbit polytope skeleton ---------------------------------------------


def _cmd_edge_degree(args):
    if args.threads < 1:
        raise ValueError("--threads must be at least 1")
    threads = min(args.threads, os.cpu_count() or 1)
    G = _group(args.group)
    v = tuple(Fraction(s) for s in args.vector.split(","))
    pts = polytope.orbit_points(G, v, cap=args.point_cap)
    i = args.vertex if args.vertex is not None else pts.index(v)
    if not 0 <= i < len(pts):
        raise ValueError(f"--vertex must be in 0..{len(pts) - 1}")
    if args.dump_points:
        with open(args.dump_points, "w", newline="") as fh:
            polytope.points_csv(pts, fh)
    stab = schreier_stabilizer(G, G.orbit_data(pts[i], polytope.act_vec))
    deg = polytope.vertex_degree(pts, i, stab.generators, threads=threads)
    return {
        "group": fingerprint(G),
        "group_name": args.group,
        "points": len(pts),
        "vertex_index": i,
        "degree": deg,
        "edges": polytope.edge_count(pts, deg),
        "lp_count": len(pts) - 1,
    }


# -- resolution inspection -----------------------------------------------


def _cmd_resolution(args):
    G = _group(args.group)
    if args.method == "bar":
        R = bar_resolution(G, args.length)
    else:
        R = resolution_small(G, args.length, cache_dir=args.cache_dir)
    return {
        "group": fingerprint(G),
        "group_name": args.group,
        "order": R.G.n,
        "method": args.method,
        "ranks": list(R.ranks),
        "homology": [
            {"degree": k, "invariants": resolution_homology(R, k).as_list()}
            for k in range(1, args.length)
        ],
    }


# -- invariant sweep -----------------------------------------------------


def _cmd_selftest(args):
    checks = []

    def check(name, fn):
        fn()
        checks.append({"check": name, "ok": True})

    def snf_sweep():
        rng = random.Random(args.seed)
        for _ in range(100):
            m = rng.randint(1, 40)
            n = rng.randint(1, 40)
            A = [[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(m)]
            diag, U, V = smith_normal_form(A)
            S = [
                [sum(U[i][k] * A[k][j] for k in range(m)) for j in range(n)]
                for i in range(m)
            ]
            S = [
                [sum(S[i][k] * V[k][j] for k in range(n)) for j in range(n)]
                for i in range(m)
            ]
            for i in range(m):
                for j in range(n):
                    want = diag[i] if i == j and i < len(diag) else 0
                    if S[i][j] != want:
                        raise InvariantViolation("U M V does not equal S")

    def resolutions():
        # construction re-verifies d.d = 0 and h d + d h = 1 throughout
        for name in ("S3", "Z4", "V4", "A4"):
            resolution_small(_group(name), 4)
        bar_resolution(_group("Z6"), 3)

    def complexes():
        from .coxeter import simplex_complex

        cases = [
            (catalog.dihedral(4), polygon_solid(4), 2),
            (catalog.alternating(4), simplex_complex(3), 3),
        ]
        for G, base, dim in cases:
            ecc = orbit_decompose(base, G, dim)
            sizes, mats = expand_chain(ecc)
            for k in range(1, len(mats)):
                prod_nonzero = any(
                    sum(mats[k - 1][i][t] * mats[k][t][j] for t in range(sizes[k]))
                    for i in range(sizes[k - 1])
                    for j in range(sizes[k + 1])
                )
                if prod_nonzero:
                    raise InvariantViolation("cell boundaries do not square to zero")

    def wall_oracle():
        R = resolution_small(catalog.cyclic(4), 4)
        ecc = orbit_decompose(polygon_solid(4), catalog.cyclic(4), 2)
        W = wall_assemble(splice(ecc), 3)
        for k in (1, 2, 3):
            if resolution_homology(W, k) != resolution_homology(R, k):
                raise InvariantViolation(f"wall and oracle differ at degree {k}")

    check("snf-transforms", snf_sweep)
    check("resolution-identities", resolutions)
    check("cell-boundaries", complexes)
    check("wall-vs-oracle", wall_oracle)
    check_ce_convention()
    checks.append({"check": "ce-convention", "ok": True, "value": ce_convention()})
    return {"checks": checks}


# -- plumbing ------------------------------------------------------------


def _csv_rows(command, payload):
    if command == "homology":
        yield ["degree", "invariants", "method"]
        for r in payload["results"]:
            yield [r["degree"], " ".join(map(str, r["invariants"])), r["method"]]
    elif command == "ppart-table":
        primes = payload["primes"]
        yield ["group"] + [str(p) for p in primes]
        for row in payload["rows"]:
            yield [row["group"]] + [
                row["patterns"][str(p)] or "-" for p in primes
            ]
    elif command == "wythoff":
        yield ["class", "height", "core", "count", "stabilizer_order"]
        for c in payload["classes"]:
            yield [
                c["index"], c["height"],
                " ".join(map(str, c["core"])), c["count"],
                c["stabilizer_order"],
            ]
    elif command == "edge-degree":
        yield ["points", "vertex_index", "degree", "edges"]
        yield [
            payload["points"], payload["vertex_index"],
            payload["degree"], payload["edges"],
        ]
    else:
        raise ValueError(f"no csv form for {command}")


def _emit(args, payload):
    out = {
        "command": args.command,
        "tool": "permhomology",
        "version": __version__,
        "seed": args.seed,
        "ce_convention": ce_convention(),
    }
    out.update(payload)
    if args.format == "csv":
        w = csv.writer(sys.stdout)
        for row in _csv_rows(args.command, out):
            w.writerow(row)
    else:
        json.dump(out, sys.stdout, sort_keys=True)
        sys.stdout.write("\n")


def _dims(s: str) -> tuple:
    out = tuple(int(x) for x in s.split(","))
    if len(set(out)) != len(out) or any(x < 0 for x in out):
        raise argparse.ArgumentTypeError("ring dims must be distinct and >= 0")
    return out


def _parser():
    top = argparse.ArgumentParser(
        prog="permhomology",
        description="integral homology of finite permutation groups",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--cache-dir",
            default=os.environ.get("PERMHOMOLOGY_CACHE"),
            help="resolution cache (env PERMHOMOLOGY_CACHE)",
        )
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument(
            "--json", dest="format", action="store_const", const="json",
            default="json",
        )
        fmt.add_argument("--csv", dest="format", action="store_const", const="csv")

    p = sub.add_parser("homology", help="homology of one group over a degree range")
    p.add_argument("group", help="catalog name (M24, S5, Z12, ...) or JSON")
    p.add_argument("-n", "--degree", type=int, required=True)
    p.add_argument("--to", type=int, help="top of the degree range")
    p.add_argument("-p", "--prime", type=int)
    p.add_argument("--p-min", type=int, help="restrict to primes >= this")
    p.add_argument(
        "--method", choices=("auto", "sylow", "wall", "bar", "small"),
        default="auto",
    )
    p.add_argument(
        "--complex", choices=("polygon", "flags"),
        help="geometric source for --method wall (default polygon)",
    )
    p.add_argument(
        "--dims", type=_dims,
        help="flag ring dims for --complex flags (default 0,1)",
    )
    p.add_argument("--max-dim", type=int, help="truncation of the flag complex")
    p.add_argument(
        "--flag-cap", type=int,
        help=f"flag cap for --method wall (default {CLI_FLAG_CAP})",
    )
    p.add_argument(
        "--rank-cap", type=int,
        help=f"resolution rank cap for --method wall (default {WALL_RANK_CAP})",
    )
    common(p)
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("ppart-table", help="periodic torsion patterns 2ek-1")
    p.add_argument("--groups", default=MATHIEU_NAMES)
    p.add_argument("--primes", default="5,7,11,23")
    common(p)
    p.set_defaults(func=_cmd_ppart_table)

    p = sub.add_parser("wythoff", help="flag complex face counts and orbits")
    p.add_argument("group")
    p.add_argument("--rings", dest="dims", type=_dims, required=True)
    p.add_argument(
        "--orbit-dim", type=int,
        help="also decompose orbits up to this dimension",
    )
    p.add_argument("--flag-cap", type=int, default=CLI_FLAG_CAP)
    common(p)
    p.set_defaults(func=_cmd_wythoff)

    p = sub.add_parser("edge-degree", help="orbit polytope vertex degree")
    p.add_argument("group")
    p.add_argument("--vector", required=True, help="comma list of rationals")
    p.add_argument("--vertex", type=int, help="index into the sorted orbit")
    p.add_argument(
        "--orbit-cap", dest="point_cap", type=int, default=polytope.POINT_CAP
    )
    p.add_argument("--dump-points", metavar="PATH", help="write points CSV")
    p.add_argument(
        "--threads", type=int, default=1,
        help="LP worker processes, at most the CPU count",
    )
    common(p)
    p.set_defaults(func=_cmd_edge_degree)

    p = sub.add_parser("resolution", help="free resolution ranks and homology")
    p.add_argument("group")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--method", choices=("small", "bar"), default="small")
    common(p)
    p.set_defaults(func=_cmd_resolution)

    p = sub.add_parser("selftest", help="invariant sweep")
    common(p)
    p.set_defaults(func=_cmd_selftest)

    return top


def _attained(value):
    """CapExceeded.attained in JSON form: a subgroup as its order and
    1-based generator cycles, a count as it is."""
    if isinstance(value, PermGroup):
        return {
            "order": value.order(),
            "generators": [format_cycles(g) for g in value.generators],
        }
    return value


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        payload = args.func(args)
    except CapExceeded as exc:
        err = {"error": "cap-exceeded", "detail": str(exc)}
        if exc.attained is not None:
            err["attained"] = _attained(exc.attained)
        json.dump(err, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except InvariantViolation as exc:
        json.dump({"error": "invariant-violation", "detail": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 3
    except ValueError as exc:
        json.dump({"error": "bad-input", "detail": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    _emit(args, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
