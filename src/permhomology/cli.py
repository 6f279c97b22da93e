"""Command line driver with reproducible reports.

Every report embeds the tool version, the seed, the method that
produced each value, and the conjugation convention of the
stable-element route (fixed; `selftest` checks it against the
resolution oracle), so the same invocation yields byte-identical
output.  Caches change runtime, never results.

Exit codes: 0 on success, 2 when a resource cap stops the run, 3 when
an internal invariant fails.  Invariant failures are never downgraded
to warnings.

The module loads only the layers every run needs (catalog, groups,
the Sylow route and the small resolutions).  The polytope, coxeter,
equivariant and wall layers, `fractions` and `csv` are imported inside
the subcommands that use them, so a run pays only for what it reaches.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import catalog, errors
from .errors import CapExceeded, InvariantViolation
from .homology import (
    TRIVIAL,
    AbelianInvariants,
    ce_convention,
    ce_ppart_general,
    chain_homology,
    check_ce_convention,
    cyclic_sylow_ppart,
    resolution_homology,
)
from .intlinalg import factor, p_part, smith_normal_form
from .perm import format_cycles
from .permgroup import PermGroup, fingerprint, schreier_stabilizer
from .resolution import bar_resolution, resolution_small
from .sylow import sylow_ascent, weyl_exponent
from . import __version__

MATHIEU_NAMES = "M11,M12,M21,M22,M23,M24"
# the reports that _csv_rows can write as a table
CSV_COMMANDS = ("homology", "ppart-table", "wythoff", "edge-degree")


def _group(spec: str) -> PermGroup:
    """Catalog name, or inline JSON {"degree": n, "generators": [...]}."""
    if spec.lstrip().startswith("{"):
        return catalog.group_from_json(json.loads(spec))
    return catalog.lookup(spec)


def _check_primes(flag: str, primes) -> None:
    for p in primes:
        if factor(p) != {p: 1}:
            raise ValueError(f"{flag} must be prime, not {p}")


def _prime_list(order: int, p: int | None, p_min: int | None) -> list:
    if p is not None:
        return [p]
    return [q for q in factor(order) if q >= (p_min or 0)]


def _restrict(inv: AbelianInvariants, primes) -> list:
    """Torsion entries whose prime lies in the restriction, in the
    (prime, power) order of inv.torsion.  Free summands drop out."""
    keep = set(primes)
    return [q for q in inv.torsion if min(factor(q)) in keep]


# -- homology ------------------------------------------------------------


def _sylow_invariants(G, p, degrees, seed):
    """{n: p-torsion of H_n(G)} over degrees, and the method used."""
    if G.order() % p:
        return {n: [] for n in degrees}, "sylow"
    if p_part(G.order(), p) == p:
        parts, method = cyclic_sylow_ppart(G, p, degrees, seed=seed), "sylow"
    else:
        # H_0 = Z has no torsion; stable elements start at degree 1
        parts, method = {n: TRIVIAL for n in degrees}, "sylow-ce"
        positive = [n for n in degrees if n >= 1]
        if positive:
            P = sylow_ascent(G, p, seed=seed)
            parts.update(ce_ppart_general(G, P, positive))
    return {n: list(parts[n].torsion) for n in degrees}, method


def _polygon_complex(G: PermGroup):
    from .coxeter import polygon_solid

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


def _wall_resolution(G, base_kind, dims, n):
    from .equivariant import SimplexFlags, orbit_decompose
    from .wall import from_cells, splice, wall_assemble

    if base_kind == "polygon":
        ecc = orbit_decompose(_polygon_complex(G), G, 2)
        top = ecc.orbits[-1]
        # a one-orbit top cell fixed by all of G, orientation and all,
        # closes up periodically
        if len(top) == 1 and top[0].stab.order() == G.order() and -1 not in top[0].chi:
            return wall_assemble(splice(ecc), n)
        return wall_assemble(from_cells(ecc), n)
    flags = SimplexFlags(G.degree, dims if dims is not None else (0, 1))
    ecc = orbit_decompose(flags, G, n + 1)
    return wall_assemble(from_cells(ecc), n)


def _cmd_homology(args):
    if args.degree < 0:
        raise ValueError("--degree must be at least 0")
    if args.prime is not None:
        _check_primes("-p", [args.prime])
    G = _group(args.group)
    top = args.to if args.to is not None else args.degree
    if top < args.degree:
        raise ValueError("--to must not be below --degree")
    degrees = list(range(args.degree, top + 1))
    if args.method != "wall" and args.complex is not None:
        raise ValueError("--complex applies only to --method wall")
    if (args.method, args.complex) != ("wall", "flags") and args.dims is not None:
        raise ValueError("--dims applies only to --method wall --complex flags")
    restriction = None
    if args.prime is not None:
        restriction = args.prime
    elif args.p_min is not None:
        restriction = f">={args.p_min}"

    method = args.method
    if method == "auto":
        if restriction is not None:
            method = "sylow"
        elif G.order() <= errors.SMALL_GROUP_CAP:
            method = "small"
        else:
            raise CapExceeded(
                f"group order {G.order()} exceeds the resolution cap "
                f"{errors.SMALL_GROUP_CAP}; restrict to a prime or pick "
                "--method wall with a complex"
            )

    results = []
    if method == "sylow":
        if restriction is None:
            raise ValueError("--method sylow needs -p or --p-min")
        primes = _prime_list(G.order(), args.prime, args.p_min)
        parts: dict = {n: [] for n in degrees}
        used = "sylow"
        # one pass per prime covers every degree; each degree reports
        # the method of the last prime
        for p in primes:
            tors, used = _sylow_invariants(G, p, degrees, args.seed)
            for n in degrees:
                parts[n] += [(min(factor(q)), q) for q in tors[n]]
        for n in degrees:
            inv = [q for _, q in sorted(parts[n])]
            results.append({"degree": n, "invariants": inv, "method": used})
    else:
        if method == "small":
            R = resolution_small(G, top + 1)
        else:
            R = _wall_resolution(G, args.complex or "polygon", args.dims, top)
        for n in degrees:
            inv = resolution_homology(R, n)
            # H_n of a finite group is finite for n >= 1
            if n >= 1 and inv.free:
                raise InvariantViolation(f"H_{n} came out with free rank {inv.free}")
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
    _check_primes("--primes", primes)
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
    from .coxeter import essential_poset, simplex_face_counts
    from .coxeter import vertex_degree as wythoff_vertex_degree
    from .equivariant import SimplexFlags, flag_edge_orbits, orbit_decompose

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
        ecc = orbit_decompose(SimplexFlags(G.degree, dims), G, args.orbit_dim)
        payload["orbits"] = {
            "counts": [len(layer) for layer in ecc.orbits],
            "stabilizer_orders": [
                list(ecc.stab_orders(k)) for k in range(len(ecc.orbits))
            ],
        }
    return payload


# -- orbit polytope skeleton ---------------------------------------------


def _cmd_edge_degree(args):
    from fractions import Fraction

    from . import polytope

    G = _group(args.group)
    try:
        v = tuple(Fraction(s) for s in args.vector.split(","))
    except ZeroDivisionError:
        raise ValueError(f"--vector has a zero denominator: {args.vector}") from None
    pts = polytope.orbit_points(G, v)
    i = args.vertex if args.vertex is not None else pts.index(v)
    if not 0 <= i < len(pts):
        raise ValueError(f"--vertex must be in 0..{len(pts) - 1}")
    if args.dump_points:
        try:
            fh = open(args.dump_points, "w", newline="")
        except OSError as exc:
            raise ValueError(
                f"--dump-points cannot open {args.dump_points}: {exc.strerror}"
            ) from None
        with fh:
            polytope.points_csv(pts, fh)
    stab = schreier_stabilizer(G, G.orbit_data(pts[i], polytope.act_vec))
    deg = polytope.vertex_degree(pts, i, stab.generators)
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
    if args.length < 1:
        raise ValueError("--length must be at least 1")
    G = _group(args.group)
    R = resolution_small(G, args.length)
    return {
        "group": fingerprint(G),
        "group_name": args.group,
        "order": R.G.n,
        "method": "small",
        "ranks": list(R.ranks),
        "homology": [
            {"degree": k, "invariants": resolution_homology(R, k).as_list()}
            for k in range(1, args.length)
        ],
    }


# -- invariant sweep -----------------------------------------------------


def _check_snf_transforms(seed):
    rng = random.Random(seed)
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


def _check_resolutions():
    # construction re-verifies d.d = 0 and h d + d h = 1 throughout
    for name in ("S3", "Z4", "V4", "A4"):
        resolution_small(_group(name), 4)
    bar_resolution(_group("Z6"), 3)


def _check_cell_boundaries():
    from .coxeter import polygon_solid, simplex_complex
    from .equivariant import expand_chain, orbit_decompose

    cases = [
        (catalog.dihedral(4), polygon_solid(4), 2),
        (catalog.alternating(4), simplex_complex(4), 3),
    ]
    for G, base, dim in cases:
        # chain_homology checks d.d = 0; both bases are solids, so the
        # expanded layers must have the homology of a point
        H = chain_homology(*expand_chain(orbit_decompose(base, G, dim)))
        if [h.as_list() for h in H] != [[0]] + [[]] * (len(H) - 1):
            raise InvariantViolation("cell layers do not expand to a point")


def _check_wall_oracle():
    from .coxeter import polygon_solid
    from .equivariant import orbit_decompose
    from .wall import splice, wall_assemble

    R = resolution_small(catalog.cyclic(4), 4)
    ecc = orbit_decompose(polygon_solid(4), catalog.cyclic(4), 2)
    W = wall_assemble(splice(ecc), 3)
    for k in (1, 2, 3):
        if resolution_homology(W, k) != resolution_homology(R, k):
            raise InvariantViolation(f"wall and oracle differ at degree {k}")


def _cmd_selftest(args):
    checks = []
    for name, fn in (
        ("snf-transforms", lambda: _check_snf_transforms(args.seed)),
        ("resolution-identities", _check_resolutions),
        ("cell-boundaries", _check_cell_boundaries),
        ("wall-vs-oracle", _check_wall_oracle),
    ):
        fn()
        checks.append({"check": name, "ok": True})
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
        import csv

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

    p = sub.add_parser("homology", help="homology of one group over a degree range")
    p.add_argument("group", help="catalog name (M24, S5, Z12, ...) or JSON")
    p.add_argument("-n", "--degree", type=int, required=True)
    p.add_argument("--to", type=int, help="top of the degree range")
    primes = p.add_mutually_exclusive_group()
    primes.add_argument("-p", "--prime", type=int)
    primes.add_argument("--p-min", type=int, help="restrict to primes >= this")
    p.add_argument(
        "--method", choices=("auto", "sylow", "wall", "small"), default="auto",
    )
    p.add_argument(
        "--complex", choices=("polygon", "flags"),
        help="geometric source for --method wall (default polygon)",
    )
    p.add_argument(
        "--dims", type=_dims,
        help="flag ring dims for --complex flags (default 0,1)",
    )
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("ppart-table", help="periodic torsion patterns 2ek-1")
    p.add_argument("--groups", default=MATHIEU_NAMES)
    p.add_argument("--primes", default="5,7,11,23")
    p.set_defaults(func=_cmd_ppart_table)

    p = sub.add_parser("wythoff", help="flag complex face counts and orbits")
    p.add_argument("group")
    p.add_argument("--rings", dest="dims", type=_dims, required=True)
    p.add_argument(
        "--orbit-dim", type=int,
        help="also decompose orbits up to this dimension",
    )
    p.set_defaults(func=_cmd_wythoff)

    p = sub.add_parser("edge-degree", help="orbit polytope vertex degree")
    p.add_argument("group")
    p.add_argument("--vector", required=True, help="comma list of rationals")
    p.add_argument("--vertex", type=int, help="index into the sorted orbit")
    p.add_argument("--dump-points", metavar="PATH", help="write points CSV")
    p.set_defaults(func=_cmd_edge_degree)

    p = sub.add_parser("resolution", help="free resolution ranks and homology")
    p.add_argument("group")
    p.add_argument("--length", type=int, required=True)
    p.set_defaults(func=_cmd_resolution)

    p = sub.add_parser("selftest", help="invariant sweep")
    p.set_defaults(func=_cmd_selftest)

    for name, p in sub.choices.items():
        p.add_argument("--seed", type=int, default=0)
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument(
            "--json", dest="format", action="store_const", const="json",
            default="json",
        )
        if name in CSV_COMMANDS:
            fmt.add_argument("--csv", dest="format", action="store_const", const="csv")
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
