"""Command-line interface: graph generation, stabilization, odometers,
classification, sandpile surveys, and oracle verification runs.

All structured output is JSON on stdout (reports are deterministic and
sorted); one human-readable summary line goes to stderr.  Exit codes:
0 success, 1 domain error (with a structured error object), 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from . import families, forests, graph as graphs
from .classify import classify
from .dynamics import stabilize
from .errors import InvalidBoxError, InvalidGroupError, SandpileError
from .graph import Multigraph
from .linalg import det_exact, inverse_exact, minor_matrix, laplacian, reduced_laplacian
from .rodometer import group_odometer, real_odometer, integer_odometer


def _parse_family(spec: str) -> Multigraph:
    name, _, arg = spec.partition(":")
    makers = {
        "path": graphs.path,
        "cycle": graphs.cycle,
        "complete": graphs.complete,
        "wheel": graphs.wheel,
        "banana": graphs.banana,
        "cone-path": lambda k: graphs.cone(graphs.path(k)),
        "cone-cycle": lambda k: graphs.cone(graphs.cycle(k)),
    }
    if name not in makers or not arg:
        raise SandpileError(
            f"unknown family {spec!r}; use name:size with one of "
            + ", ".join(sorted(makers))
        )
    return makers[name](int(arg))


def _load_graph(args) -> Multigraph:
    sources = [s for s in ("family", "graph", "fixture") if getattr(args, s, None)]
    if len(sources) != 1:
        raise SandpileError("exactly one of --family/--graph/--fixture is required")
    if args.family:
        return _parse_family(args.family)
    if getattr(args, "fixture", None):
        return families.fixture_by_name(args.fixture).graph
    with open(args.graph) as fh:
        return graphs.graph_from_json(json.load(fh))


def _load_sandpile(g: Multigraph, args) -> tuple[int, ...]:
    if getattr(args, "fixture", None):
        return families.fixture_by_name(args.fixture).sandpile
    raw = getattr(args, "sandpile", None)
    if raw is None:
        raise SandpileError("--sandpile is required")
    if os.path.exists(raw):
        with open(raw) as fh:
            return graphs.validate_sandpile(g, graphs.sandpile_from_json(json.load(fh)))
    try:
        values = [int(x) for x in raw.split(",")]
    except ValueError:
        raise SandpileError(f"--sandpile {raw!r} is neither a file nor a CSV of ints")
    return graphs.validate_sandpile(g, values)


def _parse_box(g: Multigraph, box: str) -> list[range]:
    """Per-vertex inclusive ranges from 'lo:hi'; each bound is an int or a
    degree-relative term d, d-1, d+k."""

    def bound(token: str, degree: int) -> int:
        token = token.strip()
        try:
            if token.startswith("d"):
                rest = token[1:]
                return degree + (int(rest) if rest else 0)
            return int(token)
        except ValueError:
            raise InvalidBoxError(
                f"box bound {token!r} must be an integer or d, d-k, d+k"
            ) from None

    lo_s, sep, hi_s = box.partition(":")
    if not sep:
        raise InvalidBoxError(f"box {box!r} must look like lo:hi")
    out = []
    for v in g.non_sink:
        lo = max(0, bound(lo_s, g.degree(v)))
        hi = bound(hi_s, g.degree(v))
        if hi < lo:
            raise InvalidBoxError(f"box {box!r} is empty at vertex {v}")
        out.append(range(lo, hi + 1))
    return out


def _emit(args, payload, summary: str) -> None:
    text = json.dumps(payload, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(summary, file=sys.stderr)


def _frac_list(values) -> list[str]:
    return [str(x) for x in values]


# --- subcommands ---------------------------------------------------------------

def _cmd_gen(args) -> int:
    g = _parse_family(args.family)
    _emit(args, graphs.graph_to_json(g), f"generated {g!r}")
    return 0


def _cmd_info(args) -> int:
    g = _load_graph(args)
    payload = {
        "vertices": g.n_vertices,
        "sink": g.sink,
        "edges": len(g.edges()),
        "degrees": [g.degree(v) for v in range(g.n_vertices)],
        "spanning_trees": str(det_exact(reduced_laplacian(g))),
        "cone_of_regular": graphs.is_cone_of_regular(g),
        "tree": graphs.is_tree(g),
    }
    _emit(args, payload, f"info for {g!r}")
    return 0


def _cmd_stabilize(args) -> int:
    g = _load_graph(args)
    sigma = _load_sandpile(g, args)
    result = stabilize(g, sigma)
    payload = {
        "stable": list(result.stable_config),
        "odometer": list(result.odometer),
    }
    _emit(args, payload, f"stabilized after {result.topple_count} topplings")
    return 0


def _cmd_odometer(args) -> int:
    g = _load_graph(args)
    sigma = _load_sandpile(g, args)
    selector = args.group
    if selector == "z":
        values = integer_odometer(g, sigma)
        payload = {"group": "z", "odometer": _frac_list(values), "fast_path_used": False}
    elif selector == "r":
        report = real_odometer(g, sigma)
        payload = {
            "group": "r",
            "odometer": _frac_list(report.odometer),
            "fast_path_used": report.fast_path_used,
        }
    elif selector.startswith("q:"):
        try:
            m = int(selector[2:])
        except ValueError:
            raise InvalidGroupError(f"group {selector!r} needs an integer denominator")
        report = group_odometer(g, sigma, m)
        payload = {
            "group": report.group,
            "odometer": _frac_list(report.odometer),
            "fast_path_used": report.fast_path_used,
        }
    else:
        raise InvalidGroupError(f"unknown group {selector!r}; use z, r, or q:<m>")
    _emit(args, payload, f"{selector}-odometer of sigma on {g!r}")
    return 0


def _cmd_classify(args) -> int:
    g = _load_graph(args)
    sigma = _load_sandpile(g, args)
    verdict = classify(g, sigma)
    payload = {
        "immutable": verdict.immutable,
        "z_odometer": list(verdict.z_odometer),
        "r_odometer": _frac_list(verdict.r_odometer),
        "criterion": verdict.criterion,
    }
    mismatch = None
    if getattr(args, "fixture", None):
        fx = families.fixture_by_name(args.fixture)
        expected = {
            "immutable": fx.immutable,
            "z_odometer": list(fx.z_odometer),
            "r_odometer": _frac_list(fx.r_odometer),
        }
        ok = all(payload[key] == expected[key] for key in expected)
        payload["fixture"] = fx.name
        payload["fixture_ok"] = ok
        if not ok:
            mismatch = expected
    label = "immutable" if verdict.immutable else "mutable"
    _emit(args, payload, f"sigma on {g!r} is {label} ({verdict.criterion})")
    if mismatch is not None:
        print(f"fixture mismatch, expected {mismatch}", file=sys.stderr)
        return 1
    return 0


def _cmd_survey(args) -> int:
    g = _load_graph(args)
    box = _parse_box(g, args.box)
    immutable = 0
    total = 0
    for values in itertools.product(*box):
        total += 1
        if classify(g, values).immutable:
            immutable += 1
    payload = {
        "box": args.box,
        "total": total,
        "immutable": immutable,
        "mutable": total - immutable,
    }
    _emit(args, payload, f"surveyed {total} sandpiles on {g!r}")
    return 0


def _iter_minor_checks(g: Multigraph, max_complement: int = 3):
    """Stream matrix-tree checks on the shapes where every constrained
    forest pairs W with V by the identity, so the minor is plus or minus the
    forest count: every V == W with complement size 1..max_complement
    (determinant equals the count, sign +1), and every 2-element pair V, W
    sharing vertex 0 (absolute value equals the count, index-parity sign).
    On other shapes a forest may pair them by an odd bijection, which flips
    its sign, or forests of opposite sign cancel (all-minors matrix-tree
    theorem, see ``forests.sign_of_minor``), so the count alone does not
    give the minor and those shapes are not part of the suite."""
    L = laplacian(g)
    nv = g.n_vertices
    vertices = list(range(nv))
    for r in range(1, min(max_complement, nv - 1) + 1):
        k = nv - r
        for V in itertools.combinations(vertices, k):
            count = forests.count_constrained_forests(g, V, V)
            det = det_exact(minor_matrix(L, V, V))
            yield {
                "V": list(V),
                "W": list(V),
                "det": str(det),
                "count": str(count),
                "ok": det == count,
            }
    if nv >= 3:
        for i in range(1, nv):
            for j in range(1, nv):
                if i == j:
                    continue
                V, W = (0, j), (0, i)
                count = forests.count_constrained_forests(g, V, W)
                det = det_exact(minor_matrix(L, W, V))
                sign = forests.sign_of_minor(g, V, W)
                yield {
                    "V": list(V),
                    "W": list(W),
                    "det": str(det),
                    "count": str(count),
                    "ok": abs(det) == count and det == sign * count,
                }


def _cmd_verify(args) -> int:
    failures = 0
    checks = 0
    if args.suite == "matrix-tree":
        family = families.verification_family(args.max_vertices)
        for idx, g in enumerate(family):
            for line in _iter_minor_checks(g):
                line["graph"] = idx
                checks += 1
                failures += 0 if line["ok"] else 1
                print(json.dumps(line, sort_keys=True))
    elif args.suite == "inverse-entry":
        family = families.verification_family(args.max_vertices)
        for idx, g in enumerate(family):
            det = det_exact(reduced_laplacian(g))
            inv = inverse_exact(reduced_laplacian(g))
            for i, v in enumerate(g.non_sink):
                for j, w in enumerate(g.non_sink):
                    count = forests.count_two_forests(g, v, w)
                    ok = inv[i][j] * det == count
                    checks += 1
                    failures += 0 if ok else 1
                    print(
                        json.dumps(
                            {
                                "graph": idx,
                                "v": v,
                                "w": w,
                                "entry": str(inv[i][j]),
                                "count": str(count),
                                "ok": ok,
                            },
                            sort_keys=True,
                        )
                    )
    elif args.suite == "fixtures":
        for fx in families.named_fixtures():
            verdict = classify(fx.graph, fx.sandpile)
            ok = (
                verdict.immutable == fx.immutable
                and tuple(verdict.z_odometer) == fx.z_odometer
                and tuple(verdict.r_odometer) == fx.r_odometer
            )
            checks += 1
            failures += 0 if ok else 1
            print(json.dumps({"fixture": fx.name, "ok": ok}, sort_keys=True))
    else:
        raise SandpileError(
            f"unknown suite {args.suite!r}; use matrix-tree, inverse-entry, or fixtures"
        )
    print(
        json.dumps(
            {"suite": args.suite, "checks": checks, "failures": failures},
            sort_keys=True,
        )
    )
    print(f"{args.suite}: {checks} checks, {failures} failures", file=sys.stderr)
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sandpiles",
        description="Exact sandpile stabilization, odometers, and immutability classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_source(p, with_sandpile=True, with_fixture=True):
        p.add_argument("--family", help="graph family, e.g. complete:3, wheel:5, cone-cycle:4")
        p.add_argument("--graph", help="path to a graph JSON file")
        if with_fixture:
            p.add_argument("--fixture", help="named fixture providing graph and sandpile")
        if with_sandpile:
            p.add_argument("--sandpile", help="CSV values (e.g. 2,0) or a JSON file")
        p.add_argument("--out", help="write the JSON report to this file")

    p = sub.add_parser("gen", help="generate a family graph as JSON")
    p.add_argument("--family", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("info", help="basic facts about a graph")
    add_graph_source(p, with_sandpile=False, with_fixture=False)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("stabilize", help="stabilize a sandpile")
    add_graph_source(p)
    p.set_defaults(func=_cmd_stabilize)

    p = sub.add_parser("odometer", help="compute an odometer")
    add_graph_source(p)
    p.add_argument("--group", default="r", help="z, r, or q:<m> for (1/m)Z")
    p.set_defaults(func=_cmd_odometer)

    p = sub.add_parser("classify", help="immutable or mutable?")
    add_graph_source(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("survey", help="sweep a box of sandpiles and count verdicts")
    add_graph_source(p, with_sandpile=False, with_fixture=False)
    p.add_argument("--box", required=True, help="per-vertex range lo:hi; bounds may use d, d-1, d+k")
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("verify", help="run an oracle verification suite (JSON lines)")
    p.add_argument("--suite", required=True, help="matrix-tree, inverse-entry, or fixtures")
    p.add_argument("--max-vertices", type=int, default=5)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SandpileError as exc:
        print(
            json.dumps(
                {"error": {"type": type(exc).__name__, "message": str(exc)}},
                sort_keys=True,
            )
        )
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
