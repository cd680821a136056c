"""Command-line front end.

Exit codes: 0 success, 1 a verification or exact check failed, 2 invalid
input (bad flags, malformed files, unsatisfiable requests). Sequences are
given as `const:2`, `list:2,3,5` or `periodic:8,16|32`; maps as `id`,
`tent:7` or a JSON file path. All file I/O is UTF-8 JSON except plots,
which are SVG 1.1. KNASTER_LAP_BUDGET overrides the materialization budget,
which also caps every tent degree read from the command line or a thread
file and the plot grid's fold count.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import serialize
from .distinguish import make_certificate, verify_certificate
from .natmap import (
    NaturalMapSpec,
    _first_bad,
    enumerate_natural_maps,
    induced_indices,
    prime_obstruction,
)
from .plmap import PLMap, compose, lap, tent
from .seqs import SeqSpec
from .svg import PlotSpec, render_svg
from .threads import apply_natmap, apply_tower, extend, validate
from .tower import DEFAULT_LAP_BUDGET, build_tower, enumerate_lifts, eval_level, materialize_level

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def parse_seq(text: str) -> SeqSpec:
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"bad sequence {text!r} (want const:N, list:..., periodic:...|...)")
    try:
        if kind == "const":
            return SeqSpec.constant(int(rest))
        if kind == "list":
            return SeqSpec.from_list([int(v) for v in rest.split(",") if v])
        if kind == "periodic":
            head, _, tail = rest.partition("|")
            return SeqSpec.periodic([int(v) for v in head.split(",") if v],
                                    [int(v) for v in tail.split(",") if v])
    except ValueError as exc:
        raise ValueError(f"bad sequence {text!r}: {exc}") from None
    raise ValueError(f"unknown sequence kind {kind!r}")


def parse_map(text: str) -> PLMap:
    if text == "id":
        return tent(1)
    if text.startswith("tent:"):
        return tent(_tent_degree(int(text[5:]), "tent degree"))
    return serialize.plmap_from_obj(_load_json(text))


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _save(path: str, text: str, note: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}{note}")


def _lap_budget() -> int:
    raw = os.environ.get("KNASTER_LAP_BUDGET")
    if raw is None:
        return DEFAULT_LAP_BUDGET
    budget = int(raw)
    if budget < 1:
        raise ValueError("KNASTER_LAP_BUDGET must be positive")
    return budget


def _tent_degree(k: int, what: str) -> int:
    """k, checked against the lap budget before any tent of degree k exists."""
    budget = _lap_budget()
    if k > budget:
        raise ValueError(f"{what} {k} exceeds the lap budget {budget}")
    return k


# ------------------------------------------------------------- commands

def cmd_semigroup(args) -> int:
    if args.maxn < 2:
        raise ValueError("--maxn must be at least 2")
    _tent_degree(args.maxn ** 2, "--maxn squared")
    failures = 0
    for m in range(2, args.maxn + 1):
        for n in range(2, args.maxn + 1):
            left = compose(tent(m), tent(n))
            ok = left == tent(m * n) and left == compose(tent(n), tent(m))
            if not ok:
                failures += 1
            print(f"g{m}∘g{n} = g{m * n}  commutes  {'ok' if ok else 'FAIL'}")
    print(f"checked {(args.maxn - 1) ** 2} pairs, {failures} failures")
    return EXIT_FAIL if failures else EXIT_OK


def cmd_lift(args) -> int:
    from .tower import LiftSpec, check_conditions, construct_lift

    spec = LiftSpec(m=_tent_degree(args.m, "--m"), n=_tent_degree(args.n, "--n"),
                    q=args.q, i=args.i, f0=parse_map(args.f0))
    f1 = construct_lift(spec)
    report = check_conditions(f1, spec)
    for name, value in report.as_dict().items():
        print(f"{name}: {'ok' if value else 'FAIL'}")
    if args.out:
        obj = serialize.plmap_to_obj(f1)
        _save(args.out, serialize.dumps(obj),
              f" ({len(obj['breakpoints'])} breakpoints, lap {lap(f1)})")
    return EXIT_OK if report.all_ok else EXIT_FAIL


def cmd_tower_build(args) -> int:
    tower = build_tower(parse_seq(args.N), parse_seq(args.M), serialize.rat_from_str(args.t),
                        args.depth)
    for lvl in tower.levels:
        print(f"level {lvl.j}: n={lvl.n} m={lvl.m} slot={lvl.slot} k={lvl.k}")
    _save(args.out, serialize.dumps(serialize.tower_to_obj(tower)))
    return EXIT_OK


def cmd_tower_eval(args) -> int:
    tower = serialize.tower_from_obj(_load_json(args.tower))
    value = eval_level(tower, args.level, serialize.rat_from_str(args.x))
    print(serialize.rat_to_str(value))
    return EXIT_OK


def cmd_tower_materialize(args) -> int:
    tower = serialize.tower_from_obj(_load_json(args.tower))
    f = materialize_level(tower, args.level, _lap_budget())
    obj = serialize.plmap_to_obj(f)
    _save(args.out, serialize.dumps(obj),
          f" ({len(obj['breakpoints'])} breakpoints, lap {lap(f)})")
    return EXIT_OK


def cmd_distinguish(args) -> int:
    cert = make_certificate(parse_seq(args.N), parse_seq(args.M),
                            serialize.rat_from_str(args.t), serialize.rat_from_str(args.s),
                            args.ell, level=args.level)
    print(f"level j={cert.j}, q={cert.q}, witness={serialize.rat_to_str(cert.witness)}")
    print(f"vt={serialize.rat_to_str(cert.vt)}, vs={serialize.rat_to_str(cert.vs)}, "
          f"p={cert.p}, r={cert.r}")
    _save(args.out, serialize.dumps(serialize.certificate_to_obj(cert)))
    return EXIT_OK


def cmd_verify_cert(args) -> int:
    cert = serialize.certificate_from_obj(_load_json(args.cert))
    ok = verify_certificate(cert, parse_seq(args.N), parse_seq(args.M))
    print("certificate verifies" if ok else "certificate REJECTED")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_natmap_check(args) -> int:
    jseq = tuple(int(v) for v in args.jseq.split(","))
    source, target = parse_seq(args.N), parse_seq(args.M)
    spec = NaturalMapSpec(i0=args.i0, jseq=jseq, source=source, target=target)
    depth = args.depth if args.depth is not None else len(jseq) - 1
    if depth < 1:
        raise ValueError("need depth >= 1 (jseq of length >= 2)")
    values = induced_indices(spec, depth)
    print("indices:", ", ".join(serialize.rat_to_str(v) for v in values))
    if source.kind != "list" and target.kind != "list" and prime_obstruction(source, target):
        print("advisory: the target tail needs a prime the source tail lacks; "
              "no spec stays compatible at large depth")
    bad = _first_bad(values)
    if bad is None:
        print(f"compatible to depth {depth}")
        return EXIT_OK
    print(f"fails at k={bad}")
    return EXIT_FAIL


def cmd_natmap_enum(args) -> int:
    specs = enumerate_natural_maps(parse_seq(args.N), parse_seq(args.M),
                                   args.i0max, args.j0max, args.jmax, args.depth)
    for spec in specs:
        print(f"i0={spec.i0} jseq={','.join(str(j) for j in spec.jseq)}")
    print(f"{len(specs)} compatible map(s)")
    if args.out:
        _save(args.out, serialize.dumps([serialize.natmap_to_obj(s) for s in specs]))
    return EXIT_OK


def cmd_lifts(args) -> int:
    _tent_degree(args.m, "--m")
    h = parse_map(getattr(args, "h"))
    found = enumerate_lifts(h, args.m, args.cap)
    bad = sum(1 for f in found if compose(tent(args.m), f) != h)
    print(f"{len(found)} lift(s), {bad} failed recomposition")
    if args.out:
        _save(args.out, serialize.dumps([serialize.plmap_to_obj(f) for f in found]))
    return EXIT_FAIL if bad else EXIT_OK


def cmd_thread_validate(args) -> int:
    thread = serialize.thread_from_obj(_load_json(args.thread))
    bad = validate(thread)
    if bad is None:
        print(f"consistent thread of depth {thread.depth}")
        return EXIT_OK
    print(f"fails at i={bad}")
    return EXIT_FAIL


def cmd_thread_extend(args) -> int:
    thread = serialize.thread_from_obj(_load_json(args.thread))
    _tent_degree(thread.seq.nth(len(thread.coords)), "next bonding term")
    children = extend(thread)
    for child in children:
        print(", ".join(serialize.rat_to_str(x) for x in child.coords))
    if args.out:
        _save(args.out, serialize.dumps([serialize.thread_to_obj(c) for c in children]))
    return EXIT_OK


def cmd_thread_map(args) -> int:
    thread = serialize.thread_from_obj(_load_json(args.thread))
    if (args.natmap is None) == (args.tower is None):
        raise ValueError("give exactly one of --natmap or --tower")
    if args.natmap is not None:
        image = apply_natmap(serialize.natmap_from_obj(_load_json(args.natmap)), thread)
    else:
        # tower threads live over the tower's grouped source sequence: the
        # thread file carries it as a "grouped" sequence or as its terms
        tower = serialize.tower_from_obj(_load_json(args.tower))
        image = apply_tower(tower, thread)
    print(", ".join(serialize.rat_to_str(x) for x in image.coords))
    if args.out:
        _save(args.out, serialize.dumps(serialize.thread_to_obj(image)))
    bad = validate(image)
    if bad is not None:
        print(f"image thread INCONSISTENT at i={bad}")
        return EXIT_FAIL
    return EXIT_OK


def cmd_plot(args) -> int:
    specs = [v for v in args.maps.split(",") if v]
    maps = [parse_map(v) for v in specs]
    labels = args.labels.split(",") if args.labels else specs
    if len(labels) != len(maps):
        raise ValueError("number of labels must match number of maps")
    if args.grid is not None:
        _tent_degree(args.grid, "--grid")
    plot = PlotSpec(maps=tuple(zip(maps, labels)), width=args.width,
                    height=args.height, grid=args.grid)
    _save(args.out, render_svg(plot))
    return EXIT_OK


# -------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knaster",
        description="Exact tent-map algebra, map towers, and non-homotopy certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("semigroup", help="check g_m∘g_n = g_mn on a grid")
    p.add_argument("--maxn", type=int, default=12)
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("lift", help="construct a windowed lift through a tent map")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--f0", default="id")
    p.add_argument("--out")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("tower", help="build, evaluate or materialize a map tower")
    tsub = p.add_subparsers(dest="tower_command", required=True)
    b = tsub.add_parser("build")
    b.add_argument("--N", required=True)
    b.add_argument("--M", required=True)
    b.add_argument("--t", required=True)
    b.add_argument("--depth", type=int, required=True)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_tower_build)
    e = tsub.add_parser("eval")
    e.add_argument("--tower", required=True)
    e.add_argument("--level", type=int, required=True)
    e.add_argument("--x", required=True)
    e.set_defaults(func=cmd_tower_eval)
    mzn = tsub.add_parser("materialize")
    mzn.add_argument("--tower", required=True)
    mzn.add_argument("--level", type=int, required=True)
    mzn.add_argument("--out", required=True)
    mzn.set_defaults(func=cmd_tower_materialize)

    p = sub.add_parser("distinguish", help="produce a non-homotopy certificate")
    p.add_argument("--N", required=True)
    p.add_argument("--M", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--ell", type=int, default=4)
    p.add_argument("--level", type=int, default=None,
                   help="use this admissible level instead of the least one")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser("verify-cert", help="independently verify a certificate")
    p.add_argument("--cert", required=True)
    p.add_argument("--N", required=True)
    p.add_argument("--M", required=True)
    p.set_defaults(func=cmd_verify_cert)

    p = sub.add_parser("natmap", help="naturally induced map arithmetic")
    nsub = p.add_subparsers(dest="natmap_command", required=True)
    c = nsub.add_parser("check")
    c.add_argument("--N", required=True)
    c.add_argument("--M", required=True)
    c.add_argument("--i0", type=int, required=True)
    c.add_argument("--jseq", required=True)
    c.add_argument("--depth", type=int, default=None)
    c.set_defaults(func=cmd_natmap_check)
    en = nsub.add_parser("enum")
    en.add_argument("--N", required=True)
    en.add_argument("--M", required=True)
    en.add_argument("--i0max", type=int, required=True)
    en.add_argument("--j0max", type=int, required=True)
    en.add_argument("--jmax", type=int, required=True)
    en.add_argument("--depth", type=int, required=True)
    en.add_argument("--out")
    en.set_defaults(func=cmd_natmap_enum)

    p = sub.add_parser("lifts", help="enumerate lifts of a map through a tent")
    p.add_argument("--h", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cap", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_lifts)

    p = sub.add_parser("thread", help="validate, extend or map point prefixes")
    thsub = p.add_subparsers(dest="thread_command", required=True)
    v = thsub.add_parser("validate")
    v.add_argument("--thread", required=True)
    v.set_defaults(func=cmd_thread_validate)
    x = thsub.add_parser("extend")
    x.add_argument("--thread", required=True)
    x.add_argument("--out")
    x.set_defaults(func=cmd_thread_extend)
    mp = thsub.add_parser("map")
    mp.add_argument("--thread", required=True)
    mp.add_argument("--natmap")
    mp.add_argument("--tower")
    mp.add_argument("--out")
    mp.set_defaults(func=cmd_thread_map)

    p = sub.add_parser("plot", help="render maps to SVG")
    p.add_argument("--maps", required=True, help="comma-separated: id, tent:K, or JSON paths")
    p.add_argument("--labels")
    p.add_argument("--out", required=True)
    p.add_argument("--width", type=int, default=760)
    p.add_argument("--height", type=int, default=280)
    p.add_argument("--grid", type=int, default=None)
    p.set_defaults(func=cmd_plot)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: an argparse parser is a
    web of reference cycles, so building one per call left garbage that only
    a full collection frees."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except AssertionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, OSError) as exc:  # JSONDecodeError and UnicodeDecodeError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
