"""The four workloads: the operations of one round, made from a seed.

A workload has three parts. `inputs(K, rng, tiny)` makes the round's items
and warms the library's caches (this counts as set-up). `op(K, item, tmp)`
runs one operation and returns the seconds spent inside knaster together
with its outputs, whose repr() is the same for equal outputs. `check(K, item, out)` returns None
when the outputs are right and a reason otherwise; checks are never timed. `K` is the imported
`knaster` package; every call goes through a module attribute so that the
traced run sees it. `tiny` selects the smoke-test size.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import time
import xml.etree.ElementTree as ET
from fractions import Fraction as F

import checks

clock = time.perf_counter


def rand_unit(rng, max_den: int = 10 ** 4) -> F:
    den = rng.randint(2, max_den)
    return F(rng.randint(0, den), den)


PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def rand_param(rng, lo: F = F(0), hi: F = F(1)) -> F:
    """A parameter t in (lo, hi) with a prime denominator between 11 and 97.

    Parameters such as 0 or 1/2 make towers far cheaper to build than a
    generic t, so they are left out to keep the cost of a round the same
    from seed to seed."""
    while True:
        t = lo + (hi - lo) * rand_unit(rng, 97)
        den = rng.choice(PRIMES)
        t = F(round(t * den), den)
        if lo < t < hi:
            return t


def cli(K, argv) -> tuple[int, str]:
    """Run the CLI in this process; return its exit code and standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = K.cli.main(argv)
    return code, buf.getvalue()


# ------------------------------------------------------------ lift-grid
#
# The criterion-02 grid: three bases, m <= 6, q <= 4, every i, and n from
# (m+2)q to a cap. Each (base, m, q, i) cell contributes one seeded n from
# each of LIFT_STRATA equal slices of its n range, so every seed draws the
# same mix of small and large n.

LIFT_CAP = 60
LIFT_STRATA = 3
LIFT_PROBES = 8


def lift_grid_inputs(K, rng, tiny):
    cap, strata = (16, 1) if tiny else (LIFT_CAP, LIFT_STRATA)
    f1_star = K.construct_lift(K.LiftSpec(m=3, n=7, q=1, i=0, f0=K.identity()))
    items = []
    for f0 in (K.identity(), K.tent(2), f1_star):
        for m in range(1, 7):
            for q in range(1, 5):
                for i in range(q):
                    ns = list(range((m + 2) * q, cap + 1))
                    for c in range(strata):
                        part = ns[len(ns) * c // strata:len(ns) * (c + 1) // strata]
                        if part:
                            spec = K.LiftSpec(m=m, n=rng.choice(part), q=q, i=i, f0=f0)
                            items.append((spec, [rand_unit(rng) for _ in range(LIFT_PROBES)]))
    rng.shuffle(items)
    for k in range(1, cap + 1):
        K.tent(k)
    return items


def lift_grid_op(K, item, tmp):
    spec, _ = item
    t0 = clock()
    f1 = K.construct_lift(spec)
    report = K.check_conditions(f1, spec)
    return clock() - t0, (f1, report)


def lift_grid_check(K, item, out):
    spec, probes = item
    f1, report = out
    if not report.all_ok:
        return f"check_conditions reports {report.as_dict()}"
    pts = f1.points
    why = checks.canonical(pts) or checks.lift_window(pts, spec.m, spec.q, spec.i)
    if why:
        return why
    f1v, f0v = checks.evaluator(pts), checks.evaluator(spec.f0.points)
    xs = [x for x, _ in pts] + [F(k, spec.n) for k in range(spec.n + 1)] + probes
    for x in xs:
        if checks.tent_value(spec.m, f1v(x)) != f0v(checks.tent_value(spec.n, x)):
            return f"tent({spec.m})(f1(x)) != f0(tent({spec.n})(x)) at x = {x}"
    return None


# --------------------------------------------------------- tower-queries
#
# Towers over a constant and a non-constant pair, with one seeded parameter
# from each third of [0, 1], built once in set-up. Per tower a round asks
# lazy evaluations at EVAL_LEVELS, two pointwise commuting checks, a
# level-condition check at each of CLC_DEPTHS on a fresh tower (the range
# memo would otherwise answer a repeat), one thread image and one CLI
# build-then-eval. The level-condition checks take most of a round's time
# and their cost depends on t, hence the spread of parameters. Threads are
# extended here, one seeded preimage per level: threads.extend builds every
# child of the fan, which would make set-up cubic in the thread depth.

TQ_PAIRS = (("const:2", "const:2"), ("periodic:3|2,5", "periodic:2|2,3"))
TQ_PARAMS = 3
TQ_DEPTH = 300
EVAL_LEVELS = (50, 100, 150, 200, 250, 300)
COMMUTE_LEVELS = (150, 300)
CLC_DEPTHS = (8, 16, 24)
THREAD_DEPTH = 40
CLI_DEPTH = 60
RANGE_SAMPLES = 4


class Pair:
    """A (source, target) sequence pair as the library and the checks see it."""

    def __init__(self, K, N: str, M: str, depth: int):
        self.N, self.M = N, M
        self.src, self.tgt = K.cli.parse_seq(N), K.cli.parse_seq(M)
        self.n_nth, self.m_nth = checks.seq_nth(N), checks.seq_nth(M)
        self.n = [0] + checks.regrouped_terms(self.n_nth, self.m_nth, depth)


def preimage(n: int, y: F, leg: int) -> F:
    """The point of tent(n)'s leg `leg` that maps to y."""
    return F(leg + y, n) if leg % 2 == 0 else F(leg + 1 - y, n)


def tower_queries_inputs(K, rng, tiny):
    depth = 40 if tiny else TQ_DEPTH
    evals = (20, 40) if tiny else EVAL_LEVELS
    commutes = (40,) if tiny else COMMUTE_LEVELS
    clc_depths = (4, 6) if tiny else CLC_DEPTHS
    thread_depth, cli_depth = (6, 8) if tiny else (THREAD_DEPTH, CLI_DEPTH)
    items = []
    for N, M in TQ_PAIRS:
        pair = Pair(K, N, M, depth)
        for k in range(TQ_PARAMS):
            t = rand_param(rng, F(k, TQ_PARAMS), F(k + 1, TQ_PARAMS))
            tower = K.build_tower(pair.src, pair.tgt, t, depth)
            for j in evals:
                items.append(("eval", pair, tower, j, rand_unit(rng, 10 ** 6)))
            for j in commutes:
                items.append(("commutes", pair, tower, j, rand_unit(rng, 10 ** 6)))
            for d in clc_depths:
                samples = [rand_unit(rng) for _ in range(3 * RANGE_SAMPLES)]
                items.append(("levels", pair, t, d, samples))
            coords = [rand_unit(rng, 97)]
            for j in range(1, thread_depth + 1):
                coords.append(preimage(pair.n[j], coords[-1], rng.randrange(pair.n[j])))
            items.append(("thread", pair, tower, K.Thread(tower.grouped, tuple(coords)), None))
            items.append(("cli", pair, tower, rng.randint(1, cli_depth),
                          (cli_depth, rand_unit(rng, 10 ** 6))))
    rng.shuffle(items)
    return items


def tower_queries_op(K, item, tmp):
    kind, pair, a, b, c = item
    if kind == "eval":
        t0 = clock()
        out = K.eval_level(a, b, c)
        return clock() - t0, out
    if kind == "commutes":
        t0 = clock()
        out = K.commutes_pointwise(a, b, c)
        return clock() - t0, out
    if kind == "levels":
        tower = K.build_tower(pair.src, pair.tgt, a, b)
        t0 = clock()
        report = K.check_level_conditions(tower, b)
        return clock() - t0, report
    if kind == "thread":
        t0 = clock()
        out = K.apply_tower(a, b)
        return clock() - t0, out
    depth, x = c
    path = os.path.join(tmp, "tower.json")
    t0 = clock()
    built = cli(K, ["tower", "build", "--N", pair.N, "--M", pair.M, "--t", str(a.t),
                    "--depth", str(depth), "--out", path])
    evaluated = cli(K, ["tower", "eval", "--tower", path, "--level", str(b), "--x", str(x)])
    return clock() - t0, (built[0], evaluated)


def _commuting(K, pair, tower, j, x, v) -> str | None:
    """f_j(0) = 0 and tent(m_j)(f_j(x)) = f_{j-1}(tent(n_j)(x)), with n_j, m_j regrouped here."""
    if tower.level(j).n != pair.n[j]:
        return f"level {j} has n = {tower.level(j).n}, regrouping gives {pair.n[j]}"
    if K.eval_level(tower, j, F(0)) != 0:
        return f"f_{j}(0) != 0"
    below = K.eval_level(tower, j - 1, checks.tent_value(pair.n[j], x))
    if checks.tent_value(pair.m_nth(j), v) != below:
        return f"tent(m_{j})(f_{j}(x)) != f_{j - 1}(tent(n_{j})(x)) at x = {x}"
    return None


def tower_queries_check(K, item, out):
    kind, pair, a, b, c = item
    if kind == "eval":
        return _commuting(K, pair, a, b, c, out)
    if kind == "commutes":
        if out is not True:
            return f"commutes_pointwise is {out} at level {b}, x = {c}"
        return _commuting(K, pair, a, b, c, K.eval_level(a, b, c))
    if kind == "levels":
        if not out.all_ok or out.commutes is not None:
            return f"check_level_conditions reports {out.as_dict()} at level {b}"
        tower = K.build_tower(pair.src, pair.tgt, a, b)
        slot = min(a * b // 1, b - 1)
        cuts = (F(0), F(slot, b), F(slot + 1, b), F(1))
        m = pair.m_nth(b)
        ranges = [K.level_range(tower, b, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        if ranges[1] != (0, 1):
            return f"range on the sweep window is {ranges[1]}, not (0, 1)"
        if ranges[0][1] > F(1, m) or ranges[2][0] < F(m - 1, m):
            return f"confinement fails at level {b}: {ranges[0]}, {ranges[2]}"
        for k, u in enumerate(c):
            lo, hi = cuts[k % 3], cuts[k % 3 + 1]
            rmin, rmax = ranges[k % 3]
            v = K.eval_level(tower, b, lo + (hi - lo) * u)
            if not rmin <= v <= rmax:
                return f"f_{b} takes {v} outside its range query {ranges[k % 3]}"
        return None
    if kind == "thread":
        xs, ys = b.coords, out.coords
        if len(ys) != len(xs) or ys[0] != xs[0]:
            return "image thread does not start at f_0(x_0) = x_0"
        for j in range(1, len(xs)):
            if checks.tent_value(pair.n[j], xs[j]) != xs[j - 1]:
                return f"input thread inconsistent at {j}"
            if checks.tent_value(pair.m_nth(j), ys[j]) != ys[j - 1]:
                return f"image thread inconsistent at {j}"
        return None
    built, (code, text) = out
    if built != 0 or code != 0:
        return f"CLI exit codes {built}, {code}"
    depth, x = c
    want = K.eval_level(a, b, x)
    if text.strip() != str(want):
        return f"tower eval printed {text.strip()!r}, eval_level gives {want}"
    return _commuting(K, pair, a, b, x, want)


# ---------------------------------------------------------- materialize
#
# One level j <= 4 of a fresh const:2 tower per operation, each at its own
# seeded parameter; level 4 has 56,800 breakpoints. A fresh tower keeps the
# library's per-tower cache of materialized levels from carrying over.
# Level 4 appears twice so that the median latency falls on a level-4
# operation: it lasts seconds, long enough to even out the speed swings of a
# shared host, where a level-3 operation (about 0.1 s) falls wholly in one.

MAT_PAIR = ("const:2", "const:2")
MAT_LEVELS = (3, 4, 4)
MAT_PROBES = 16


def materialize_inputs(K, rng, tiny):
    levels = (1, 2) if tiny else MAT_LEVELS
    pair = Pair(K, *MAT_PAIR, max(levels))
    for j in levels:
        K.tent(pair.n[j])
        K.tent(pair.m_nth(j))
    return [(pair, rand_param(rng), j, [rand_unit(rng, 10 ** 6) for _ in range(MAT_PROBES)])
            for j in levels]


def materialize_op(K, item, tmp):
    pair, t, j, _ = item
    tower = K.build_tower(pair.src, pair.tgt, t, j)
    t0 = clock()
    f = K.materialize_level(tower, j)
    lvl = tower.level(j)
    square = (K.compose(K.materialize_level(tower, j - 1), K.tent(lvl.n))
              == K.compose(K.tent(lvl.m), f))
    back = K.serialize.plmap_from_obj(json.loads(K.serialize.dumps(K.serialize.plmap_to_obj(f))))
    svg = K.svg.render_svg(K.svg.PlotSpec(maps=((f, f"f{j}"),)))
    return clock() - t0, (f, square, back, svg)


def materialize_check(K, item, out):
    pair, t, j, probes = item
    f, square, back, svg = out
    tower = K.build_tower(pair.src, pair.tgt, t, j)
    if square is not True:
        return f"commuting square fails at level {j}"
    pts = f.points
    why = checks.canonical(pts)
    if why:
        return why
    fv = checks.evaluator(pts)
    for x in probes:
        if fv(x) != K.eval_level(tower, j, x):
            return f"materialized f_{j} disagrees with eval_level at x = {x}"
    below = checks.evaluator(K.materialize_level(tower, j - 1).points)
    n, m = pair.n[j], pair.m_nth(j)
    for x, y in pts:
        if checks.tent_value(m, y) != below(checks.tent_value(n, x)):
            return f"tent(m_{j})(f_{j}) != f_{j - 1}(tent(n_{j})) at breakpoint x = {x}"
    if back.points != pts:
        return "JSON round trip changed the map"
    polylines = [el for el in ET.fromstring(svg).iter() if el.tag.endswith("polyline")]
    if len(polylines) != 1 or len(polylines[0].attrib["points"].split()) != len(pts):
        return "SVG does not hold one polyline point per breakpoint"
    return None


# -------------------------------------------------------------- certify
#
# One (N, M, t, s, ell) case per operation. The gap s - t is fixed per case
# and only t is seeded, so every seed asks for the same levels j, from 7 up
# to 1001; cases sharing a gap draw t from disjoint slices of [0, 1 - gap].
# The tampered field is fixed per case too: a tampered vt or vs is caught
# only after both towers are rebuilt, a tampered j or p at once. The four
# gap-1/64 cases, all tampered in a field caught at once, put the median
# latency inside one group of like operations. The cases run in seeded
# order, so the like ones are spread over a round.

CERT_CASES = (
    # N, M, gap, ell, tampered field, through the CLI too
    ("const:2", "const:2", F(1, 2), 4, "vt", True),
    ("const:2", "const:2", F(1, 4), 4, "j", False),
    ("periodic:3|2,5", "periodic:2|2,3", F(1, 8), 10, "vs", True),
    ("const:2", "const:2", F(1, 16), 100, "p", False),
    ("const:3", "const:2", F(1, 32), 4, "vt", True),
    ("const:2", "const:2", F(1, 64), 4, "j", False),
    ("const:2", "const:2", F(1, 64), 4, "p", False),
    ("const:2", "const:2", F(1, 64), 4, "j", False),
    ("const:2", "const:2", F(1, 64), 4, "p", False),
    ("periodic:3|2,5", "periodic:2|2,3", F(1, 128), 4, "j", False),
    ("const:3", "const:2", F(1, 256), 4, "vt", False),
    ("const:2", "const:2", F(3, 1000), 4, "vs", False),
    ("const:2", "const:2", F(3, 1000), 4, "p", False),
)


def tamper(cert, field):
    wrong = {"vt": cert.vt / 2, "vs": F(1, 2), "j": cert.j + 1, "p": cert.p + 1}
    return dataclasses.replace(cert, **{field: wrong[field]})


def certify_inputs(K, rng, tiny):
    cases = CERT_CASES[:3] if tiny else CERT_CASES
    gaps = [case[2] for case in cases]
    items = []
    for N, M, gap, ell, field, via_cli in cases:
        k, slices = sum(1 for item in items if item[2] - item[1] == gap), gaps.count(gap)
        t = rand_param(rng, (1 - gap) * k / slices, (1 - gap) * (k + 1) / slices)
        items.append((Pair(K, N, M, 0), t, t + gap, ell, field, via_cli))
    rng.shuffle(items)
    return items


def certify_op(K, item, tmp):
    pair, t, s, ell, field, via_cli = item
    t0 = clock()
    cert = K.make_certificate(pair.src, pair.tgt, t, s, ell)
    genuine = K.verify_certificate(cert, pair.src, pair.tgt)
    bad = tamper(cert, field)
    rejected = not K.verify_certificate(bad, pair.src, pair.tgt)
    elapsed = clock() - t0
    codes = cli_cert = None
    if via_cli:
        good_path = os.path.join(tmp, "cert.json")
        bad_path = os.path.join(tmp, "tampered.json")
        with open(bad_path, "w", encoding="utf-8") as fh:
            fh.write(K.serialize.dumps(K.serialize.certificate_to_obj(bad)))
        t0 = clock()
        codes = (
            cli(K, ["distinguish", "--N", pair.N, "--M", pair.M, "--t", str(t),
                    "--s", str(s), "--ell", str(ell), "--out", good_path])[0],
            cli(K, ["verify-cert", "--cert", good_path, "--N", pair.N, "--M", pair.M])[0],
            cli(K, ["verify-cert", "--cert", bad_path, "--N", pair.N, "--M", pair.M])[0],
        )
        elapsed += clock() - t0
        with open(good_path, encoding="utf-8") as fh:
            cli_cert = K.serialize.certificate_from_obj(json.load(fh))
    return elapsed, (cert, genuine, rejected, codes, cli_cert)


def certify_check(K, item, out):
    pair, t, s, ell, field, via_cli = item
    cert, genuine, rejected, codes, cli_cert = out
    if (cert.t, cert.s, cert.ell) != (t, s, ell):
        return "certificate does not carry the requested t, s, ell"
    why = checks.certificate(cert, pair.n_nth, pair.m_nth)
    if why:
        return why
    if not genuine:
        return "verifier rejects the genuine certificate"
    if not rejected:
        return f"verifier accepts a certificate with a tampered {field}"
    if via_cli:
        if codes != (0, 0, 1):
            return f"CLI distinguish / verify-cert / verify-cert(tampered) exit with {codes}"
        if cli_cert != cert:
            return "CLI certificate differs from the library's"
    return None


WORKLOADS = {
    "lift-grid": (lift_grid_inputs, lift_grid_op, lift_grid_check),
    "tower-queries": (tower_queries_inputs, tower_queries_op, tower_queries_check),
    "materialize": (materialize_inputs, materialize_op, materialize_check),
    "certify": (certify_inputs, certify_op, certify_check),
}
