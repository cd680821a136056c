"""Acceptance suite: one test per criterion, exact checks, stated budgets.

Each test prints a single PASS line (visible with -s or in captured output);
a pytest failure is the corresponding FAIL line.
"""

import dataclasses
import json
import random
import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import combinations

from knaster import (
    NaturalMapSpec,
    PLMap,
    SeqSpec,
    LiftSpec,
    LevelData,
    Thread,
    apply_natmap,
    apply_tower,
    build_tower,
    check_conditions,
    check_level_conditions,
    commutes_pointwise,
    compose,
    endpoint,
    enumerate_lifts,
    enumerate_natural_maps,
    eval_level,
    extend,
    first_incompatible,
    identity,
    construct_lift,
    make_certificate,
    materialize_level,
    regroup,
    tent,
    validate,
    verify_certificate,
)
from knaster.cli import main as cli_main
from knaster.serialize import (
    certificate_from_obj,
    certificate_to_obj,
    dumps,
    plmap_from_obj,
    plmap_to_obj,
    seqspec_from_obj,
    seqspec_to_obj,
    thread_from_obj,
    thread_to_obj,
    tower_from_obj,
    tower_to_obj,
)

F = Fraction
c2 = SeqSpec.constant(2)
T_GRID = (F(0), F(1, 3), F(1, 2), F(1))


def _report(num: int, name: str, started: float) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({time.monotonic() - started:.2f}s)")


def test_criterion_01_semigroup():
    started = time.monotonic()
    for m in range(2, 13):
        for n in range(2, 13):
            left = compose(tent(m), tent(n))
            assert left == tent(m * n)
            assert left == compose(tent(n), tent(m))
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"semigroup suite took {elapsed:.2f}s"
    _report(1, "semigroup suite (2..12, exact, <1s)", started)


def test_criterion_02_lift_kernel_grid(f1_star):
    started = time.monotonic()
    bases = (identity(), tent(2), f1_star)
    cases = 0
    for f0 in bases:
        for m in range(1, 7):
            for q in range(1, 5):
                for i in range(q):
                    for n in range((m + 2) * q, 61):
                        spec = LiftSpec(m=m, n=n, q=q, i=i, f0=f0)
                        f1 = construct_lift(spec)
                        report = check_conditions(f1, spec)
                        assert report.all_ok, (m, n, q, i, report.as_dict())
                        cases += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"lift-kernel grid took {elapsed:.2f}s"
    _report(2, f"lift-kernel grid, {cases} cases, all five conclusions exact", started)


def test_criterion_03_worked_example(f1_star, f1_star_expected):
    started = time.monotonic()
    assert f1_star == f1_star_expected
    assert len(f1_star.points) == 6
    assert compose(tent(3), f1_star) == tent(7)
    _report(3, "worked-example fidelity (6 breakpoints, recomposes to tent(7))", started)


def test_criterion_04_tower_suite():
    started = time.monotonic()
    grouped = regroup(c2, c2, 7)
    assert [grouped.nth(j) for j in range(1, 8)] == [8, 16, 16, 32, 32, 32, 32]
    for t in T_GRID:
        tower = build_tower(c2, c2, t, 7)
        # (a) exact materialized commuting squares, j <= 4 (lap <= 65536)
        maps = [materialize_level(tower, j, 10 ** 5) for j in range(5)]
        for j in range(1, 5):
            lvl = tower.level(j)
            lhs = compose(maps[j - 1], tent(lvl.n))
            rhs = compose(tent(lvl.m), maps[j])
            assert lhs == rhs, (t, j)
        # (b) pointwise commuting identity at 100 random rationals, 5 <= j <= 7
        rng = random.Random(20240904)
        for j in range(5, 8):
            for _ in range(100):
                x = F(rng.randint(0, 9973), 9973)
                assert commutes_pointwise(tower, j, x), (t, j, x)
        # (c) conditions 1/3/4/5 at every level
        for j in range(1, 8):
            report = check_level_conditions(tower, j)
            assert report.all_ok, (t, j, report.as_dict())
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"tower suite took {elapsed:.2f}s"
    _report(4, "tower suite (desk config, 4 parameters, depth 7)", started)


def test_criterion_05_separation_suite():
    started = time.monotonic()
    grid = [F(k, 8) for k in range(9)]
    pairs = [(t, s) for t in grid for s in grid if t < s and s - t >= F(1, 8)]
    # every distinct pair on this grid has gap >= 1/8; the stated 28 pairs
    # (gap > 1/8) are a subset, so this run covers them all
    assert len(pairs) == 36
    assert sum(1 for t, s in pairs if s - t > F(1, 8)) == 28
    for t, s in pairs:
        cert = make_certificate(c2, c2, t, s, 4)
        assert cert.vs == 0, (t, s)
        assert cert.vt >= F(1, 2), (t, s)
        assert verify_certificate(cert, c2, c2), (t, s)
    frozen = make_certificate(c2, c2, F(0), F(1, 2), 4)
    assert (frozen.j, frozen.q, frozen.witness, frozen.p) == (7, 3, F(3, 16), 64)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"separation suite took {elapsed:.2f}s"
    _report(5, "separation suite (28 pairs, vs = 0 exactly, vt >= 1/2)", started)


def test_criterion_06_endpoint_and_threads():
    started = time.monotonic()
    towers = {t: build_tower(c2, c2, t, 6) for t in T_GRID}
    for t, tower in towers.items():
        e = endpoint(tower.grouped, 6)
        image = apply_tower(tower, e)
        assert all(x == 0 for x in image.coords), t
    for spec in enumerate_natural_maps(c2, c2, i0max=4, j0max=2, jmax=8, depth=4):
        e = endpoint(c2, spec.jseq[-1])
        image = apply_natmap(spec, e)
        assert all(x == 0 for x in image.coords), spec
    rng = random.Random(617)
    grouped = towers[F(0)].grouped
    for trial in range(50):
        th = Thread(grouped, (F(rng.randint(0, 120), 120),))
        for _ in range(6):
            children = extend(th)
            th = children[rng.randrange(len(children))]
        assert validate(th) is None
        t = T_GRID[trial % len(T_GRID)]
        image = apply_tower(towers[t], th)
        assert validate(image) is None, (t, th.coords)
    _report(6, "endpoint fixed, 50 random depth-6 threads map consistently", started)


def test_criterion_07_natural_map_oracle():
    started = time.monotonic()

    def oracle(spec, depth):
        num, den = spec.i0, 1
        for k in range(1, depth + 1):
            for r in range(spec.jseq[k - 1] + 1, spec.jseq[k] + 1):
                num *= spec.source.nth(r)
            den *= spec.target.nth(k)
            if num % den != 0:
                return k
        return None

    seqs = (c2, SeqSpec.constant(3), SeqSpec.constant(6))
    checked = 0
    for source in seqs:
        for target in seqs:
            for depth in range(1, 7):
                for jseq in combinations(range(8), depth + 1):
                    if jseq[0] > 1:
                        continue
                    for i0 in range(1, 21):
                        spec = NaturalMapSpec(i0, jseq, source, target)
                        assert first_incompatible(spec, depth) == oracle(spec, depth)
                        checked += 1
    # constant(2) -> constant(3) admits nothing at depth 6 with i0 <= 20
    c3 = SeqSpec.constant(3)
    for jseq in combinations(range(10), 7):
        for i0 in range(1, 21):
            assert first_incompatible(NaturalMapSpec(i0, jseq, c2, c3), 6) is not None
    assert enumerate_natural_maps(c2, c3, i0max=20, j0max=3, jmax=9, depth=6) == []
    _report(7, f"natural-map divisibility vs oracle ({checked} spec checks)", started)


def test_criterion_08_lazy_materialized_equivalence():
    started = time.monotonic()
    rng = random.Random(271828)
    for t in (F(0), F(1, 2)):
        tower = build_tower(c2, c2, t, 4)
        mats = {j: materialize_level(tower, j, 10 ** 5) for j in range(5)}
        for _ in range(1000):
            j = rng.randint(0, 4)
            x = F(rng.randint(0, 29989), 29989)
            assert eval_level(tower, j, x) == mats[j](x), (t, j, x)
    _report(8, "lazy evaluation equals materialized maps (1000 points, j <= 4)", started)


def test_criterion_09_lift_suite(f1_star):
    started = time.monotonic()
    for h in (tent(6), tent(7), f1_star):
        for m in (2, 3):
            for f in enumerate_lifts(h, m, 10):
                assert compose(tent(m), f) == h, (m,)
    ten = enumerate_lifts(tent(6), 2, 10)
    assert tent(3) in ten
    assert PLMap([(x, 1 - y) for x, y in tent(3).points]) in ten
    _report(9, "lift suite (exact recomposition, both named lifts within cap 10)", started)


def test_criterion_10_performance():
    started = time.monotonic()
    build_start = time.monotonic()
    tower = build_tower(c2, c2, F(1, 3), 100)
    build_elapsed = time.monotonic() - build_start
    assert build_elapsed < 10.0, f"depth-100 build took {build_elapsed:.2f}s"

    rng = random.Random(31415)
    points = [F(rng.randint(0, 10 ** 6), 10 ** 6) for _ in range(20)]
    eval_start = time.monotonic()
    for x in points:
        eval_level(tower, 100, x)
    per_point = (time.monotonic() - eval_start) / len(points)
    assert per_point < 0.1, f"eval at j=100 took {per_point * 1000:.1f} ms/point"

    # memory stays O(depth): seven integers per level, nothing materialized
    fields = [f.name for f in dataclasses.fields(LevelData)]
    assert fields == ["j", "n", "m", "slot", "k", "b_num", "b_den"]
    assert all(isinstance(getattr(lvl, name), (int, F))
               for lvl in tower.levels for name in fields)
    assert set(vars(tower)) == {"raw_source", "target", "t", "grouped", "levels"}
    _report(10, f"performance (build {build_elapsed:.2f}s, "
                f"eval {per_point * 1000:.1f} ms/point at j=100)", started)


def test_criterion_11_cli_round_trip_and_plot(tmp_path, f1_star):
    started = time.monotonic()
    # round trips for the five wire formats
    assert plmap_from_obj(json.loads(dumps(plmap_to_obj(f1_star)))) == f1_star
    for seq in (c2, SeqSpec.from_list([2, 3, 5]), SeqSpec.periodic([8, 16], [32])):
        assert seqspec_from_obj(json.loads(dumps(seqspec_to_obj(seq)))) == seq
    thread = Thread(c2, (F(1, 2), F(1, 4), F(1, 8)))
    assert thread_from_obj(json.loads(dumps(thread_to_obj(thread)))) == thread
    tower = build_tower(c2, c2, F(1, 3), 5)
    reloaded = tower_from_obj(json.loads(dumps(tower_to_obj(tower))))
    assert tower_to_obj(reloaded) == tower_to_obj(tower)
    cert = make_certificate(c2, c2, F(0), F(1, 2), 4)
    assert certificate_from_obj(json.loads(dumps(certificate_to_obj(cert)))) == cert

    # plot three lifts of tent(7) through tent(3) via the CLI
    lifts = enumerate_lifts(tent(7), 3, 3)
    paths = []
    for idx, f in enumerate(lifts):
        p = tmp_path / f"lift{idx}.json"
        p.write_text(dumps(plmap_to_obj(f)))
        paths.append(str(p))
    svg_path = tmp_path / "lifts.svg"
    assert cli_main(["plot", "--maps", ",".join(paths), "--labels", "f1a,f1b,f1c",
                     "--grid", "7", "--out", str(svg_path)]) == 0
    root = ET.fromstring(svg_path.read_text())
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 3
    for el, f in zip(polylines, lifts):
        assert len(el.attrib["points"].split()) == len(f.points)
    _report(11, "JSON round trips and Figure-style SVG triptych", started)
