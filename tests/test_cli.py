import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

import knaster
from knaster.cli import _parser, build_parser, main
from knaster.serialize import (dumps, plmap_from_obj, rat_from_str, rat_to_str, thread_to_obj,
                               tower_from_obj)
from knaster import (PLMap, SeqSpec, Thread, build_tower, compose, endpoint, eval_level, extend,
                     regroup, tent)

F = Fraction


def run(*argv):
    return main(list(argv))


def test_semigroup_ok(capsys):
    assert run("semigroup", "--maxn", "4") == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


def test_semigroup_small_grid(capsys):
    assert run("semigroup", "--maxn", "3") == 0
    assert "checked 4 pairs" in capsys.readouterr().out


def test_semigroup_bad_range():
    assert run("semigroup", "--maxn", "1") == 2


def test_unknown_flags_and_commands():
    assert run("semigroup", "--bogus") == 2
    assert run("no-such-command") == 2


def test_module_entry_point():
    src = os.path.dirname(os.path.dirname(knaster.__file__))
    env = {**os.environ, "PYTHONPATH": src}

    def knaster_module(*argv):
        return subprocess.run([sys.executable, "-m", "knaster", *argv], capture_output=True,
                              text=True, env=env, timeout=120)

    ok = knaster_module("semigroup", "--maxn", "3")
    assert ok.returncode == 0
    assert "checked 4 pairs, 0 failures" in ok.stdout
    assert knaster_module("semigroup", "--bogus").returncode == 2


def test_help_exits_cleanly(capsys):
    assert run("--help") == 0
    assert "semigroup" in capsys.readouterr().out


def test_lift_kernel_writes_map(tmp_path):
    out = tmp_path / "f1.json"
    assert run("lift", "--m", "3", "--n", "7", "--q", "1", "--i", "0",
               "--f0", "id", "--out", str(out)) == 0
    f1 = plmap_from_obj(json.loads(out.read_text()))
    assert compose(tent(3), f1) == tent(7)


def test_lift_kernel_bad_precondition(tmp_path):
    assert run("lift", "--m", "3", "--n", "13", "--q", "3", "--i", "1",
               "--f0", "id", "--out", str(tmp_path / "x.json")) == 2


def test_tower_build_eval_materialize(tmp_path):
    tower_path = tmp_path / "tower.json"
    assert run("tower", "build", "--N", "const:2", "--M", "const:2",
               "--t", "0", "--depth", "4", "--out", str(tower_path)) == 0

    assert run("tower", "eval", "--tower", str(tower_path),
               "--level", "1", "--x", "1/8") == 0

    map_path = tmp_path / "f2.json"
    assert run("tower", "materialize", "--tower", str(tower_path),
               "--level", "2", "--out", str(map_path)) == 0
    f2 = plmap_from_obj(json.loads(map_path.read_text()))
    assert f2(F(0)) == 0

    # level beyond depth is a usage error
    assert run("tower", "eval", "--tower", str(tower_path),
               "--level", "9", "--x", "0") == 2
    # so is a non-canonical rational
    for x in ("1/1", "-0"):
        assert run("tower", "eval", "--tower", str(tower_path),
                   "--level", "1", "--x", x) == 2
    # and a tower file whose t lies outside [0, 1]
    bad_path = tmp_path / "bad_tower.json"
    bad_path.write_text(dumps({**json.loads(tower_path.read_text()), "t": "3/2"}))
    assert run("tower", "eval", "--tower", str(bad_path),
               "--level", "1", "--x", "0") == 2


def test_tower_eval_output(tmp_path, capsys):
    tower_path = tmp_path / "tower.json"
    run("tower", "build", "--N", "const:2", "--M", "const:2",
        "--t", "0", "--depth", "1", "--out", str(tower_path))
    capsys.readouterr()
    assert run("tower", "eval", "--tower", str(tower_path),
               "--level", "1", "--x", "1/8") == 0
    assert capsys.readouterr().out.strip() == "1/2"


def test_tower_build_rejects_loose_t(tmp_path, capsys):
    # --t parses as strictly as --x and every file: lowest terms, no zero
    # denominator, no decimal point or exponent
    out = tmp_path / "t.json"
    for t in ("1/0", "0.5", "2/4", "1e-5"):
        assert run("tower", "build", "--N", "const:2", "--M", "const:2",
                   "--t", t, "--depth", "1", "--out", str(out)) == 2, t
        assert f"rational {t!r}" in capsys.readouterr().err, t
    assert not out.exists()


def test_tower_build_over_a_finite_list(tmp_path):
    # eight 2s regroup to 8 and 16, enough for depth 2: the same tower as const:2
    out = tmp_path / "t.json"
    assert run("tower", "build", "--N", "list:2,2,2,2,2,2,2,2", "--M", "const:2",
               "--t", "0", "--depth", "2", "--out", str(out)) == 0
    tower = tower_from_obj(json.loads(out.read_text()))
    assert tower.levels == build_tower(SeqSpec.constant(2), SeqSpec.constant(2), 0, 2).levels


def test_tower_round_trip_at_depth_1300(tmp_path, capsys):
    # a level's fold rationals outgrow int-to-str's 4300-digit limit before
    # depth 1300, so only a file without them can be written at that depth
    tower_path = tmp_path / "tower.json"
    assert run("tower", "build", "--N", "const:2", "--M", "const:2",
               "--t", "1/3", "--depth", "1300", "--out", str(tower_path)) == 0
    capsys.readouterr()
    assert run("tower", "eval", "--tower", str(tower_path),
               "--level", "1300", "--x", "2/7") == 0
    tower = build_tower(SeqSpec.constant(2), SeqSpec.constant(2), F(1, 3), 1300)
    assert capsys.readouterr().out.strip() == rat_to_str(eval_level(tower, 1300, F(2, 7)))


def test_wide_tower_eval_at_depth_1500(tmp_path, capsys):
    # with m_j = 1000 every level used to store 1001 fold rationals, and
    # f_1500(x) has more digits than int-to-str's default 4300-digit limit
    tower_path = tmp_path / "tower.json"
    assert run("tower", "build", "--N", "const:2", "--M", "const:1000",
               "--t", "1/3", "--depth", "1500", "--out", str(tower_path)) == 0
    capsys.readouterr()
    assert run("tower", "eval", "--tower", str(tower_path),
               "--level", "1500", "--x", "2/7") == 0
    tower = build_tower(SeqSpec.constant(2), SeqSpec.constant(1000), F(1, 3), 1500)
    out = capsys.readouterr().out.strip()
    assert len(out.partition("/")[2]) > 4300
    assert rat_from_str(out) == eval_level(tower, 1500, F(2, 7))


def test_tent_degrees_capped_by_lap_budget(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KNASTER_LAP_BUDGET", "1000")
    svg = str(tmp_path / "p.svg")
    assert run("plot", "--maps", "tent:1001", "--out", svg) == 2
    assert run("plot", "--maps", "tent:1000", "--out", svg) == 0
    assert run("lift", "--m", "3", "--n", "1001", "--q", "1", "--i", "0") == 2
    assert run("lift", "--m", "3", "--n", "1000", "--q", "1", "--i", "0") == 0
    assert run("lift", "--m", "1001", "--n", "1003", "--q", "1", "--i", "0") == 2
    assert run("lifts", "--h", "tent:2", "--m", "1001") == 2
    assert run("lifts", "--h", "tent:2", "--m", "1000", "--cap", "1") == 0
    assert capsys.readouterr().err.count("exceeds the lap budget 1000") == 4
    monkeypatch.setenv("KNASTER_LAP_BUDGET", "16")
    assert run("semigroup", "--maxn", "5") == 2  # largest tent is 5 * 5
    assert run("semigroup", "--maxn", "4") == 0


def test_plot_grid_and_thread_fan_capped_by_lap_budget(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KNASTER_LAP_BUDGET", "10")
    svg = tmp_path / "p.svg"
    assert run("plot", "--maps", "id", "--grid", "11", "--out", str(svg)) == 2
    assert not svg.exists()
    assert run("plot", "--maps", "id", "--grid", "10", "--out", str(svg)) == 0
    for n, code in ((11, 2), (10, 0)):
        th_path = tmp_path / f"thread{n}.json"
        th_path.write_text(dumps(thread_to_obj(Thread(SeqSpec.constant(n), (F(0),)))))
        assert run("thread", "extend", "--thread", str(th_path)) == code
    err = capsys.readouterr().err
    assert "--grid 11 exceeds the lap budget 10" in err
    assert "next bonding term 11 exceeds the lap budget 10" in err


def test_breakpoint_counts_build_points_once(tmp_path, monkeypatch, capsys):
    # the count comes from the written object, and writing, reading and
    # plotting a map read its integer triples, so no Fraction breakpoints
    # are built at all
    tower_path = tmp_path / "tower.json"
    assert run("tower", "build", "--N", "const:2", "--M", "const:2",
               "--t", "1/3", "--depth", "2", "--out", str(tower_path)) == 0
    built = []
    points = PLMap.points
    monkeypatch.setattr(PLMap, "points", property(lambda f: built.append(f) or points.fget(f)))
    assert run("lift", "--m", "3", "--n", "7", "--q", "1", "--i", "0",
               "--out", str(tmp_path / "f1.json")) == 0
    assert run("tower", "materialize", "--tower", str(tower_path), "--level", "2",
               "--out", str(tmp_path / "f2.json")) == 0
    assert run("plot", "--maps", f"{tmp_path / 'f1.json'},{tmp_path / 'f2.json'},tent:3",
               "--grid", "3", "--out", str(tmp_path / "f.svg")) == 0
    assert len(built) == 0
    out = capsys.readouterr().out
    assert "(6 breakpoints, lap 5)" in out
    f2 = plmap_from_obj(json.loads((tmp_path / "f2.json").read_text()))
    assert f"({len(f2.points)} breakpoints, lap " in out


def test_materialize_budget_env(tmp_path, monkeypatch, capsys):
    tower_path = tmp_path / "tower.json"
    run("tower", "build", "--N", "const:2", "--M", "const:2",
        "--t", "0", "--depth", "4", "--out", str(tower_path))
    monkeypatch.setenv("KNASTER_LAP_BUDGET", "10")
    assert run("tower", "materialize", "--tower", str(tower_path),
               "--level", "4", "--out", str(tmp_path / "f.json")) == 2
    monkeypatch.setenv("KNASTER_LAP_BUDGET", "0")
    assert run("lift", "--m", "3", "--n", "7", "--q", "1", "--i", "0",
               "--f0", "id", "--out", str(tmp_path / "f1.json")) == 2
    assert "KNASTER_LAP_BUDGET must be positive" in capsys.readouterr().err


def test_distinguish_and_verify(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert run("distinguish", "--N", "const:2", "--M", "const:2",
               "--t", "0", "--s", "1/2", "--ell", "4", "--out", str(cert_path)) == 0
    out = capsys.readouterr().out
    assert "j=7" in out and "witness=3/16" in out
    obj = json.loads(cert_path.read_text())
    assert obj["j"] == 7 and obj["q"] == 3 and obj["p"] == 64

    assert run("verify-cert", "--cert", str(cert_path),
               "--N", "const:2", "--M", "const:2") == 0

    # a forged level is rejected before any work as long as j
    cert_path.write_text(dumps({**obj, "j": 10 ** 12}))
    assert run("verify-cert", "--cert", str(cert_path),
               "--N", "const:2", "--M", "const:2") == 1

    obj["vs"] = "1/128"
    cert_path.write_text(dumps(obj))
    assert run("verify-cert", "--cert", str(cert_path),
               "--N", "const:2", "--M", "const:2") == 1

    obj["vt"] = "3/2"  # out of range: invalid input, not a rejected certificate
    cert_path.write_text(dumps(obj))
    assert run("verify-cert", "--cert", str(cert_path),
               "--N", "const:2", "--M", "const:2") == 2


def test_cached_parser_keeps_calls_apart(tmp_path, capsys):
    argvs = [
        ["distinguish", "--N", "const:2", "--M", "const:2", "--t", "0", "--s", "1/2",
         "--ell", "9", "--level", "9", "--out", "a.json"],
        ["semigroup", "--maxn", "3"],
        ["distinguish", "--N", "const:3", "--M", "const:2", "--t", "0", "--s", "1/2",
         "--out", "b.json"],
        ["semigroup"],
        ["tower", "build", "--N", "const:2", "--M", "const:2", "--t", "1/3",
         "--depth", "2", "--out", "t.json"],
        ["tower", "eval", "--tower", "t.json", "--level", "1", "--x", "1/5"],
    ]
    assert _parser() is _parser()
    for argv in argvs:
        assert vars(_parser().parse_args(argv)) == vars(build_parser().parse_args(argv))
    # through main: the second distinguish falls back to its own defaults
    out = str(tmp_path / "c.json")
    base = ["distinguish", "--N", "const:2", "--M", "const:2", "--t", "0", "--s", "1/2",
            "--out", out]
    assert run(*base, "--ell", "100", "--level", "9") == 0
    assert "j=9" in capsys.readouterr().out
    assert run(*base) == 0
    assert "j=7" in capsys.readouterr().out
    assert json.loads((tmp_path / "c.json").read_text())["ell"] == 4


def test_distinguish_rejects_equal_parameters(tmp_path):
    assert run("distinguish", "--N", "const:2", "--M", "const:2",
               "--t", "1/2", "--s", "1/2", "--out", str(tmp_path / "c.json")) == 2


def test_natmap_check(capsys):
    assert run("natmap", "check", "--N", "const:2", "--M", "const:3",
               "--i0", "9", "--jseq", "0,1,2,3") == 1
    out = capsys.readouterr().out
    assert "fails at k=3" in out
    assert "advisory" in out  # tail prime supports differ
    assert run("natmap", "check", "--N", "const:6", "--M", "const:2",
               "--i0", "1", "--jseq", "0,1,2,3") == 0
    assert "advisory" not in capsys.readouterr().out
    # one index is no map: the check needs a depth of at least one
    assert run("natmap", "check", "--N", "const:2", "--M", "const:3",
               "--i0", "9", "--jseq", "0") == 2
    assert "need depth >= 1" in capsys.readouterr().err


def test_natmap_check_huge_prime_term(capsys):
    # 10^18 + 3 is prime: deciding the advisory by factoring took minutes
    start = time.perf_counter()
    assert run("natmap", "check", "--N", "const:1000000000000000003", "--M", "const:2",
               "--i0", "1", "--jseq", "0,1") == 1
    assert time.perf_counter() - start < 5
    out = capsys.readouterr().out
    assert "advisory: the target tail needs a prime" in out
    assert "fails at k=1" in out


def test_natmap_enum(tmp_path, capsys):
    out = tmp_path / "maps.json"
    assert run("natmap", "enum", "--N", "const:2", "--M", "const:2",
               "--i0max", "1", "--j0max", "0", "--jmax", "3", "--depth", "3",
               "--out", str(out)) == 0
    assert "1 compatible map(s)" in capsys.readouterr().out
    assert len(json.loads(out.read_text())) == 1


def test_natmap_enum_stops_at_first_compatible_pick(capsys):
    # walking every 11-combination of 41 coordinates for the one map took minutes
    start = time.perf_counter()
    assert run("natmap", "enum", "--N", "const:2", "--M", "const:2",
               "--i0max", "1", "--j0max", "0", "--jmax", "40", "--depth", "10") == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out.splitlines() == [
        "i0=1 jseq=" + ",".join(map(str, range(11))), "1 compatible map(s)"]


def test_natmap_enum_prunes_failing_prefixes(capsys):
    # every jseq fails at k = 1 (2^r / 3 is never an integer); trying each
    # 8-combination of 24 coordinates took about 30 s
    start = time.perf_counter()
    assert run("natmap", "enum", "--N", "const:2", "--M", "const:3",
               "--i0max", "1", "--j0max", "0", "--jmax", "24", "--depth", "8") == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out.splitlines() == ["0 compatible map(s)"]


def test_lifts_cli(tmp_path):
    out = tmp_path / "lifts.json"
    assert run("lifts", "--h", "tent:7", "--m", "3", "--cap", "3",
               "--out", str(out)) == 0
    maps = [plmap_from_obj(o) for o in json.loads(out.read_text())]
    assert len(maps) == 3
    for f in maps:
        assert compose(tent(3), f) == tent(7)


def test_lifts_cli_many_breakpoints(capsys):
    # tent:1000 has 1001 breakpoints, past the recursion limit of a search
    # that recursed once per breakpoint
    assert run("lifts", "--h", "tent:1000", "--m", "2", "--cap", "1") == 0
    assert capsys.readouterr().out.strip() == "1 lift(s), 0 failed recomposition"


def test_thread_commands(tmp_path, capsys):
    th = Thread(SeqSpec.constant(2), (F(1, 2), F(1, 4)))
    th_path = tmp_path / "thread.json"
    th_path.write_text(dumps(thread_to_obj(th)))
    assert run("thread", "validate", "--thread", str(th_path)) == 0

    bad = Thread(SeqSpec.constant(2), (F(1, 2), F(1, 2)))
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(dumps(thread_to_obj(bad)))
    assert run("thread", "validate", "--thread", str(bad_path)) == 1
    assert "fails at i=1" in capsys.readouterr().out
    out_path = tmp_path / "out_of_range.json"
    out_path.write_text(dumps({**thread_to_obj(th), "coords": ["1/2", "3/2"]}))
    assert run("thread", "validate", "--thread", str(out_path)) == 2

    ext_path = tmp_path / "children.json"
    assert run("thread", "extend", "--thread", str(th_path),
               "--out", str(ext_path)) == 0
    children = json.loads(ext_path.read_text())
    assert [c["coords"][-1] for c in children] == ["1/8", "7/8"]


def test_thread_extend_over_a_regrouped_sequence(tmp_path, capsys):
    # a depth-4 thread over the grouped terms 8, 16, 16, 32, 32, ... written
    # to a file can be extended past its coordinates
    thread = endpoint(regroup(SeqSpec.constant(2), SeqSpec.constant(2), 6), 0)
    for _ in range(4):
        thread = extend(thread)[-1]
    th_path, out_path = tmp_path / "thread.json", tmp_path / "children.json"
    th_path.write_text(dumps(thread_to_obj(thread)))
    assert run("thread", "extend", "--thread", str(th_path), "--out", str(out_path)) == 0
    want = extend(thread)
    assert len(want) == 32
    assert json.loads(out_path.read_text()) == [thread_to_obj(c) for c in want]
    assert capsys.readouterr().out.splitlines()[:32] == [
        ", ".join(rat_to_str(x) for x in c.coords) for c in want]


def test_thread_map_with_tower(tmp_path):
    tower_path = tmp_path / "tower.json"
    run("tower", "build", "--N", "const:2", "--M", "const:2",
        "--t", "0", "--depth", "2", "--out", str(tower_path))
    # thread over the grouped sequence (8, 16)
    th = Thread(SeqSpec.from_list([8, 16]), (F(0), F(0), F(0)))
    th_path = tmp_path / "thread.json"
    th_path.write_text(dumps(thread_to_obj(th)))
    assert run("thread", "map", "--thread", str(th_path),
               "--tower", str(tower_path)) == 0
    # exactly one of --natmap/--tower is required
    assert run("thread", "map", "--thread", str(th_path)) == 2


def test_thread_map_writes_an_inconsistent_image(tmp_path, capsys):
    tower_path = tmp_path / "tower.json"
    run("tower", "build", "--N", "const:2", "--M", "const:2",
        "--t", "0", "--depth", "2", "--out", str(tower_path))
    capsys.readouterr()
    # tent(8)(1/5) = 2/5, not 1/3: the thread, and so its image, is inconsistent
    th = Thread(SeqSpec.from_list([8, 16]), (F(1, 3), F(1, 5), F(2, 7)))
    th_path, img_path = tmp_path / "thread.json", tmp_path / "img.json"
    th_path.write_text(dumps(thread_to_obj(th)))
    assert run("thread", "map", "--thread", str(th_path), "--tower", str(tower_path),
               "--out", str(img_path)) == 1
    assert "image thread INCONSISTENT at i=1" in capsys.readouterr().out
    assert json.loads(img_path.read_text())["coords"] == ["1/3", "4/5", "9/14"]


def test_thread_map_with_natmap(tmp_path, capsys):
    th = Thread(SeqSpec.constant(2), (F(1, 2), F(1, 4), F(1, 8)))
    th_path = tmp_path / "thread.json"
    th_path.write_text(dumps(thread_to_obj(th)))
    nm_path = tmp_path / "natmap.json"
    nm_path.write_text(dumps({
        "i0": 1, "jseq": [1, 2],
        "N": {"kind": "constant", "n": 2},
        "M": {"kind": "constant", "n": 2},
    }))
    assert run("thread", "map", "--thread", str(th_path),
               "--natmap", str(nm_path)) == 0
    assert "1/4, 1/8" in capsys.readouterr().out


def test_plot_svg(tmp_path):
    lifts_path = tmp_path / "lifts.json"
    run("lifts", "--h", "tent:7", "--m", "3", "--cap", "3", "--out", str(lifts_path))
    maps = json.loads(lifts_path.read_text())
    files = []
    for idx, obj in enumerate(maps):
        p = tmp_path / f"lift{idx}.json"
        p.write_text(dumps(obj))
        files.append(str(p))

    svg_path = tmp_path / "fig.svg"
    assert run("plot", "--maps", ",".join(files), "--labels", "a,b,c",
               "--grid", "7", "--out", str(svg_path)) == 0
    root = ET.fromstring(svg_path.read_text())
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 3
    for el, obj in zip(polylines, maps):
        assert len(el.attrib["points"].split()) == len(obj["breakpoints"])

    # determinism: byte-identical on identical invocations
    svg2 = tmp_path / "fig2.svg"
    assert run("plot", "--maps", ",".join(files), "--labels", "a,b,c",
               "--grid", "7", "--out", str(svg2)) == 0
    assert svg_path.read_bytes() == svg2.read_bytes()


def test_plot_rejects_bad_input(tmp_path):
    assert run("plot", "--maps", "", "--out", str(tmp_path / "x.svg")) == 2
    assert run("plot", "--maps", "tent:2", "--labels", "a,b",
               "--out", str(tmp_path / "y.svg")) == 2
    for name, pts in (("x.json", [["0", "0"], ["3/2", "1"], ["1", "1"]]),
                      ("y.json", [["0", "-1/2"], ["1", "1"]])):
        (tmp_path / name).write_text(dumps({"breakpoints": pts}))
        assert run("plot", "--maps", str(tmp_path / name),
                   "--out", str(tmp_path / "z.svg")) == 2


def test_wrong_kind_map_file_names_the_problem(tmp_path, capsys):
    tower_path = tmp_path / "tower.json"
    assert run("tower", "build", "--N", "const:2", "--M", "const:2",
               "--t", "1/3", "--depth", "1", "--out", str(tower_path)) == 0
    cases = [
        (tower_path.read_text(), "not a map: expected a JSON object with a 'breakpoints' list"),
        ([["0", "0"], ["1", "1"]], "not a map: expected a JSON object with a 'breakpoints' list"),
        ({"breakpoints": [["0", "0"], ["1/2", "1", "0"], ["1", "1"]]},
         "breakpoint 1 is not a two-element list [x, y]"),
        ({"breakpoints": [["0", "0"], "1/2", ["1", "1"]]},
         "breakpoint 1 is not a two-element list [x, y]"),
    ]
    bad = tmp_path / "bad.json"
    for content, message in cases:
        bad.write_text(content if isinstance(content, str) else json.dumps(content))
        capsys.readouterr()
        assert run("plot", "--maps", str(bad), "--out", str(tmp_path / "x.svg")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert run("lift", "--m", "3", "--n", "7", "--q", "1", "--i", "0", "--f0", str(bad)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.svg").exists()


def test_map_file_passed_as_another_kind_names_the_problem(tmp_path, capsys):
    lift_path = tmp_path / "lift.json"
    assert run("lift", "--m", "3", "--n", "7", "--q", "1", "--i", "0",
               "--out", str(lift_path)) == 0
    thread_path = tmp_path / "thread.json"
    thread_path.write_text(dumps(thread_to_obj(Thread(seq=SeqSpec.constant(2), coords=(F(0),)))))
    lift = str(lift_path)
    cases = [
        (("tower", "eval", "--tower", lift, "--level", "1", "--x", "0"),
         "not a tower: expected a JSON object with the keys 'rawN', 'M', 't', 'depth', 'levels'"),
        (("thread", "validate", "--thread", lift),
         "not a thread: expected a JSON object with the keys 'seq', 'coords'"),
        (("verify-cert", "--cert", lift, "--N", "const:2", "--M", "const:2"),
         "not a certificate: expected a JSON object with the keys "
         "'t', 's', 'ell', 'j', 'q', 'witness', 'vt', 'vs', 'p', 'r'"),
        (("thread", "map", "--thread", str(thread_path), "--natmap", lift),
         "not a natural map: expected a JSON object with the keys 'i0', 'jseq', 'N', 'M'"),
    ]
    for argv, message in cases:
        capsys.readouterr()
        assert run(*argv) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n", argv


def test_missing_file_is_usage_error(tmp_path):
    assert run("thread", "validate", "--thread", str(tmp_path / "nope.json")) == 2
    assert run("verify-cert", "--cert", str(tmp_path / "nope.json"),
               "--N", "const:2", "--M", "const:2") == 2


def test_bad_sequence_grammar(tmp_path):
    assert run("tower", "build", "--N", "const", "--M", "const:2",
               "--t", "0", "--depth", "1", "--out", str(tmp_path / "t.json")) == 2
    assert run("tower", "build", "--N", "ring:3", "--M", "const:2",
               "--t", "0", "--depth", "1", "--out", str(tmp_path / "t.json")) == 2
