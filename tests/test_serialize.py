import copy
import json
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ref_serialize
import ref_tower
from knaster import (
    GroupedSeq,
    NaturalMapSpec,
    PLMap,
    SeqSpec,
    Thread,
    build_tower,
    make_certificate,
    materialize_level,
    tent,
)
from knaster.serialize import (
    certificate_from_obj,
    certificate_to_obj,
    dumps,
    natmap_from_obj,
    natmap_to_obj,
    plmap_from_obj,
    plmap_to_obj,
    rat_from_str,
    rat_to_str,
    seqspec_from_obj,
    seqspec_to_obj,
    thread_from_obj,
    thread_to_obj,
    tower_from_obj,
    tower_to_obj,
)

F = Fraction
c2 = SeqSpec.constant(2)


def test_rat_strings():
    assert rat_to_str(F(3, 7)) == "3/7"
    assert rat_to_str(F(4)) == "4"
    assert rat_from_str("3/7") == F(3, 7)
    assert rat_from_str("4") == F(4)
    assert rat_from_str("0") == 0
    assert rat_from_str("-2/5") == F(-2, 5)


def test_rat_strings_past_int_str_limit():
    # str() and int() refuse more than 4300 digits by default
    text = "-" + "2" * 5001 + "/1" + "0" * 4399 + "3"
    x = F(-2 * (10 ** 5001 - 1) // 9, 10 ** 4400 + 3)
    assert rat_to_str(x) == text
    assert rat_from_str(text) == x
    assert rat_from_str(rat_to_str(x ** 9)) == x ** 9
    with pytest.raises(ValueError):
        rat_from_str("2" * 5000 + "/" + "4" * 5000)  # not in lowest terms


@pytest.mark.parametrize("bad", [
    "2/4",      # not reduced
    "1/0",      # zero denominator
    "1/-2",     # negative denominator
    "03",       # leading zero
    "3/02",     # leading zero in denominator
    "0/3",      # not reduced (canonical zero is "0")
    "0/1",      # integers carry no denominator
    "1/1",
    "5/1",
    "-0",       # negative zero
    "-0/1",
    "1.5",      # decimals are not rationals on the wire
    " 1/2",     # whitespace
    "a/b",
    "",
])
def test_rat_rejects(bad):
    with pytest.raises(ValueError):
        rat_from_str(bad)


def test_plmap_roundtrip(f1_star):
    for f in (tent(1), tent(5), f1_star):
        obj = plmap_to_obj(f)
        again = plmap_from_obj(json.loads(dumps(obj)))
        assert again == f


def test_plmap_rejects_bad_values():
    with pytest.raises(ValueError):
        plmap_from_obj({"breakpoints": [["0", "0"], ["1", "3/2"]]})
    with pytest.raises(ValueError):
        plmap_from_obj({"breakpoints": [["0", "0"], ["1", "2/4"]]})
    with pytest.raises(ValueError):
        plmap_from_obj({"breakpoints": "nope"})
    with pytest.raises(ValueError):  # a middle x past 1
        plmap_from_obj({"breakpoints": [["0", "0"], ["3/2", "1"], ["1", "1"]]})
    with pytest.raises(ValueError):
        plmap_from_obj({"breakpoints": [["0", "-1/2"], ["1", "1"]]})


def test_plmap_from_obj_holds_no_second_copy():
    # the level-4 map has 56,800 breakpoints; parsing streams them into PLMap
    f4 = materialize_level(build_tower(c2, c2, F(1, 3), 4), 4)
    obj = plmap_to_obj(f4)
    tracemalloc.start()
    try:
        f = plmap_from_obj(obj)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f == f4
    assert peak < 1.5 * size, f"peak {peak} bytes for a map of {size} bytes"


def test_plmap_to_obj_holds_one_copy():
    # the writer reads the stored triples, so nothing but the returned
    # object is held: no tuple of Fraction pairs beside it
    f4 = materialize_level(build_tower(c2, c2, F(1, 3), 4), 4)
    tracemalloc.start()
    try:
        obj = plmap_to_obj(f4)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(obj["breakpoints"]) == 56800
    assert peak < 1.2 * size, f"peak {peak} bytes for an object of {size} bytes"


# Denominators for the wire differential: 1 for integer coordinates, small
# composites, primes, and one past 10^4300, whose digits str() and int()
# refuse, so writing and reading it go through the halving helpers.
HUGE = 10 ** 4400 + 3
WIRE_DENOMINATORS = [1, 2, 3, 4, 6, 12, 7, 9973, 2 ** 61 - 1, HUGE]


@st.composite
def wire_maps(draw):
    """A map whose coordinates share one denominator or each draw their own."""
    shared = draw(st.sampled_from(WIRE_DENOMINATORS)) if draw(st.booleans()) else None

    def unit(inner: bool):
        den = shared or draw(st.sampled_from(WIRE_DENOMINATORS))
        lo = 1 if inner else 0
        if inner and den == 1:
            den = 2
        num = draw(st.one_of(st.sampled_from([lo, den - lo]),
                             st.integers(min_value=lo, max_value=den - lo)))
        return F(num, den)

    xs = [F(0)] + sorted({unit(True) for _ in range(draw(st.integers(0, 6)))}) + [F(1)]
    ys = [draw(st.sampled_from([F(0), F(1)])) if draw(st.booleans()) else unit(False)
          for _ in xs]
    return PLMap(zip(xs, ys))


def _outcome(read, obj):
    try:
        return "read", read(obj)
    except Exception as exc:  # the exception type and message are compared
        return type(exc), str(exc)


def _check_wire(f: PLMap) -> dict:
    obj = plmap_to_obj(f)
    assert obj == ref_serialize.plmap_to_obj(f)
    back = json.loads(dumps(obj))
    assert plmap_from_obj(back) == ref_serialize.plmap_from_obj(back) == f
    return obj


@settings(max_examples=200, deadline=None)
@given(wire_maps())
@example(PLMap([(0, 0), (1, 1)]))
def test_map_wire_matches_fraction_path(f):
    _check_wire(f)


def test_map_wire_past_the_digit_limit():
    # a plain test, not a Hypothesis @example: Hypothesis reports explicit
    # examples by repr, and repr of an integer past the digit limit raises
    obj = _check_wire(PLMap([(0, F(1, HUGE)), (F(HUGE - 1, HUGE), 1), (1, 0)]))
    assert obj["breakpoints"][0] == ["0", "1/1" + "0" * 4399 + "3"]


BAD_RATIONALS = ["1/0", "2/4", "-0", "01", "0.5", "3/2", "-1/2", "0/1", "4/1", 7, None]


@settings(max_examples=200, deadline=None)
@given(wire_maps(), st.data())
def test_map_reader_rejects_like_fraction_path(f, data):
    pts = plmap_to_obj(f)["breakpoints"]
    kind = data.draw(st.sampled_from(["coordinate", "swap", "repeat", "truncate"]))
    i = data.draw(st.integers(0, len(pts) - 1))
    if kind == "coordinate":
        pts[i][data.draw(st.integers(0, 1))] = data.draw(st.sampled_from(BAD_RATIONALS))
    elif kind == "swap":  # x no longer increasing
        j = i - 1 if i else 1
        pts[i], pts[j] = pts[j], pts[i]
    elif kind == "repeat":
        pts.insert(i, list(pts[i]))
    else:  # too few points
        pts = pts[:data.draw(st.integers(0, 1))]
    got = _outcome(plmap_from_obj, {"breakpoints": pts})
    assert got[0] is ValueError, got
    assert got == _outcome(ref_serialize.plmap_from_obj, {"breakpoints": pts})


def test_seqspec_roundtrip():
    for seq in (c2, SeqSpec.from_list([2, 3, 5]), SeqSpec.periodic([8, 16], [32])):
        assert seqspec_from_obj(json.loads(dumps(seqspec_to_obj(seq)))) == seq
    with pytest.raises(ValueError):
        seqspec_from_obj({"kind": "spiral"})


@pytest.mark.parametrize("bad", [
    {"kind": "list", "items": [2.9, 3, 8]},
    {"kind": "list", "items": [2, "3", 8]},
    {"kind": "list", "items": "238"},
    {"kind": "periodic", "prefix": [8.0], "period": [3]},
    {"kind": "periodic", "prefix": [], "period": ["3"]},
])
def test_seqspec_rejects_non_integer_terms(bad):
    with pytest.raises(ValueError):
        seqspec_from_obj(bad)


def test_natmap_roundtrip():
    spec = NaturalMapSpec(9, (0, 1, 2, 3), c2, SeqSpec.constant(3))
    assert natmap_from_obj(json.loads(dumps(natmap_to_obj(spec)))) == spec
    obj = natmap_to_obj(spec)
    for jseq in ([0.7, "1", 2.2], [0, True, 2], "012"):
        with pytest.raises(ValueError):
            natmap_from_obj({**obj, "jseq": jseq})


def test_thread_roundtrip():
    th = Thread(c2, (F(1, 2), F(1, 4), F(1, 8)))
    again = thread_from_obj(json.loads(dumps(thread_to_obj(th))))
    assert again == th
    with pytest.raises(ValueError):
        thread_from_obj({**thread_to_obj(th), "coords": ["1/2", "3/2", "1/8"]})


def test_grouped_thread_keeps_its_sequence():
    tower = build_tower(c2, c2, F(0), 3)
    th = Thread(tower.grouped, (F(0), F(0), F(0), F(0)))
    obj = thread_to_obj(th)
    grouped = {"kind": "grouped", "raw": {"kind": "constant", "n": 2},
               "partner": {"kind": "constant", "n": 2}}
    assert obj["seq"] == grouped
    again = thread_from_obj(json.loads(dumps(obj)))
    assert isinstance(again.seq, GroupedSeq) and again.coords == th.coords
    assert [again.seq.nth(j) for j in range(1, 8)] == [8, 16, 16, 32, 32, 32, 32]
    # files that carry the grouped terms as a list still load
    listed = thread_from_obj({"seq": {"kind": "list", "items": [8, 16, 16]},
                              "coords": obj["coords"]})
    assert listed.coords == th.coords
    with pytest.raises(ValueError, match=re.escape("field 'seq': missing field 'partner'")):
        thread_from_obj({**obj, "seq": {"kind": "grouped", "raw": grouped["raw"]}})
    # only a thread's sequence may be grouped
    unknown = "field 'kind': unknown sequence kind 'grouped'"
    with pytest.raises(ValueError, match=re.escape(f"field 'rawN': {unknown}")):
        tower_from_obj({**tower_to_obj(tower), "rawN": grouped})
    spec = natmap_to_obj(NaturalMapSpec(9, (0, 1, 2, 3), c2, SeqSpec.constant(3)))
    with pytest.raises(ValueError, match=re.escape(f"field 'N': {unknown}")):
        natmap_from_obj({**spec, "N": grouped})


def test_tower_roundtrip_and_reverification():
    tower = build_tower(c2, c2, F(1, 3), 5)
    obj = json.loads(dumps(tower_to_obj(tower)))
    again = tower_from_obj(obj)
    assert again.depth == 5
    assert again.levels == tower.levels
    assert all(set(rec) == {"n", "m", "slot", "k"} for rec in obj["levels"])

    bad = json.loads(dumps(tower_to_obj(tower)))
    bad["levels"][2]["k"] += 1
    with pytest.raises(ValueError):
        tower_from_obj(bad)
    short = json.loads(dumps(tower_to_obj(tower)))
    short["levels"] = short["levels"][:-1]
    with pytest.raises(ValueError):
        tower_from_obj(short)
    with pytest.raises(ValueError):
        tower_from_obj({**obj, "t": "3/2"})


# A tower record in the older format, which also stored each level's derived
# rationals: the leftmost preimages a and b and the fold points.
OLDER_TOWER = {
    "rawN": {"kind": "constant", "n": 2}, "M": {"kind": "constant", "n": 2},
    "t": "1/3", "depth": 3,
    "levels": [
        {"n": 8, "m": 2, "slot": 0, "k": 0, "a": "0", "b": "1",
         "folds": ["0", "1/8", "1/4"]},
        {"n": 16, "m": 2, "slot": 0, "k": 0, "a": "0", "b": "1/4",
         "folds": ["0", "7/64", "1/8"]},
        {"n": 16, "m": 2, "slot": 1, "k": 6, "a": "0", "b": "1/8",
         "folds": ["3/8", "63/128", "1/2"]},
    ],
}


def test_tower_older_format_loads():
    tower = tower_from_obj(copy.deepcopy(OLDER_TOWER))
    assert tower.levels == build_tower(c2, c2, F(1, 3), 3).levels
    # the older file's fold points are the ones the rebuilt tower derives
    derived, b_prev = [], F(1)
    for lvl in tower.levels:
        derived.append([rat_to_str(x) for x in ref_tower.fold_points(lvl.n, lvl.k, lvl.m, F(0), b_prev)])
        b_prev = F(lvl.b_num, lvl.b_den)
    assert derived == [rec["folds"] for rec in OLDER_TOWER["levels"]]
    for k in (7, 6.0, "6"):
        bad = copy.deepcopy(OLDER_TOWER)
        bad["levels"][2]["k"] = k
        with pytest.raises(ValueError):
            tower_from_obj(bad)


READERS = (
    (tower_from_obj, tower_to_obj(build_tower(c2, SeqSpec.periodic([2], [3]), F(1, 3), 2))),
    (thread_from_obj, thread_to_obj(Thread(SeqSpec.from_list([2, 3, 5]), (F(1, 2), F(1, 4))))),
    (natmap_from_obj, natmap_to_obj(NaturalMapSpec(2, (0, 1, 2), c2, SeqSpec.periodic([2], [2])))),
    (certificate_from_obj, certificate_to_obj(make_certificate(c2, c2, F(0), F(1, 2), 4))),
)
DELETED = object()
JUNK = (None, True, 7, 0.5, "x", [], {})


def _json_type(value):
    return "int" if isinstance(value, int) and not isinstance(value, bool) else type(value)


def _damaged(obj, path=()):
    """(damaged copy, innermost field name, what was done) for each nested
    key deleted and each nested value replaced by None, a bool, an int, a
    float, a string, [] or {} of another JSON type than the value it
    replaces."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        here = path + (key,)
        name = next(k for k in reversed(here) if isinstance(k, str))
        for damage in ((DELETED,) if isinstance(obj, dict) else ()) + JUNK:
            if damage is not DELETED and _json_type(damage) == _json_type(value):
                continue
            bad = copy.deepcopy(obj)
            if damage is DELETED:
                del bad[key]
            else:
                bad[key] = damage
            label = "deleted" if damage is DELETED else repr(damage)
            yield bad, name, f"{'.'.join(map(str, here))}: {label}"
        if isinstance(value, (dict, list)):
            for inner, inner_name, what in _damaged(value, here):
                bad = copy.deepcopy(obj)
                bad[key] = inner
                yield bad, inner_name, what


@pytest.mark.parametrize("reader, good", READERS, ids=[reader.__name__ for reader, _ in READERS])
def test_readers_name_the_damaged_field(reader, good):
    reader(copy.deepcopy(good))  # the undamaged object reads
    seen = 0
    for bad, name, what in _damaged(good):
        with pytest.raises(ValueError) as info:
            reader(bad)
        assert repr(name) in str(info.value), (what, str(info.value))
        seen += 1
    assert seen > 20


def test_certificate_roundtrip():
    cert = make_certificate(c2, c2, F(0), F(1, 2), 4)
    obj = json.loads(dumps(certificate_to_obj(cert)))
    assert obj["witness"] == "3/16" and obj["p"] == 64
    assert certificate_from_obj(obj) == cert
    with pytest.raises(ValueError):
        certificate_from_obj({**obj, "p": "64"})  # counters are JSON integers
    with pytest.raises(ValueError):
        certificate_from_obj({**obj, "vt": "3/2"})


def test_dumps_deterministic():
    cert = make_certificate(c2, c2, F(0), F(1, 2), 4)
    assert dumps(certificate_to_obj(cert)) == dumps(certificate_to_obj(cert))
