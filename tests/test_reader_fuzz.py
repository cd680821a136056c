"""Junk in every field of the wire readers and of the CLI commands that read them.

Starting from a valid tower, thread (over a plain and over a regrouped
sequence), natural-map and certificate object, each nested field in turn,
level records, sequence records and list items included, is replaced by a
junk value of any JSON type or deleted. A reader must return or raise
ValueError, within a second; the CLI must exit 0, 1 or 2, with no exception
escaping `main`.
"""

import contextlib
import copy
import io
import json
import time
from fractions import Fraction

import pytest

from knaster import NaturalMapSpec, SeqSpec, Thread, build_tower, make_certificate, tent_preimages
from knaster.cli import main
from knaster.serialize import (
    certificate_from_obj,
    certificate_to_obj,
    dumps,
    natmap_from_obj,
    natmap_to_obj,
    thread_from_obj,
    thread_to_obj,
    tower_from_obj,
    tower_to_obj,
)

F = Fraction
c2 = SeqSpec.constant(2)
DELETED = object()
JUNK = (-1, 0, 2 ** 70, True, None, "", "1/3\n", [], {})

TOWER = build_tower(c2, SeqSpec.periodic([2], [2, 3]), F(1, 3), 3)
TERMS = SeqSpec.from_list([2, 3, 5, 7])


def _thread_over(seq, depth):
    """A consistent thread from 1/3, taking the second preimage at each level."""
    coords = [F(1, 3)]
    for j in range(1, depth + 1):
        coords.append(tent_preimages(seq.nth(j), coords[-1])[1])
    return Thread(seq, tuple(coords))


OBJECTS = {
    "tower": (tower_from_obj, tower_to_obj(TOWER)),
    "thread": (thread_from_obj, thread_to_obj(_thread_over(TERMS, 3))),
    "grouped thread": (thread_from_obj, thread_to_obj(_thread_over(TOWER.grouped, 3))),
    "natural map": (natmap_from_obj, natmap_to_obj(
        NaturalMapSpec(2, (0, 1, 2), TERMS, c2))),
    "certificate": (certificate_from_obj, certificate_to_obj(
        make_certificate(c2, c2, F(0), F(1, 2), 4))),
}


def _paths(obj, path=()):
    """Every nested dict key and list index of obj, as paths from the root."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def junk_variants(obj):
    """(what, damaged copy) for obj itself replaced by each junk value and
    for each nested field replaced by each junk value or deleted."""
    for junk in JUNK:
        yield f"whole object: {junk!r}", copy.deepcopy(junk)
    for path in _paths(obj):
        for junk in (*JUNK, DELETED):
            bad = copy.deepcopy(obj)
            holder = bad
            for key in path[:-1]:
                holder = holder[key]
            if junk is DELETED:
                del holder[path[-1]]
            else:
                holder[path[-1]] = copy.deepcopy(junk)
            label = "deleted" if junk is DELETED else repr(junk)
            yield f"{'.'.join(map(str, path))}: {label}", bad


def test_paths_reach_nested_records():
    # sequence records, level records and list items, at every depth
    assert {("M", "period", 1), ("levels", 2, "k"), ("rawN", "n")} <= \
        set(_paths(OBJECTS["tower"][1]))
    assert ("seq", "partner", "prefix", 0) in set(_paths(OBJECTS["grouped thread"][1]))


@pytest.mark.parametrize("name", OBJECTS)
def test_reader_returns_or_raises_value_error(name):
    reader, good = OBJECTS[name]
    reader(copy.deepcopy(good))
    for what, bad in junk_variants(good):
        t0 = time.perf_counter()
        try:
            reader(bad)
        except ValueError:
            pass
        except Exception as exc:  # noqa: BLE001 - any other exception is the fault
            pytest.fail(f"{name} reader, {what}: {type(exc).__name__}: {exc}")
        assert time.perf_counter() - t0 < 1.0, (name, what)


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _commands(name, path, tmp_path):
    """The CLI commands that read a file of this kind from path."""
    good_tower = tmp_path / "good_tower.json"
    good_thread = tmp_path / "good_thread.json"
    good_tower.write_text(dumps(OBJECTS["tower"][1]))
    good_thread.write_text(dumps(OBJECTS["thread"][1]))
    if name == "tower":
        return [["tower", "eval", "--tower", path, "--level", "2", "--x", "1/3"]]
    if name == "natural map":
        return [["thread", "map", "--thread", str(good_thread), "--natmap", path]]
    if name == "certificate":
        return [["verify-cert", "--cert", path, "--N", "const:2", "--M", "const:2"]]
    commands = [["thread", "validate", "--thread", path], ["thread", "extend", "--thread", path]]
    if name == "grouped thread":  # a tower's threads live over its regrouped sequence
        commands.append(["thread", "map", "--thread", path, "--tower", str(good_tower)])
    return commands


@pytest.mark.parametrize("name", OBJECTS)
def test_cli_exits_cleanly_on_junk_files(name, tmp_path):
    _, good = OBJECTS[name]
    path = tmp_path / "input.json"
    commands = _commands(name, str(path), tmp_path)
    path.write_text(dumps(good))
    assert [_cli(argv) for argv in commands] == [0] * len(commands)
    for what, bad in junk_variants(good):
        path.write_text(json.dumps(bad))
        for argv in commands:
            try:
                code = _cli(argv)
            except BaseException as exc:  # noqa: BLE001 - nothing may escape main
                pytest.fail(f"{argv[:2]} on {name}, {what}: {type(exc).__name__}: {exc}")
            assert code in (0, 1, 2), (argv[:2], what, code)
