"""JSON wire formats. Every rational crosses the boundary as an exact string.

Rationals are serialized as "p/q" in lowest terms ("p" alone when q = 1),
at any length, and parsing is strict: non-reduced fractions, a spelled-out
denominator of 1, negative zero, zero or negative denominators, leading
zeros, a final newline and any other junk are rejected, as are out-of-range
values wherever the carrying structure constrains them.
Integers are JSON integers; floats, strings and booleans are rejected.
A map is written from its integer triples (X, Y, W) and read back as integer
ratios, so neither direction builds a Fraction per breakpoint; a file that
is not a map object holding a list of [x, y] breakpoints is rejected with a
message naming what is wrong. So is a file of another kind handed to the
tower, thread, natural map or certificate reader: "not a tower: ...", and
a field missing or mistyped deeper in is named: "level 1: missing field 'n'".
Each reader names a record's keys once, in the table it hands `_record`; a
certificate's keys, their order and their types are its dataclass fields'.
A thread over a regrouped sequence stores it as {"kind": "grouped", "raw":
..., "partner": ...}, so the file can be extended past its coordinates.
A tower file holds only its inputs: the sequences, t, the depth and, per
level, the integers n, m, slot and k, which the loader checks against
the tower it rebuilds.
"""

from __future__ import annotations

import json
from dataclasses import fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import get_type_hints

from .distinguish import Certificate
from .natmap import NaturalMapSpec
from .plmap import PLMap, _rat_parts, _ratio_str, as_rat
from .seqs import GroupedSeq, SeqSpec
from .threads import Thread
from .tower import Tower, build_tower


def rat_to_str(x: Fraction) -> str:
    x = as_rat(x)
    return _ratio_str(x.numerator, x.denominator)


def rat_from_str(text: str) -> Fraction:
    return Fraction(*_rat_parts(text))


def _unit_rat_from_str(text: str) -> Fraction:
    value = rat_from_str(text)
    if not 0 <= value <= 1:
        raise ValueError(f"value {text!r} outside [0, 1]")
    return value


def _read(obj, key: str, parse):
    """parse(obj[key]) for a JSON object obj holding key; any failure names the field."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"missing field {key!r}")
    try:
        return parse(obj[key])
    except ValueError as e:
        raise ValueError(f"field {key!r}: {e}") from None


def _record(obj, kind: str, parsers: dict) -> dict:
    """{key: parse(obj[key])} for each key and parse of the ordered table
    parsers, so each key of a record is named once; a failure names the
    field. Reject obj as not a kind unless it is a JSON object holding
    every key."""
    if not isinstance(obj, dict) or not all(key in obj for key in parsers):
        raise ValueError(f"not a {kind}: expected a JSON object with the keys "
                         + ", ".join(repr(key) for key in parsers))
    return {key: _read(obj, key, parse) for key, parse in parsers.items()}


def _int(value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError("expected an integer")
    return value


def _ints(values) -> list[int]:
    if not isinstance(values, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in values):
        raise ValueError("expected a list of integers")
    return values


def _rats(values) -> tuple[Fraction, ...]:
    if not isinstance(values, list):
        raise ValueError("expected a list of rational strings")
    return tuple(rat_from_str(v) for v in values)


# ---------------------------------------------------------------- PLMap

def plmap_to_obj(f: PLMap) -> dict:
    return {"breakpoints": [[_ratio_str(x, w), _ratio_str(y, w)] for x, y, w in f.triples]}


def _breakpoint_parts(i: int, point) -> tuple[tuple[int, int], tuple[int, int]]:
    if not isinstance(point, list) or len(point) != 2:
        raise ValueError(f"breakpoint {i} is not a two-element list [x, y]")
    return _rat_parts(point[0]), _rat_parts(point[1])


def plmap_from_obj(obj: dict) -> PLMap:
    pts = obj.get("breakpoints") if isinstance(obj, dict) else None
    if not isinstance(pts, list):
        raise ValueError("not a map: expected a JSON object with a 'breakpoints' list")
    return PLMap.from_ratios(_breakpoint_parts(i, p) for i, p in enumerate(pts))  # checks ranges


# --------------------------------------------------------------- SeqSpec

def seqspec_to_obj(seq: SeqSpec) -> dict:
    if seq.kind == "constant":
        return {"kind": "constant", "n": seq.n}
    if seq.kind == "list":
        return {"kind": "list", "items": list(seq.items)}
    return {"kind": "periodic", "prefix": list(seq.prefix), "period": list(seq.period)}


def seqspec_from_obj(obj: dict) -> SeqSpec:
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "constant":
        return SeqSpec.constant(_read(obj, "n", _int))
    if kind == "list":
        return SeqSpec.from_list(_read(obj, "items", _ints))
    if kind == "periodic":
        return SeqSpec.periodic(_read(obj, "prefix", _ints), _read(obj, "period", _ints))
    raise ValueError(f"field 'kind': unknown sequence kind {kind!r}")


# --------------------------------------------------------- NaturalMapSpec

def natmap_to_obj(spec: NaturalMapSpec) -> dict:
    return {
        "i0": spec.i0,
        "jseq": list(spec.jseq),
        "N": seqspec_to_obj(spec.source),
        "M": seqspec_to_obj(spec.target),
    }


def natmap_from_obj(obj: dict) -> NaturalMapSpec:
    rec = _record(obj, "natural map",
                  {"i0": _int, "jseq": _ints, "N": seqspec_from_obj, "M": seqspec_from_obj})
    return NaturalMapSpec(rec["i0"], rec["jseq"], rec["N"], rec["M"])  # it tuples jseq


# ---------------------------------------------------------------- Thread

def _bonding_from_obj(obj: dict) -> SeqSpec | GroupedSeq:
    """A thread's sequence: a SeqSpec, or a regrouped one, which only a thread
    carries (a tower stores its raw sequence and regroups it on load)."""
    if isinstance(obj, dict) and obj.get("kind") == "grouped":
        return GroupedSeq(_read(obj, "raw", seqspec_from_obj),
                          _read(obj, "partner", seqspec_from_obj))
    return seqspec_from_obj(obj)


def thread_to_obj(thread: Thread) -> dict:
    seq = thread.seq
    if isinstance(seq, GroupedSeq):
        seq_obj = {"kind": "grouped", "raw": seqspec_to_obj(seq.raw),
                   "partner": seqspec_to_obj(seq.partner)}
    else:
        seq_obj = seqspec_to_obj(seq)
    return {
        "seq": seq_obj,
        "coords": [rat_to_str(x) for x in thread.coords],
    }


def thread_from_obj(obj: dict) -> Thread:
    return Thread(**_record(obj, "thread", {"seq": _bonding_from_obj, "coords": _rats}))


# ----------------------------------------------------------------- Tower

def tower_to_obj(tower: Tower) -> dict:
    return {
        "rawN": seqspec_to_obj(tower.raw_source),
        "M": seqspec_to_obj(tower.target),
        "t": rat_to_str(tower.t),
        "depth": tower.depth,
        "levels": [{"n": lvl.n, "m": lvl.m, "slot": lvl.slot, "k": lvl.k}
                   for lvl in tower.levels],
    }


def _level_list(values) -> list:
    if not isinstance(values, list):
        raise ValueError("expected a list of level records")
    return values


def tower_from_obj(obj: dict) -> Tower:
    """Rebuild the tower and check the stored level integers against it; other
    keys of a level record, such as older files' derived fold data, are ignored."""
    rec = _record(obj, "tower", {"rawN": seqspec_from_obj, "M": seqspec_from_obj,
                                 "t": rat_from_str, "depth": _int, "levels": _level_list})
    depth, stored = rec["depth"], rec["levels"]
    if len(stored) != depth:
        raise ValueError(f"tower claims depth {depth} but stores {len(stored)} levels")
    tower = build_tower(rec["rawN"], rec["M"], rec["t"], depth)
    for lvl, entry in zip(tower.levels, stored):
        if not isinstance(entry, dict):
            raise ValueError(f"field 'levels': level {lvl.j} is not a JSON object")
        try:
            ints = tuple(_read(entry, key, _int) for key in ("n", "m", "slot", "k"))
        except ValueError as e:
            raise ValueError(f"level {lvl.j}: {e}") from None
        if ints != (lvl.n, lvl.m, lvl.slot, lvl.k):
            raise ValueError(f"stored level {lvl.j} disagrees with the rebuilt tower")
    return tower


# ------------------------------------------------------------ Certificate

def _certificate_parsers() -> dict:
    """The certificate's keys, in field order, each read by its declared type:
    a Fraction field as a rational string in [0, 1], any other as an integer.
    The declaration decides, not the value, so Certificate(t=0, ...) writes "0"."""
    hints = get_type_hints(Certificate)  # resolves the postponed annotation "Fraction"
    return {f.name: _unit_rat_from_str if hints[f.name] is Fraction else _int
            for f in fields(Certificate)}


_CERT_PARSERS = _certificate_parsers()


def certificate_to_obj(cert: Certificate) -> dict:
    return {key: getattr(cert, key) if parse is _int else rat_to_str(getattr(cert, key))
            for key, parse in _CERT_PARSERS.items()}


def certificate_from_obj(obj: dict) -> Certificate:
    # Certificate checks nothing, so an out-of-range value is bad input here
    return Certificate(**_record(obj, "certificate", _CERT_PARSERS))


def _map_text(obj) -> str | None:
    """dumps(obj) for a map object, exactly {"breakpoints": [[str, str], ...]}
    with at least one breakpoint: one f-string a breakpoint, quoted as
    json.dumps quotes; None for any other object."""
    if type(obj) is not dict or len(obj) != 1 or type(pts := obj.get("breakpoints")) is not list:
        return None
    lines = []
    for p in pts:
        if type(p) is not list or len(p) != 2 or type(p[0]) is not str or type(p[1]) is not str:
            return None
        lines.append(f"    [\n      {_quote(p[0])},\n      {_quote(p[1])}\n    ]")
    if not lines:
        return None
    lines[0] = '{\n  "breakpoints": [\n' + lines[0]  # no copy of the whole text
    lines[-1] += "\n  ]\n}\n"
    return ",\n".join(lines)


def dumps(obj: dict | list) -> str:
    """Deterministic JSON text (fixed key order, two-space indent): that of
    json.dumps(obj, indent=2), plus a newline. An indent selects json's
    pure-Python encoder, so a map object, whose layout is fixed, is
    spelled by `_map_text` instead."""
    text = _map_text(obj)
    return json.dumps(obj, indent=2) + "\n" if text is None else text
