"""JSON wire formats. Every rational crosses the boundary as an exact string.

Rationals are serialized as "p/q" in lowest terms ("p" alone when q = 1),
at any length, and parsing is strict: non-reduced fractions, a spelled-out
denominator of 1, negative zero, zero or negative denominators, leading
zeros and any other junk are rejected, as are out-of-range values wherever
the carrying structure constrains them.
Integers are JSON integers; floats, strings and booleans are rejected.
A map is written from its integer triples (X, Y, W) and read back as integer
ratios, so neither direction builds a Fraction per breakpoint; a file that
is not a map object holding a list of [x, y] breakpoints is rejected with a
message naming what is wrong. So is a file of another kind handed to the
tower, thread, natural map or certificate reader: "not a tower: ...", and
a field missing or mistyped deeper in is named: "level 1: missing field 'n'".
A thread over a regrouped sequence stores it as {"kind": "grouped", "raw":
..., "partner": ...}, so the file can be extended past its coordinates.
A tower file holds only its inputs: the sequences, t, the depth and, per
level, the integers n, m, slot and k, which the loader checks against
the tower it rebuilds.
"""

from __future__ import annotations

import json
from fractions import Fraction

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


def _fields(obj, kind: str, keys: tuple[str, ...]) -> None:
    """Reject obj as not a kind unless it is a JSON object holding every key."""
    if not isinstance(obj, dict) or not all(key in obj for key in keys):
        raise ValueError(f"not a {kind}: expected a JSON object with the keys "
                         + ", ".join(repr(key) for key in keys))


def _read(obj, key: str, parse):
    """parse(obj[key]) for a JSON object obj holding key; any failure names the field."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"missing field {key!r}")
    try:
        return parse(obj[key])
    except ValueError as e:
        raise ValueError(f"field {key!r}: {e}") from None


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
    _fields(obj, "natural map", ("i0", "jseq", "N", "M"))
    return NaturalMapSpec(
        i0=_read(obj, "i0", _int),
        jseq=tuple(_read(obj, "jseq", _ints)),
        source=_read(obj, "N", seqspec_from_obj),
        target=_read(obj, "M", seqspec_from_obj),
    )


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
    _fields(obj, "thread", ("seq", "coords"))
    return Thread(
        seq=_read(obj, "seq", _bonding_from_obj),
        coords=_read(obj, "coords", _rats),
    )


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


def tower_from_obj(obj: dict) -> Tower:
    """Rebuild the tower and check the stored level integers against it; other
    keys of a level record, such as older files' derived fold data, are ignored."""
    _fields(obj, "tower", ("rawN", "M", "t", "depth", "levels"))
    raw_source = _read(obj, "rawN", seqspec_from_obj)
    target = _read(obj, "M", seqspec_from_obj)
    t = _read(obj, "t", rat_from_str)
    depth = _read(obj, "depth", _int)
    stored = obj["levels"]
    if not isinstance(stored, list):
        raise ValueError("field 'levels': expected a list of level records")
    if len(stored) != depth:
        raise ValueError(f"tower claims depth {depth} but stores {len(stored)} levels")
    tower = build_tower(raw_source, target, t, depth)
    for lvl, rec in zip(tower.levels, stored):
        if not isinstance(rec, dict):
            raise ValueError(f"field 'levels': level {lvl.j} is not a JSON object")
        try:
            ints = tuple(_read(rec, key, _int) for key in ("n", "m", "slot", "k"))
        except ValueError as e:
            raise ValueError(f"level {lvl.j}: {e}") from None
        if ints != (lvl.n, lvl.m, lvl.slot, lvl.k):
            raise ValueError(f"stored level {lvl.j} disagrees with the rebuilt tower")
    return tower


# ------------------------------------------------------------ Certificate

def certificate_to_obj(cert: Certificate) -> dict:
    return {
        "t": rat_to_str(cert.t),
        "s": rat_to_str(cert.s),
        "ell": cert.ell,
        "j": cert.j,
        "q": cert.q,
        "witness": rat_to_str(cert.witness),
        "vt": rat_to_str(cert.vt),
        "vs": rat_to_str(cert.vs),
        "p": cert.p,
        "r": cert.r,
    }


def certificate_from_obj(obj: dict) -> Certificate:
    _fields(obj, "certificate", ("t", "s", "ell", "j", "q", "witness", "vt", "vs", "p", "r"))
    # Certificate checks nothing, so an out-of-range value is bad input here
    return Certificate(
        t=_read(obj, "t", _unit_rat_from_str),
        s=_read(obj, "s", _unit_rat_from_str),
        ell=_read(obj, "ell", _int),
        j=_read(obj, "j", _int),
        q=_read(obj, "q", _int),
        witness=_read(obj, "witness", _unit_rat_from_str),
        vt=_read(obj, "vt", _unit_rat_from_str),
        vs=_read(obj, "vs", _unit_rat_from_str),
        p=_read(obj, "p", _int),
        r=_read(obj, "r", _int),
    )


def dumps(obj: dict | list) -> str:
    """Deterministic JSON text (fixed key order, two-space indent)."""
    return json.dumps(obj, indent=2) + "\n"
