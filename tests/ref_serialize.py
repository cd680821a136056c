"""Slow reference for the map wire format in `knaster.serialize`: the Fraction
path that preceded the integer-triple writer and reader, kept to check that
they write the same objects, read the same maps and reject the same inputs
with the same messages.

The writer reads `PLMap.points`, a Fraction pair per breakpoint, and the
reader builds a Fraction per coordinate and hands the pairs to `PLMap(...)`.
The integer-string helpers past the digit limit are the module's own.
"""

from __future__ import annotations

import re
from fractions import Fraction

from knaster.plmap import PLMap, _digits_to_int, _int_to_str, as_rat

_RAT_RE = re.compile(r"^(-?)(0|[1-9][0-9]*)(?:/([1-9][0-9]*))?$")


def rat_to_str(x: Fraction) -> str:
    x = as_rat(x)
    if x.denominator == 1:
        return _int_to_str(x.numerator)
    return f"{_int_to_str(x.numerator)}/{_int_to_str(x.denominator)}"


def rat_from_str(text: str) -> Fraction:
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {type(text).__name__}")
    match = _RAT_RE.match(text)
    if match is None:
        raise ValueError(f"malformed rational {text!r}")
    sign, digits, den_digits = match.groups()
    num = -_digits_to_int(digits) if sign else _digits_to_int(digits)
    if den_digits == "1" or (sign and digits == "0"):
        raise ValueError(f"non-canonical rational {text!r}")
    den = _digits_to_int(den_digits or "1")
    value = Fraction(num, den)
    if value.denominator != den:
        raise ValueError(f"rational {text!r} is not in lowest terms")
    return value


def plmap_to_obj(f: PLMap) -> dict:
    return {"breakpoints": [[rat_to_str(x), rat_to_str(y)] for x, y in f.points]}


def plmap_from_obj(obj: dict) -> PLMap:
    pts = obj["breakpoints"]
    if not isinstance(pts, list):
        raise ValueError("breakpoints must be a list")
    return PLMap((rat_from_str(x), rat_from_str(y)) for x, y in pts)
