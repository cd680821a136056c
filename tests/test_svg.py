import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction as F

import pytest

import ref_svg
from knaster import PLMap, SeqSpec, build_tower, materialize_level, tent
from knaster.svg import PlotSpec, _dec, render_svg


def test_single_tent_polyline():
    spec = PlotSpec(maps=((tent(2), "g2"),))
    root = ET.fromstring(render_svg(spec))
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 1
    assert len(polylines[0].attrib["points"].split()) == 3


def test_grid_lines_and_labels():
    spec = PlotSpec(maps=((tent(3), "a"), (tent(4), "b")), grid=5)
    text = render_svg(spec)
    root = ET.fromstring(text)
    lines = [el for el in root.iter() if el.tag.rsplit("}", 1)[-1] == "line"]
    assert len(lines) == 2 * 4  # grid-1 fold lines per panel
    labels = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert labels == ["a", "b"]


def test_label_escaping():
    spec = PlotSpec(maps=((tent(2), "f<0> & g"),))
    text = render_svg(spec)
    assert "f<0> & g" not in text
    assert "f&lt;0&gt; &amp; g" in text


def test_deterministic_output():
    spec = PlotSpec(maps=((tent(7), "x"),), grid=7)
    assert render_svg(spec) == render_svg(spec)


def test_rejects_empty_and_bad_dimensions():
    with pytest.raises(ValueError):
        PlotSpec(maps=())
    with pytest.raises(ValueError):
        PlotSpec(maps=((tent(2), "g"),), width=0)
    with pytest.raises(ValueError):
        PlotSpec(maps=((tent(2), "g"),), height=-5)
    with pytest.raises(ValueError):
        PlotSpec(maps=((tent(2), "g"),), grid=0)
    with pytest.raises(ValueError):
        render_svg(PlotSpec(maps=((tent(2), "g"),), width=20, height=20))


def test_dec_matches_fraction_rounding():
    for num in range(-3000, 3001, 7):
        for den in (1, 2, 3, 8, 40, 200, 400, 2000, 9973):
            assert _dec(num, den) == ref_svg._dec(F(num, den))
    # exact .xx5 ties go to the even hundredth
    assert [_dec(n, 200) for n in (1, 3, -1, -3)] == ["0.00", "0.02", "0.00", "-0.02"]


def test_render_matches_fraction_path_on_ties():
    # A one-pixel panel puts k/200 on an exact .xx5 tie; more panels put the
    # panel count into every denominator.
    tie = PLMap([(0, 0), (F(1, 200), F(3, 200)), (F(3, 400), F(1, 2)),
                 (F(1, 3), F(199, 200)), (1, F(1, 400))])
    for count in (1, 2, 3):
        for width, height in ((24 + 16 * (count - 1) + count, 43), (101, 50), (760, 280)):
            spec = PlotSpec(maps=tuple((tie, str(i)) for i in range(count)),
                            width=width, height=height, grid=7)
            assert render_svg(spec) == ref_svg.render_svg(spec)


def test_render_matches_fraction_path_on_level_3():
    c2 = SeqSpec.constant(2)
    f3 = materialize_level(build_tower(c2, c2, F(1, 3), 3), 3)
    spec = PlotSpec(maps=((f3, "f3"), (tent(8), "g8")), grid=8)
    assert render_svg(spec) == ref_svg.render_svg(spec)


def test_render_level_4_holds_no_fraction_copy():
    # the polyline reads the map's integer triples; what is held is the
    # point strings and the document itself
    c2 = SeqSpec.constant(2)
    f4 = materialize_level(build_tower(c2, c2, F(1, 3), 4), 4)
    spec = PlotSpec(maps=((f4, "f4"),))
    tracemalloc.start()
    try:
        text = render_svg(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count(",") == 56800
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
