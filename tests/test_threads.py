import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import knaster
from knaster import (
    NaturalMapSpec,
    SeqSpec,
    Thread,
    apply_natmap,
    apply_tower,
    build_tower,
    endpoint,
    extend,
    validate,
    wave_eval,
)

F = Fraction
c2 = SeqSpec.constant(2)


def test_endpoint():
    th = endpoint(c2, 3)
    assert th.coords == (F(0), F(0), F(0), F(0))
    assert th.coords[0] == 0
    assert validate(th) is None


def test_validate_examples():
    assert validate(Thread(c2, (F(1, 2), F(1, 4), F(1, 8)))) is None
    assert validate(Thread(c2, (F(1, 2), F(3, 4), F(3, 8)))) is None
    assert validate(Thread(c2, (F(1, 2), F(1, 2), F(1, 2)))) == 1
    assert validate(Thread(c2, (F(1, 2), F(1, 4), F(1, 4)))) == 2


def test_thread_rejects_bad_coords():
    with pytest.raises(ValueError):
        Thread(c2, (F(3, 2),))
    with pytest.raises(ValueError):
        Thread(c2, ())


def test_extend_fans():
    th = Thread(c2, (F(1, 2),))
    children = extend(th)
    assert [c.coords[-1] for c in children] == [F(1, 4), F(3, 4)]
    zero = Thread(c2, (F(0),))
    assert [c.coords[-1] for c in extend(zero)] == [F(0), F(1)]
    one = Thread(c2, (F(1),))
    assert [c.coords[-1] for c in extend(one)] == [F(1, 2)]


def test_extend_children_equal_checked_threads():
    grouped = knaster.regroup(c2, c2, 12)
    for seq in (c2, SeqSpec.periodic([2, 3], [5]), grouped):
        th = Thread(seq, ("1/3",))
        for _ in range(10):
            children = extend(th)
            for child in children:
                checked = Thread(seq, child.coords)
                assert child == checked and hash(child) == hash(checked)
                assert type(child) is Thread and child.seq is seq
                assert all(type(x) is Fraction for x in child.coords)
            th = children[-1]


def test_extend_bad_parent_still_raises():
    # the step past a finite sequence's end
    short = Thread(SeqSpec.from_list([2, 3]), (F(1, 2), F(1, 4), F(1, 12)))
    with pytest.raises(knaster.SequenceExhausted):
        extend(short)
    # a last coordinate outside [0, 1], forced past the constructor's check,
    # still fails in tent_preimages
    forced = Thread(c2, (F(1, 2),))
    object.__setattr__(forced, "coords", (F(3, 2),))
    with pytest.raises(ValueError, match="outside"):
        extend(forced)


def test_extend_preimage_property():
    rng = random.Random(11)
    seq = SeqSpec.periodic([2, 3], [5])
    th = Thread(seq, (F(rng.randint(0, 30), 30),))
    for _ in range(4):
        children = extend(th)
        n = seq.nth(len(th.coords))
        for child in children:
            assert wave_eval(n * child.coords[-1]) == th.coords[-1]
            assert validate(child) is None
        th = children[rng.randrange(len(children))]


def test_apply_natmap_identity_and_shift():
    th = Thread(c2, (F(1, 2), F(1, 4), F(1, 8)))
    ident = NaturalMapSpec(1, (0, 1, 2), c2, c2)
    assert apply_natmap(ident, th).coords == th.coords
    shift = NaturalMapSpec(1, (1, 2), c2, c2)
    assert apply_natmap(shift, th).coords == (F(1, 4), F(1, 8))


def test_apply_natmap_endpoint_fixed():
    for spec in (NaturalMapSpec(1, (0, 1, 2), c2, c2),
                 NaturalMapSpec(2, (0, 2, 4), c2, c2),
                 NaturalMapSpec(1, (0, 1), SeqSpec.constant(6), c2)):
        th = endpoint(spec.source, spec.jseq[-1])
        image = apply_natmap(spec, th)
        assert all(x == 0 for x in image.coords)
        assert validate(image) is None


def test_apply_natmap_errors():
    th = Thread(c2, (F(1, 2), F(1, 4)))
    with pytest.raises(ValueError):
        apply_natmap(NaturalMapSpec(1, (0, 1, 2), c2, c2), th)  # too short
    bad = NaturalMapSpec(9, (0, 1, 2, 3), c2, SeqSpec.constant(3))
    deep = Thread(c2, (F(1, 2), F(1, 4), F(1, 8), F(1, 16)))
    with pytest.raises(ValueError):
        apply_natmap(bad, deep)  # incompatible spec


def test_apply_tower_endpoint_and_depth_zero():
    tower = build_tower(c2, c2, F(1, 3), 5)
    th = endpoint(tower.grouped, 5)
    image = apply_tower(tower, th)
    assert all(x == 0 for x in image.coords)
    single = Thread(tower.grouped, (F(2, 5),))
    assert apply_tower(tower, single).coords == (F(2, 5),)  # level 0 is the identity


def test_apply_tower_images_validate():
    tower = build_tower(c2, c2, F(1, 2), 6)
    rng = random.Random(123)
    th = Thread(tower.grouped, (F(rng.randint(0, 100), 100),))
    for _ in range(6):
        children = extend(th)
        th = children[rng.randrange(len(children))]
    assert validate(th) is None
    image = apply_tower(tower, th)
    assert validate(image) is None
    assert len(image.coords) == len(th.coords)


def test_apply_tower_depth_mismatch():
    tower = build_tower(c2, c2, F(0), 2)
    th = endpoint(tower.grouped, 5)
    with pytest.raises(ValueError):
        apply_tower(tower, th)


def test_reimport_frees_the_old_modules():
    # a module-level typing.Union of knaster classes sat in typing's global
    # cache and kept every earlier import of knaster.seqs alive
    code = (
        "import gc, sys, weakref\n"
        "import knaster, knaster.cli\n"
        "ref = weakref.ref(knaster.seqs.SeqSpec)\n"
        "for name in [n for n in sys.modules if n.split('.')[0] == 'knaster']:\n"
        "    del sys.modules[name]\n"
        "del knaster\n"
        "import knaster\n"
        "gc.collect()\n"
        "print(ref() is None)\n"
    )
    src = os.path.dirname(os.path.dirname(knaster.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout
    assert out.strip() == "True"
