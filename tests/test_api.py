"""The public surface of the package, pinned so that a name can join or
leave it only by a change to this file, and the integer parameters of its
entry points, which refuse any non-integer with ValueError."""

import types
from fractions import Fraction

import pytest

import knaster
from knaster import (
    LiftSpec,
    NaturalMapSpec,
    SeqSpec,
    build_tower,
    construct_lift,
    distinguish,
    enumerate_lifts,
    enumerate_natural_maps,
    identity,
    induced_indices,
    make_certificate,
    natmap,
    plmap,
    seqs,
    tent,
    tower,
)

PUBLIC = {
    # plmap
    "ONE", "ZERO", "PLMap", "as_rat", "compose", "identity", "lap", "range_on",
    "tent", "tent_preimages", "wave_eval",
    # seqs
    "GroupedSeq", "SeqSpec", "SequenceExhausted", "regroup",
    # tower
    "DEFAULT_LAP_BUDGET", "ConditionReport", "LapBudgetError", "LiftSpec", "LevelData",
    "Tower", "build_tower", "check_conditions", "check_level_conditions",
    "commutes_pointwise", "construct_lift", "enumerate_lifts", "eval_level",
    "level_range", "materialize_level",
    # threads
    "Thread", "apply_natmap", "apply_tower", "endpoint", "extend", "validate",
    # natmap
    "NaturalMapSpec", "enumerate_natural_maps", "first_incompatible", "induced_indices",
    "prime_obstruction",
    # distinguish
    "Certificate", "make_certificate", "pick_level", "pick_q", "verify_certificate",
}


def test_public_names_are_pinned():
    exported = {name for name, value in vars(knaster).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC


def test_removed_names_stay_removed():
    # each has a replacement: Fraction, PLMap(points), no rightmost scan,
    # [x for x, _ in f.points], first_incompatible(...) is None, no block
    # bounds, Fraction(b_num, b_den), the slot stored on each level, and
    # compose, which walks a tent operand itself
    for owner, name in ((plmap, "Rat"), (plmap, "normalize"), (plmap, "rightmost_preimage"),
                        (plmap, "tent_of"), (plmap, "of_tent"),
                        (plmap.PLMap, "xs"), (natmap, "is_compatible"),
                        (seqs.GroupedSeq, "blocks"), (seqs.GroupedSeq, "consumed"),
                        (tower.LevelData, "b_self"), (tower, "slot_index"),
                        (distinguish, "slot_index")):
        assert not hasattr(owner, name), (owner, name)


c2 = SeqSpec.constant(2)
# each integer parameter of the API: a call taking it, and a value it accepts
INTEGER_PARAMETERS = {
    "SeqSpec.constant": (SeqSpec.constant, 3),
    "SeqSpec.from_list": (lambda v: SeqSpec.from_list([2, v]), 3),
    "SeqSpec.periodic prefix": (lambda v: SeqSpec.periodic([v], [2]), 3),
    "SeqSpec.periodic period": (lambda v: SeqSpec.periodic([], [v]), 3),
    "NaturalMapSpec i0": (lambda v: NaturalMapSpec(v, (0, 1), c2, c2), 2),
    "NaturalMapSpec jseq": (lambda v: NaturalMapSpec(1, (0, v), c2, c2), 2),
    "induced_indices depth": (lambda v: induced_indices(NaturalMapSpec(1, (0, 1), c2, c2), v), 1),
    # the search below never ends on a non-integer depth, so it must not start
    "enumerate_natural_maps depth": (lambda v: enumerate_natural_maps(c2, c2, 1, 0, 3, v), 2),
    "LiftSpec m": (lambda v: construct_lift(LiftSpec(m=v, n=7, q=1, i=0, f0=identity())), 2),
    "LiftSpec n": (lambda v: construct_lift(LiftSpec(m=1, n=v, q=1, i=0, f0=identity())), 3),
    "LiftSpec q": (lambda v: construct_lift(LiftSpec(m=1, n=7, q=v, i=0, f0=identity())), 2),
    "LiftSpec i": (lambda v: construct_lift(LiftSpec(m=1, n=7, q=3, i=v, f0=identity())), 2),
    "build_tower depth": (lambda v: build_tower(c2, c2, "1/2", v), 2),
    "make_certificate ell": (lambda v: make_certificate(c2, c2, 0, "1/2", v), 4),
    "make_certificate level": (lambda v: make_certificate(c2, c2, 0, "1/2", 4, level=v), 7),
    "enumerate_lifts cap": (lambda v: enumerate_lifts(tent(7), 3, v), 2),
}


@pytest.mark.parametrize("bad", [2.0, 2.5, Fraction(5, 2), True, "3"], ids=repr)
@pytest.mark.parametrize("call, good", INTEGER_PARAMETERS.values(), ids=INTEGER_PARAMETERS)
def test_integer_parameters_reject_non_integers(call, good, bad):
    call(good)
    with pytest.raises(ValueError, match="must be an integer"):
        call(bad)
