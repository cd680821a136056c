"""The public surface of the package, pinned so that a name can join or
leave it only by a change to this file."""

import types

import knaster
from knaster import distinguish, natmap, plmap, seqs, tower

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
