"""Exact tent-map algebra on [0, 1], map towers between Knaster continua,
and finite certificates that two towers are not homotopic."""

from .distinguish import (
    Certificate,
    make_certificate,
    pick_level,
    pick_q,
    verify_certificate,
)
from .natmap import (
    NaturalMapSpec,
    enumerate_natural_maps,
    first_incompatible,
    induced_indices,
    prime_obstruction,
)
from .plmap import (
    ONE,
    ZERO,
    PLMap,
    as_rat,
    compose,
    identity,
    lap,
    range_on,
    tent,
    tent_preimages,
    wave_eval,
)
from .seqs import GroupedSeq, SeqSpec, SequenceExhausted, regroup
from .threads import Thread, apply_natmap, apply_tower, endpoint, extend, validate
from .tower import (
    DEFAULT_LAP_BUDGET,
    ConditionReport,
    LapBudgetError,
    LiftSpec,
    LevelData,
    Tower,
    build_tower,
    check_conditions,
    check_level_conditions,
    commutes_pointwise,
    enumerate_lifts,
    eval_level,
    construct_lift,
    level_range,
    materialize_level,
)

__version__ = "0.1.0"
