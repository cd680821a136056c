"""Span tracing of knaster's public layers, installed from outside the package.

Each traced function is replaced in every `knaster` module namespace that
holds it, so calls between layers are caught as well as the benchmark's own
calls; `prefix_product` is replaced on both sequence classes. A span records
its name, start, end, parent span, operation id and, for `compose` and
`dumps`, a size (breakpoints out, bytes out). Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name, size of the result or None)
TRACED = (
    ("plmap", "compose", "plmap.compose", lambda f: len(f.points)),
    ("plmap", "range_on", "plmap.range_on", None),
    ("tower", "construct_lift", "tower.construct_lift", None),
    ("tower", "check_conditions", "tower.check_conditions", None),
    ("tower", "build_tower", "tower.build_tower", None),
    ("tower", "eval_level", "tower.eval_level", None),
    ("tower", "level_range", "tower.level_range", None),
    ("tower", "check_level_conditions", "tower.check_level_conditions", None),
    ("tower", "commutes_pointwise", "tower.commutes_pointwise", None),
    ("tower", "materialize_level", "tower.materialize_level", None),
    ("seqs", "regroup", "seqs.regroup", None),
    ("distinguish", "pick_level", "distinguish.pick_level", None),
    ("distinguish", "make_certificate", "distinguish.make_certificate", None),
    ("distinguish", "verify_certificate", "distinguish.verify_certificate", None),
    ("threads", "apply_tower", "threads.apply_tower", None),
    ("serialize", "plmap_to_obj", "serialize.dump", None),
    ("serialize", "tower_to_obj", "serialize.dump", None),
    ("serialize", "certificate_to_obj", "serialize.dump", None),
    ("serialize", "dumps", "serialize.dump", len),
    ("serialize", "plmap_from_obj", "serialize.load", None),
    ("serialize", "tower_from_obj", "serialize.load", None),
    ("serialize", "certificate_from_obj", "serialize.load", None),
    ("svg", "render_svg", "svg.render_svg", None),
    ("cli", "main", "cli.main", None),
)
TRACED_METHODS = (("seqs", "SeqSpec"), ("seqs", "GroupedSeq"))

# per-layer metric -> (span name, what is summed over its spans, unit)
LAYER_METRICS = {
    "plmap.compose.calls": ("plmap.compose", "calls", "count/op"),
    "plmap.compose.self_s": ("plmap.compose", "self", "s/op"),
    "plmap.compose.bp_out": ("plmap.compose", "size", "count/op"),
    "plmap.range_on.calls": ("plmap.range_on", "calls", "count/op"),
    "plmap.range_on.self_s": ("plmap.range_on", "self", "s/op"),
    "tower.construct_lift.self_s": ("tower.construct_lift", "self", "s/op"),
    "tower.check_conditions.self_s": ("tower.check_conditions", "self", "s/op"),
    "tower.build_tower.calls": ("tower.build_tower", "calls", "count/op"),
    "tower.build_tower.self_s": ("tower.build_tower", "self", "s/op"),
    "tower.eval_level.calls": ("tower.eval_level", "calls", "count/op"),
    "tower.eval_level.self_s": ("tower.eval_level", "self", "s/op"),
    "tower.level_range.calls": ("tower.level_range", "calls", "count/op"),
    "tower.level_range.self_s": ("tower.level_range", "self", "s/op"),
    "tower.check_level_conditions.self_s": ("tower.check_level_conditions", "self", "s/op"),
    "tower.commutes_pointwise.self_s": ("tower.commutes_pointwise", "self", "s/op"),
    "tower.materialize_level.calls": ("tower.materialize_level", "calls", "count/op"),
    "tower.materialize_level.self_s": ("tower.materialize_level", "self", "s/op"),
    "seqs.regroup.self_s": ("seqs.regroup", "self", "s/op"),
    "seqs.prefix_product.calls": ("seqs.prefix_product", "calls", "count/op"),
    "seqs.prefix_product.self_s": ("seqs.prefix_product", "self", "s/op"),
    "distinguish.pick_level.self_s": ("distinguish.pick_level", "self", "s/op"),
    "distinguish.make_certificate.self_s": ("distinguish.make_certificate", "self", "s/op"),
    "distinguish.verify_certificate.self_s": ("distinguish.verify_certificate", "self", "s/op"),
    "threads.apply_tower.calls": ("threads.apply_tower", "calls", "count/op"),
    "threads.apply_tower.self_s": ("threads.apply_tower", "self", "s/op"),
    "serialize.dump.self_s": ("serialize.dump", "self", "s/op"),
    "serialize.load.self_s": ("serialize.load", "self", "s/op"),
    "serialize.bytes_out": ("serialize.dump", "size", "bytes/op"),
    "svg.render_svg.self_s": ("svg.render_svg", "self", "s/op"),
    "cli.main.calls": ("cli.main", "calls", "count/op"),
    "cli.main.self_s": ("cli.main", "self", "s/op"),
}

NAME, START, END, PARENT, OP, SIZE = range(6)


class Tracer:
    """Records spans around knaster's public functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1  # id of the operation in progress, set by the runner; -1 for none
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, size):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, 0]
            spans.append(rec)
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = clock()
            if size is not None:
                rec[SIZE] = size(out)
            return out

        return traced

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items()
                   if key == "knaster" or key.startswith("knaster.")]
        for mod_name, attr, name, size in TRACED:
            original = getattr(sys.modules[f"knaster.{mod_name}"], attr)
            wrapper = self._wrap(name, original, size)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name in TRACED_METHODS:
            cls = getattr(sys.modules[f"knaster.{mod_name}"], cls_name)
            original = cls.__dict__["prefix_product"]
            self._undo.append((cls, "prefix_product", original))
            cls.prefix_product = self._wrap("seqs.prefix_product", original, None)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def layer_metrics(self, ops: int) -> dict:
        """Every per-layer metric, as a total over the spans of operations
        divided by `ops`; spans recorded outside any operation are left out."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        totals: dict[str, dict[str, float]] = {}
        for sid, rec in enumerate(self.spans):
            if rec[OP] < 0:
                continue
            t = totals.setdefault(rec[NAME], {"calls": 0, "self": 0.0, "size": 0})
            t["calls"] += 1
            t["self"] += rec[END] - rec[START] - child[sid]
            t["size"] += rec[SIZE]
        out = {}
        for metric, (name, field, unit) in LAYER_METRICS.items():
            value = totals.get(name, {}).get(field, 0)
            out[metric] = {"value": value / ops, "unit": unit}
        return out
