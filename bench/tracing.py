"""Spans around the package's public functions, installed only for a traced run.

A span wraps a function where it is looked up: every ``energyformer.*``
module that binds the function object gets the wrapper in its place, and
``Tape.backward`` is replaced on the class. Nothing under ``src/`` is
edited, and uninstalling restores the original objects, so the untraced
phases run the package exactly as shipped.

Spans stay in memory as (group, start, end, parent, self seconds, flops)
tuples and are summarised once the traced phase ends.
"""

from __future__ import annotations

import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

# (span group, module, attribute); an attribute with a dot is a method.
# A patch point missing from the package (renamed or removed) is skipped
# and listed in the run's detail line instead of failing the run.
PATCH_POINTS = (
    ("tensor.backward", "energyformer.tensor", "Tape.backward"),
    ("layers.cem_attention", "energyformer.layers", "cem_attention"),
    ("layers.reference_mha", "energyformer.layers", "reference_mha"),
    ("layers.cem_mlp", "energyformer.layers", "cem_mlp"),
    ("layers.reference_gated_mlp", "energyformer.layers", "reference_gated_mlp"),
    ("layers.plain_mlp", "energyformer.layers", "plain_mlp"),
    ("layers.rmsnorm", "energyformer.layers", "rmsnorm"),
    ("layers.apply_preconditioner", "energyformer.layers", "apply_preconditioner"),
    ("model.forward", "energyformer.model", "forward"),
    ("model.cross_entropy", "energyformer.model", "cross_entropy"),
    ("model.mse", "energyformer.model", "mse"),
    ("train.adamw_step", "energyformer.train", "adamw_step"),
    ("train.clip_gradients", "energyformer.train", "clip_gradients"),
    ("serialize.save", "energyformer.serialize", "save_tensors"),
    ("energy", "energyformer.energy", "interaction_energy"),
    ("energy", "energyformer.energy", "interaction_energy_grad"),
    ("energy", "energyformer.energy", "elementwise_energy"),
    ("energy", "energyformer.energy", "elementwise_energy_grad"),
) + tuple(
    (f"verify.{name}", "energyformer.verify", f"{name}_check")
    for name in (
        "tied_equivalence",
        "model_tied_equivalence",
        "single_step_consistency",
        "descent",
        "causality",
        "model_directional_fd",
        "untied_control",
        "flipped_descent_control",
    )
)

# spans under these groups are not part of a step (the end-of-run eval)
OFF_STEP = frozenset({"train.eval"})


def count_tape_nodes(tape, root) -> int:
    """Nodes reachable from root on this tape, walked from outside the tape."""
    seen: set[int] = set()
    stack = [getattr(root, "node", None)]
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen or getattr(node, "tape", None) is not tape:
            continue
        seen.add(id(node))
        stack.extend(getattr(node, "inputs", ()))
    return len(seen)


class Tracer:
    """Records spans while installed; the workloads call ``span`` around
    their own calls and register FLOP models for the layers they build."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._child_s: list[float] = []
        # group -> f(args) giving the FLOPs of one call; set by the workload
        self.flop_models: dict = {}
        self.tape_nodes = 0
        self.bytes_written: list[int] = []
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    def span(self, group: str, fn, before=None, after=None):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            tracer._child_s.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                child = tracer._child_s.pop()
                if tracer._child_s:
                    tracer._child_s[-1] += end - start
                model = tracer.flop_models.get(group)
                flops = model(args) if model is not None else 0.0
                tracer.spans[index] = (group, start, end, parent, end - start - child, flops)
                if after is not None:
                    after(args)

        return traced

    # -- install / uninstall ------------------------------------------------

    def _hooks(self, group):
        if group == "tensor.backward":
            def before(args):
                self.tape_nodes += count_tape_nodes(args[0], args[1])
            return before, None
        if group == "serialize.save":
            def after(args):
                self.bytes_written.append(os.path.getsize(args[0]))
            return None, after
        return None, None

    @contextmanager
    def installed(self):
        try:
            for group, module_name, attr in PATCH_POINTS:
                self._patch(group, module_name, attr)
            yield self
        finally:
            for holder, attr, original in reversed(self._restore):
                setattr(holder, attr, original)
            self._restore.clear()

    def _patch(self, group, module_name, attr):
        module = sys.modules.get(module_name)
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, name, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = self.span(group, original, *self._hooks(group))
        if owner_name:
            holders = [owner]
        else:
            holders = [
                mod for key, mod in list(sys.modules.items())
                if key.startswith("energyformer") and mod is not None
                and getattr(mod, name, None) is original
            ]
        for holder in holders:
            self._restore.append((holder, name, original))
            setattr(holder, name, wrapper)

    # -- summary --------------------------------------------------------------

    def totals(self):
        """Per group: outermost inclusive seconds, calls and FLOPs, counted
        only for spans inside steps, plus self seconds over every span."""
        inclusive = defaultdict(float)
        flops = defaultdict(float)
        calls = Counter()
        self_s = defaultdict(float)
        all_inclusive = defaultdict(float)
        all_calls = Counter()
        for span in self.spans:
            if span is None:
                continue
            group, start, end, parent, own, span_flops = span
            self_s[group] += own
            nested = off_step = False
            p = parent
            while p is not None:
                ancestor = self.spans[p]
                nested |= ancestor[0] == group
                off_step |= ancestor[0] in OFF_STEP
                p = ancestor[3]
            if not nested:
                all_inclusive[group] += end - start
            all_calls[group] += 1
            if off_step:
                continue
            calls[group] += 1
            flops[group] += span_flops
            if not nested:
                inclusive[group] += end - start
        return {
            "inclusive_s": inclusive,
            "calls": calls,
            "flops": flops,
            "self_s": self_s,
            "all_inclusive_s": all_inclusive,
            "all_calls": all_calls,
        }
