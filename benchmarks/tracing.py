"""Per-layer spans for the solve benchmark.

``instrument`` replaces, for the duration of a ``with`` block, every function
that ``pdhgsdp.solver`` imports from the operators, projections and linalg
modules (found by ``__module__``, so renames do not break it), plus the
solver's own ``residuals``, with wrappers that record a span per call.
``instrument_policy`` does the same for a policy instance's iteration hooks.
Both restore the originals on exit. Spans nest: a span's self time is its
duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import time
import types
from collections import defaultdict
from contextlib import contextmanager

LAYER_MODULES = {
    "pdhgsdp.operators": "operators",
    "pdhgsdp.projections": "projections",
    "pdhgsdp.linalg": "linalg",
}
POLICY_HOOKS = ("adjust_mid", "dual_update", "adjust_post")


class Tracer:
    """Call counts, total and self seconds per span name ("layer.function")."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.covered_s = 0.0  # time inside spans that no other span encloses
        self.policy_operator_calls = 0
        self._stack: list[list[float]] = []  # child seconds of each open span
        self._policy_depth = 0  # open policy-hook spans

    def wrap(self, name: str, fn):
        stack = self._stack
        is_operator = name.startswith("operators.")
        is_policy = name.startswith("policy.")

        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            self._policy_depth += is_policy
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self._policy_depth -= is_policy
            if callable(out):
                # a factory such as ``projector``: time the callable it returns
                return self.wrap(name, out)
            self.calls[name] += 1
            self.total_s[name] += dt
            self.self_s[name] += dt - frame[0]
            if stack:
                stack[-1][0] += dt
            else:
                self.covered_s += dt
            if is_operator and self._policy_depth:
                self.policy_operator_calls += 1
            return out

        return timed

    def layer(self, layer: str, table: dict, exclude: str | None = None) -> float:
        """Sum ``table`` over the spans of one layer, optionally skipping the
        spans whose name contains ``exclude``."""
        return sum(
            v for k, v in table.items()
            if k.startswith(layer + ".") and (exclude is None or exclude not in k)
        )


@contextmanager
def instrument(solver: types.ModuleType, tracer: Tracer):
    """Route the solver's layer calls through ``tracer`` inside the block."""
    saved = {
        attr: obj for attr, obj in vars(solver).items()
        if isinstance(obj, types.FunctionType) and obj.__module__ in LAYER_MODULES
    }
    saved["residuals"] = solver.residuals
    try:
        for attr, fn in saved.items():
            layer = LAYER_MODULES.get(fn.__module__, "solver")
            setattr(solver, attr, tracer.wrap(f"{layer}.{attr}", fn))
        yield tracer
    finally:
        for attr, fn in saved.items():
            setattr(solver, attr, fn)


@contextmanager
def instrument_policy(policy, tracer: Tracer):
    """Route a policy instance's iteration hooks through ``tracer``."""
    try:
        for hook in POLICY_HOOKS:
            setattr(policy, hook, tracer.wrap(f"policy.{hook}", getattr(policy, hook)))
        yield policy
    finally:
        for hook in POLICY_HOOKS:
            vars(policy).pop(hook, None)  # the class methods show through again
